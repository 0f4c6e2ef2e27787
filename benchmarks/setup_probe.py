"""One cold set-up of a workload, timed from outside by run.py.

A fresh interpreter imports the package, generates the workload's inputs
from the seed and runs one untimed warm-up op: what every cold CLI call
pays before its first result.

    python3 benchmarks/setup_probe.py --workload long-sequences --seed 1
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    run.import_package()
    workdir = os.path.join(run.WORK_ROOT, f"setup-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed, args.tiny)
        wl.op(wl.warmup_input())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

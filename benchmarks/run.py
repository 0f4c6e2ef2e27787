"""qbackflow benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload reference-runs --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics
(set-up time, throughput, median and tail op latency, success rate, peak
memory); with ``--trace 1`` it reports per-layer figures from a traced
phase, the tracing overhead and a scaling probe.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``benchmarks/README.md`` for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 3

#: Everything the benchmark imports from the package besides the traced
#: entry points; a refactor must keep these importable.
IMPORTED_NAMES = (
    "qbackflow.cli.main",
    "qbackflow.cli.oracle_cross_check",
    "qbackflow.cli.build_state",
    "qbackflow.cli.parse_config",
    "qbackflow.cli.build_trajectories",
    "qbackflow.observables.report",
    "qbackflow.sweep.SweepEngine",
    "qbackflow.sweep.canonical_pulse_area_weights",
    "qbackflow.pulses.real_weights",
)

SCALE_PULSES = (88, 2012, 8012)
SCALE_POINTS = {"n1e4": 10_001, "n1e5": 100_001, "n1e6": 1_000_001}


def import_package() -> None:
    """Import qbackflow from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qbackflow", "__init__.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}; run from "
                         "the root of a qbackflow checkout")
    sys.path.insert(0, SRC)
    import qbackflow
    if not os.path.abspath(qbackflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported {qbackflow.__file__}, "
                         f"not the package under {SRC}")


def resolve_names(names) -> None:
    """Fail early, naming the first qbackflow name that no longer exists."""
    for dotted in names:
        package, module, *path = dotted.split(".")
        owner = importlib.import_module(f"{package}.{module}")
        for part in path:
            owner = getattr(owner, part)


# -- provenance ------------------------------------------------------------

def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count() -> int:
    total = 0
    pkg = os.path.join(SRC, "qbackflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def provenance() -> dict:
    import numpy
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_line_count(),
        "imported_names": sorted(IMPORTED_NAMES),
        "traced_names": list(spans.TRACED_NAMES),
    }


# -- phases -----------------------------------------------------------------

def measure_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Wall time of fresh interpreters that import, generate the inputs
    and run one warm-up op (setup_probe.py)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


class Phase:
    """Closed loop over whole rounds of the workload's inputs."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run(self, wl, seconds: float, tracer=None) -> "Phase":
        start = time.perf_counter()
        while True:
            for i in wl.order:
                self.one(wl, wl.inputs[i], tracer)
            if time.perf_counter() - start >= seconds:
                return self

    def one(self, wl, inp, tracer=None) -> None:
        """Time one op, then check its output outside the timing."""
        # start every op from a clean heap, as a fresh CLI call would, so
        # one op's garbage is not collected in the next
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            try:
                result, exc = wl.op(inp), None
            except Exception as e:
                result, exc = None, e
            self.latencies.append(time.perf_counter() - t0)
        else:
            result, exc = tracer.run_op(wl.op, inp)
            self.latencies.append(tracer.per_op[-1]["op_ms"] / 1e3)
            tracer.per_op[-1]["result"] = result
        if exc is None:
            try:
                wl.check(inp, result)
                return
            except Exception as e:
                exc = e
        self.failures.append(f"{inp.label}: {type(exc).__name__}: {exc}")

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaling_probe(metrics: dict, reps: int) -> None:
    """Cost curves outside the loop: trajectories versus pulse count and
    report versus grid points, each the median of `reps` calls."""
    from qbackflow import cli
    from qbackflow.observables import report

    def med(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    for n in SCALE_PULSES:
        cfg = (W.reference_config(0.75 * math.pi) if n == W.REFERENCE_PULSES
               else W.long_sequence_config(n, W.SHUTTLE_BLOCK, 5e-5,
                                           0.75 * math.pi, 0.0))
        sc = cli.parse_config(cfg)
        metrics[f"scale.kinematics_ms.p{n}"] = med(
            lambda: cli.build_trajectories(sc))
    cfg = W.reference_config(0.75 * math.pi)
    for label, points in SCALE_POINTS.items():
        state = cli.build_state(cfg, grid_points=points).state
        metrics[f"scale.report_ms.{label}"] = med(lambda: report(state))


# -- main -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    resolve_names(IMPORTED_NAMES + spans.TRACED_NAMES)
    setup = measure_setup(workload, seed, tiny)
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = W.WORKLOADS[workload](workdir, seed, tiny)
        checked = wl.preflight()
        warm = Phase()
        warm.one(wl, wl.warmup_input())
        if not trace:
            phase = Phase().run(wl, seconds)
            timed = [phase]
            lat = phase.latencies
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_s": phase.ops_per_s,
                "op_p50_ms": statistics.median(lat) * 1e3,
                "op_tail_ms": percentile(lat, wl.tail_percentile) * 1e3,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            plain = Phase().run(wl, seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = Phase().run(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            timed = [plain, traced]
            results = [f.pop("result") for f in tracer.per_op]
            metrics = spans.median_figures(tracer.per_op)
            metrics["trace.op_ms"] = metrics.pop("op_ms")
            # only oracle ops return a value: their six error figures
            metrics["oracle.max_error"] = max(
                (W.oracle_max_error(r) for r in results if r is not None),
                default=0.0)
            metrics["trace.ops_per_s_untraced"] = plain.ops_per_s
            metrics["trace.ops_per_s_traced"] = traced.ops_per_s
            metrics["trace.overhead_pct"] = 100.0 * (
                plain.ops_per_s / traced.ops_per_s - 1.0)
            scaling_probe(metrics, reps=1 if tiny else 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    failures = [f"{label}: {msg}" for label, msg in checked if msg]
    attempted = len(checked)
    for phase in [warm] + timed:
        failures += phase.failures
        attempted += len(phase.latencies)
    if not trace:
        metrics["success_rate"] = 1.0 - len(failures) / attempted
    return {
        "workload": wl,
        "ops": sum(len(phase.latencies) for phase in timed),
        "setup_runs": setup,
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    import_package()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.tiny)
    wl = out["workload"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": out["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}

    print(f"workload {wl.name}: {out['ops']} timed ops over "
          f"{len(wl.inputs)} inputs per round, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"op_tail_ms is p{wl.tail_percentile:g}; set-up runs "
          + ", ".join(f"{t:.3f}" for t in out["setup_runs"]) + " s")
    for failure in out["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance()))
    print(json.dumps({"correct": not out["failures"],
                      "attempted": out["attempted"],
                      "failed": len(out["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Map how the backflow rate depends on how the state is split.

Two one-dimensional families are swept on the reference encounter:

* pulse area A in [0, 4 pi] with the canonical weights
  (|cos(A/2)|, -i |sin(A/2)|) — the rate vanishes identically wherever
  the slower arm is not the majority component (A in [0, pi/2] and the
  mirrored regions), is symmetric about A = pi, and shows exactly one
  peak per half-period;

* a real ground-arm weight c_b in [0, 1] with c_f = sqrt(1 - c_b^2) —
  the rate vanishes at both pure-arm endpoints and everywhere
  c_b > 1/sqrt(2), and peaks near c_b ~ 0.37.

Each sweep ends with a golden-section refinement around the best grid
sample.  CSV tables land in the output directory for plotting.

    python3 demos/weight_sweeps.py [out_dir]
"""

import math
import os
import sys

from qbackflow.cli import build_state
from qbackflow.config import SweepSpec
from qbackflow.presets import preset_config
from qbackflow.sweep import SweepEngine

OUT = sys.argv[1] if len(sys.argv) > 1 else "demo-out"
os.makedirs(OUT, exist_ok=True)

ctx = build_state(preset_config("paper-fig8a"))
engine = SweepEngine(ctx.state)

area = engine.sweep_pulse_area(
    SweepSpec("pulse_area", 0.0, 4.0 * math.pi, 401))
area.to_csv(os.path.join(OUT, "sweep_pulse_area.csv"))
print("pulse-area sweep:")
print(f"  grid best     : rate {area.max_backflow_rate:.3e} m/s "
      f"at A = {area.argmax_value / math.pi:.4f} pi")
print(f"  refined best  : rate {area.refined_max_backflow_rate:.3e} m/s "
      f"at A = {area.refined_argmax_value / math.pi:.4f} pi")
zero = int((area.rates == 0.0).sum())
print(f"  {zero} of {len(area.rates)} samples are exactly zero")

real = engine.sweep_real_weights(SweepSpec("real_cb", 0.0, 1.0, 201))
real.to_csv(os.path.join(OUT, "sweep_real_cb.csv"))
print("real-weight sweep:")
print(f"  grid best     : rate {real.max_backflow_rate:.3e} m/s "
      f"at c_b = {real.argmax_value:.4f}")
print(f"  refined best  : rate {real.refined_max_backflow_rate:.3e} m/s "
      f"at c_b = {real.refined_argmax_value:.4f}")
print(f"tables written to {OUT}/")

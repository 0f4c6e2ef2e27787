"""Lengthen the pulse sequence and keep the 12-recoil velocity difference.

Large-momentum-transfer sequences run to hundreds or thousands of
pulses.  Here the reference scenario's two pulse arrays (12 recoils
net) are preceded by zero-net shuttle blocks: 12 pulses kicking the arm
down, then 12 kicking it back up, 0.45 us apart, with laser phases
that change from block to block.  Each block returns the arm to its
velocity, so the arms still meet 12 recoils apart, while the pulsed
arm's phase ledgers sum thousands more segment terms.  The arm ends
each block a little behind where it would have been, so the encounter
comes later (about 0.22 ms per 1,000 shuttle pulses) and the condensate
has expanded further, which changes the backflow rate.

For 88 (the reference sequence alone), 2,012 and 8,012 pulses the
script prints the encounter time T_f, the arms' velocity difference in
recoils and the backflow rate of the 0.6 pi preset's weights.

    python3 demos/long_sequences.py
"""

import math

from qbackflow.cli import build_state
from qbackflow.observables import report
from qbackflow.presets import reference_config

BLOCK = 12                 # pulses per shuttle half-block
INTERVAL_S = 4.5e-7        # shuttle pulse spacing
START_S = 5e-5             # first shuttle pulse


def shuttle_config(n_shuttle: int) -> dict:
    """The 0.6 pi reference config behind n_shuttle (even) zero-net
    shuttle pulses."""
    cfg = reference_config(0.6 * math.pi)
    arrays, t, left = [], START_S, n_shuttle // 2
    while left:
        count = min(BLOCK, left)
        for sign in (-1, 1):
            arrays.append({"count": count, "start_s": t,
                           "interval_s": INTERVAL_S, "sign": sign,
                           "laser_phase_rad": 0.37 * (len(arrays) % 17)})
            t += count * INTERVAL_S
        left -= count
    cfg["pulse_arrays"] = arrays + cfg["pulse_arrays"]
    return cfg


print(f"{'pulses':>7}  {'T_f (ms)':>16}  {'dv (recoils)':>14}  "
      f"{'backflow rate (m/s)':>20}")
for n_shuttle in (0, 1924, 7924):
    ctx = build_state(shuttle_config(n_shuttle))
    t_f = ctx.encounter_time
    v_r = ctx.scenario.transition.recoil_velocity_for(
        ctx.scenario.params.mass)
    dv = ctx.pulsed_arm.velocity(t_f) - ctx.free_arm.velocity(t_f)
    rate = report(ctx.state).backflow_rate
    print(f"{ctx.pulsed_arm.kick_count:>7}  {t_f * 1e3:>16.12f}  "
          f"{dv / v_r:>14.10f}  {rate:>20.6e}")

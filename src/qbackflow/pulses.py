"""Arm weights of the two interferometer arms.

A resonant pulse of area A = |Omega| tau acts on the (ground, excited)
amplitude pair as the unitary

    [[ cos(A/2),            -i sin(A/2) e^{i(r - phi_L)} ],
     [ -i sin(A/2) e^{-i(r - phi_L)},  cos(A/2)          ]]

with r the phase of the complex Rabi frequency and phi_L the laser
phase.  On a ground-state condensate (1, 0) with a real Rabi frequency
(r = 0) its first column gives the splitting weights in closed form,

    c_b = cos(A/2),        c_f = -i sin(A/2) e^{i phi_L},

the single-pulse rule of Palmero et al., PRA 87, 053618 (2013).

Weight convention for the interferometer arms
---------------------------------------------
The combined encounter state is Psi = c_f Psi_f + c_b Psi_b: c_b, the
ground-exit amplitude, multiplies the momentum-transferred (LMT) arm and
c_f, the excited-exit amplitude, the freely falling arm.  With this
assignment a pi splitting pulse gives c_b = 0 (single-wavepacket limit,
zero backflow) and areas in [0, pi/2] give |c_f| < |c_b|, where the
critical density is negative and backflow is impossible; both match the
swept backflow-rate structure.  A weight rule maps a sweep's array of
values to one :class:`ArmAmplitudes` of arrays, a weight pair per
element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_PULSE_AREA, DomainError


@dataclass(frozen=True)
class ArmAmplitudes:
    """Complex weights c_b (LMT arm, ground exit) and c_f (free arm,
    excited exit) of the two interferometer arms.  Either may be an array
    of one shape, a pair per element, as the fields of
    :class:`~qbackflow.phaseacc.DoubleDouble` may."""

    c_b: complex | np.ndarray
    c_f: complex | np.ndarray

    def __post_init__(self):
        n = np.abs(self.c_b) ** 2 + np.abs(self.c_f) ** 2
        off = np.abs(n - 1.0) > 1e-12
        if off.any():
            raise DomainError("arm amplitudes must be normalized, "
                              f"|c|^2 = {np.ravel(n)[np.argmax(off)]}")


def splitting_weights(pulse_area: float,
                      laser_phase: float = 0.0) -> ArmAmplitudes:
    """Arm weights created by a splitting pulse of area `pulse_area` and
    laser phase `laser_phase` on a ground-state condensate."""
    if not 0.0 <= pulse_area <= MAX_PULSE_AREA:
        raise DomainError("pulse_area must lie in [0, 4 pi]")
    half = 0.5 * pulse_area
    # At zero area the product leaves -0.0 parts in c_f; adding 0j makes
    # them +0.0, as the unitary above applied to (1, 0) gives, so
    # report.json writes 0.0.
    return ArmAmplitudes(
        complex(math.cos(half)),
        -1j * math.sin(half) * cmath.exp(1j * laser_phase) + 0j)


def real_weights(c_b: float | np.ndarray) -> ArmAmplitudes:
    """Directly injected real weights with c_f = +sqrt(1 - c_b^2), one
    pair per element of an array c_b."""
    c_b = np.float64(c_b)  # a scalar stays a scalar, an array an array
    if not np.all((0.0 <= c_b) & (c_b <= 1.0)):
        raise DomainError("real c_b must lie in [0, 1]")
    return ArmAmplitudes(c_b, np.sqrt(1.0 - c_b * c_b))

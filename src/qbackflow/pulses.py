"""Two-level pulse algebra: transition matrices and arm weights.

A resonant pulse of area |Omega| tau acts on the (ground, excited)
amplitude pair as the unitary

    [[ cos(A/2),            -i sin(A/2) e^{i(r - phi_L)} ],
     [ -i sin(A/2) e^{-i(r - phi_L)},  cos(A/2)          ]]

with A the pulse area, r the phase of the complex Rabi frequency and
phi_L the laser phase.  A pi pulse swaps the populations completely.

Weight convention for the interferometer arms
---------------------------------------------
For a ground-state condensate entering a splitting pulse of area A, the
combined encounter state is Psi = c_f Psi_f + c_b Psi_b with

    c_b = cos(A/2),        c_f = -i sin(A/2).

c_b multiplies the momentum-transferred (LMT) arm and c_f the freely
falling arm.  With this assignment a pi splitting pulse gives c_b = 0
(single-wavepacket limit, zero backflow) and areas in [0, pi/2] give
|c_f| < |c_b|, where the critical density is negative and backflow is
impossible; both match the swept backflow-rate structure.  Note the
trig roles: c_b is the matrix's ground-exit amplitude and c_f the
excited-exit amplitude.  A weight rule maps a sweep's array of values to
one :class:`ArmAmplitudes` of arrays, a weight pair per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError


@dataclass(frozen=True)
class PulseSpec:
    """One timed laser pulse."""

    time: float                 # s
    pulse_area: float           # rad, |Omega| tau
    laser_phase: float = 0.0    # rad
    wavevector_sign: int = +1   # +1 or -1
    rabi_phase_arg: float = 0.0  # rad, phase of complex Omega

    def __post_init__(self):
        if not 0.0 <= self.pulse_area <= 4.0 * math.pi:
            raise DomainError("pulse_area must lie in [0, 4 pi]")
        if self.wavevector_sign not in (+1, -1):
            raise DomainError("wavevector_sign must be +1 or -1")


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


def transition_matrix(pulse_area: float, rabi_phase_arg: float = 0.0,
                      laser_phase: float = 0.0) -> np.ndarray:
    """Unitary acting on (c_b, c_f), the (ground, excited) amplitudes,
    for one resonant pulse."""
    lam_c = math.cos(0.5 * pulse_area)
    lam_s = np.exp(1j * rabi_phase_arg) * math.sin(0.5 * pulse_area)
    phase = np.exp(-1j * laser_phase)
    return np.array(
        [[lam_c, -1j * lam_s * phase],
         [-1j * np.conj(lam_s) * np.conj(phase), lam_c]],
        dtype=complex,
    )


def split(amplitudes: ArmAmplitudes, pulse: PulseSpec) -> ArmAmplitudes:
    """Apply one pulse to an amplitude pair."""
    m = transition_matrix(pulse.pulse_area, pulse.rabi_phase_arg, pulse.laser_phase)
    vec = m @ np.array([amplitudes.c_b, amplitudes.c_f])
    return ArmAmplitudes(complex(vec[0]), complex(vec[1]))


def splitting_weights(pulse: PulseSpec) -> ArmAmplitudes:
    """Arm weights created by a splitting pulse on a ground-state condensate."""
    return split(ArmAmplitudes(1.0 + 0.0j, 0.0j), pulse)


def real_weights(c_b: float | np.ndarray) -> ArmAmplitudes:
    """Directly injected real weights with c_f = +sqrt(1 - c_b^2), one
    pair per element of an array c_b."""
    c_b = np.float64(c_b)  # a scalar stays a scalar, an array an array
    if not np.all((0.0 <= c_b) & (c_b <= 1.0)):
        raise DomainError("real c_b must lie in [0, 1]")
    return ArmAmplitudes(c_b, np.sqrt(1.0 - c_b * c_b))

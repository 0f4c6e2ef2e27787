import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbackflow.model import DomainError
from qbackflow.pulses import (
    ArmAmplitudes,
    PulseSpec,
    real_weights,
    split,
    splitting_weights,
    transition_matrix,
)

angle = st.floats(0.0, 2.0 * math.pi)


@given(st.floats(0.0, 4.0 * math.pi), angle, angle)
def test_transition_matrix_unitary(area, rabi, laser):
    m = transition_matrix(area, rabi, laser)
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-12


def test_pi_pulse_matrix_exact():
    # A pi pulse fully swaps the populations: the diagonal is cos(pi/2)
    # (zero to one rounding of pi/2) and the off-diagonal magnitudes are
    # sin(pi/2) = 1 exactly.
    for rabi, laser in [(0.0, 0.0), (0.3, 1.1), (2.0, 5.0)]:
        m = transition_matrix(math.pi, rabi, laser)
        assert abs(m[0, 0]) <= 1e-16
        assert abs(m[1, 1]) <= 1e-16
        expected01 = -1j * cmath.exp(1j * (rabi - laser))
        expected10 = -1j * cmath.exp(-1j * (rabi - laser))
        assert m[0, 1] == pytest.approx(expected01, abs=1e-15)
        assert m[1, 0] == pytest.approx(expected10, abs=1e-15)
        assert abs(m[0, 1]) == 1.0
        assert abs(m[1, 0]) == 1.0


def test_identity_at_zero_area():
    m = transition_matrix(0.0, 0.7, 1.9)
    assert np.array_equal(m, np.eye(2, dtype=complex))


@given(st.floats(0.0, 4.0 * math.pi), angle)
def test_splitting_weights_roles(area, laser):
    w = splitting_weights(PulseSpec(time=0.0, pulse_area=area,
                                    laser_phase=laser))
    # ground exit = c_b = cos(A/2); excited exit = c_f = -i e^{i phi_L} sin(A/2)
    assert w.c_b == pytest.approx(math.cos(0.5 * area), abs=1e-15)
    assert w.c_f == pytest.approx(
        -1j * cmath.exp(1j * laser) * math.sin(0.5 * area), abs=1e-14)
    assert abs(w.c_b) ** 2 + abs(w.c_f) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_split_composition_matches_matrix_product():
    a = PulseSpec(time=0.0, pulse_area=0.9, laser_phase=0.4)
    b = PulseSpec(time=1.0, pulse_area=2.1, laser_phase=1.7, rabi_phase_arg=0.2)
    w = split(split(ArmAmplitudes(1.0 + 0j, 0j), a), b)
    mb = transition_matrix(b.pulse_area, b.rabi_phase_arg, b.laser_phase)
    ma = transition_matrix(a.pulse_area, a.rabi_phase_arg, a.laser_phase)
    vec = mb @ ma @ np.array([1.0 + 0j, 0j])
    assert w.c_b == pytest.approx(vec[0], abs=1e-14)
    assert w.c_f == pytest.approx(vec[1], abs=1e-14)


def test_real_weights():
    w = real_weights(0.6)
    assert w.c_b == 0.6 + 0j
    assert w.c_f == pytest.approx(0.8, rel=1e-15)
    assert real_weights(0.0).c_b == 0.0
    assert real_weights(1.0).c_f == 0.0
    with pytest.raises(DomainError):
        real_weights(1.2)
    with pytest.raises(DomainError):
        real_weights(-0.1)


def test_amplitude_normalization_enforced():
    with pytest.raises(DomainError):
        ArmAmplitudes(1.0 + 0j, 0.5 + 0j)
    # a batch is refused at its first unnormalized pair, by that |c|^2
    with pytest.raises(DomainError, match=r"\|c\|\^2 = 1\.25$"):
        ArmAmplitudes(np.array([0.6, 0.5, 1.0, 0.5]),
                      np.array([0.8, 1.0, 0.0, 0.0]))


def test_pulse_spec_validation():
    with pytest.raises(DomainError):
        PulseSpec(time=0.0, pulse_area=-0.1)
    with pytest.raises(DomainError):
        PulseSpec(time=0.0, pulse_area=4.0 * math.pi + 0.1)
    with pytest.raises(DomainError):
        PulseSpec(time=0.0, pulse_area=1.0, wavevector_sign=2)

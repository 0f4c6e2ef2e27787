import math

import pytest
from hypothesis import given, strategies as st

from qbackflow.model import (
    ATOMIC_MASS_UNIT,
    HBAR,
    SPEED_OF_LIGHT,
    CondensateParams,
    DomainError,
    TransitionParams,
    derive_oscillator_length,
    expansion,
    sr88_params,
)


def test_constants_frozen():
    assert HBAR == 1.054571817e-34
    assert ATOMIC_MASS_UNIT == 1.66053906660e-27
    assert SPEED_OF_LIGHT == 299792458.0


def test_oscillator_length_reference_value():
    # sqrt(hbar / (m omega)) for 88 u in a 2 pi x 70 rad/s trap.
    a = derive_oscillator_length(88.0 * ATOMIC_MASS_UNIT, 2.0 * math.pi * 70.0)
    assert a == pytest.approx(1.2809531364439223e-06, rel=1e-12)


def test_oscillator_length_domain():
    with pytest.raises(DomainError):
        derive_oscillator_length(0.0, 1.0)
    with pytest.raises(DomainError):
        derive_oscillator_length(1.0, -2.0)
    # m omega underflows to 0, or overflows so that the length is 0
    with pytest.raises(DomainError, match="oscillator length"):
        derive_oscillator_length(1.46e-25, 1e-300)
    with pytest.raises(DomainError, match="oscillator length"):
        derive_oscillator_length(1e300, 1e300)


def test_expansion_rate_limits():
    assert expansion(0.0, 440.0) == (1.0, 0.0)
    # late-time asymptote: b -> omega t, db/dt -> omega
    omega = 2.0 * math.pi * 70.0
    t = 10.0
    b, bdot = expansion(t, omega)
    assert b == pytest.approx(omega * t, rel=1e-6)
    assert bdot == pytest.approx(omega, rel=1e-6)
    with pytest.raises(DomainError):
        expansion(-1e-9, omega)
    with pytest.raises(DomainError, match="b\\(t\\) overflows"):
        expansion(1e-3, 1e300)
    # omega t is small, but omega^2 overflows
    with pytest.raises(DomainError, match="db/dt overflows"):
        expansion(1e-170, 1e160)


@given(st.floats(1e-6, 1e3), st.floats(1.0, 1e4))
def test_expansion_rate_consistency(t, omega):
    # (b^2)' = 2 omega^2 t exactly, so b * bdot == omega^2 t.
    b, bdot = expansion(t, omega)
    assert b * bdot == pytest.approx(omega * omega * t, rel=1e-12)
    assert b >= 1.0


def test_condensate_params_derives_length():
    p = CondensateParams(mass=1e-25, trap_frequency=500.0, launch_velocity=0.1)
    assert p.oscillator_length == derive_oscillator_length(1e-25, 500.0)


def test_transition_wavevector_and_recoil():
    tr = TransitionParams(wavelength=689e-9)
    assert tr.wavevector_magnitude == pytest.approx(2.0 * math.pi / 689e-9)
    m = 88.0 * ATOMIC_MASS_UNIT
    assert tr.recoil_velocity_for(m) == pytest.approx(
        6.581199221248609e-3, rel=1e-12)


def test_transition_default_excited_energy_is_photon():
    tr = TransitionParams(wavelength=1e-6)
    photon = HBAR * 2.0 * math.pi * SPEED_OF_LIGHT / 1e-6
    assert tr.excited_energy == pytest.approx(photon, rel=1e-15)
    assert tr.energy(+1) == 0.0
    assert tr.energy(-1) == tr.excited_energy
    with pytest.raises(DomainError):
        tr.energy(0)


def test_transition_validation():
    with pytest.raises(DomainError):
        TransitionParams(wavelength=0.0)


def test_sr88_presets():
    p = sr88_params()
    assert p.mass == 88.0 * ATOMIC_MASS_UNIT
    assert p.launch_velocity == 0.2

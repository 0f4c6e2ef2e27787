"""Shared fixtures: the expensive encounter states are built once per
session.  The two-level pulse matrix is the reference for the closed-form
splitting weights, the moments of a sampled field check the propagator,
and finite differences and the FFT spectrum of a sampled field check the
closed-form flux and momentum spectrum."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qbackflow.cli import build_state
from qbackflow.config import SCHEMA, SweepSpec
from qbackflow.model import HBAR, DomainError, expansion
from qbackflow.observables import flux_column_ranges
from qbackflow.oracle import ALIAS_WEIGHT_LIMIT
from qbackflow.presets import preset_config, reduced_scale_config, reference_config
from qbackflow.pulses import ArmAmplitudes
from qbackflow.wavefield import (Grid, WaveField, combined_from_state,
                                 encounter_state)

_phase = st.floats(0.0, 2.0 * math.pi)

#: Normalized complex arm weights with any moduli and phases.
arm_weights = st.builds(
    lambda cb, a, b: ArmAmplitudes(
        cb * cmath.exp(1j * a),
        math.sqrt(1.0 - cb * cb) * cmath.exp(1j * b)),
    st.floats(0.0, 1.0), _phase, _phase)


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


def stack_weights(weights) -> ArmAmplitudes:
    """One array-valued ArmAmplitudes holding a sequence of weight pairs."""
    return ArmAmplitudes(np.array([w.c_b for w in weights], dtype=complex),
                         np.array([w.c_f for w in weights], dtype=complex))


def kept_rows(kernel, coefficients) -> np.ndarray:
    """Mask of the coefficient rows whose flux flux_column_ranges finds
    can be negative."""
    kept = np.zeros(len(coefficients), dtype=bool)
    kept[flux_column_ranges(kernel, coefficients)[0]] = True
    return kept


def flux_finite_difference(field: WaveField, mass: float) -> np.ndarray:
    """(hbar/m) Im(Psi* dPsi/dx) by 4th-order central differences.

    The two points at each edge, where the stencil does not fit, are NaN.
    """
    psi = field.amplitudes
    h = field.grid.spacing
    out = np.full(len(psi), np.nan)
    d = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * h)
    out[2:-2] = (HBAR / mass) * np.imag(np.conj(psi[2:-2]) * d)
    return out


def momentum_spectrum_fft(fld: WaveField) -> tuple[np.ndarray, np.ndarray]:
    """(ascending wavenumbers, |<k|Psi>|^2 normalized to unit integral):
    the numerical reference for the closed-form momentum spectrum.

    Raises on a field whose norm is off by more than 1e-3 and on
    aliasing: more than ALIAS_WEIGHT_LIMIT within 2% of the Nyquist
    wavenumber.
    """
    n = fld.grid.n_points
    if abs(fld.norm() - 1.0) > 1e-3:
        raise DomainError(f"field norm {fld.norm()} is not 1")
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=fld.grid.spacing))
    density = np.abs(np.fft.fftshift(np.fft.fft(fld.amplitudes))) ** 2
    dk = k[1] - k[0]
    density /= density.sum() * dk
    guard = max(2, int(0.02 * n))
    edge = float((density[:guard].sum() + density[-guard:].sum()) * dk)
    if edge > ALIAS_WEIGHT_LIMIT:
        raise DomainError(
            f"aliasing: spectral weight {edge:.3e} within 2% of the Nyquist "
            f"wavenumber {k[-1]:.3e} 1/m; refine the grid spacing")
    return k, density


def position_expectation(fld) -> float:
    d = np.abs(fld.amplitudes) ** 2
    return float(np.sum(fld.grid.positions() * d) / np.sum(d))


def position_spread(fld) -> float:
    d = np.abs(fld.amplitudes) ** 2
    x = fld.grid.positions()
    mean = float(np.sum(x * d) / np.sum(d))
    return math.sqrt(float(np.sum((x - mean) ** 2 * d) / np.sum(d)))


def momentum_expectation(fld) -> float:
    k, spec = momentum_spectrum_fft(fld)
    return float(HBAR * np.sum(k * spec) * (k[1] - k[0]))


def energy_expectation(fld, config) -> float:
    """<H> for a PropagatorConfig's Hamiltonian (drift checks)."""
    k, spec = momentum_spectrum_fft(fld)
    kinetic = (HBAR ** 2 / (2.0 * config.mass)
               * np.sum(k * k * spec) * (k[1] - k[0]))
    pot = config.mass * config.gravity * position_expectation(fld)
    return float(kinetic + pot)


@pytest.fixture(scope="session")
def reduced_ctx():
    """Reduced-scale pipeline context (fast; shared read-only)."""
    return build_state(reduced_scale_config())


@pytest.fixture(scope="session")
def ref_ctx_06():
    return build_state(preset_config("paper-0.6pi"))


@pytest.fixture(scope="session")
def ref_ctx_075():
    return build_state(preset_config("paper-0.75pi"))


@pytest.fixture(scope="session")
def sweep_ctx():
    """Reference encounter state at the sweep presets' grid resolution."""
    return build_state(preset_config("paper-fig8a"))


@pytest.fixture(scope="session")
def sweep_engine(sweep_ctx):
    from qbackflow.sweep import SweepEngine
    return SweepEngine(sweep_ctx.state)


@pytest.fixture(scope="session")
def fig8a_result(sweep_engine):
    return sweep_engine.sweep_pulse_area(
        SweepSpec("pulse_area", 0.0, 4.0 * math.pi, 401))


@pytest.fixture(scope="session")
def fig8b_result(sweep_engine):
    return sweep_engine.sweep_real_weights(SweepSpec("real_cb", 0.0, 1.0, 201))


def spectrum_safe_grid(ctx, half_width_factor: float) -> Grid:
    """x-grid about the encounter whose Nyquist wavenumber is 1.5 times
    the largest local wavenumber within half_width_factor envelopes."""
    sc = ctx.scenario
    t_f = ctx.encounter_time
    b, bdot = expansion(t_f, sc.params.trap_frequency)
    sigma = sc.params.oscillator_length * b
    m_over_h = sc.params.mass / HBAR
    k_need = (m_over_h * max(abs(ctx.free_arm.velocity(t_f)),
                             abs(ctx.pulsed_arm.velocity(t_f)))
              + 8.0 / sigma + m_over_h * (bdot / b) * half_width_factor * sigma)
    samples = math.ceil(1.5 * k_need * sigma / math.pi)
    envelope_samples = max(SCHEMA["grid.envelope_samples"].default, samples)
    return Grid.auto(ctx.grid.center, sigma, half_width_factor=half_width_factor,
                     envelope_samples=envelope_samples)


@pytest.fixture(scope="session")
def fft_spectrum():
    """FFT of a context's encounter state on a spectrum-safe grid: the
    numerical reference for the closed-form momentum spectrum."""
    def spectrum(ctx, half_width_factor: float = 12.0):
        state = encounter_state(
            spectrum_safe_grid(ctx, half_width_factor), ctx.free_arm,
            ctx.pulsed_arm, ctx.encounter_time, ctx.weights)
        return momentum_spectrum_fft(combined_from_state(state))
    return spectrum

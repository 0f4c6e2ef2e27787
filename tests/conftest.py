"""Shared fixtures: the expensive encounter states are built once per session."""

from __future__ import annotations

import math

import pytest

from qbackflow.cli import build_state
from qbackflow.model import expansion_rate, expansion_rate_derivative
from qbackflow.oracle import momentum_spectrum_fft
from qbackflow.presets import preset_config, reduced_scale_config, reference_config
from qbackflow.wavefield import (
    ENVELOPE_SAMPLES,
    Grid,
    combined_from_state,
    encounter_state,
)


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
    from qbackflow.sweep import SweepSpec
    return sweep_engine.sweep_pulse_area(
        SweepSpec("pulse_area", 0.0, 4.0 * math.pi, 401))


@pytest.fixture(scope="session")
def fig8b_result(sweep_engine):
    from qbackflow.sweep import SweepSpec
    return sweep_engine.sweep_real_weights(SweepSpec("real_cb", 0.0, 1.0, 201))


def spectrum_safe_grid(ctx, half_width_factor: float) -> Grid:
    """x-grid about the encounter whose Nyquist wavenumber is 1.5 times
    the largest local wavenumber within half_width_factor envelopes."""
    sc = ctx.scenario
    t_f = ctx.encounter_time
    b = expansion_rate(t_f, sc.params.trap_frequency)
    bdot = expansion_rate_derivative(t_f, sc.params.trap_frequency)
    sigma = sc.params.oscillator_length * b
    m_over_h = sc.params.mass / sc.env.hbar
    k_need = (m_over_h * max(abs(ctx.free_arm.velocity(t_f)),
                             abs(ctx.pulsed_arm.velocity(t_f)))
              + 8.0 / sigma + m_over_h * (bdot / b) * half_width_factor * sigma)
    samples = math.ceil(1.5 * k_need * sigma / math.pi)
    return Grid.auto(ctx.grid.center, sigma, half_width_factor=half_width_factor,
                     envelope_samples=max(ENVELOPE_SAMPLES, samples))


@pytest.fixture(scope="session")
def fft_spectrum():
    """FFT of a context's encounter state on a spectrum-safe grid: the
    numerical reference for the closed-form momentum spectrum."""
    def spectrum(ctx, half_width_factor: float = 12.0):
        sc = ctx.scenario
        state = encounter_state(
            spectrum_safe_grid(ctx, half_width_factor), ctx.free_arm,
            ctx.pulsed_arm, ctx.encounter_time, ctx.weights, sc.params,
            sc.env, sc.transition)
        return momentum_spectrum_fft(combined_from_state(state))
    return spectrum

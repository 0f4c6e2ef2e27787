import math
from dataclasses import replace

import numpy as np
import pytest

from qbackflow.model import DomainError, sr88_params
from qbackflow.observables import (
    BackflowReport,
    backflow_rate,
    classical_backflow_check,
    flux_finite_difference,
    momentum_spectrum,
    report,
)
from qbackflow.pulses import ArmAmplitudes, real_weights
from qbackflow.wavefield import Grid, WaveField, combined_from_state


def test_flux_identity_on_reduced_state():
    # Analytic flux equals (hbar/m) Im(Psi* dPsi/dx) of the evaluated
    # field.  The stencil's truncation error scales as (k dx)^4, so the
    # identity is checked on a finer grid than the preset default.
    from qbackflow.cli import build_state
    from qbackflow.presets import reduced_scale_config
    state = build_state(reduced_scale_config(), grid_points=16385).state
    analytic = report(state).flux_profile
    field = combined_from_state(state)
    fd = flux_finite_difference(field, state.mass, state.hbar)
    inner = slice(2, -2)
    scale = float(np.max(np.abs(analytic)))
    assert float(np.max(np.abs(fd[inner] - analytic[inner]))) <= 1e-6 * scale


def test_density_is_flux_weight(reduced_ctx):
    state = reduced_ctx.state
    d = report(state).density_profile
    assert np.all(d >= 0.0)
    field = combined_from_state(state)
    assert float(np.max(np.abs(d - field.density()))) <= 1e-12 * float(d.max())


def test_critical_density_sign_rule(reduced_ctx):
    # rho_crit carries the sign of |c_f|^2 - |c_b|^2 wherever
    # q + 2 grad(theta) > 0 (true across the reduced state's support).
    state = reduced_ctx.state
    denom = state.q + 2.0 * state.theta_gradient_profile
    assert np.all(denom > 0.0)
    strong_free = report(state, real_weights(0.3)).critical_density_profile
    weak_free = report(state, real_weights(0.9)).critical_density_profile
    assert np.all(strong_free >= 0.0)
    assert np.all(weak_free <= 0.0)
    balanced = report(state,
                      real_weights(math.sqrt(0.5))).critical_density_profile
    assert float(np.max(np.abs(balanced))) <= 1e-15 * float(
        (state.R_profile ** 2).max())


def test_backflow_requires_interference(ref_ctx_06):
    # c_f * c_b = 0 leaves a single travelling packet: flux is positive
    # everywhere and the backflow rate is exactly zero.
    state = ref_ctx_06.state
    for w in (real_weights(0.0), real_weights(1.0)):
        flux = report(state, w).flux_profile
        assert np.all(flux > 0.0)
        assert backflow_rate(flux, state.grid) == 0.0


def test_backflow_rate_trapezoid():
    g = Grid(center=0.0, half_width=2.0, n_points=5)
    flux = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    # negative part: [0, 1, 1, 0, 0] -> trapezoid = 0.5 + 1 + 0.5 = 2 * dx
    assert backflow_rate(flux, g) == pytest.approx(2.0 * g.spacing)


def test_flux_finite_difference_plane_wave():
    # For psi = e^{ikx} the flux is hbar k / m everywhere (edges NaN).
    n, L = 4097, 1.0
    g = Grid(center=0.0, half_width=L, n_points=n)
    k = 40.0 * math.pi / L
    psi = np.exp(1j * k * g.positions()) / math.sqrt(2.0 * L)
    fd = flux_finite_difference(WaveField(g, psi, 0.0), mass=2.0, hbar=3.0)
    assert np.isnan(fd[0]) and np.isnan(fd[-1])
    expected = 3.0 * k / 2.0 * (1.0 / (2.0 * L))
    inner = fd[2:-2]
    assert float(np.max(np.abs(inner - expected))) <= 1e-6 * abs(expected)


def test_momentum_spectrum_gaussian():
    from qbackflow.oracle import gaussian_packet, momentum_spectrum_fft
    g = Grid(center=0.0, half_width=5e-5, n_points=8193)
    width, v, m, hbar = 1e-6, 5e-3, 1.46e-25, 1.054571817e-34
    f = gaussian_packet(g, width, velocity=v, mass=m, hbar=hbar)
    k, density = momentum_spectrum_fft(f)
    dk = k[1] - k[0]
    assert float(density.sum() * dk) == pytest.approx(1.0, abs=1e-9)
    k0 = m * v / hbar
    assert abs(k[int(np.argmax(density))] - k0) <= dk
    # k0 * width = 6.9 standard deviations: negative weight is negligible
    assert float(density[k < 0.0].sum() * dk) < 1e-6


def test_momentum_spectrum_rejects_unnormalized():
    from qbackflow.oracle import momentum_spectrum_fft
    g = Grid(center=0.0, half_width=1.0, n_points=129)
    f = WaveField(g, np.full(129, 10.0 + 0j), 0.0)
    with pytest.raises(DomainError):
        momentum_spectrum_fft(f)


def test_momentum_spectrum_aliasing_guard():
    # A plane wave at the Nyquist edge must be rejected, not folded.
    from qbackflow.oracle import momentum_spectrum_fft
    g = Grid(center=0.0, half_width=1.0, n_points=257)
    k_nyq = math.pi / g.spacing
    psi = np.exp(1j * 0.99 * k_nyq * g.positions()) / math.sqrt(
        g.n_points * g.spacing)
    with pytest.raises(DomainError, match="aliasing"):
        momentum_spectrum_fft(WaveField(g, psi, 0.0))


SPECTRUM_CASES = ("paper-0.6pi", "paper-0.75pi", "paper-fig8a",
                  "paper-fig8b", "reduced")


def _spectrum_ctx(name):
    from qbackflow.cli import build_state
    from qbackflow.presets import preset_config, reduced_scale_config
    return build_state(reduced_scale_config() if name == "reduced"
                       else preset_config(name))


@pytest.mark.parametrize("name", SPECTRUM_CASES)
def test_closed_form_spectrum_matches_fft(name, fft_spectrum):
    from qbackflow.cli import spectrum_state
    ctx = _spectrum_ctx(name)
    ms = spectrum_state(ctx)
    density = momentum_spectrum(ms)
    peak = float(density.max())
    k, fft_density = fft_spectrum(ctx)
    # An odd-length FFT axis is a grid symmetric about k = 0.
    on_bins = momentum_spectrum(replace(ms, grid=Grid(0.0, float(k[-1]),
                                                      len(k))))
    assert float(np.max(np.abs(on_bins - fft_density))) <= 1e-9 * peak

    # The window holds the whole spectrum: it integrates to the weights'
    # norm and peaks within one sample of each arm wavenumber.
    w = ms.weights
    dk = ms.grid.spacing
    assert float(density.sum() * dk) == pytest.approx(
        abs(w.c_f) ** 2 + abs(w.c_b) ** 2, abs=1e-9)
    d = density
    inner = np.flatnonzero((d[1:-1] > d[:-2]) & (d[1:-1] >= d[2:])
                           & (d[1:-1] > 1e-3 * peak)) + 1
    assert len(inner) == 2
    assert np.all(np.abs(ms.grid.positions()[inner]
                         - [ms.k_f, ms.k_f + ms.q]) <= dk)


@pytest.mark.parametrize("name", SPECTRUM_CASES)
def test_closed_form_negative_weight(name):
    from qbackflow.cli import spectrum_state
    ms = spectrum_state(_spectrum_ctx(name))
    w, a = ms.weights, ms.oscillator_length
    erfc_sum = 0.5 * (abs(w.c_f) ** 2 * math.erfc(a * ms.k_f)
                      + abs(w.c_b) ** 2 * math.erfc(a * (ms.k_f + ms.q)))
    assert ms.negative_weight == pytest.approx(erfc_sum, rel=1e-15)
    # Independently: the density integrated over 4 / a_x below k = 0.
    below = Grid(-2.0 / a, 2.0 / a, 4001)
    d = momentum_spectrum(replace(ms, grid=below))
    integral = below.spacing * (d.sum() - 0.5 * (d[0] + d[-1]))
    assert integral == pytest.approx(ms.negative_weight, rel=1e-6)
    # The cross term, the density minus the two arm Gaussians, stays
    # within its bound in units of the peak a_x / sqrt(pi).
    k = ms.grid.positions()
    unit = a / math.sqrt(math.pi)
    arms = unit * sum(abs(c) ** 2 * np.exp(-(a * (k - k_arm)) ** 2)
                      for c, k_arm in ((w.c_f, ms.k_f),
                                       (w.c_b, ms.k_f + ms.q)))
    cross = float(np.max(np.abs(momentum_spectrum(ms) - arms))) / unit
    assert cross <= ms.cross_term_bound + 1e-14


def test_classical_backflow_check_reference():
    check = classical_backflow_check(sr88_params(), 0.2)
    assert check.plane_wave_ratio == pytest.approx(354.9922287526979,
                                                   rel=1e-9)
    assert check.spreading_ratio == pytest.approx(0.0028169630741315213,
                                                  rel=1e-9)
    assert check.passed
    slow = classical_backflow_check(sr88_params(), 1e-7)
    assert not slow.passed
    with pytest.raises(DomainError):
        classical_backflow_check(sr88_params(), -0.1)


def test_report_fields(reduced_ctx):
    rep = report(reduced_ctx.state)
    assert isinstance(rep, BackflowReport)
    assert rep.backflow_rate > 0.0
    assert 0.0 < rep.backflow_fraction < 1.0
    assert rep.backflow_interval_count >= 1
    assert rep.max_negative_flux < 0.0
    assert rep.singular_point_count == 0
    assert rep.fringe_wavelength == pytest.approx(
        2.0 * math.pi / abs(reduced_ctx.state.q), rel=0.15)
    scalars = rep.scalars()
    assert set(scalars) == {
        "backflow_rate_m_per_s", "backflow_fraction",
        "backflow_interval_count", "max_negative_flux_per_s",
        "rho_crit_max_fraction", "density_min_fraction",
        "fringe_wavelength_m", "singular_point_count"}
    import json
    json.dumps(scalars)   # every value JSON-serializable


def test_report_density_min_is_local_minimum(reduced_ctx):
    state = reduced_ctx.state
    rep = report(state)
    d = rep.density_profile
    peak = float(d.max())
    target = rep.density_min_fraction * peak
    is_min = (d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])
    minima = d[1:-1][is_min]
    assert minima.size > 0
    assert float(np.min(np.abs(minima - target))) <= 1e-12 * peak


def test_report_density_min_is_nearest_central_minimum(reduced_ctx):
    # The reported dip is the interior density minimum nearest x_c (ties
    # to the left), as a fraction of the global density peak.
    rep = report(reduced_ctx.state)
    d = rep.density_profile
    minima = np.flatnonzero((d[1:-1] < d[:-2]) & (d[1:-1] <= d[2:])) + 1
    nearest = minima[np.argmin(np.abs(minima - len(d) // 2))]
    assert rep.density_min_fraction == d[nearest] / d.max()

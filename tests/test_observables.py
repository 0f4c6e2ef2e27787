import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbackflow.model import HBAR, DomainError, expansion, sr88_params
from qbackflow.observables import (
    CHUNK_ELEMENTS,
    DENSITY,
    FLUX,
    RHO_CRIT,
    BackflowReport,
    WeightKernel,
    backflow_rate,
    classical_backflow_check,
    momentum_spectrum,
    report,
    weight_coefficients,
)
from qbackflow.pulses import ArmAmplitudes, real_weights
from qbackflow.sweep import (FAMILIES, FluxEvents,
                             canonical_pulse_area_weights)
from qbackflow.wavefield import (Grid, WaveField, com_wavefunction,
                                 combined_from_state)

from conftest import (EVENT_BOUNDS, arm_weights, assert_near_exact,
                      exact_levels, exact_rates, flux_finite_difference,
                      momentum_spectrum_fft, stack_weights)


def test_flux_identity_on_reduced_state():
    # Analytic flux equals (hbar/m) Im(Psi* dPsi/dx) of the evaluated
    # field.  The stencil's truncation error scales as (k dx)^4, so the
    # identity is checked on a finer grid than the preset default.
    from qbackflow.cli import build_state
    from qbackflow.presets import reduced_scale_config
    state = build_state(reduced_scale_config(), grid_points=16385).state
    analytic = report(state).flux_profile
    field = combined_from_state(state)
    fd = flux_finite_difference(field, state.params.mass)
    inner = slice(2, -2)
    scale = float(np.max(np.abs(analytic)))
    assert float(np.max(np.abs(fd[inner] - analytic[inner]))) <= 1e-6 * scale


def test_density_is_flux_weight(reduced_ctx):
    state = reduced_ctx.state
    d = report(state).density_profile
    assert np.all(d >= 0.0)
    direct = np.abs(combined_from_state(state).amplitudes) ** 2
    assert float(np.max(np.abs(d - direct))) <= 1e-12 * float(d.max())


def test_critical_density_sign_rule(reduced_ctx):
    # rho_crit carries the sign of |c_f|^2 - |c_b|^2 wherever
    # q + 2 grad(theta) > 0 (true across the reduced state's support).
    state = reduced_ctx.state
    p = state.params
    b, bdot = expansion(state.time, p.trap_frequency)
    grad_theta = (p.mass / HBAR) * (state.free_velocity
                                    + (bdot / b) * state.grid.offsets())
    denom = state.q + 2.0 * grad_theta
    assert np.all(denom > 0.0)
    strong_free = report(state, real_weights(0.3)).critical_density_profile
    weak_free = report(state, real_weights(0.9)).critical_density_profile
    assert np.all(strong_free >= 0.0)
    assert np.all(weak_free <= 0.0)
    balanced = report(state,
                      real_weights(math.sqrt(0.5))).critical_density_profile
    r2 = np.abs(com_wavefunction(state.grid, state.time, p)) ** 2
    assert float(np.max(np.abs(balanced))) <= 1e-15 * float(r2.max())


def test_backflow_requires_interference(ref_ctx_06):
    # c_f * c_b = 0 leaves a single travelling packet: flux is positive
    # everywhere and the backflow rate is exactly zero.
    state = ref_ctx_06.state
    for w in (real_weights(0.0), real_weights(1.0)):
        flux = report(state, w).flux_profile
        assert np.all(flux > 0.0)
        assert backflow_rate(flux, state.grid.spacing) == 0.0


def test_backflow_rate_trapezoid():
    g = Grid(center=0.0, half_width=2.0, n_points=5)
    flux = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    # negative part: [0, 1, 1, 0, 0] -> trapezoid = 0.5 + 1 + 0.5 = 2 * dx
    assert backflow_rate(flux, g.spacing) == pytest.approx(2.0 * g.spacing)


def test_flux_finite_difference_plane_wave():
    # For psi = e^{ikx} the flux is hbar k / m everywhere (edges NaN).
    n, L = 4097, 1.0
    g = Grid(center=0.0, half_width=L, n_points=n)
    k = 40.0 * math.pi / L
    psi = np.exp(1j * k * g.positions()) / math.sqrt(2.0 * L)
    fd = flux_finite_difference(WaveField(g, psi, 0.0), mass=2.0)
    assert np.isnan(fd[0]) and np.isnan(fd[-1])
    expected = HBAR * k / 2.0 * (1.0 / (2.0 * L))
    inner = fd[2:-2]
    assert float(np.max(np.abs(inner - expected))) <= 1e-6 * abs(expected)


def test_momentum_spectrum_gaussian():
    from qbackflow.oracle import gaussian_packet
    g = Grid(center=0.0, half_width=5e-5, n_points=8193)
    width, v, m = 1e-6, 5e-3, 1.46e-25
    f = gaussian_packet(g, width, velocity=v, mass=m)
    k, density = momentum_spectrum_fft(f)
    dk = k[1] - k[0]
    assert float(density.sum() * dk) == pytest.approx(1.0, abs=1e-9)
    k0 = m * v / HBAR
    assert abs(k[int(np.argmax(density))] - k0) <= dk
    # k0 * width = 6.9 standard deviations: negative weight is negligible
    assert float(density[k < 0.0].sum() * dk) < 1e-6


def test_momentum_spectrum_rejects_unnormalized():
    g = Grid(center=0.0, half_width=1.0, n_points=129)
    f = WaveField(g, np.full(129, 10.0 + 0j), 0.0)
    with pytest.raises(DomainError):
        momentum_spectrum_fft(f)


def test_momentum_spectrum_aliasing_guard():
    # A plane wave at the Nyquist edge must be rejected, not folded.
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
    assert check["plane_wave_ratio"] == pytest.approx(354.9922287526979,
                                                      rel=1e-9)
    assert check["spreading_ratio"] == pytest.approx(0.0028169630741315213,
                                                     rel=1e-9)
    assert check["passed"] is True
    slow = classical_backflow_check(sr88_params(), 1e-7)
    assert slow["passed"] is False
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


# -- the scalar routine against every column -------------------------------

#: One arm only (c_b = 0, c_f = 0) and equal arms, where the density
#: bound is reached at every fringe maximum and the minima touch zero.
EDGE_WEIGHTS = (real_weights(0.0), real_weights(1.0),
                ArmAmplitudes(math.sqrt(0.5), 1j * math.sqrt(0.5)))



@pytest.fixture(scope="module")
def kernels(sweep_ctx, reduced_ctx):
    """fig8 (12 samples per fringe), reduced and a fig8 grid of 60,001
    points (50 per fringe)."""
    from qbackflow.cli import build_state
    from qbackflow.presets import preset_config
    fine = build_state(preset_config("paper-fig8a"), grid_points=60001)
    return [WeightKernel.from_state(ctx.state)
            for ctx in (sweep_ctx, reduced_ctx, fine)]


@pytest.fixture(scope="module")
def coarse_kernel(coarse_ctx):
    """paper-0.6pi on 1,001 points: under one sample per fringe."""
    return WeightKernel.from_state(coarse_ctx.state)


def _density_block(kernel):
    return max(1, CHUNK_ELEMENTS // (kernel.peak.stop - kernel.peak.start))


def _full_grid_scalars(kernel, weights):
    """The density scalars on every column, with the rows grouped as the
    kernel groups them, each block with its own coefficient matrix."""
    block = _density_block(kernel)
    rows = []
    for i in range(0, len(weights), block):
        c = weight_coefficients(stack_weights(weights[i:i + block]))
        density = kernel.profile(c, DENSITY)
        peak = density.max(axis=1)
        contrast = c[:, RHO_CRIT.start]
        rho_max = contrast * np.where(contrast >= 0.0, kernel.rho_base_max,
                                      kernel.rho_base_min)
        rows.append(np.column_stack([
            rho_max / peak,
            kernel._density_min(density[:, kernel.window]) / peak]))
    return np.concatenate(rows)


def _random_weights(rng, rows):
    """Normalized complex weights with random moduli and phases."""
    return [ArmAmplitudes(cb * cmath.exp(1j * a),
                          math.sqrt(1.0 - cb * cb) * cmath.exp(1j * b))
            for cb, a, b in rng.random((rows, 3)) * (1.0, 6.3, 6.3)]


def _assert_scalars_match_full_grid(kernel, weights):
    c = weight_coefficients(stack_weights(weights))
    np.testing.assert_array_equal(
        np.column_stack(kernel.density_scalars(c)),
        _full_grid_scalars(kernel, weights))


@settings(max_examples=25, deadline=None)
@given(st.lists(arm_weights, max_size=11))
def test_kernel_scalars_match_full_grid(kernels, batch):
    # Reading the density on the peak columns only changes no bit,
    # whatever the batch size and the row count of the products.
    for kernel in kernels:
        _assert_scalars_match_full_grid(kernel, EDGE_WEIGHTS + tuple(batch))


def test_kernel_scalars_match_full_grid_past_a_block(kernels):
    # One row past a density block: the last density product has one row.
    rng = np.random.default_rng(5)
    for kernel in kernels:
        _assert_scalars_match_full_grid(
            kernel, _random_weights(rng, _density_block(kernel) + 1))


def _fringe_maximum_weights(kernel, offsets, cb):
    """Weights with |c_b| = cb whose density has a fringe maximum at each
    offset, in steps, from the centre column."""
    centre = kernel.basis.shape[1] // 2
    phase = math.atan2(kernel.basis[6, centre], kernel.basis[5, centre])
    step = kernel.q * kernel.spacing
    return [ArmAmplitudes(cb * cmath.exp(-1j * (phase + step * offset)),
                          math.sqrt(1.0 - cb * cb))
            for offset in offsets]


def test_kernel_peak_columns_hold_the_peak(kernels, coarse_kernel):
    # The columns fixed when the kernel is built hold the window and the
    # full-grid density peak of equal and unequal arms, wherever the
    # central fringe maximum falls within half a step of the centre
    # column; under one sample per fringe they are the whole grid.
    offsets = np.linspace(-0.5, 0.5, 41)
    for kernel in kernels + [coarse_kernel]:
        peak, window = kernel.peak, kernel.window
        assert peak.start <= window.start and window.stop <= peak.stop
        for cb in (math.sqrt(0.5), 0.3, 0.6, 0.9):
            weights = _fringe_maximum_weights(kernel, offsets, cb)
            c = weight_coefficients(stack_weights(weights))
            argmax = kernel.profile(c, DENSITY).argmax(axis=1)
            assert ((peak.start <= argmax) & (argmax < peak.stop)).all()
            _assert_scalars_match_full_grid(kernel, weights)
    n_points = coarse_kernel.basis.shape[1]
    assert coarse_kernel.q * coarse_kernel.spacing >= 2.0 * math.pi
    assert coarse_kernel.peak == slice(0, n_points)


@pytest.mark.parametrize("where", ["left edge", "right edge", "slope"])
def test_kernel_peak_beyond_an_offset_window(kernels, where):
    # A window away from x_c, joined with the peak columns by the
    # kernel's rule, reaches past them: to the grid's ends at the edges,
    # and down the slope where R^2 is near 0.87 of its maximum.  The
    # density minimum is then read outside the peak range of x_c.
    kernel = kernels[0]
    n_points = kernel.basis.shape[1]
    start = {"left edge": 0, "right edge": n_points - 3,
             "slope": n_points // 2 + n_points // 16}[where]
    window = slice(start, start + 3)
    peak = slice(min(kernel.peak.start, window.start),
                 max(kernel.peak.stop, window.stop))
    assert not (kernel.peak.start <= start and start + 3 <= kernel.peak.stop)
    offset = replace(kernel, window=window, peak=peak)
    weights = EDGE_WEIGHTS + tuple(real_weights(cb) for cb in (0.1, 0.5, 0.8))
    _assert_scalars_match_full_grid(offset, weights)


def test_kernel_scalars_refuse_a_vanishing_density(kernels):
    with pytest.raises(DomainError, match="vanishes everywhere"):
        kernels[1].density_scalars(np.zeros((1, 8)))


# -- the event sweep on every kernel ----------------------------------------

@pytest.fixture(scope="module")
def family_events(kernels, coarse_kernel):
    """Per kernel (fig8, reduced, 60,001 points, coarse) and weight rule:
    the kernel, its FluxEvents, the largest rate of 401 samples and the
    kernel's exact_levels."""
    out = {}
    for i, kernel in enumerate(kernels + [coarse_kernel]):
        levels = exact_levels(kernel)
        for weights_of, (angle, parts) in FAMILIES.items():
            events = FluxEvents(kernel, parts)
            hi = 1.0 if weights_of is real_weights else 4.0 * math.pi
            weights = weights_of(np.linspace(0.0, hi, 401))
            out[i, weights_of] = kernel, events, events.rates(
                angle(weights), weight_coefficients(weights)).max(), levels
    return out


def _event_and_exact_rates(kernel, events, weights_of, values,
                           levels=None):
    """The event-sweep rates, exact_rates and the integral of |J| dx of
    the rows weights_of(values)."""
    weights = weights_of(np.asarray(values, dtype=float))
    c = weight_coefficients(weights)
    rates = events.rates(FAMILIES[weights_of][0](weights), c)
    total = kernel.spacing * np.abs(kernel.profile(c, FLUX)).sum(axis=1)
    return rates, exact_rates(kernel, c, levels), total


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 4.0 * math.pi), max_size=6),
       st.lists(st.floats(0.0, 1.0), max_size=6))
def test_flux_ranges_hold_every_negative_column(family_events, areas,
                                                real_cbs):
    # Over any values of both rules, on grids from under one to 50
    # samples per fringe, the arcs that hold a row's angle are its
    # exactly negative columns: the rate is the correctly rounded one,
    # zero rows included.
    for (_, weights_of), (kernel, events, largest, levels) in \
            family_events.items():
        values = areas if weights_of is canonical_pulse_area_weights \
            else real_cbs
        assert_near_exact(*_event_and_exact_rates(kernel, events, weights_of,
                                                  values, levels),
                          EVENT_BOUNDS, largest)


def _threshold_values(events, weights_of):
    """The values of weights_of whose angles are the first arc start and
    the last arc stop in [0, pi]: where its rate turns on and off."""
    inside = events.ends[(events.ends >= 0.0) & (events.ends <= math.pi)]
    theta = inside[[0, -1]]
    return theta if weights_of is canonical_pulse_area_weights \
        else np.sin(0.5 * theta)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(-300, 300), min_size=1, max_size=8))
def test_backflow_bound_is_sound(family_events, steps):
    # Within a few hundred ulp of where a rule's backflow turns on or off
    # the one column about to turn negative, or just turned, has flux
    # within rounding of 0 and may count or not: a row's rate is the
    # exact one within 1e-3 ulp of its integral of |J| dx (measured 2.6e-6),
    # never below +0.0, but may read +0.0 where the exact rate is a few
    # 1e-25 m/s, or the reverse (up to 54 of 1,202 such rows, coarse
    # kernel, real c_b).
    for (_, weights_of), (kernel, events, largest, levels) in \
            family_events.items():
        edges = _threshold_values(events, weights_of)
        hi = 1.0 if weights_of is real_weights else 4.0 * math.pi
        values = np.clip(np.outer(edges, 1.0 + 2.0 ** -52 * np.array(steps))
                         .ravel(), 0.0, hi)
        assert_near_exact(*_event_and_exact_rates(kernel, events, weights_of,
                                                  values, levels),
                          EVENT_BOUNDS, largest, zeros=False)


def _pinned_minimum(kernel, weights_of):
    """The kernel with its beat phase turned so that, at equal arms of
    weights_of, the flux has a fringe minimum exactly on the centre
    column."""
    centre = kernel.basis.shape[1] // 2
    # Equal arms of the pulse-area rule put the minimum at sin(phi) = 1,
    # of the real-c_b rule at cos(phi) = -1.
    target = math.pi / 2 if weights_of is canonical_pulse_area_weights \
        else math.pi
    turn = target - math.atan2(kernel.basis[6, centre],
                               kernel.basis[5, centre])
    rotation = np.array([[math.cos(turn), -math.sin(turn)],
                         [math.sin(turn), math.cos(turn)]])
    basis = kernel.basis.copy()
    for rows in ((2, 3), (5, 6)):
        basis[rows, :] = rotation @ kernel.basis[rows, :]
    return replace(kernel, basis=basis)


def test_backflow_bound_edges(family_events):
    # Equal arms: A = pi/2, 3 pi/2, 5 pi/2, 7 pi/2 and c_b = sqrt(1/2),
    # and values up to 8 ulp either side, where the flux touches 0 at
    # every fringe minimum and the arcs of the columns nearest a minimum
    # shrink towards theta = pi/2.  The rates are the exact ones, zero
    # rows included.  With a fringe minimum turned onto a column, that
    # column's flux lies within rounding of 0 for every one of these
    # rows: counted or not, it keeps the rate within 0.02 ulp of the
    # integral of |J| dx of the exact one (measured 0.011), at or above
    # +0.0, where the sum rounds above 0.
    ulps = 1.0 + 2.0 ** -52 * np.arange(-8, 9)
    equal = {canonical_pulse_area_weights:
             np.outer(np.array([0.5, 1.5, 2.5, 3.5]) * math.pi, ulps).ravel(),
             real_weights: np.clip(math.sqrt(0.5) * ulps, 0.0, 1.0)}
    for (_, weights_of), (kernel, events, largest, levels) in \
            family_events.items():
        values = equal[weights_of]
        assert_near_exact(*_event_and_exact_rates(kernel, events, weights_of,
                                                  values, levels),
                          EVENT_BOUNDS, largest)
        pinned = _pinned_minimum(kernel, weights_of)
        assert_near_exact(*_event_and_exact_rates(
            pinned, FluxEvents(pinned, FAMILIES[weights_of][1]),
            weights_of, values), (0.0, 0.02), largest, zeros=False)


def test_report_rate_is_the_trapezoid_of_its_flux(reduced_ctx, ref_ctx_06):
    # report() takes its rate from its own flux profile, bit for bit.
    weights = EDGE_WEIGHTS + tuple(_random_weights(np.random.default_rng(7),
                                                   6))
    for state in (reduced_ctx.state, ref_ctx_06.state):
        for w in (state.weights,) + weights:
            rep = report(state, w)
            assert rep.backflow_rate == float(backflow_rate(
                rep.flux_profile, state.grid.spacing))

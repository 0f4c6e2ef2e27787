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
    flux_column_ranges,
    momentum_spectrum,
    report,
    weight_coefficients,
)
from qbackflow.pulses import ArmAmplitudes, real_weights
from qbackflow.sweep import canonical_pulse_area_weights
from qbackflow.wavefield import (Grid, WaveField, com_wavefunction,
                                 combined_from_state)

from conftest import (arm_weights, flux_finite_difference, kept_rows,
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
    """fig8 (4-row flux products), reduced (81 rows) and a fig8 grid of
    60,001 points, where every flux product is one row."""
    from qbackflow.cli import build_state
    from qbackflow.presets import preset_config
    fine = build_state(preset_config("paper-fig8a"), grid_points=60001)
    return [WeightKernel.from_state(ctx.state)
            for ctx in (sweep_ctx, reduced_ctx, fine)]


@pytest.fixture(scope="module")
def coarse_kernel():
    """paper-0.6pi on 1,001 points: under one sample per fringe."""
    from qbackflow.cli import build_state
    from qbackflow.presets import preset_config
    return WeightKernel.from_state(
        build_state(preset_config("paper-0.6pi"), grid_points=1001).state)


def _density_block(kernel):
    return max(1, CHUNK_ELEMENTS // (kernel.peak.stop - kernel.peak.start))


def _full_grid_scalars(kernel, weights):
    """Every profile on every column: the rate of each row's own flux
    profile, and the density scalars with the rows grouped as the kernel
    groups them, each block with its own coefficient matrix; and each
    row's integral of |J| dx."""
    flux = [kernel.profile(weight_coefficients(w), FLUX)[0] for w in weights]
    rates = [backflow_rate(f, kernel.spacing) for f in flux]
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
    return (np.column_stack([rates, np.concatenate(rows)]),
            np.array([kernel.spacing * np.abs(f).sum() for f in flux]))


def _random_weights(rng, rows):
    """Normalized complex weights with random moduli and phases."""
    return [ArmAmplitudes(cb * cmath.exp(1j * a),
                          math.sqrt(1.0 - cb * cb) * cmath.exp(1j * b))
            for cb, a, b in rng.random((rows, 3)) * (1.0, 6.3, 6.3)]


def _assert_scalars_match_full_grid(kernel, weights):
    c = weight_coefficients(stack_weights(weights))
    got = np.column_stack([kernel.rates(c), *kernel.density_scalars(c)])
    want, total = _full_grid_scalars(kernel, weights)
    # The batched rates sum phase-sorted columns, so they round apart
    # from a sum in grid order by a few ulp of the integral of |J|.
    assert (np.abs(got[:, 0] - want[:, 0]) <= 1e-14 * total).all()
    np.testing.assert_array_equal(got[:, 1:], want[:, 1:])


@settings(max_examples=25, deadline=None)
@given(st.lists(arm_weights, max_size=11))
def test_kernel_scalars_match_full_grid(kernels, batch):
    # Reading the density on the peak columns only changes no bit,
    # whatever the batch size and the row count of the products, and
    # the flux on each row's range of columns changes the rate by
    # rounding only.
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


# -- the no-backflow bound ----------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(arm_weights, min_size=1, max_size=11))
def test_backflow_bound_is_sound(kernels, batch):
    # A row the bound clears has no negative column in a full-grid
    # product, so skipping its flux product changes no rate.
    c = weight_coefficients(stack_weights(EDGE_WEIGHTS + tuple(batch)))
    for kernel in kernels:
        cleared = ~kept_rows(kernel, c)
        assert (kernel.profile(c, FLUX)[cleared] >= 0.0).all()


def _real_weight_roots(kernel):
    """The real c_b where the flux bound of real_weights(c_b) changes
    sign, bisected to adjacent floats."""
    def bound(x):
        w = x * math.sqrt(1.0 - x * x)
        return min(gt + x * x * kernel.q - w * abs(kernel.q + 2.0 * gt)
                   for gt in kernel.grad_theta)
    roots = []
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        if (bound(lo) > 0.0) == (bound(hi) > 0.0):
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if (bound(mid) > 0.0) == (bound(lo) > 0.0):
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots


def _pinned_equal_arms(kernel):
    """Equal arms with a fringe minimum of the flux on each of 27 columns
    about the centre."""
    half = math.sqrt(0.5)
    columns = kernel.basis.shape[1] // 2 + np.arange(-40, 40, 3)
    return [ArmAmplitudes(half * cmath.exp(1j * (math.pi - math.atan2(
                kernel.basis[6, j], kernel.basis[5, j]))), half)
            for j in columns]


def test_backflow_bound_edges(kernels):
    # Equal populations: h = 1 exactly wherever q + 2 grad(theta) > 0,
    # and with a fringe minimum on a column the computed flux rounds
    # below 0 there, so the slack must keep these rows.  So must real
    # weights within rounding of a root of the bound, while weights 1e-9
    # inside its cleared side are cleared.
    half = math.sqrt(0.5)
    for kernel, n_roots in zip(kernels, (2, 1, 2)):
        c = weight_coefficients(stack_weights(
            [EDGE_WEIGHTS[2], real_weights(half)]
            + _pinned_equal_arms(kernel)))
        assert kept_rows(kernel, c).all()
        assert (kernel.profile(c, FLUX) < 0.0).any()
        roots = _real_weight_roots(kernel)
        assert len(roots) == n_roots
        for x0 in roots:
            near = real_weights(x0 * (1.0 + np.arange(-8, 9) * 1e-14))
            assert kept_rows(kernel, weight_coefficients(near)).all()
            sides = kept_rows(kernel, weight_coefficients(
                real_weights(x0 * (1.0 + np.array([-1e-9, 1e-9])))))
            assert sides.tolist() in ([False, True], [True, False])


# -- the flux arcs ------------------------------------------------------------

def _assert_negative_columns_in_range(kernel, c):
    """Every column negative in a full-grid product of the coefficient
    rows c lies in its row's range of the phase-sorted columns, and a row
    without a range has no negative column.  Each row's core lies in its
    range, and every core column is negative in the row's one-row
    full-grid product."""
    rows, order, bounds = flux_column_ranges(kernel, c)
    lo, core_lo, core_hi, hi = bounds
    negative = kernel.profile(c, FLUX) < 0.0
    assert not np.delete(negative, rows, axis=0).any()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    kept, columns = np.nonzero(negative[rows])
    assert ((lo[kept] <= rank[columns]) & (rank[columns] < hi[kept])).all()
    assert ((lo <= core_lo) & (core_lo <= core_hi) & (core_hi <= hi)).all()
    for row, first, stop in zip(rows, core_lo, core_hi):
        flux = kernel.profile(c[row:row + 1], FLUX)[0]
        assert (flux[order[first:stop]] < 0.0).all()
    return rows, bounds


@settings(max_examples=25, deadline=None)
@given(st.lists(arm_weights, max_size=11),
       st.lists(st.floats(0.0, 4.0 * math.pi), max_size=6),
       st.lists(st.floats(0.0, 1.0), max_size=6))
def test_flux_ranges_hold_every_negative_column(kernels, coarse_kernel,
                                                batch, areas, real_cbs):
    # Complex weights, both sweep families and equal arms whose flux
    # touches 0 on a column: no negative column is left out of a range,
    # and no core column is at or above 0.
    for kernel in kernels + [coarse_kernel]:
        weights = EDGE_WEIGHTS + tuple(batch) + tuple(
            _pinned_equal_arms(kernel))
        _assert_negative_columns_in_range(kernel, np.concatenate([
            weight_coefficients(stack_weights(weights)),
            weight_coefficients(canonical_pulse_area_weights(
                np.array(areas))),
            weight_coefficients(real_weights(np.array(real_cbs)))]))


def test_flux_ranges_fall_back_to_every_column(kernels, coarse_kernel):
    # One arm only (|w| = 0), a subnormal |w| (h overflows), and arcs
    # centred 0.1 rad inside 0 and 2 pi with half-width near arccos(0.75)
    # (on the reduced grid, h_min < -1: the whole circle) get every
    # column.  So does every row where q + 2 grad(theta) changes sign on
    # the grid.  Each of these rows has an empty core, as have equal arms
    # (h = 1 wherever q + 2 grad(theta) > 0): their products take every
    # column of their range.
    wrapping = [ArmAmplitudes(0.6 * cmath.exp(1j * s * (math.pi - 0.1)), 0.8)
                for s in (1.0, -1.0)]
    for kernel in kernels + [coarse_kernel]:
        n_points = kernel.basis.shape[1]
        for weights in (EDGE_WEIGHTS[:2] + (ArmAmplitudes(1e-310, 1.0),),
                        wrapping):
            rows, (lo, core_lo, core_hi, hi) = (
                _assert_negative_columns_in_range(
                    kernel, weight_coefficients(stack_weights(weights))))
            assert rows.tolist() == list(range(len(weights)))
            assert (lo == 0).all() and (hi == n_points).all()
            assert (core_lo == core_hi).all()
        c = weight_coefficients(stack_weights(
            EDGE_WEIGHTS + tuple(wrapping) + tuple(real_weights(cb) for cb in
                                                   (0.3, 0.5, 0.7, 0.9))))
        _, _, (lo, _, _, hi) = flux_column_ranges(kernel, c)
        assert (hi - lo < n_points).any()   # some arcs are narrow here
        rows, _, bounds = flux_column_ranges(
            replace(kernel, grad_theta=(-kernel.q, kernel.grad_theta[1])), c)
        assert rows.tolist() == list(range(len(c)))
        assert (bounds == [[0], [0], [0], [n_points]]).all()
        equal = weight_coefficients(stack_weights(
            [EDGE_WEIGHTS[2], real_weights(math.sqrt(0.5))]
            + _pinned_equal_arms(kernel)))
        rows, _, (_, core_lo, core_hi, _) = flux_column_ranges(kernel, equal)
        assert len(rows) == len(equal) and (core_lo == core_hi).all()


def test_report_rate_is_the_trapezoid_of_its_flux(reduced_ctx, ref_ctx_06):
    # report() takes its rate from its own flux profile, bit for bit.
    weights = EDGE_WEIGHTS + tuple(_random_weights(np.random.default_rng(7),
                                                   6))
    for state in (reduced_ctx.state, ref_ctx_06.state):
        for w in (state.weights,) + weights:
            rep = report(state, w)
            assert rep.backflow_rate == float(backflow_rate(
                rep.flux_profile, state.grid.spacing))

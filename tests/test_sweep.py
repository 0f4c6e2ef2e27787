import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbackflow.config import SweepSpec
from qbackflow.model import DomainError
from qbackflow.observables import (DENSITY, FLUX, PEAK_BOUND_SLACK,
                                   RHO_CRIT, backflow_rate, report,
                                   weight_coefficients)
from qbackflow.phaseacc import two_prod
from qbackflow.pulses import real_weights
from qbackflow.sweep import (CHUNK_ELEMENTS, FAMILIES, FluxEvents,
                             SweepEngine, canonical_pulse_area_weights,
                             envelope_columns)

from conftest import (EVENT_BOUNDS, REPORT_BOUNDS, assert_near_exact,
                      exact_rates)

RULES = [(canonical_pulse_area_weights, 4.0 * math.pi), (real_weights, 1.0)]


def test_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec("detuning", 0.0, 1.0, 10)
    with pytest.raises(DomainError):
        SweepSpec("pulse_area", 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        SweepSpec("pulse_area", 1.0, 1.0, 10)
    with pytest.raises(DomainError):
        SweepSpec("pulse_area", -0.1, 1.0, 10)
    with pytest.raises(DomainError):
        SweepSpec("real_cb", 0.0, 1.1, 10)
    vals = SweepSpec("real_cb", 0.0, 1.0, 11).values()
    assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 11


def test_canonical_weights():
    w = canonical_pulse_area_weights(0.6 * math.pi)
    assert w.c_b == abs(math.cos(0.3 * math.pi))
    assert w.c_f == -1j * abs(math.sin(0.3 * math.pi))
    # populations match the splitting pulse for any area
    for area in (0.2, 1.0, 2.5, 4.0, 6.0):
        w = canonical_pulse_area_weights(area)
        assert abs(w.c_b) == pytest.approx(abs(math.cos(0.5 * area)))
        assert abs(w.c_f) == pytest.approx(abs(math.sin(0.5 * area)))
    with pytest.raises(DomainError):
        canonical_pulse_area_weights(-0.1)


@pytest.mark.parametrize("weights_of, hi", [
    (canonical_pulse_area_weights, 4.0 * math.pi), (real_weights, 1.0)])
def test_weight_rules_on_arrays_match_scalar_calls(weights_of, hi):
    # A sweep row and report() at the same value see the same weights:
    # the rule applied to an array gives, byte for byte (signed zeros
    # included), the coefficients of one scalar call per value.
    values = np.append(np.linspace(0.0, hi, 5001),
                       [v for v in (0.0, math.pi, 4.0 * math.pi, 1.0)
                        if v <= hi])
    rows = [weight_coefficients(weights_of(float(v))) for v in values]
    assert (weight_coefficients(weights_of(values)).tobytes()
            == np.concatenate(rows).tobytes())
    values[2500] = 1.5 * hi
    with pytest.raises(DomainError, match="must lie in"):
        weights_of(values)


def test_engine_matches_direct_evaluation(reduced_ctx):
    # The engine's one-row rate, which the refinement reads, is the
    # trapezoid of report()'s flux profile bit for bit.
    state = reduced_ctx.state
    engine = SweepEngine(state)
    for w in (canonical_pulse_area_weights(0.75 * math.pi),
              real_weights(0.3), real_weights(0.9), state.weights):
        direct = backflow_rate(report(state, w).flux_profile,
                               state.grid.spacing)
        assert engine.backflow_rate(w) == direct




@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_engine_samples_match_report(sweep_ctx, sweep_engine, fractions):
    # The batched rows of both weight rules agree with the one-row
    # report() at any values, in batches of 1 to 6 rows.
    for weights_of, hi in RULES:
        values = hi * np.array(fractions)
        scalars = sweep_engine.samples(values, weights_of)
        for row, v in zip(np.column_stack(scalars), values):
            rep = report(sweep_ctx.state, weights_of(float(v)))
            for got, name in zip(row, ("backflow_rate",
                                       "rho_crit_max_fraction",
                                       "density_min_fraction")):
                assert got == pytest.approx(
                    getattr(rep, name), rel=1e-12, abs=1e-15), name


@pytest.mark.parametrize("result, weights_of", [
    ("fig8a_result", canonical_pulse_area_weights),
    ("fig8b_result", real_weights)], ids=["fig8a", "fig8b"])
def test_preset_sweep_rows_agree_with_report(request, sweep_ctx, result,
                                             weights_of):
    # Every row of both preset sweeps is report() at its value up to
    # rounding: the rates, summed over FluxEvents, within 1e-14 relative
    # of report()'s one-profile trapezoid, the two fractions, from
    # products over the window and envelope columns, within 1e-15 of
    # those of report()'s full-grid profile, and a rate is zero exactly
    # where report()'s is.
    res = request.getfixturevalue(result)
    reports = [report(sweep_ctx.state, weights_of(float(v)))
               for v in res.values]
    rate, rho_max, density_min = (
        np.array([getattr(rep, name) for rep in reports])
        for name in ("backflow_rate", "rho_crit_max_fraction",
                     "density_min_fraction"))
    assert (np.abs(res.rates - rate) <= 1e-14 * rate).all()
    assert ((res.rates == 0.0) == (rate == 0.0)).all()
    assert (np.abs(res.rho_crit_max - rho_max) <= 1e-15).all()
    assert (np.abs(res.density_min - density_min) <= 1e-15).all()


# -- the event sweep against a correctly rounded rate ----------------------

@pytest.fixture(scope="module")
def rows_5001(sweep_ctx, reduced_ctx, coarse_ctx):
    """Per kernel and rule: 5,001 sample values, the event-sweep rates,
    report()'s one-row rates, exact_rates and each row's integral of
    |J| dx."""
    out = {}
    for name, ctx in (("fig8", sweep_ctx), ("reduced", reduced_ctx),
                      ("coarse", coarse_ctx)):
        engine = SweepEngine(ctx.state)
        kernel = engine.kernel
        for weights_of, hi in RULES:
            values = np.linspace(0.0, hi, 5001)
            c = weight_coefficients(weights_of(values))
            one_row, total = np.array([_one_row(kernel, c[i:i + 1])
                                       for i in range(len(c))]).T
            out[name, weights_of.__name__] = (
                values, engine.samples(values, weights_of)[0], one_row,
                exact_rates(kernel, c), total)
    return out


def _one_row(kernel, c):
    """report()'s rate of one coefficient row, and its integral of |J|
    dx."""
    flux = kernel.profile(c, FLUX)[0]
    return (backflow_rate(flux, kernel.spacing),
            kernel.spacing * np.abs(flux).sum())


KERNEL_RULES = [(kernel, rule.__name__) for kernel in ("fig8", "reduced",
                                                         "coarse")
                for rule, _ in RULES]


@pytest.mark.parametrize("kernel, rule", KERNEL_RULES)
def test_sweep_rates_are_the_exact_trapezoid(rows_5001, kernel, rule):
    # Compensated prefix sums over the sorted arc ends and a double-double
    # dot give each row's correctly rounded rate; zero rows included.
    _, rates, _, exact, total = rows_5001[kernel, rule]
    assert_near_exact(rates, exact, total, EVENT_BOUNDS)


@pytest.mark.parametrize("kernel, rule", KERNEL_RULES)
def test_report_rate_is_the_exact_trapezoid_to_rounding(rows_5001, kernel,
                                                        rule):
    # report()'s one-row product rounds each column relative to the terms
    # that cancel in it: the gap to a correctly rounded rate grows as the
    # rate shrinks against them, which the 1e-14 of the preset check
    # meets only on its 401 and 201 rows.  Its zero rows are exact.
    _, _, one_row, exact, total = rows_5001[kernel, rule]
    assert_near_exact(one_row, exact, total, REPORT_BOUNDS)


@pytest.mark.parametrize("weights_of, hi, least", [
    (canonical_pulse_area_weights, 4.0 * math.pi, 0.45),
    (real_weights, 1.0, 0.25)])
def test_sweeps_skip_rows_without_backflow(sweep_engine, rows_5001,
                                           weights_of, hi, least):
    # About half the fig8 pulse-area rows and a third of the real-weight
    # rows have no backflow, and such a row never reads the flux sums:
    # poisoned with NaN, they still give it rate +0.0.
    values, _, _, exact, _ = rows_5001["fig8", weights_of.__name__]
    cleared = exact == 0.0
    assert cleared.mean() >= least
    events = FluxEvents(sweep_engine.kernel, FAMILIES[weights_of][1])
    events.sums[:] = np.nan
    events.errors[:] = np.nan
    weights = weights_of(values[cleared])
    rate = events.rates(FAMILIES[weights_of][0](weights),
                        weight_coefficients(weights))
    assert (rate == 0.0).all() and not np.signbit(rate).any()


@pytest.mark.parametrize("weights_of, hi", RULES)
def test_sweep_rows_read_a_third_of_the_flux_columns(sweep_engine,
                                                     weights_of, hi):
    # A row's rate sums the columns whose arc holds its angle: about a
    # third of the fig8 grid.  It reads them as four prefix sums at one
    # event, and the events, at most two per column, are sorted once per
    # rule.  A work count, no timing.
    kernel = sweep_engine.kernel
    n_points = kernel.basis.shape[1]
    events = FluxEvents(kernel, FAMILIES[weights_of][1])
    assert len(events.ends) <= 2 * n_points
    weights = weights_of(np.linspace(0.0, hi, 5001))
    at = np.searchsorted(events.ends, FAMILIES[weights_of][0](weights),
                         side="right")
    active = events.active[at]
    assert (active > 0).sum() > 1000
    assert active[active > 0].mean() <= 0.4 * n_points


@pytest.mark.parametrize("weights_of, hi", RULES)
def test_prefix_parts_keep_the_rates_to_rounding(rows_5001, weights_of,
                                                 hi):
    # The prefix sums add thousands of columns whose flux terms cancel to
    # a small net.  Summed with compensated prefix sums and a
    # double-double dot, every row of a 5,001-sample sweep whose rate is
    # at least 1 % of the largest is report()'s one-row rate within
    # 2e-15 relative (measured 4.3e-16); a plain cumsum and dot is off by
    # up to 7e-13.  Smaller rates are left out: a one-row product rounds
    # relative to the terms, not to the rate.
    _, rates, one_row, _, _ = rows_5001["fig8", weights_of.__name__]
    rows = rates >= 1e-2 * rates.max()
    assert (np.abs(rates[rows] - one_row[rows]) <= 2e-15 * one_row[rows]).all()


def _one_column_rate(kernel, c, column):
    """0.0 - dx J_j, J_j the exact flux of one column for coefficient
    row c, correctly rounded."""
    hi, lo = two_prod(c[FLUX], kernel.basis[FLUX, column])
    return 0.0 - kernel.spacing * math.fsum(np.concatenate([hi, lo]))


@pytest.mark.parametrize("weights_of, hi", RULES)
def test_rates_at_an_arc_end(sweep_engine, weights_of, hi):
    # A column counts from its arc's start on and stops at its stop.  On
    # fig8 no arc holds theta = 0 or pi; at exactly the first start a row
    # takes that column alone, one float lower none, and at exactly the
    # last stop none, one float lower that column alone.  The rows carry
    # the coefficients of a weight just inside the arc, so the column's
    # flux is clearly negative.
    kernel = sweep_engine.kernel
    events = FluxEvents(kernel, FAMILIES[weights_of][1])
    inside = np.flatnonzero((events.ends >= 0.0)
                            & (events.ends <= math.pi))
    assert events.active[np.searchsorted(events.ends, 0.0, "right")] == 0
    assert events.active[np.searchsorted(events.ends, math.pi,
                                         "right")] == 0
    for edge, inward in ((inside[0], 1e-3), (inside[-1], -1e-3)):
        theta = events.ends[edge]
        step = np.sign(inward) * (events.sums[:, edge + 1]
                                  - events.sums[:, edge])
        column = int(np.argmin(np.abs(kernel.basis[FLUX].T - step)
                               .sum(axis=1)))
        value = {canonical_pulse_area_weights: theta + inward,
                 real_weights: math.sin(0.5 * (theta + inward))}[weights_of]
        c = weight_coefficients(weights_of(value))[0]
        alone = _one_column_rate(kernel, c, column)
        assert alone > 0.0
        lower = np.nextafter(theta, -math.inf)
        rates = events.rates(np.array([lower, theta]), np.array([c, c]))
        expect = [0.0, alone] if inward > 0 else [alone, 0.0]
        assert rates.tolist() == expect


@pytest.mark.parametrize("ctx, zero", [("sweep_ctx", True),
                                       ("reduced_ctx", False),
                                       ("coarse_ctx", True)])
def test_rates_with_one_arm_only(request, ctx, zero):
    # theta = 0 and pi: A = 0, 2 pi, 4 pi (c_f = 0) and pi, 3 pi (c_b
    # rounds to 6e-17), c_b = 0 and 1.  Each column then carries one
    # arm's flux, (hbar/m) R^2 grad(theta) or (hbar/m) R^2 (grad(theta)
    # + q), and the rates are the exact ones: +0.0 on fig8 and the coarse
    # grid, and on the reduced grid, which reaches the free arm's flow
    # reversal at -7.2 sigma, 1.1e-15 m/s at A = pi and 3 pi.
    engine = SweepEngine(request.getfixturevalue(ctx).state)
    for weights_of, values in (
            (canonical_pulse_area_weights,
             [0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi]),
            (real_weights, [0.0, 1.0])):
        rates = engine.samples(values, weights_of)[0]
        exact = exact_rates(engine.kernel,
                            weight_coefficients(weights_of(np.array(values))))
        assert rates.tolist() == exact.tolist()
        assert not np.signbit(rates).any()
        assert (rates == 0.0).all() or not zero
        if zero:
            assert all(engine.backflow_rate(weights_of(v)) == 0.0
                       for v in values)


def _near_envelope(a, b, slack, width=1024):
    """The columns whose line a_j + s b_j comes within slack of the
    lines' upper envelope at one of 4,001 values of s in [0, 1], by brute
    force over blocks of columns."""
    # On [0, 1] a line lies between its values at the ends, and the
    # envelope nowhere below the largest of the lines' lower ends.
    ends = np.stack([a, a + b])
    columns = np.flatnonzero(ends.max(axis=0)
                             >= ends.min(axis=0).max() - slack)
    a, b = a[columns], b[columns]
    s = np.linspace(0.0, 1.0, 4001)[:, np.newaxis]
    blocks = [slice(j, j + width) for j in range(0, len(a), width)]
    top = np.max([(a[j] + s * b[j]).max(axis=1) for j in blocks], axis=0)
    return columns[np.concatenate(
        [(a[j] + s * b[j] >= top[:, np.newaxis] - slack).any(axis=0)
         for j in blocks])]


def _full_grid_scalars(kernel, c, block, width=1024):
    """The density scalars of the coefficient rows c from density
    products over every grid column, taken in row blocks of `block` rows
    (and in column blocks, which keep each product small)."""
    n_points = kernel.basis.shape[1]
    rho_max, density_min = np.empty((2, len(c)))
    for i in range(0, len(c), block):
        rows = c[i:i + block]
        peak = np.max([(rows[:, DENSITY] @ kernel.basis[DENSITY, j:j + width])
                       .max(axis=1) for j in range(0, n_points, width)],
                      axis=0)
        window = rows[:, DENSITY] @ kernel.basis[DENSITY, kernel.window]
        contrast = rows[:, RHO_CRIT.start]
        rho_max[i:i + block] = contrast * np.where(
            contrast >= 0.0, kernel.rho_base_max, kernel.rho_base_min) / peak
        density_min[i:i + block] = kernel._density_min(window) / peak
    return rho_max, density_min


@pytest.mark.parametrize("ctx", ["sweep_ctx", "reduced_ctx", "coarse_ctx",
                                 "fine_ctx"])
def test_envelope_columns_hold_the_density_peak(request, ctx):
    # The columns a rule's density peak is read on hold every grid column
    # whose line a_j + s b_j comes within the slack of the upper envelope
    # anywhere in s = sin(theta) in [0, 1] (checked on 4,001 values of s),
    # and a column 1e-15 below the top column's line everywhere.  The
    # engine's density scalars of 5,001 rows, and of one row past a
    # density block, equal bit for bit those of full-grid products taken
    # in the same row blocks.
    engine = SweepEngine(request.getfixturevalue(ctx).state)
    kernel = engine.kernel
    for weights_of, hi in RULES:
        parts = FAMILIES[weights_of][1]
        kept = envelope_columns(kernel, parts)
        a, _, b = parts[:, DENSITY] @ kernel.basis[DENSITY]
        near = _near_envelope(a, b, PEAK_BOUND_SLACK * a.max())
        assert set(near) <= set(kept)
        top = int(np.argmax(a))
        twin = top + 1 if top + 1 < len(a) else top - 1
        basis = kernel.basis.copy()
        basis[DENSITY, twin] = basis[DENSITY, top] * (1.0 - 1e-15)
        assert twin in envelope_columns(replace(kernel, basis=basis), parts)
        width = kernel.window.stop - kernel.window.start + len(kept)
        block = max(1, CHUNK_ELEMENTS // width)
        for rows in (5001, block + 1):
            values = np.linspace(0.0, hi, rows)
            c = weight_coefficients(weights_of(values))
            got = engine.samples(values, weights_of)[1:]
            for x, y in zip(got, _full_grid_scalars(kernel, c, block)):
                np.testing.assert_array_equal(x, y)


def test_envelope_columns_keep_a_middle_segment_column(sweep_engine):
    # Density lines on the fig8 grid, 1/2 on every column but three: the
    # top line at s = 0 on the centre column (1), the top at s = 1 a
    # quarter of the grid to its left (2 s), and a quarter of the grid to
    # its right, far from x_c, a line (0.8 + 0.8 s) below both at s = 0
    # and s = 1 that tops the envelope for s in (1/4, 2/3), over their
    # crossing at s = 1/2.  Both rules read these lines.
    kernel = sweep_engine.kernel
    n_points = kernel.basis.shape[1]
    left, centre, right = n_points // 4, n_points // 2, 3 * n_points // 4
    a, b = np.full(n_points, 0.5), np.zeros(n_points)
    a[[left, centre, right]] = 0.0, 1.0, 0.8
    b[[left, centre, right]] = 2.0, 0.0, 0.8
    basis = kernel.basis.copy()
    basis[4], basis[5], basis[6] = a, b, -b
    lines = replace(kernel, basis=basis)
    for _, parts in FAMILIES.values():
        assert envelope_columns(lines, parts).tolist() == [left, centre,
                                                           right]


def test_samples_of_no_values(sweep_engine):
    for weights_of, _ in RULES:
        scalars = sweep_engine.samples([], weights_of)
        assert [x.shape for x in scalars] == [(0,)] * 3


def test_sweep_result_shape_and_refinement(reduced_ctx):
    spec = SweepSpec("pulse_area", 0.0, 2.0 * math.pi, 41)
    engine = SweepEngine(reduced_ctx.state)
    res = engine.sweep_pulse_area(spec)
    assert len(res.values) == len(res.rates) == 41
    # The reported maximum is report()'s rate at the grid argmax, which
    # the batched rates match to rounding.
    assert res.max_backflow_rate == engine.backflow_rate(
        canonical_pulse_area_weights(res.argmax_value))
    assert res.max_backflow_rate == pytest.approx(res.rates.max(), rel=1e-14)
    assert res.refined_max_backflow_rate >= res.max_backflow_rate
    lo = res.argmax_value - spec.values()[1]
    hi = res.argmax_value + spec.values()[1]
    assert lo <= res.refined_argmax_value <= hi
    # A result holds arrays, so it compares and hashes by identity.
    again = SweepEngine(reduced_ctx.state).sweep_pulse_area(spec)
    assert hash(res) == hash(res)
    assert res == res
    assert res != again


def test_argmax_ignores_rounding_between_mirror_samples(sweep_ctx,
                                                       fig8a_result,
                                                       monkeypatch):
    # The pulse-area rate is symmetric about pi, so each sample below pi
    # has a mirror above it whose rate differs by rounding only.  Scaling
    # the envelope by one or two ulp moves those last bits; the reported
    # optimum must stay at the first (smaller) of the mirror pair.
    assert fig8a_result.argmax_value < math.pi
    from qbackflow import observables
    envelope = observables.com_wavefunction
    for scale in (1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52,
                  1.0 + 2.0 ** -51):
        monkeypatch.setattr(observables, "com_wavefunction",
                            lambda *args: envelope(*args) * scale)
        res = SweepEngine(sweep_ctx.state).sweep_pulse_area(fig8a_result.spec)
        assert res.argmax_value == fig8a_result.argmax_value, scale
        assert res.refined_argmax_value == pytest.approx(
            fig8a_result.refined_argmax_value, rel=1e-9), scale


def test_sweep_variable_mismatch_rejected(reduced_ctx):
    engine = SweepEngine(reduced_ctx.state)
    with pytest.raises(DomainError):
        engine.sweep_pulse_area(SweepSpec("real_cb", 0.0, 1.0, 5))
    with pytest.raises(DomainError):
        engine.sweep_real_weights(SweepSpec("pulse_area", 0.0, 1.0, 5))


def test_real_weight_sweep_monotone_edges(sweep_ctx):
    res = SweepEngine(sweep_ctx.state).sweep_real_weights(
        SweepSpec("real_cb", 0.0, 1.0, 21))
    rates = res.rates
    assert rates[0] == 0.0     # c_b = 0: free arm only
    assert rates[-1] == 0.0    # c_b = 1: LMT arm only


def test_csv_and_json_outputs(tmp_path, reduced_ctx):
    res = SweepEngine(reduced_ctx.state).sweep_real_weights(
        SweepSpec("real_cb", 0.0, 1.0, 5))
    csv_path = tmp_path / "sweep.csv"
    res.to_csv(str(csv_path))
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "value,backflow_rate_m_per_s,rho_crit_max,density_min"
    assert len(lines) == 6
    assert len(res.values) == res.spec.n_samples
    # .17g round-trips float64, so each column reads back exactly
    columns = np.array([[float(x) for x in line.split(",")]
                        for line in lines[1:]]).T
    for column, array in zip(columns, (res.values, res.rates,
                                       res.rho_crit_max, res.density_min)):
        np.testing.assert_array_equal(column, array)
    doc = json.loads(json.dumps(res.summary()))
    assert doc["variable"] == "real_cb"
    assert doc["n_samples"] == 5
    assert doc["max_backflow_rate_m_per_s"] == res.max_backflow_rate

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbackflow.config import SweepSpec
from qbackflow.model import DomainError
from qbackflow.observables import (FLUX, backflow_rate, flux_column_ranges,
                                   rate_blocks, report, weight_coefficients)
from qbackflow.pulses import real_weights
from qbackflow.sweep import SweepEngine, canonical_pulse_area_weights

from conftest import arm_weights, kept_rows, stack_weights


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
@given(st.lists(arm_weights, min_size=1, max_size=11))
def test_engine_samples_match_report(sweep_ctx, sweep_engine, batch):
    # The batched kernel rows agree with the one-row report() for any
    # normalized complex weights; batches of up to 11 cross the chunk
    # boundaries of the fig8 grid (4 samples per chunk).
    scalars = sweep_engine.samples(
        range(len(batch)),
        lambda values: stack_weights([batch[int(i)] for i in values]))
    for row, w in zip(np.column_stack(scalars), batch):
        rep = report(sweep_ctx.state, w)
        for got, name in zip(row, ("backflow_rate", "rho_crit_max_fraction",
                                   "density_min_fraction")):
            assert got == pytest.approx(
                getattr(rep, name), rel=1e-12, abs=1e-15), name


@pytest.mark.parametrize("result, weights_of", [
    ("fig8a_result", canonical_pulse_area_weights),
    ("fig8b_result", real_weights)], ids=["fig8a", "fig8b"])
def test_preset_sweep_rows_agree_with_report(request, sweep_ctx, result,
                                             weights_of):
    # Every row of both preset sweeps is report() at its value up to the
    # rounding of a many-row product against a one-row product: the
    # rates within 1e-14 relative, the two fractions within 1e-15, and
    # a rate is zero exactly where report()'s is.
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


@pytest.mark.parametrize("weights_of, hi, least", [
    (canonical_pulse_area_weights, 4.0 * math.pi, 0.45),
    (real_weights, 1.0, 0.25)])
def test_sweeps_skip_rows_without_backflow(sweep_engine, weights_of, hi,
                                           least):
    # About half the fig8 pulse-area rows and a third of the real-weight
    # rows provably have no backflow, and a chunk of such rows never
    # reads the flux basis: poisoned with NaN, it still gives rate 0.
    kernel = sweep_engine.kernel
    c = weight_coefficients(weights_of(np.linspace(0.0, hi, 5001)))
    cleared = ~kept_rows(kernel, c)
    assert cleared.mean() >= least
    basis = kernel.basis.copy()
    basis[FLUX] = np.nan
    rate = replace(kernel, basis=basis).rates(c[cleared])
    assert (rate == 0.0).all()


@pytest.mark.parametrize("weights_of, hi", [
    (canonical_pulse_area_weights, 4.0 * math.pi), (real_weights, 1.0)])
def test_sweep_rows_read_a_third_of_the_flux_columns(sweep_engine,
                                                     weights_of, hi):
    # A row that can flow back reads only its range of the phase-sorted
    # flux columns: about a third of the fig8 grid, not all of it.  Its
    # products take only its block's hulls of the edge bands of those
    # ranges, which leave the cores to the prefix sums: per row, at most
    # 15 % of the grid.  A work count, no timing.
    kernel = sweep_engine.kernel
    c = weight_coefficients(weights_of(np.linspace(0.0, hi, 5001)))
    rows, _, bounds = flux_column_ranges(kernel, c)
    lo, _, _, stop = bounds
    assert len(lo) > 1000
    assert (stop - lo).mean() <= 0.4 * kernel.basis.shape[1]
    starts, a, p, r, b = rate_blocks(bounds)
    block_rows = np.diff(np.append(starts, len(rows)))
    evaluated = (block_rows * ((p - a) + (b - r))).sum()
    assert evaluated <= 0.15 * len(rows) * kernel.basis.shape[1]


@pytest.mark.parametrize("weights_of, hi", [
    (canonical_pulse_area_weights, 4.0 * math.pi), (real_weights, 1.0)])
def test_prefix_parts_keep_the_rates_to_rounding(sweep_engine, weights_of,
                                                 hi):
    # A block's prefix part sums thousands of core columns whose flux
    # terms cancel to a small net.  Summed with compensated prefix sums
    # and a double-double dot, every row of a 5,001-sample sweep whose
    # rate is at least 1 % of the largest is report()'s one-row rate
    # within 2e-15 relative (measured 7e-16); a plain dot of the same
    # prefix sums is off by up to 1.2e-14.  Smaller rates are left out:
    # a one-row product rounds relative to the terms, not to the rate.
    values = np.linspace(0.0, hi, 5001)
    rates = sweep_engine.kernel.rates(weight_coefficients(weights_of(values)))
    rows = np.flatnonzero(rates >= 1e-2 * rates.max())
    one_row = np.array([sweep_engine.backflow_rate(weights_of(float(v)))
                        for v in values[rows]])
    assert (np.abs(rates[rows] - one_row) <= 2e-15 * one_row).all()


def test_samples_of_no_values(sweep_engine):
    scalars = sweep_engine.samples([], canonical_pulse_area_weights)
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

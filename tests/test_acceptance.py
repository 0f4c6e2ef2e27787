"""Acceptance gate: one test (and one printed verdict line) per criterion.

Verdict lines are written to the real stdout so they stay visible under
pytest's capture.  Every threshold here is part of the package contract;
regression-locked values are exact figures from the first validated run
and guard against silent numerical drift.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from qbackflow.kinematics import ArmTrajectory, solve_encounter
from qbackflow.model import (
    ATOMIC_MASS_UNIT,
    HBAR,
    CondensateParams,
    Environment,
    TransitionParams,
    expansion,
)
from qbackflow.pulses import splitting_weights
from qbackflow.wavefield import (
    ENVELOPE_SAMPLES,
    Grid,
    combined_from_state,
    encounter_state,
)


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = (f"[criterion {number}] {'PASS' if ok else 'FAIL'} - "
            f"{name}: {detail}")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- criterion 1: flux identity on randomized configurations ---------------

def _random_meeting_arms(rng):
    """Random physics + a <= 10-pulse sequence whose arms re-meet.

    Pulse signs are drawn with the running recoil count clamped to
    |net| <= 2 so a couple of corrective kicks always suffice to turn
    the arms back toward each other.
    """
    params = CondensateParams(
        mass=88.0 * ATOMIC_MASS_UNIT * rng.uniform(0.5, 2.0),
        trap_frequency=2.0 * math.pi * rng.uniform(150.0, 500.0),
        launch_velocity=rng.uniform(-3e-3, 3e-3))
    env = Environment(gravity=rng.uniform(0.0, 3.0))
    transition = TransitionParams(wavelength=rng.uniform(1e-6, 3e-6))
    k = transition.wavevector_magnitude

    free = ArmTrajectory.launch(params, env, transition)
    pulsed = ArmTrajectory.launch(params, env, transition)
    t, net = 0.0, 0
    for _ in range(int(rng.integers(1, 6))):
        sign = int(rng.choice([-1, 1]))
        if abs(net + sign) > 2:
            sign = -sign
        net += sign
        pulsed = pulsed.kicks([t], [sign * k],
                               [rng.uniform(0.0, 2.0 * math.pi)])
        t += rng.uniform(3e-5, 1e-4)
    def opposing(r, net):
        # closing iff the integer net recoil opposes the separation
        # (float velocity differences are roundoff when net == 0)
        return net != 0 and (r == 0.0 or (r > 0.0) != (net > 0))

    while True:
        r = pulsed.position(t) - free.position(t)
        if abs(r) < 1e-12:
            r = 0.0     # sub-pm separations are roundoff, not geometry
        if opposing(r, net):
            break
        assert pulsed.kick_count < 10
        sign = -1 if (r > 0.0 or (r == 0.0 and net >= 0)) else 1
        net += sign
        pulsed = pulsed.kicks([t], [sign * k],
                               [rng.uniform(0.0, 2.0 * math.pi)])
        if opposing(r, net):
            break       # this kick closes; crossing may precede t + dt
        t += rng.uniform(3e-5, 1e-4)
    t_f = solve_encounter(free, pulsed, pulsed.end_time)
    return params, env, transition, free, pulsed, t_f


def test_criterion_1_flux_identity_oracle():
    from qbackflow.observables import flux_finite_difference, report

    rng = np.random.default_rng(20240817)
    n_cases = 24
    worst = 0.0
    for _ in range(n_cases):
        params, env, tr, free, pulsed, t_f = _random_meeting_arms(rng)
        weights = splitting_weights(rng.uniform(0.1, 4.0 * math.pi - 0.1),
                                    rng.uniform(0.0, 2.0 * math.pi))

        b, bdot = expansion(t_f, params.trap_frequency)
        sigma = params.oscillator_length * b
        m_over_h = params.mass / HBAR
        q = m_over_h * (pulsed.velocity(t_f) - free.velocity(t_f))
        half_width = 5.0 * sigma
        # total local wavenumber bounds the 4th-order stencil's
        # truncation error: (k dx)^4 / 30 <= 2.6e-7 at 130 samples
        k_total = (abs(q) + m_over_h * abs(free.velocity(t_f))
                   + m_over_h * (bdot / b) * half_width + 4.0 / sigma)
        samples = math.ceil(sigma * k_total * 130.0 / (2.0 * math.pi))
        grid = Grid.auto(free.position(t_f), sigma, half_width_factor=5.0,
                         envelope_samples=max(ENVELOPE_SAMPLES, samples))

        state = encounter_state(grid, free, pulsed, t_f, weights)
        analytic = report(state).flux_profile
        fd = flux_finite_difference(combined_from_state(state), params.mass)
        scale = float(np.max(np.abs(analytic)))
        err = float(np.max(np.abs(fd[2:-2] - analytic[2:-2]))) / scale
        worst = max(worst, err)

    _verdict(1, "flux identity", worst <= 1e-6,
             f"{n_cases} randomized configurations, worst relative "
             f"deviation {worst:.3e} (limit 1e-6)")


# -- criterion 2: analytic vs numerical propagation -------------------------

def test_criterion_2_reduced_scale_oracle():
    from qbackflow.cli import oracle_cross_check
    from qbackflow.presets import reduced_scale_config

    results = oracle_cross_check(reduced_scale_config())
    worst_amp = max(results[n][0] for n in ("free_arm", "pulsed_arm",
                                            "combined"))
    worst_phase = max(results[n][1] for n in ("free_arm", "pulsed_arm",
                                              "combined"))
    ok = worst_amp <= 1e-5 and worst_phase <= 1e-5
    _verdict(2, "analytic vs split-step propagation", ok,
             f"reduced scale: max amplitude error {worst_amp:.3e}, "
             f"phase spread {worst_phase:.3e} rad (limits 1e-5); "
             "full reference sequence covered by the nightly marker")


@pytest.mark.nightly
def test_criterion_2_full_reference_oracle_nightly():
    """Full reference sequence against the split-step oracle.

    This is expected to fail on current hardware and is kept red on
    purpose: the second pulse array's start time is calibrated to
    sub-picosecond precision, so the propagator's kick-snapping rule
    forces a time step of ~1e-12 s over a 20 ms sequence.  The test
    measures the actual per-step cost and fails with the evidence
    instead of hanging; it would run the comparison if the budget fit.
    """
    from qbackflow.cli import build_state, oracle_cross_check, oracle_grid_for
    from qbackflow.oracle import fft_length
    from qbackflow.presets import preset_config

    budget_s = 12.0 * 3600.0
    cfg = preset_config("paper-0.6pi")
    ctx = build_state(cfg)
    sc = ctx.scenario

    # largest time step allowed by the Nyquist kinetic-phase guard on a
    # grid resolving the fastest arm velocity
    m_over_h = sc.params.mass / HBAR
    v_max = max(abs(arm.velocity(float(t)))
                for arm in (ctx.free_arm, ctx.pulsed_arm)
                for t in np.linspace(0.0, ctx.encounter_time, 200))
    k_need = 1.5 * (m_over_h * v_max + 8.0 / sc.params.oscillator_length)
    spacing = math.pi / k_need
    # the length oracle_cross_check propagates for this many points
    n_points = fft_length(
        int(2.0 * oracle_grid_for(ctx, 3).half_width / spacing) | 1)
    dt_nyquist = 0.25 * math.pi / (
        HBAR * (math.pi / spacing) ** 2 / (2.0 * sc.params.mass))

    # largest time step aligning every pulse time within the 1e-12 s
    # snap tolerance (the calibrated array start defeats any coarse one)
    times = sc.pulses[:, 0].tolist()
    dt = dt_nyquist
    while any(abs(t - round(t / dt) * dt) > 1e-12 for t in times):
        dt /= 2.0
        if dt < 1e-13:
            break
    n_steps = ctx.encounter_time / dt

    # one step as propagate runs it: an in-place FFT pair on the stack of
    # both arms
    probe = np.random.default_rng(0).standard_normal((2, n_points)) + 0j
    t0 = time.perf_counter()
    reps = 20
    for _ in range(reps):
        np.fft.fft(probe, axis=-1, out=probe)
        np.fft.ifft(probe, axis=-1, out=probe)
    per_step = (time.perf_counter() - t0) / reps
    estimate_s = n_steps * per_step

    if estimate_s > budget_s:
        _verdict(2, "full-reference propagation (nightly)", False,
                 f"infeasible: {n_points} grid points, dt = {dt:.3e} s "
                 f"({n_steps:.3e} steps), measured {per_step * 1e3:.2f} ms "
                 f"per step -> {estimate_s / 86400.0:.1f} days "
                 f"(budget {budget_s / 3600.0:.0f} h)")
    results = oracle_cross_check(cfg, time_step=dt, oracle_points=n_points)
    worst = max(max(results[n]) for n in ("free_arm", "pulsed_arm",
                                          "combined"))
    _verdict(2, "full-reference propagation (nightly)", worst <= 1e-5,
             f"worst deviation {worst:.3e}")


def test_criterion_2_midscale_reference_oracle_nightly():
    """Feasible stand-in for the full sequence: same atom, line, gravity
    and pulse pattern shape, shortened to commensurate timing."""
    from qbackflow.cli import oracle_cross_check

    cfg = {
        "condensate": {"preset": "sr88", "launch_velocity_m_per_s": 5e-3},
        "environment": {"gravity_m_per_s2": 9.81},
        "transition": {"wavelength_m": 6.89e-7},
        "splitting_pulse": {"time_s": 0.0, "pulse_area_rad": 0.6 * math.pi,
                            "laser_phase_rad": 0.0, "sign": 1},
        "weights": {"mode": "splitting_pulse"},
        "pulse_arrays": [
            {"count": 3, "start_s": 2.0e-4, "interval_s": 5.0e-5, "sign": -1},
            {"count": 5, "start_s": 5.0e-4, "interval_s": 5.0e-5, "sign": 1},
        ],
        "encounter": {"auto": True},
        "grid": {"half_width_factor": 6.0, "fringe_samples": 20,
                 "envelope_samples": 50},
        "spectrum": {"enabled": False},
        "output": {},
    }
    results = oracle_cross_check(cfg, time_step=1.25e-7, oracle_points=1025)
    worst_amp = max(results[n][0] for n in ("free_arm", "pulsed_arm",
                                            "combined"))
    worst_phase = max(results[n][1] for n in ("free_arm", "pulsed_arm",
                                              "combined"))
    ok = worst_amp <= 1e-5 and worst_phase <= 1e-5
    _verdict(2, "midscale reference propagation", ok,
             f"max amplitude error {worst_amp:.3e}, phase spread "
             f"{worst_phase:.3e} rad (limits 1e-5)")


# -- criterion 3: calibrated paper numbers ----------------------------------

def test_criterion_3_reference_numbers(ref_ctx_06, ref_ctx_075):
    from qbackflow.observables import report

    rep06 = report(ref_ctx_06.state)
    rep075 = report(ref_ctx_075.state)

    checks = [
        ("rho_crit max at 0.6 pi", rep06.rho_crit_max_fraction, 0.1521),
        ("rho_crit max at 0.75 pi", rep075.rho_crit_max_fraction, 0.3979),
        ("density min at 0.75 pi", rep075.density_min_fraction, 0.1839),
    ]
    details = []
    ok = True
    for name, got, target in checks:
        good = abs(got - target) <= 0.015
        ok = ok and good
        details.append(f"{name}: {100 * got:.2f}% vs {100 * target:.2f}%")
    flux_ok = rep075.max_negative_flux < -500.0
    ok = ok and flux_ok
    details.append(f"min flux at 0.75 pi: {rep075.max_negative_flux:.1f}/s "
                   "(< -500 required)")

    # regression locks from the first validated run
    locks = [
        (rep06.rho_crit_max_fraction, 0.147923621822904),
        (rep06.density_min_fraction, 0.025218909124205387),
        (rep075.rho_crit_max_fraction, 0.3868485230773098),
        (rep075.density_min_fraction, 0.17170308066691342),
        (rep075.max_negative_flux, -768.6709638540091),
        (rep075.backflow_rate, 0.0034806483812857662),
    ]
    locked = all(got == pytest.approx(ref, rel=1e-9) for got, ref in locks)
    ok = ok and locked
    details.append("regression locks " + ("held" if locked else "BROKEN"))

    _verdict(3, "calibrated reference numbers", ok, "; ".join(details))


def test_criterion_3_density_min_at_0p6pi_known_gap(ref_ctx_06):
    """Red on purpose: the published 0.04% central dip at a 0.6 pi
    splitting pulse is unreachable under this weight model.

    A splitting pulse of area A fixes the arm populations to
    cos^2(A/2) / sin^2(A/2), and a two-wave beat can dip no lower than
    (|c_f| - |c_b|)^2 / (|c_f| + |c_b|)^2 = 2.52% at A = 0.6 pi.  A
    0.04% dip needs |c_f| ~ |c_b| (a splitting area near pi/2), so the
    published figure cannot come from the same pulse area that sets the
    15.21% critical density unless the dip was measured with separately
    balanced weights.  Kept red rather than widening the tolerance.
    """
    from qbackflow.observables import report

    rep06 = report(ref_ctx_06.state)
    got = rep06.density_min_fraction
    w = ref_ctx_06.weights
    floor = ((abs(w.c_f) - abs(w.c_b)) / (abs(w.c_f) + abs(w.c_b))) ** 2
    ok = abs(got - 0.0004) <= 0.015
    _verdict(3, "density min at 0.6 pi (known gap)", ok,
             f"got {100 * got:.2f}% vs published 0.04% +- 1.5pp; "
             f"two-wave interference floor at these populations is "
             f"{100 * floor:.2f}%, so the target is structurally out of "
             f"reach for a 0.6 pi splitting pulse")


# -- criterion 4: pulse-area sweep structure --------------------------------

def test_criterion_4_pulse_area_sweep_structure(fig8a_result):
    res = fig8a_result
    rates = res.rates
    values = res.values
    scale = float(rates.max())

    # symmetry about pi (and, by periodicity, about 3 pi)
    first_period = rates[:201]
    sym_err = float(np.max(np.abs(first_period - first_period[::-1]))) / scale
    per_err = float(np.max(np.abs(rates[:201] - rates[200:]))) / scale

    # identically zero on [0, pi/2], [3 pi/2, 5 pi/2], [7 pi/2, 4 pi]
    # and at pi (and 3 pi)
    eps = 1e-12
    zero_mask = ((values <= 0.5 * math.pi + eps)
                 | ((values >= 1.5 * math.pi - eps)
                    & (values <= 2.5 * math.pi + eps))
                 | (values >= 3.5 * math.pi - eps)
                 | (np.abs(values - math.pi) <= eps)
                 | (np.abs(values - 3.0 * math.pi) <= eps))
    zeros_exact = bool(np.all(rates[zero_mask] == 0.0))

    # exactly one interior peak per half-period
    half_periods = [(0.0, math.pi), (math.pi, 2.0 * math.pi),
                    (2.0 * math.pi, 3.0 * math.pi),
                    (3.0 * math.pi, 4.0 * math.pi)]
    peaks_per_half = []
    for lo, hi in half_periods:
        seg = rates[(values >= lo - eps) & (values <= hi + eps)]
        interior = (seg[1:-1] > seg[:-2]) & (seg[1:-1] >= seg[2:]) \
            & (seg[1:-1] > 0.0)
        peaks_per_half.append(int(np.count_nonzero(interior)))

    ok = (sym_err <= 1e-9 and per_err <= 1e-9 and zeros_exact
          and peaks_per_half == [1, 1, 1, 1])
    _verdict(4, "pulse-area sweep structure", ok,
             f"symmetry residual {sym_err:.2e} (limit 1e-9), "
             f"zero regions bitwise zero: {zeros_exact}, "
             f"peaks per half-period {peaks_per_half}")


# -- criterion 5: real-weight sweep -----------------------------------------

def test_criterion_5_real_weight_sweep(fig8b_result):
    res = fig8b_result
    rates = res.rates
    values = res.values

    end_zero = rates[0] == 0.0 and rates[-1] == 0.0
    beyond = rates[values > 1.0 / math.sqrt(2.0) + 1e-12]
    upper_zero = bool(np.all(beyond == 0.0))
    interior = (rates[1:-1] > rates[:-2]) & (rates[1:-1] >= rates[2:]) \
        & (rates[1:-1] > 0.0)
    n_peaks = int(np.count_nonzero(interior))
    argmax = res.refined_argmax_value
    in_band = 0.34 <= argmax <= 0.40

    ok = end_zero and upper_zero and n_peaks == 1 and in_band
    _verdict(5, "real-weight sweep", ok,
             f"rate(0) = {rates[0]}, rate(1) = {rates[-1]}, "
             f"zero for c_b > 1/sqrt(2): {upper_zero}, "
             f"interior peaks {n_peaks}, argmax {argmax:.4f} "
             f"(band 0.37 +- 0.03)")


# -- criterion 6: classical-backflow exclusion -------------------------------

def test_criterion_6_momentum_spectra_of_presets(fft_spectrum):
    from qbackflow.cli import run_scenario
    from qbackflow.presets import PRESETS, preset_config

    details = []
    ok = True
    for name in sorted(PRESETS):
        doc, _, ctx = run_scenario(preset_config(name))
        t_f = ctx.encounter_time
        m_over_h = ctx.scenario.params.mass / HBAR
        expected = sorted([m_over_h * ctx.free_arm.velocity(t_f),
                           m_over_h * ctx.pulsed_arm.velocity(t_f)])

        # numerical reference: FFT of the analytic state
        k, d = fft_spectrum(ctx, ctx.scenario.spectrum_cfg["half_width_factor"])
        bin_width = k[1] - k[0]
        neg = float(d[k < 0.0].sum() * bin_width)
        peaks = np.flatnonzero((d[1:-1] > d[:-2]) & (d[1:-1] >= d[2:])
                               & (d[1:-1] > 1e-3 * float(d.max()))) + 1
        got = sorted(k[peaks[np.argsort(d[peaks])[::-1][:2]]])
        peaks_ok = (len(got) == 2 and
                    all(abs(g - e) <= bin_width
                        for g, e in zip(got, expected)))

        # closed form, as run writes it
        block = doc["momentum_spectrum"]
        block_ok = (block["negative_weight"] < 1e-6
                    and block["cross_term_bound"] < 1e-6
                    and block["peak_wavenumbers_per_m"]
                    == pytest.approx(expected, rel=1e-12))
        good = neg < 1e-6 and peaks_ok and block_ok
        ok = ok and good
        details.append(f"{name}: negative weight {neg:.2e} (FFT), "
                       f"{block['negative_weight']:.2e} (closed form), "
                       f"peaks within one bin: {peaks_ok}")
    _verdict(6, "classical-backflow exclusion", ok, "; ".join(details))


# -- criterion 7: property suite ---------------------------------------------

def test_criterion_7_property_suite(ref_ctx_06):
    from qbackflow.kinematics import action_phase_dd, free_fall_step
    from qbackflow.model import sr88_params
    from qbackflow.observables import report
    from qbackflow.oracle import PropagatorConfig, gaussian_packet, propagate
    from qbackflow.pulses import real_weights
    from qbackflow.wavefield import free_arm_wavefunction

    from conftest import transition_matrix

    rng = np.random.default_rng(7)
    checks = {}

    # norm conservation: 1e-10 numerical, 1e-6 analytic grid truncation
    params = sr88_params(launch_velocity=0.0)
    g = Grid(center=0.0, half_width=30.0 * params.oscillator_length,
             n_points=513)
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    out = propagate(psi0, PropagatorConfig(time_step=2e-6, grid=g,
                                           mass=params.mass, gravity=2.0),
                    2e-3)
    checks["oracle norm 1e-10"] = abs(out.norm() - psi0.norm()) <= 1e-10
    sc = ref_ctx_06.scenario
    analytic = free_arm_wavefunction(ref_ctx_06.state)
    checks["analytic norm 1e-6"] = abs(analytic.norm() - 1.0) <= 1e-6

    # transition-matrix unitarity at 1e-12 over random pulses
    unitary = True
    for _ in range(200):
        m = transition_matrix(rng.uniform(0.0, 4.0 * math.pi),
                              rng.uniform(0.0, 2.0 * math.pi),
                              rng.uniform(0.0, 2.0 * math.pi))
        unitary &= float(np.max(np.abs(m @ m.conj().T - np.eye(2)))) <= 1e-12
    checks["unitarity 1e-12"] = unitary

    # pi-pulse matrix: exact population swap
    m = transition_matrix(math.pi, 0.3, 1.1)
    checks["pi-pulse exact"] = (
        abs(m[0, 0]) <= 1e-16 and abs(m[1, 1]) <= 1e-16
        and abs(m[0, 1]) == 1.0 and abs(m[1, 0]) == 1.0
        and m[0, 1] == pytest.approx(-1j * np.exp(1j * (0.3 - 1.1)),
                                     abs=1e-15))

    # action additivity at 1e-12 rad
    additive = True
    for _ in range(100):
        p0 = rng.uniform(-5e-27, 5e-27)
        x0 = rng.uniform(-1e-4, 1e-4)
        dt1, dt2 = rng.uniform(1e-6, 1e-3, size=2)
        grav = rng.uniform(0.0, 2.0)
        mass = 1.461e-25
        whole = action_phase_dd(p0, x0, dt1 + dt2, mass, grav)
        x1, v1 = free_fall_step(x0, p0 / mass, dt1, grav)
        parts = action_phase_dd(p0, x0, dt1, mass, grav).add(
            action_phase_dd(mass * v1, x1, dt2, mass, grav))
        additive &= abs(parts.value() - whole.value()) <= 1e-12
    checks["action additivity 1e-12"] = additive

    # gravity invariance of encounter solving
    times = {}
    for grav in (0.0, 4.9, 9.81):
        p = sr88_params(launch_velocity=0.05)
        e = Environment(gravity=grav)
        tr = sc.transition
        free = ArmTrajectory.launch(p, e, tr)
        pulsed = ArmTrajectory.launch(p, e, tr).kicks(
            [0.0, 1e-3], [tr.wavevector_magnitude,
                          -2.0 * tr.wavevector_magnitude])
        times[grav] = solve_encounter(free, pulsed, pulsed.end_time)
    ref = times[9.81]
    checks["gravity-invariant encounter"] = all(
        t == pytest.approx(ref, rel=1e-12) for t in times.values())

    # rho_crit sign rule: sign follows |c_f|^2 - |c_b|^2
    state = ref_ctx_06.state
    checks["rho_crit sign rule"] = bool(
        np.all(report(state, real_weights(0.3)).critical_density_profile
               >= 0.0)
        and np.all(report(state, real_weights(0.9)).critical_density_profile
                   <= 0.0))

    # backflow requires interference: rate is exactly zero for
    # single-arm weights
    checks["backflow needs interference"] = all(
        report(state, w).backflow_rate == 0.0
        for w in (real_weights(0.0), real_weights(1.0)))

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(7, "property suite", ok,
             "all properties held" if ok else f"failed: {failed}")


# -- criterion 8: oracle convergence ------------------------------------------

def test_criterion_8_oracle_convergence():
    from qbackflow.cli import build_state
    from qbackflow.oracle import PropagatorConfig, gaussian_packet, propagate
    from qbackflow.presets import reduced_scale_config

    from conftest import position_expectation

    ctx = build_state(reduced_scale_config())
    sc = ctx.scenario
    t_f = ctx.encounter_time
    a = sc.params.oscillator_length
    launch_position = ctx.free_arm.positions[0]
    grid = Grid(center=ctx.grid.center, half_width=60.0 * a, n_points=513)

    def solve(dt):
        cfg = PropagatorConfig(time_step=dt, grid=grid, mass=sc.params.mass,
                               gravity=sc.env.gravity,
                               trap_frequency=sc.params.trap_frequency)
        psi0 = gaussian_packet(grid, a, sc.params.launch_velocity,
                               center=launch_position, mass=sc.params.mass)
        return propagate(psi0, cfg, t_f)

    reference = solve(1.5625e-7)

    def l2_error(dt):
        diff = solve(dt).amplitudes - reference.amplitudes
        return math.sqrt(float(np.sum(np.abs(diff) ** 2) * grid.spacing))

    e1, e2, e3 = (l2_error(dt) for dt in (2.5e-6, 1.25e-6, 6.25e-7))
    order12 = math.log2(e1 / e2)
    order23 = math.log2(e2 / e3)
    orders_ok = 1.8 <= order12 <= 2.2 and 1.8 <= order23 <= 2.2

    com_err = abs(position_expectation(reference)
                  - ctx.free_arm.position(t_f))
    ehrenfest_ok = com_err <= 1e-9 * a

    ok = orders_ok and ehrenfest_ok
    _verdict(8, "oracle convergence", ok,
             f"measured orders {order12:.3f}, {order23:.3f} "
             f"(band [1.8, 2.2]); Ehrenfest COM error "
             f"{com_err / a:.2e} a_x (limit 1e-9)")

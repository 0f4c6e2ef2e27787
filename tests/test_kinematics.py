import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbackflow.kinematics import (
    EXCITED,
    GROUND,
    ArmTrajectory,
    NoEncounterError,
    OrderingError,
    action_phase_dd,
    free_fall_step,
    internal_phase_dd,
    solve_encounter,
)
from qbackflow.model import (
    HBAR,
    CondensateParams,
    DomainError,
    TransitionParams,
    sr88_params,
)
from qbackflow.phaseacc import DoubleDouble, product, two_sum


def _arms(gravity=9.81, launch=0.2):
    params = sr88_params(launch_velocity=launch)
    tr = TransitionParams(689e-9)
    free = ArmTrajectory.launch(params, gravity, tr)
    pulsed = ArmTrajectory.launch(params, gravity, tr)
    return params, gravity, tr, free, pulsed


def test_free_fall_step():
    x, v = free_fall_step(1.0, 2.0, 3.0, 9.81)
    assert x == pytest.approx(1.0 + 6.0 - 0.5 * 9.81 * 9.0)
    assert v == pytest.approx(2.0 - 9.81 * 3.0)
    with pytest.raises(DomainError):
        free_fall_step(0.0, 0.0, -1.0, 9.81)


def test_action_phase_matches_lagrangian_integral():
    # (1/hbar) integral of m v^2 / 2 - m g x along the ballistic path.
    m, g = 2.0, 3.0
    p0, x0, dt = 5.0, -1.0, 0.7

    def lagrangian(t):
        v = p0 / m - g * t
        x = x0 + (p0 / m) * t - 0.5 * g * t * t
        return 0.5 * m * v * v - m * g * x

    # the Lagrangian is quadratic in t, so 3-point Gauss-Legendre is exact
    nodes, w = np.polynomial.legendre.leggauss(3)
    expected = 0.5 * dt * float(w @ lagrangian(0.5 * dt * (nodes + 1.0)))
    assert action_phase_dd(p0, x0, dt, m, g).value() == pytest.approx(
        expected / HBAR, rel=1e-12)


@settings(max_examples=200)
@given(st.floats(-5e-27, 5e-27), st.floats(-1e-4, 1e-4),
       st.floats(1e-6, 1e-3), st.floats(1e-6, 1e-3), st.floats(0.0, 2.0))
def test_action_additivity(p0, x0, dt1, dt2, g):
    # Splitting a ballistic stretch at an interior point leaves the
    # total action unchanged to 1e-12 rad.  The split state (x1, v1) is
    # rounded to float64, so the achievable absolute agreement scales
    # with the action magnitude; the domain here keeps actions at
    # ~1e3 rad where one ulp of the handoff stays below the budget.
    m = 1.461e-25
    whole = action_phase_dd(p0, x0, dt1 + dt2, m, g)
    x1, v1 = free_fall_step(x0, p0 / m, dt1, g)
    first = action_phase_dd(p0, x0, dt1, m, g)
    second = action_phase_dd(m * v1, x1, dt2, m, g)
    split_total = first.add(second)
    assert abs(split_total.value() - whole.value()) <= 1e-12


@settings(max_examples=100)
@given(st.floats(-1e-24, 1e-24), st.floats(-1e-3, 1e-3),
       st.floats(1e-6, 1e-2), st.floats(1e-6, 1e-2), st.floats(0.0, 10.0))
@example(p0=0.0, x0=2.8838962618392893e-4, dt1=0.009765625, dt2=1e-6,
         g=9.0)
def test_action_additivity_relative_at_scale(p0, x0, dt1, dt2, g):
    # At interferometer scale (~1e6 rad) the double-double ledger itself
    # is exact to ~1e-28 rad; what remains is the float64 rounding of
    # the inputs.  The handoff state (x1, m v1) feeds the second action
    # and the sum dt1 + dt2 feeds the whole one; each rounding moves its
    # action by the partial derivative times the rounding error.  The
    # 2e-15 * scale term covers rounding both totals to float64.
    m = 1.461e-25
    whole = action_phase_dd(p0, x0, dt1 + dt2, m, g)
    x1, v1 = free_fall_step(x0, p0 / m, dt1, g)
    P1 = m * v1
    split_total = action_phase_dd(p0, x0, dt1, m, g).add(
        action_phase_dd(P1, x1, dt2, m, g))
    dt = dt1 + dt2
    lagrangian_end = (p0 * p0 / (2 * m) - m * g * x0 - 2 * p0 * g * dt
                      + m * g * g * dt * dt) / HBAR        # dS/d(dt)
    budget = (abs(m * g * dt2 / HBAR) * math.ulp(x1)
              + abs((P1 * dt2 / m - g * dt2 * dt2) / HBAR) * math.ulp(P1)
              + abs(lagrangian_end) * abs(two_sum(dt1, dt2)[1]))
    scale = max(abs(whole.value()), 1.0)
    assert abs(split_total.value() - whole.value()) <= budget + 2e-15 * scale


def test_internal_phase_sign():
    assert internal_phase_dd(2.0 * HBAR, 3.0).value() == pytest.approx(-6.0)
    assert internal_phase_dd(0.0, 5.0).value() == 0.0


def test_trajectory_path_and_kick():
    params, gravity, tr, free, pulsed = _arms()
    k = tr.wavevector_magnitude
    t1 = 1e-3
    pulsed = pulsed.kicks([t1], [k], [0.4])
    # position continuous, velocity jumps by hbar k / m
    assert pulsed.position(t1) == pytest.approx(free.position(t1), rel=1e-15)
    dv = HBAR * k / params.mass
    assert pulsed.velocity(t1) - free.velocity(t1) == pytest.approx(
        dv, rel=1e-12)
    # the launch entry is ground, the kicked one excited
    assert pulsed.times.tolist() == [0.0, t1]
    assert pulsed.internal_states.tolist() == [GROUND, EXCITED]
    assert pulsed.velocity(0.5 * t1) == free.velocity(0.5 * t1)
    assert pulsed.kick_count == 1
    assert pulsed.kick_velocity_total == pytest.approx(dv, rel=1e-15)


def test_kick_ordering_enforced():
    _, _, tr, _, pulsed = _arms()
    pulsed = pulsed.kicks([1e-3], [tr.wavevector_magnitude])
    with pytest.raises(OrderingError):
        pulsed.kicks([0.5e-3], [tr.wavevector_magnitude])


def test_phase_query_before_last_pulse_rejected():
    _, _, tr, _, pulsed = _arms()
    pulsed = pulsed.kicks([1e-3], [tr.wavevector_magnitude])
    with pytest.raises(DomainError):
        pulsed.phases_at(0.5e-3)


def test_phases_at_incremental_consistency():
    # Accumulating through a kick equals querying the pre-kick ledger at
    # the kick time plus the pulse terms.
    params, gravity, tr, _, pulsed = _arms()
    k = tr.wavevector_magnitude
    t1, phi = 1e-3, 0.7
    before_action, before_laser, before_internal = pulsed.phases_at(t1)
    kicked = pulsed.kicks([t1], [k], [phi])
    assert kicked.action_phase_total.value() == pytest.approx(
        before_action.value(), rel=1e-14)
    assert kicked.internal_phase_total.value() == pytest.approx(
        before_internal.value(), rel=1e-14, abs=1e-20)
    x_c = pulsed.position(t1)
    expected_laser = GROUND * phi + k * x_c - 0.5 * math.pi
    assert kicked.laser_phase_total.value() == pytest.approx(
        expected_laser, rel=1e-12)


def test_solve_encounter_exact_linear_root():
    _, _, tr, free, pulsed = _arms()
    k = tr.wavevector_magnitude
    pulsed = pulsed.kicks([0.0, 1e-3], [k, -2 * k])
    t = solve_encounter(free, pulsed)
    assert t > 1e-3
    assert abs(pulsed.position(t) - free.position(t)) <= 1e-12 * abs(
        free.position(t))


def test_solve_encounter_gravity_invariant():
    # Gravity cancels in the relative coordinate: identical pulse
    # sequences meet at the same time for any g.
    times = {}
    for g in (0.0, 2.0, 9.81):
        _, _, tr, free, pulsed = _arms(gravity=g, launch=0.05)
        k = tr.wavevector_magnitude
        pulsed = pulsed.kicks([0.0, 1e-3], [k, -2 * k])
        times[g] = solve_encounter(free, pulsed)
    ref = times[9.81]
    assert times[0.0] == pytest.approx(ref, rel=1e-12)
    assert times[2.0] == pytest.approx(ref, rel=1e-12)


def test_no_encounter_reports_min_separation():
    _, _, tr, free, pulsed = _arms()
    k = tr.wavevector_magnitude
    pulsed = pulsed.kicks([0.0, 1e-3], [k, k])  # arms separate forever
    t0 = pulsed.end_time
    with pytest.raises(NoEncounterError) as err:
        solve_encounter(free, pulsed)
    expected = abs(pulsed.position(t0) - free.position(t0))
    assert err.value.min_separation == pytest.approx(expected, rel=1e-12)


def test_reference_sequence_frozen_calibration():
    # The shipped reference sequence is regression-locked: encounter
    # time, velocity difference (12 recoils) and the free arm's own
    # velocity at the encounter.
    from qbackflow.cli import build_trajectories, parse_config
    from qbackflow.presets import (
        REFERENCE_DELTA_V_M_PER_S,
        REFERENCE_ENCOUNTER_TIME_S,
        REFERENCE_FREE_VELOCITY_M_PER_S,
        REFERENCE_RECOIL_COUNT,
        reference_config,
    )

    sc = parse_config(reference_config(0.6 * math.pi))
    free, pulsed = build_trajectories(sc)
    t_f = solve_encounter(free, pulsed)
    assert t_f == pytest.approx(REFERENCE_ENCOUNTER_TIME_S, rel=1e-12)
    dv = pulsed.velocity(t_f) - free.velocity(t_f)
    assert dv == pytest.approx(REFERENCE_DELTA_V_M_PER_S, rel=1e-12)
    v_r = sc.transition.recoil_velocity_for(sc.params.mass)
    assert dv == pytest.approx(REFERENCE_RECOIL_COUNT * v_r, rel=1e-12)
    assert free.velocity(t_f) == pytest.approx(
        REFERENCE_FREE_VELOCITY_M_PER_S, abs=1e-9)
    assert pulsed.kick_count == 1 + 38 + 49


# -- array ledger against the pulse-by-pulse scalar ledger ----------------

def _scalar_ledger(params, gravity, tr, pulses):
    """Reference: the pulse-by-pulse scalar double-double construction.

    pulses is a sequence of (time, signed_k, laser_phase) from launch at
    t = 0 in the ground state.  Returns the post-pulse (x, v) pairs, the
    live segment's start (t, x, v, mu), the three closed-segment ledgers
    and the summed kick velocity.
    """
    g, m = gravity, params.mass
    t0, x, v, mu = 0.0, 0.0, params.launch_velocity, GROUND
    action = internal = laser = DoubleDouble()
    states, kick_velocity = [], 0.0
    for t, k, phi in pulses:
        dt = t - t0
        x_c, v_c = free_fall_step(x, v, dt, g)
        action = action.add(action_phase_dd(m * v, x, dt, m, g))
        internal = internal.add(internal_phase_dd(tr.energy(mu), dt))
        laser = (laser.add(product(float(mu), phi)).add(product(k, x_c))
                 .add(DoubleDouble(-0.5 * math.pi)))
        dv = HBAR * k / m
        t0, x, v, mu = t, x_c, v_c + dv, -mu
        states.append((x, v))
        kick_velocity += dv
    return {"states": states, "live": (t0, x, v, mu), "action": action,
            "laser": laser, "internal": internal,
            "kick_velocity": kick_velocity}


def _scalar_total_phase_at(ref, params, gravity, tr, t):
    t0, x, v, mu = ref["live"]
    m = params.mass
    return (ref["action"]
            .add(action_phase_dd(m * v, x, t - t0, m, gravity))
            .add(ref["laser"])
            .add(ref["internal"])
            .add(internal_phase_dd(tr.energy(mu), t - t0)))


def _dd_gap(a: DoubleDouble, b: DoubleDouble) -> float:
    return abs(a.add(b.neg()).value())


_pulse = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 2e-4)),      # gap; 0 is legal
    st.sampled_from([-2.0, -1.0, 1.0, 2.0]),             # k in units of k_L
    st.floats(0.0, 2.0 * math.pi))                       # laser phase


@settings(max_examples=60, deadline=None)
@given(st.lists(_pulse, min_size=1, max_size=200),
       st.floats(0.0, 1e-3), st.floats(0.0, 10.0), st.floats(-0.3, 0.3))
def test_array_ledger_matches_scalar_ledger(pulses, t_first, g, launch):
    params, _, tr, _, arm = _arms(gravity=g, launch=launch)
    k_l = tr.wavevector_magnitude
    times = t_first + np.cumsum([gap for gap, _, _ in pulses])
    seq = [(float(t), n * k_l, phi) for t, (_, n, phi) in zip(times, pulses)]
    ref = _scalar_ledger(params, g, tr, seq)
    bulk = arm.kicks(*zip(*seq))

    assert bulk.kick_count == len(seq)
    x_ref, v_ref = np.array(ref["states"]).T
    np.testing.assert_allclose(bulk.positions[1:], x_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(x_ref)))
    np.testing.assert_allclose(bulk.velocities[1:], v_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(v_ref)))
    dv = HBAR * k_l / params.mass
    assert abs(bulk.kick_velocity_total - ref["kick_velocity"]) <= 1e-15 * max(
        abs(ref["kick_velocity"]), dv)
    assert _dd_gap(bulk.action_phase_total, ref["action"]) <= 1e-9
    assert _dd_gap(bulk.laser_phase_total, ref["laser"]) <= 1e-9
    assert _dd_gap(bulk.internal_phase_total, ref["internal"]) <= 1e-9

    # one pulse at a time through kicks() builds the same trajectory
    stepped = arm
    for t, k, phi in seq:
        stepped = stepped.kicks([t], [k], [phi])
    np.testing.assert_array_equal(stepped.positions, bulk.positions)
    np.testing.assert_array_equal(stepped.velocities, bulk.velocities)
    np.testing.assert_array_equal(stepped.internal_states,
                                  bulk.internal_states)
    t_end = float(times[-1]) + 1e-3
    assert _dd_gap(stepped.total_phase_at(t_end),
                   bulk.total_phase_at(t_end)) <= 1e-9
    assert _dd_gap(bulk.total_phase_at(t_end),
                   _scalar_total_phase_at(ref, params, g, tr, t_end)) <= 1e-9


def _exact_sum(*factors) -> Fraction:
    """Sum of the elementwise product of float arrays, in rationals."""
    return sum((math.prod(map(Fraction, column)) for column in zip(*factors)),
               Fraction(0))


def _exact_ledgers(arm, ks, laser_phases):
    """The arm's three closed-segment ledgers, evaluated exactly from its
    own arrays (with P = m v rounded as kicks rounds it), each with its
    sum of |terms| in floats."""
    dt = np.diff(arm.times)
    x, mu = arm.positions, arm.internal_states[:-1]
    m, g = arm.params.mass, arm.gravity
    P = m * arm.velocities[:-1]
    fm, fg, fh = Fraction(m), Fraction(g), Fraction(HBAR)
    action = (_exact_sum(P, P, dt) / (2 * fm)
              - fm * fg * _exact_sum(x[:-1], dt) - fg * _exact_sum(P, dt, dt)
              + fm * fg * fg * _exact_sum(dt, dt, dt) / 3) / fh
    action_size = float(np.sum(np.abs(P * P * dt / (2.0 * m))
                               + np.abs(m * g * x[:-1] * dt)
                               + np.abs(g * P * dt * dt)
                               + np.abs(m * g * g * dt ** 3 / 3.0)) / HBAR)
    energy, excited = arm.transition.excited_energy, dt[mu == EXCITED]
    internal = -Fraction(energy) * _exact_sum(excited) / fh
    internal_size = energy / HBAR * float(np.sum(excited))
    laser = (_exact_sum(mu * laser_phases) + _exact_sum(ks, x[1:])
             + len(dt) * Fraction(-0.5 * math.pi))
    laser_size = float(np.sum(np.abs(laser_phases))
                       + np.sum(np.abs(ks * x[1:])) + len(dt) * 0.5 * math.pi)
    return ((action, action_size), (laser, laser_size),
            (internal, internal_size))


#: Ledger error allowed, relative to the ledger's sum of |terms|:
#: sum_products_dd's (2 d (d + 2) + 3) u^2 at d = 13 (up to 8,192 pulses),
#: u = 2**-53, and 60 u^2 for the constants.  Measured: at most 0.95 u^2 on
#: the 8,012-pulse shuttle sequence (0.33 action, 0.023 laser, 0.95
#: internal) and 2.7 u^2 on 400 random sequences of up to 200 pulses drawn
#: like the Hypothesis ones.  A plain float sum of one moment row, a
#: dropped lo part or E applied per segment in floats is off by far more.
#: Row terms below 2**-1022 (a subnormal dt) keep fewer bits; scaled by
#: the largest constant, 1/(2 m hbar) ~ 3e58 in SI units, what they lose
#: stays below LEDGER_FLOOR rad.
LEDGER_BOUND = (2 * 13 * 15 + 63) * 2.0 ** -106
LEDGER_FLOOR = 1e-250


def _assert_ledgers_near_exact(arm, ks, laser_phases):
    got = (arm.action_phase_total, arm.laser_phase_total,
           arm.internal_phase_total)
    for ledger, (exact, size) in zip(got, _exact_ledgers(arm, ks,
                                                         laser_phases)):
        gap = abs(Fraction(ledger.hi) + Fraction(ledger.lo) - exact)
        assert gap <= Fraction(LEDGER_BOUND * size + LEDGER_FLOOR), (
            float(gap), size)


@settings(max_examples=60, deadline=None)
@given(st.lists(_pulse, min_size=1, max_size=200),
       st.floats(0.0, 1e-3), st.floats(0.0, 10.0), st.floats(-0.3, 0.3))
def test_array_ledgers_hold_double_double_precision(pulses, t_first, g,
                                                    launch):
    params, _, tr, _, arm = _arms(gravity=g, launch=launch)
    times = t_first + np.cumsum([gap for gap, _, _ in pulses])
    ks = np.array([n for _, n, _ in pulses]) * tr.wavevector_magnitude
    phis = np.array([phi for _, _, phi in pulses])
    _assert_ledgers_near_exact(arm.kicks(times, ks, phis), ks, phis)


def test_equal_time_pulses_and_lookup():
    # dt = 0 is legal; a query at the shared time sees the last of them.
    params, gravity, tr, _, arm = _arms()
    k = tr.wavevector_magnitude
    arm = arm.kicks([1e-3, 1e-3, 2e-3], [k, k, -k])
    assert arm.kick_count == 3
    assert arm.times.tolist() == [0.0, 1e-3, 1e-3, 2e-3]
    assert arm.internal_states.tolist() == [GROUND, EXCITED, GROUND, EXCITED]
    assert arm.end_time == 2e-3
    dv = HBAR * k / params.mass
    # the launch entry before the pulses, then the second of the equal-time
    # pair (two recoils, not one) at and after 1e-3, then the last pulse
    for t, kicks in zip((0.5e-3, 1e-3, 1.5e-3, 2e-3), (0, 2, 2, 1)):
        free = params.launch_velocity - gravity * t
        assert arm.velocity(t) == pytest.approx(free + kicks * dv,
                                                rel=1e-14), t
    arm.phases_at(2e-3)
    with pytest.raises(DomainError):
        arm.phases_at(1.5e-3)
    with pytest.raises(DomainError):
        arm.position(-1e-3)
    with pytest.raises(DomainError):
        arm.position(math.nan)
    with pytest.raises(OrderingError):
        arm.kicks([3e-3, 2.5e-3], [k, k])
    with pytest.raises(OrderingError):
        arm.kicks([math.nan], [k])


def _shuttle_config(n_shuttle: int, start: float = 5e-5,
                    interval: float = 4.5e-7, block: int = 12) -> dict:
    """Reference sequence with zero-net shuttle blocks (block down, then
    block up; the last block shorter) before the two reference arrays."""
    from qbackflow.presets import reference_config
    cfg = reference_config(0.6 * math.pi)
    arrays, t, left = [], start, n_shuttle // 2
    while left:
        count = min(block, left)
        for sign in (-1, 1):
            arrays.append({"count": count, "start_s": t,
                           "interval_s": interval, "sign": sign,
                           "laser_phase_rad": 0.37 * (len(arrays) % 17)})
            t += count * interval
        left -= count
    cfg["pulse_arrays"] = arrays + cfg["pulse_arrays"]
    return cfg


def test_long_shuttle_sequence_matches_scalar_ledger():
    from qbackflow.cli import build_trajectories, parse_config
    from qbackflow.presets import REFERENCE_RECOIL_COUNT

    sc = parse_config(_shuttle_config(7924))
    free, pulsed = build_trajectories(sc)
    assert pulsed.kick_count == 8012
    t_f = solve_encounter(free, pulsed)
    v_r = sc.transition.recoil_velocity_for(sc.params.mass)
    dv = pulsed.velocity(t_f) - free.velocity(t_f)
    assert dv == pytest.approx(REFERENCE_RECOIL_COUNT * v_r, rel=1e-9)

    k = sc.transition.wavevector_magnitude
    seq = [(t, s * k, phi) for t, s, phi in sc.pulses.tolist()]
    args = (sc.params, sc.gravity, sc.transition)
    ref_pulsed = _scalar_total_phase_at(_scalar_ledger(*args, seq), *args, t_f)
    ref_free = _scalar_total_phase_at(_scalar_ledger(*args, []), *args, t_f)
    new_pulsed = pulsed.total_phase_at(t_f)
    new_free = free.total_phase_at(t_f)
    assert _dd_gap(new_pulsed, ref_pulsed) <= 1e-9
    assert _dd_gap(new_free, ref_free) <= 1e-9
    assert _dd_gap(new_pulsed.add(new_free.neg()),
                   ref_pulsed.add(ref_free.neg())) <= 1e-9


def test_long_shuttle_ledgers_hold_double_double_precision():
    from qbackflow.cli import build_trajectories, parse_config

    sc = parse_config(_shuttle_config(7924))
    _, pulsed = build_trajectories(sc)
    _, signs, phis = sc.pulses.T
    ks = signs * sc.transition.wavevector_magnitude
    _assert_ledgers_near_exact(pulsed, ks, phis)


def test_overflowing_ledgers_are_refused_when_reduced():
    # Pulses 1e200 s apart overflow the positions and the moment rows to
    # inf and NaN.  kicks builds them without a numpy RuntimeWarning
    # (the test suite turns those into errors); the phase is refused,
    # with its value, when it is reduced mod 2 pi.
    _, _, tr, _, arm = _arms()
    k = tr.wavevector_magnitude
    arm = arm.kicks([1e200, 2e200], [k, -k])
    assert not math.isfinite(arm.action_phase_total.value())
    with pytest.raises(DomainError, match="not finite"):
        arm.total_phase_at(3e200).mod_two_pi()

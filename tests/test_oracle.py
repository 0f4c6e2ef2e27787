import math

import numpy as np
import pytest

from qbackflow.model import HBAR, DomainError, sr88_params
from qbackflow.oracle import (
    KickEvent,
    PropagationError,
    PropagatorConfig,
    compare_fields,
    fft_length,
    gaussian_packet,
    kick,
    propagate,
)
from qbackflow.wavefield import Grid, WaveField

from conftest import (energy_expectation, momentum_expectation,
                      position_expectation, position_spread)

MASS = 1.46e-25


def _grid(half_width=4e-5, n=513, center=0.0):
    return Grid(center=center, half_width=half_width, n_points=n)


def test_config_validation():
    g = _grid()
    with pytest.raises(DomainError):
        PropagatorConfig(time_step=-1e-6, grid=g, mass=MASS)
    # Nyquist kinetic-phase guard
    fine = Grid(center=0.0, half_width=4e-5, n_points=65537)
    with pytest.raises(DomainError, match="Nyquist"):
        PropagatorConfig(time_step=1e-4, grid=fine, mass=MASS)
    # trap-frequency step limit
    with pytest.raises(DomainError, match="1/\\(50 omega\\)"):
        PropagatorConfig(time_step=1e-3, grid=g, mass=MASS,
                         trap_frequency=2.0 * math.pi * 100.0)
    # kick must land on a step boundary
    with pytest.raises(DomainError, match="time-step multiple"):
        PropagatorConfig(time_step=1e-7, grid=g, mass=MASS,
                         kick_events=(KickEvent(1.5e-7, 1e5),))


def test_free_expansion_matches_scaling_law():
    # A trap ground state released at t = 0 spreads as a(t) = a b(t)
    # with b = sqrt(1 + omega^2 t^2); rms width is a b / sqrt(2).
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    omega = params.trap_frequency
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    t = 4e-3
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=0.0)
    out = propagate(psi0, cfg, t)
    b = math.sqrt(1.0 + (omega * t) ** 2)
    assert position_spread(out) == pytest.approx(a * b / math.sqrt(2.0),
                                                 rel=1e-8)


def test_norm_conserved_to_1e10():
    params = sr88_params(launch_velocity=0.0)
    g = _grid(half_width=30.0 * params.oscillator_length, n=513)
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=2.0)
    out = propagate(psi0, cfg, 2e-3)
    assert abs(out.norm() - psi0.norm()) <= 1e-10


def test_ehrenfest_com_tracking():
    # <x>(t) follows the classical ballistic path within 1e-9 a_x.
    params = sr88_params(launch_velocity=3e-3)
    a = params.oscillator_length
    g = _grid(half_width=40.0 * a, n=769)
    psi0 = gaussian_packet(g, a, velocity=params.launch_velocity,
                           mass=params.mass)
    gravity, t = 2.0, 2e-3
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=gravity)
    out = propagate(psi0, cfg, t)
    classical = params.launch_velocity * t - 0.5 * gravity * t * t
    assert abs(position_expectation(out) - classical) <= 1e-9 * a
    # <p> follows m (v0 - g t)
    p = momentum_expectation(out)
    assert p == pytest.approx(params.mass * (params.launch_velocity
                                             - gravity * t), rel=1e-9)


def test_energy_conserved():
    params = sr88_params(launch_velocity=3e-3)
    a = params.oscillator_length
    g = _grid(half_width=40.0 * a, n=769)
    psi0 = gaussian_packet(g, a, velocity=params.launch_velocity,
                           mass=params.mass)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=2.0)
    e0 = energy_expectation(psi0, cfg)
    out = propagate(psi0, cfg, 2e-3)
    assert energy_expectation(out, cfg) == pytest.approx(e0, rel=1e-10)


def test_kick_shifts_momentum_and_keeps_norm():
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    k0 = 1e6
    kicked = kick(psi0, k0, phase=0.7)
    assert kicked.norm() == pytest.approx(psi0.norm(), rel=1e-14)
    assert momentum_expectation(kicked) - momentum_expectation(psi0) == \
        pytest.approx(HBAR * k0, rel=1e-9)
    with pytest.raises(DomainError):
        kick(psi0, math.pi / g.spacing)


def test_propagation_with_kick_matches_sequential():
    # One scheduled kick equals propagate / kick / propagate done by hand.
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    dt, t_k, t_f, k0, phase = 2e-6, 1e-3, 2e-3, 1e6, 0.3
    cfg = PropagatorConfig(time_step=dt, grid=g, mass=params.mass,
                           gravity=2.0,
                           kick_events=(KickEvent(t_k, k0, phase),))
    combined = propagate(psi0, cfg, t_f)
    plain = PropagatorConfig(time_step=dt, grid=g, mass=params.mass,
                             gravity=2.0)
    first = propagate(psi0, plain, t_k)
    second = propagate(kick(first, k0, phase), plain, t_f)
    assert float(np.max(np.abs(combined.amplitudes - second.amplitudes))
                 ) <= 1e-12 * float(np.abs(second.amplitudes).max())


def test_edge_guard_trips():
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=6.0 * a, n=129)   # far too narrow for expansion
    psi0 = gaussian_packet(g, a, mass=params.mass)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=0.0)
    with pytest.raises(PropagationError, match="edge"):
        propagate(psi0, cfg, 2e-2)


def test_time_step_commensurability_enforced():
    params = sr88_params(launch_velocity=0.0)
    g = _grid()
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    cfg = PropagatorConfig(time_step=3e-6, grid=g, mass=params.mass)
    with pytest.raises(DomainError, match="multiple of time_step"):
        propagate(psi0, cfg, 1e-3)


def test_convergence_order_is_two():
    # Strang splitting: halving dt divides the error by ~4.  The metric
    # is self-convergence of the full complex field (global phase
    # included) against a much finer-step reference solution.
    from qbackflow.cli import build_state
    from qbackflow.presets import reduced_scale_config

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
        return propagate(psi0, cfg, t_f).amplitudes

    reference = solve(1.5625e-7)   # dt / 16 of the coarsest run

    def l2_error(dt):
        diff = solve(dt) - reference
        return math.sqrt(float(np.sum(np.abs(diff) ** 2) * grid.spacing))

    e1 = l2_error(2.5e-6)
    e2 = l2_error(1.25e-6)
    e3 = l2_error(6.25e-7)
    order12 = math.log2(e1 / e2)
    order23 = math.log2(e2 / e3)
    assert 1.8 <= order12 <= 2.2
    assert 1.8 <= order23 <= 2.2


def test_compare_fields_global_phase_removed():
    g = _grid(n=257)
    psi = gaussian_packet(g, 1e-5, mass=MASS)
    rotated = WaveField(g, psi.amplitudes * np.exp(1j * 1.234), 0.0)
    amp, phase = compare_fields(psi, rotated)
    assert amp <= 1e-15
    assert phase <= 1e-12


def _max_dev(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


def test_stack_matches_single_row_propagations():
    # Two rows with different kick schedules: a kick at step 0, one on a
    # guard step (500 of 1000, guarded every 50) and one on the last step.
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    dt, t_f = 2e-6, 2e-3
    schedules = ([KickEvent(0.0, 1e6, 0.3), KickEvent(1e-3, -1e6, 1.1)],
                 [KickEvent(3.7e-4, -8e5, 0.5), KickEvent(t_f, 1e6, 2.0)])

    def config(kicks):
        return PropagatorConfig(time_step=dt, grid=g, mass=params.mass,
                                gravity=2.0, kick_events=tuple(kicks))

    stack = WaveField(g, np.stack([psi0.amplitudes, psi0.amplitudes]), 0.0)
    both = propagate(stack, config(
        [KickEvent(ev.time, ev.signed_k, ev.phase, row)
         for row, kicks in enumerate(schedules) for ev in kicks]), t_f)
    assert both.amplitudes.shape == (2, g.n_points)
    for row, kicks in enumerate(schedules):
        single = propagate(psi0, config(kicks), t_f)
        assert single.amplitudes.shape == (g.n_points,)
        assert _max_dev(both.amplitudes[row], single.amplitudes) <= 1e-12
        # and propagate / kick / propagate done by hand
        by_hand = psi0
        for ev in kicks:
            by_hand = kick(propagate(by_hand, config(()), ev.time),
                           ev.signed_k, ev.phase)
        by_hand = propagate(by_hand, config(()), t_f)
        assert _max_dev(both.amplitudes[row], by_hand.amplitudes) <= 1e-12


def test_edge_guard_trips_on_one_row_of_a_stack():
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           gravity=0.0)
    resting = gaussian_packet(g, a, mass=params.mass)
    # 5.6 a per 2 ms, starting 10 a from the edge
    moving = gaussian_packet(g, a, velocity=5e6 * HBAR / params.mass,
                             center=g.center + 20.0 * a, mass=params.mass)
    propagate(resting, cfg, 2e-3)   # fine on its own
    stack = WaveField(g, np.stack([resting.amplitudes, moving.amplitudes]),
                      0.0)
    with pytest.raises(PropagationError, match="row 1 reached the grid edge"):
        propagate(stack, cfg, 2e-3)


@pytest.mark.parametrize("rows, row", [(2, -1), (2, 2), (1, 1)])
def test_kick_on_missing_row_refused(rows, row):
    params = sr88_params(launch_velocity=0.0)
    g = _grid(half_width=30.0 * params.oscillator_length, n=513)
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    stack = WaveField(g, np.stack([psi0.amplitudes] * rows), 0.0)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=params.mass,
                           kick_events=(KickEvent(1e-4, 1e6, row=row),))
    with pytest.raises(DomainError, match=f"row {row} of a {rows}-row field"):
        propagate(stack, cfg, 2e-4)


def test_strang_step_exact_up_to_global_phase():
    # For H = p^2/2m + m g x every nested commutator beyond [T, V] is zero
    # or a c-number, so a Strang step is exact up to a global phase: the
    # oracle fields do not depend on the time step beyond rounding noise.
    from qbackflow.cli import build_state, oracle_arm_field, oracle_grid_for
    from qbackflow.presets import reduced_scale_config

    ctx = build_state(reduced_scale_config())
    grid = oracle_grid_for(ctx, 513)
    coarse = oracle_arm_field(ctx, grid, 5e-7).amplitudes
    fine = oracle_arm_field(ctx, grid, 2.5e-7).amplitudes
    overlap = np.vdot(fine, coarse)
    assert _max_dev(coarse * np.conj(overlap) / abs(overlap), fine) <= 1e-11


def test_fft_length_is_next_odd_smooth_count():
    smooth = [3 ** a * 5 ** b * 7 ** c for a in range(9)
              for b in range(7) for c in range(6)]
    for n in range(3, 5002):
        assert fft_length(n) == min(m for m in smooth if m >= n), n


def test_oracle_grid_rounds_points_up_and_keeps_half_width():
    from qbackflow.cli import build_state, oracle_grid_for
    from qbackflow.presets import reduced_scale_config

    ctx = build_state(reduced_scale_config())
    grids = {n: oracle_grid_for(ctx, n) for n in (3, 513, 1025)}
    assert grids[513].n_points == 525
    assert grids[1025].n_points == 1029
    # the half-width rule does not see the point count
    assert grids[513].half_width == grids[1025].half_width \
        == grids[3].half_width

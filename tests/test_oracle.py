import math

import numpy as np
import pytest

from qbackflow.model import HBAR, DomainError, sr88_params
from qbackflow.oracle import (
    KickEvent,
    PropagationError,
    PropagatorConfig,
    _pulse_factor,
    compare_fields,
    fft_length,
    gaussian_packet,
    propagate,
)
from qbackflow.wavefield import Grid, WaveField

from conftest import (energy_expectation, momentum_expectation,
                      position_expectation, position_spread)

MASS = 1.46e-25


def kick(fld, signed_k, phase=0.0):
    """One pulse applied by hand, as propagate applies it at a kick event."""
    return WaveField(fld.grid, fld.amplitudes * _pulse_factor(
        fld.grid, signed_k, phase), fld.time)


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
    # kick must land on a step boundary
    with pytest.raises(DomainError, match="time-step multiple"):
        PropagatorConfig(time_step=1e-7, grid=g, mass=MASS,
                         kick_events=(KickEvent(1.5e-7, 1e5),))


@pytest.mark.parametrize("n_points, time_step", [
    (513, 2e-6),
    # a step above a fiftieth of 1/omega (4.5e-5 s): the trap frequency
    # bounds no step, only the Nyquist kinetic-phase guard does
    (129, 5e-5),
])
def test_free_expansion_matches_scaling_law(n_points, time_step):
    # A trap ground state released at t = 0 spreads as a(t) = a b(t)
    # with b = sqrt(1 + omega^2 t^2); rms width is a b / sqrt(2).
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    omega = params.trap_frequency
    g = _grid(half_width=30.0 * a, n=n_points)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    t = 4e-3
    cfg = PropagatorConfig(time_step=time_step, grid=g, mass=params.mass,
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


def test_nyquist_guard_trips():
    # a kick to 0.95 k_Nyquist at t = 0 puts 15 % of the weight at the
    # Nyquist edge before the first step
    params = sr88_params(launch_velocity=0.0)
    g = _grid(half_width=30.0 * params.oscillator_length, n=513)
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    cfg = PropagatorConfig(
        time_step=2e-6, grid=g, mass=params.mass, gravity=0.0,
        kick_events=(KickEvent(0.0, 0.95 * math.pi / g.spacing),))
    with pytest.raises(PropagationError, match=r"^momentum in row 0 reached "
                       r"the Nyquist edge at t=0\.0: weight 1\.521e-01"):
        propagate(psi0, cfg, 2e-4)


def _unnormalized(psi):
    return WaveField(psi.grid, 2.0 * psi.amplitudes, psi.time)


def _other_grid(psi):
    g = psi.grid
    return gaussian_packet(Grid(g.center, 1.5 * g.half_width, g.n_points),
                           1e-5, mass=MASS)


@pytest.mark.parametrize("initial, t_final, kicks, message", [
    (lambda psi: psi, -2e-6, (), "t_final must not precede"),
    (_unnormalized, 1e-4, (), "initial field norm 3.99.* is not 1"),
    (_other_grid, 1e-4, (), "initial field and config use different grids"),
    (lambda psi: psi, 1e-4, (KickEvent(2e-4, 1e5),),
     r"kick at t=0\.0002 outside \[0\.0, 0\.0001\]"),
], ids=["t-final-early", "norm", "grid", "kick-late"])
def test_propagate_refuses_bad_arguments(initial, t_final, kicks, message):
    g = _grid()
    psi0 = gaussian_packet(g, 1e-5, mass=MASS)
    cfg = PropagatorConfig(time_step=2e-6, grid=g, mass=MASS,
                           kick_events=kicks)
    with pytest.raises(DomainError, match=message):
        propagate(initial(psi0), cfg, t_final)


def test_time_step_commensurability_enforced():
    params = sr88_params(launch_velocity=0.0)
    g = _grid()
    psi0 = gaussian_packet(g, params.oscillator_length, mass=params.mass)
    cfg = PropagatorConfig(time_step=3e-6, grid=g, mass=params.mass)
    with pytest.raises(DomainError, match="multiple of time_step"):
        propagate(psi0, cfg, 1e-3)


def test_compare_fields_global_phase_removed():
    g = _grid(n=257)
    psi = gaussian_packet(g, 1e-5, mass=MASS)
    rotated = WaveField(g, psi.amplitudes * np.exp(1j * 1.234), 0.0)
    amp, phase = compare_fields(psi, rotated)
    assert amp <= 1e-15
    assert phase <= 1e-12


def test_compare_fields_refuses_two_grids():
    g = _grid(n=257)
    psi = gaussian_packet(g, 1e-5, mass=MASS)
    shifted = gaussian_packet(_grid(n=257, center=1e-6), 1e-5, mass=MASS)
    with pytest.raises(DomainError, match="fields must share one grid"):
        compare_fields(psi, shifted)


def _max_dev(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


# Two rows with different kick schedules over 1000 steps of 2 us: a kick
# at step 0, one on a guard step (500 of 1000, guarded every 50) and one on
# the last step.
_STACK_DT, _STACK_T_F = 2e-6, 2e-3
_STACK_SCHEDULES = (
    [KickEvent(0.0, 1e6, 0.3), KickEvent(1e-3, -1e6, 1.1)],
    [KickEvent(3.7e-4, -8e5, 0.5), KickEvent(_STACK_T_F, 1e6, 2.0)])


def test_stack_matches_single_row_propagations():
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    dt, t_f, schedules = _STACK_DT, _STACK_T_F, _STACK_SCHEDULES

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


def _public_fft_strang(initial, config, t_final):
    """propagate's step loop written with public np.fft calls and (n,)
    phase factors: the same fused potential steps, stops and kicks."""
    grid, dt = config.grid, config.time_step
    n_steps = round((t_final - initial.time) / dt)
    kicks_by_step = {}
    for ev in config.kick_events:
        kicks_by_step.setdefault(round((ev.time - initial.time) / dt),
                                 []).append(ev)
    x = grid.positions()
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    kinetic_full = np.exp(-1j * HBAR * k * k / (2.0 * config.mass) * dt)
    v_rate = -1j * (config.mass * config.gravity / HBAR) * x
    v_half = np.exp(v_rate * (0.5 * dt))
    v_full = np.exp(v_rate * dt)
    guard_every = max(1, n_steps // 20)
    stops = sorted({*range(guard_every, n_steps + 1, guard_every),
                    *kicks_by_step, n_steps})
    psi = np.array(initial.amplitudes, dtype=complex)
    done = 0
    for stop in stops:
        if stop > done:
            psi *= v_half
            for step in range(done + 1, stop + 1):
                psi = np.fft.ifft(np.fft.fft(psi, axis=-1) * kinetic_full,
                                  axis=-1)
                psi *= v_full if step < stop else v_half
            done = stop
        for ev in kicks_by_step.get(stop, ()):
            psi[ev.row] *= _pulse_factor(grid, ev.signed_k, ev.phase)
    return psi


def test_stack_bit_identical_to_public_fft_loop():
    # propagate calls pocketfft's gufuncs with their scale factors and
    # multiplies by (rows, n) factors; the fields must be those of the
    # public np.fft calls and (n,) factors bit for bit, on every numpy.
    params = sr88_params(launch_velocity=0.0)
    a = params.oscillator_length
    g = _grid(half_width=30.0 * a, n=513)
    psi0 = gaussian_packet(g, a, mass=params.mass)
    stack = WaveField(g, np.stack([psi0.amplitudes, psi0.amplitudes]), 0.0)
    cfg = PropagatorConfig(
        time_step=_STACK_DT, grid=g, mass=params.mass, gravity=2.0,
        kick_events=tuple(KickEvent(ev.time, ev.signed_k, ev.phase, row)
                          for row, kicks in enumerate(_STACK_SCHEDULES)
                          for ev in kicks))
    got = propagate(stack, cfg, _STACK_T_F).amplitudes
    assert np.array_equal(got, _public_fft_strang(stack, cfg, _STACK_T_F))


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

import math

import numpy as np
import pytest

from qbackflow.kinematics import ArmTrajectory, solve_encounter
from qbackflow.model import (
    HBAR,
    DomainError,
    Environment,
    expansion,
    sr88_params,
    sr88_transition,
)
from qbackflow.pulses import ArmAmplitudes
from qbackflow.wavefield import (
    MAX_GRID_POINTS,
    EnvelopeMismatchError,
    Grid,
    GridMismatchError,
    WaveField,
    combine,
    combined_from_state,
    com_wavefunction,
    encounter_state,
    free_arm_wavefunction,
    pulsed_arm_wavefunction,
    wavefield_from_binary,
    wavefield_to_binary,
)


def test_grid_validation_and_geometry():
    g = Grid(center=1.0, half_width=2.0, n_points=5)
    assert g.spacing == 1.0
    u = g.offsets()
    assert np.array_equal(u, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.array_equal(g.positions(), u + 1.0)
    with pytest.raises(DomainError):
        Grid(center=0.0, half_width=1.0, n_points=4)   # even
    with pytest.raises(DomainError):
        Grid(center=0.0, half_width=-1.0, n_points=5)


def test_grid_auto_resolves_envelope_and_fringe():
    sigma, q = 1e-6, 1e7
    g = Grid.auto(0.0, sigma, beat_wavenumber=q)
    assert g.half_width == pytest.approx(8.0 * sigma)
    assert g.spacing <= sigma / 50.0 + 1e-18
    assert g.spacing <= (2.0 * math.pi / q) / 20.0 + 1e-18
    assert g.n_points % 2 == 1


def test_grid_refuses_oversized_requests():
    # Construction allocates nothing, so these cost no memory.
    with pytest.raises(DomainError, match=r"4\.288e\+08 grid points exceed"):
        Grid.auto(0.0, 1e-3, half_width_factor=6.0,
                  envelope_samples=35_733_333)
    for width, factor in ((1.0, 1e300), (math.nan, 8.0), (math.inf, 8.0)):
        with pytest.raises(DomainError, match="grid points exceed"):
            Grid.auto(0.0, width, half_width_factor=factor)
    with pytest.raises(DomainError, match="grid points exceed"):
        Grid.auto(0.0, 1.0, beat_wavenumber=1e300)
    assert Grid(0.0, 1.0, MAX_GRID_POINTS).n_points == MAX_GRID_POINTS
    with pytest.raises(DomainError, match=f"{MAX_GRID_POINTS + 2} grid"):
        Grid(0.0, 1.0, MAX_GRID_POINTS + 2)


def test_com_wavefunction_norm_and_width():
    params = sr88_params()
    t = 5e-3
    sigma = params.oscillator_length * expansion(t, params.trap_frequency)[0]
    g = Grid.auto(0.0, sigma)
    psi = com_wavefunction(g, t, params)
    norm = float(np.sum(np.abs(psi) ** 2) * g.spacing)
    assert norm == pytest.approx(1.0, abs=1e-6)
    # rms width of a Gaussian envelope is sigma / sqrt(2)
    u = g.offsets()
    d = np.abs(psi) ** 2
    rms = math.sqrt(float(np.sum(u * u * d) / np.sum(d)))
    assert rms == pytest.approx(sigma / math.sqrt(2.0), rel=1e-6)


def _meeting_arms(t_f_hint=2e-3):
    params = sr88_params(launch_velocity=0.05)
    env = Environment()
    tr = sr88_transition()
    free = ArmTrajectory.launch(params, env, tr)
    pulsed = ArmTrajectory.launch(params, env, tr)
    k = tr.wavevector_magnitude
    pulsed = pulsed.kicks([0.0, 1e-3], [k, -2 * k])
    t_f = solve_encounter(free, pulsed, pulsed.end_time)
    sigma = params.oscillator_length * expansion(
        t_f, params.trap_frequency)[0]
    q = params.mass * (pulsed.velocity(t_f) - free.velocity(t_f)) / HBAR
    grid = Grid.auto(free.position(t_f), sigma, beat_wavenumber=q,
                     half_width_factor=5.0)
    return params, env, tr, free, pulsed, t_f, grid


def test_arm_fields_normalized_and_combinable():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    f = free_arm_wavefunction(grid, free, t_f)
    b = pulsed_arm_wavefunction(grid, pulsed, t_f)
    assert f.norm() == pytest.approx(1.0, abs=1e-6)
    assert b.norm() == pytest.approx(1.0, abs=1e-6)
    w = ArmAmplitudes(math.sqrt(0.5), 1j * math.sqrt(0.5))
    c = combine(f, b, w)
    assert c.norm() == pytest.approx(1.0, abs=1e-2)  # beat modulates the norm


def test_free_arm_rejects_kicked_trajectory():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    with pytest.raises(DomainError):
        free_arm_wavefunction(grid, pulsed, t_f)


def test_grid_center_must_match_com():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    off = Grid(center=grid.center + 1e-6, half_width=grid.half_width,
               n_points=grid.n_points)
    with pytest.raises(DomainError):
        free_arm_wavefunction(off, free, t_f)


def test_combine_rejects_mismatched_times():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    f = free_arm_wavefunction(grid, free, t_f)
    other = WaveField(grid, f.amplitudes, t_f + 1.0)
    with pytest.raises(GridMismatchError):
        combine(f, other, ArmAmplitudes(1.0 + 0j, 0j))


def test_combine_rejects_mismatched_envelopes():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    f = free_arm_wavefunction(grid, free, t_f)
    warped = WaveField(grid, f.amplitudes * np.linspace(1.0, 1.1,
                                                        grid.n_points), t_f)
    with pytest.raises(EnvelopeMismatchError):
        combine(f, warped, ArmAmplitudes(1.0 + 0j, 0j))


def test_factored_state_matches_direct_combination():
    # combined_from_state (single-envelope factored form) agrees with
    # the explicit weighted sum of the two arm fields.
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    w = ArmAmplitudes(0.6 + 0j, -0.8j)
    st = encounter_state(grid, free, pulsed, t_f, w)
    direct = combine(
        free_arm_wavefunction(grid, free, t_f),
        pulsed_arm_wavefunction(grid, pulsed, t_f), w)
    factored = combined_from_state(st)
    peak = float(np.abs(direct.amplitudes).max())
    assert float(np.max(np.abs(factored.amplitudes - direct.amplitudes))
                 ) <= 1e-10 * peak


def test_encounter_state_invariants():
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    w = ArmAmplitudes(0.6 + 0j, 0.8 + 0j)
    st = encounter_state(grid, free, pulsed, t_f, w)
    # q equals m (v_b - v_f) / hbar
    q = params.mass * (pulsed.velocity(t_f) - free.velocity(t_f)) / HBAR
    assert st.q == pytest.approx(q, rel=1e-12)
    # measured fringe spacing of the density equals 2 pi / |q|
    from qbackflow.observables import report
    rep = report(st)
    assert rep.fringe_wavelength == pytest.approx(
        2.0 * math.pi / abs(q), rel=2.0 / 20.0)
    # rejects a non-encounter time
    with pytest.raises(DomainError):
        encounter_state(grid, free, pulsed, t_f + 1e-3, w)


def test_binary_round_trip_bitwise(tmp_path):
    params, env, tr, free, pulsed, t_f, grid = _meeting_arms()
    f = free_arm_wavefunction(grid, free, t_f)
    path = str(tmp_path / "field.bin")
    wavefield_to_binary(f, path)
    back = wavefield_from_binary(path)
    assert back.grid.n_points == grid.n_points
    assert back.grid.center == grid.center
    assert back.time == t_f
    assert np.array_equal(back.amplitudes, f.amplitudes)


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a wavefield")
    with pytest.raises(ValueError):
        wavefield_from_binary(str(path))


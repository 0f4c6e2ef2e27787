"""Analytic arm wavefunctions and the combined state on a spatial grid.

Every wavefunction at the encounter time T_f factorizes (in the frame of
its own classical COM path) into

    Psi_arm(x) = phi_COM(u, T_f) * exp(i theta_arm) * exp(i m v_arm u / hbar)

with u = x - x_c, phi_COM the expanding Gaussian envelope common to both
arms, theta_arm the accumulated scalar phase (action + laser + internal)
and v_arm the arm's COM velocity at T_f.  The combined state is the
weighted sum c_f Psi_f + c_b Psi_b, whose density beats at the wavenumber
q = m (v_b - v_f) / hbar.  :class:`EncounterState` holds this
factorization in closed form, as scalars on a grid; the
:class:`~qbackflow.observables.WeightKernel` samples it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .ioutil import atomic_write_bytes
from .kinematics import ArmTrajectory
from .model import HBAR, CondensateParams, DomainError, expansion
from .pulses import ArmAmplitudes

#: Default grid sizing: half width in units of the expanded envelope
#: width a_x * b(T_f), and the minimum number of samples per envelope
#: width and per beat fringe.
DEFAULT_HALF_WIDTH_FACTOR = 8.0
ENVELOPE_SAMPLES = 50
FRINGE_SAMPLES = 20

#: Largest grid accepted, refused before anything is allocated: a run
#: holds about 120 bytes of working arrays per point, so ~0.5 GB here.
MAX_GRID_POINTS = 4_000_001

_BINARY_MAGIC = b"QBWF\x00\x01\x00\x00"


class GridMismatchError(ValueError):
    """Two fields were combined on incompatible grids."""


class EnvelopeMismatchError(ValueError):
    """The two arms' COM envelopes disagree (different expansion ages)."""


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric 1-D grid about a center point (m; 1/m in k)."""

    center: float
    half_width: float
    n_points: int
    spacing: float = field(init=False)

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise DomainError("n_points must be odd and >= 3")
        if self.n_points > MAX_GRID_POINTS:
            raise DomainError(f"{self.n_points} grid points exceed the "
                              f"limit of {MAX_GRID_POINTS}")
        if self.half_width <= 0.0:
            raise DomainError("half_width must be positive")
        object.__setattr__(self, "spacing",
                           2.0 * self.half_width / (self.n_points - 1))

    def offsets(self) -> np.ndarray:
        """Signed offsets u = x - center."""
        return np.linspace(-self.half_width, self.half_width, self.n_points)

    def positions(self) -> np.ndarray:
        return self.center + self.offsets()

    @staticmethod
    def auto(center: float, envelope_width: float,
             beat_wavenumber: float | None = None,
             half_width_factor: float = DEFAULT_HALF_WIDTH_FACTOR,
             envelope_samples: int = ENVELOPE_SAMPLES,
             fringe_samples: int = FRINGE_SAMPLES) -> "Grid":
        """Grid sized to resolve both the envelope and the beat fringes.

        half_width = half_width_factor * envelope_width; spacing at most
        envelope_width / envelope_samples and, when a beat wavenumber is
        given, at most the fringe wavelength 2 pi / q over fringe_samples.
        """
        if envelope_width <= 0.0:
            raise DomainError("envelope_width must be positive")
        half_width = half_width_factor * envelope_width
        target = envelope_width / envelope_samples
        if beat_wavenumber:
            target = min(target,
                         (2.0 * math.pi / abs(beat_wavenumber)) / fringe_samples)
        intervals = 2.0 * half_width / target
        if not intervals < MAX_GRID_POINTS:  # NaN too
            raise DomainError(f"{intervals + 1:.4g} grid points exceed the "
                              f"limit of {MAX_GRID_POINTS}")
        n = int(math.ceil(intervals)) + 1
        if n % 2 == 0:
            n += 1
        return Grid(center=center, half_width=half_width, n_points=max(n, 3))


@dataclass(frozen=True)
class WaveField:
    """Complex amplitude sampled on a grid at a fixed time: one field, or
    a stack of fields on the same grid, one per row."""

    grid: Grid
    amplitudes: np.ndarray   # complex, (n_points,) or (rows, n_points)
    time: float              # s

    def __post_init__(self):
        shape = np.shape(self.amplitudes)
        if len(shape) not in (1, 2) or shape[-1] != self.grid.n_points:
            raise DomainError("amplitude array length must match the grid")

    def norm(self) -> float | np.ndarray:
        """Sum of |amplitude|^2 times spacing (approximates the L2 norm),
        one value per row of a stack."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1) * self.grid.spacing

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EncounterState:
    """The closed-form encounter, from which every observable derives.

    The free arm is R e^{i theta} with R = |phi_COM| (from ``params`` at
    ``time``) and grad(theta) = (m / hbar) (v_f + (b'/b) u); nothing is
    sampled here.  theta_b is stored as theta_f plus the exact difference,
    so subtracting the stored scalars is safe.
    """

    grid: Grid
    time: float                          # s, encounter time T_f
    params: CondensateParams
    free_velocity: float                 # m/s, free arm COM velocity at T_f
    q: float                             # 1/m
    theta_f: float                       # rad
    theta_b: float                       # rad
    weights: ArmAmplitudes

    @property
    def delta_theta(self) -> float:
        return self.theta_b - self.theta_f


def com_wavefunction(grid: Grid, t: float,
                     params: CondensateParams) -> np.ndarray:
    """Expanding-Gaussian COM envelope about the grid center at time t.

    (1/sqrt(b)) psi_0(u/b) exp[ i m (db/dt) u^2 / (2 hbar b) ] with
    psi_0 the trap ground state and b(t) the expansion factor.
    """
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    a = params.oscillator_length
    b, bdot = expansion(t, params.trap_frequency)
    u = grid.offsets()
    envelope = (math.pi ** -0.25 / math.sqrt(a * b)
                * np.exp(-0.5 * (u / (a * b)) ** 2))
    chirp = (params.mass * bdot / (2.0 * HBAR * b)) * u * u
    return envelope * np.exp(1j * chirp)


def _arm_field(grid: Grid, trajectory: ArmTrajectory,
               t_final: float) -> WaveField:
    """Evaluate one arm: envelope times scalar phase times plane wave."""
    if t_final < trajectory.end_time:
        raise DomainError(
            f"encounter time {t_final} s precedes the arm's last pulse or "
            f"launch at {trajectory.end_time} s")
    x_c = trajectory.position(t_final)
    if abs(x_c - grid.center) > 1e-9:
        raise DomainError(
            f"grid center {grid.center} m is not the arm's COM position "
            f"{x_c} m at t = {t_final} s")
    theta = trajectory.total_phase_at(t_final).mod_two_pi()
    v = trajectory.velocity(t_final)
    params = trajectory.params
    com = com_wavefunction(grid, t_final, params)
    u = grid.offsets()
    phase = theta + (params.mass * v / HBAR) * u
    return WaveField(grid, com * np.exp(1j * phase), t_final)


def free_arm_wavefunction(grid: Grid, trajectory: ArmTrajectory,
                          T_f: float) -> WaveField:
    """Freely falling arm at the encounter time."""
    if trajectory.kick_count != 0:
        raise DomainError("the free arm must not contain pulses")
    return _arm_field(grid, trajectory, T_f)


def pulsed_arm_wavefunction(grid: Grid, trajectory: ArmTrajectory,
                            T_f: float) -> WaveField:
    """LMT arm at the encounter time, from its accumulated trajectory."""
    return _arm_field(grid, trajectory, T_f)


def combine(free: WaveField, pulsed: WaveField,
            weights: ArmAmplitudes) -> WaveField:
    """Weighted sum c_f * Psi_f + c_b * Psi_b of the two arms."""
    if free.grid != pulsed.grid:
        raise GridMismatchError("arms must share one grid")
    if free.time != pulsed.time:
        raise GridMismatchError(
            f"arm times differ: {free.time} s vs {pulsed.time} s")
    env_f = np.abs(free.amplitudes)
    env_b = np.abs(pulsed.amplitudes)
    scale = float(env_f.max())
    if scale == 0.0 or float(np.max(np.abs(env_f - env_b))) > 1e-9 * scale:
        raise EnvelopeMismatchError(
            "arm envelopes differ: the arms did not meet with a common "
            "expansion age")
    amps = weights.c_f * free.amplitudes + weights.c_b * pulsed.amplitudes
    return WaveField(free.grid, amps, free.time)


def beat_wavenumber(free_arm: ArmTrajectory, pulsed_arm: ArmTrajectory,
                    T_f: float) -> float:
    """q = m (v_b - v_f) / hbar at T_f, refused when it is rounding noise.

    Gravity acts on both arms alike, so v_b - v_f must be the summed
    kicks.  It is not when a recoil hbar k / m falls below the float64
    resolution of the velocities: q is then rounding noise.
    """
    m = pulsed_arm.params.mass
    v_f = free_arm.velocity(T_f)
    v_b = pulsed_arm.velocity(T_f)
    recoil = pulsed_arm.transition.recoil_velocity_for(m)
    kicked = pulsed_arm.kick_velocity_total
    if not abs((v_b - v_f) - kicked) <= 1e-6 * recoil:
        raise DomainError(
            f"the arm velocities lose the pulses' recoil: v_b - v_f = "
            f"{v_b - v_f:.6g} m/s, but the kicks sum to {kicked:.6g} m/s; "
            f"one recoil hbar k / m is {recoil:.3g} m/s and the float64 "
            f"velocity resolution is "
            f"{math.ulp(max(abs(v_b), abs(v_f))):.3g} m/s")
    return m * (v_b - v_f) / HBAR


def encounter_state(grid: Grid, free_arm: ArmTrajectory,
                    pulsed_arm: ArmTrajectory, T_f: float,
                    weights: ArmAmplitudes) -> EncounterState:
    """Assemble the factored encounter description of the combined state."""
    if free_arm.kick_count != 0:
        raise DomainError("the free arm must not contain pulses")
    x_f = free_arm.position(T_f)
    x_b = pulsed_arm.position(T_f)
    if abs(x_f - x_b) > 1e-9:
        raise DomainError(
            f"arms are {abs(x_f - x_b):.3e} m apart at t = {T_f} s; "
            "not an encounter")
    if abs(x_f - grid.center) > 1e-9:
        raise DomainError("grid center must sit at the encounter position")

    q = beat_wavenumber(free_arm, pulsed_arm, T_f)
    theta_f = free_arm.total_phase_at(T_f).mod_two_pi()
    delta = pulsed_arm.total_phase_at(T_f).add(
        free_arm.total_phase_at(T_f).neg()).mod_two_pi()
    return EncounterState(
        grid=grid, time=T_f, params=pulsed_arm.params,
        free_velocity=free_arm.velocity(T_f), q=q, theta_f=theta_f,
        theta_b=theta_f + delta, weights=weights)


def combined_from_state(state: EncounterState) -> WaveField:
    """Eq.-14-style factored evaluation of the combined state.

    Psi(u) = phi_COM e^{i theta_f} e^{i m v_f u / hbar}
             * [c_f + c_b e^{i q u} e^{i (theta_b - theta_f)}].
    """
    u = state.grid.offsets()
    carrier = (state.theta_f
               + (state.params.mass * state.free_velocity / HBAR) * u)
    beat = (state.weights.c_f
            + state.weights.c_b * np.exp(1j * (state.q * u + state.delta_theta)))
    amps = (com_wavefunction(state.grid, state.time, state.params)
            * np.exp(1j * carrier) * beat)
    return WaveField(state.grid, amps, state.time)


# -- export --------------------------------------------------------------

def wavefield_to_binary(field: WaveField, path: str) -> None:
    """Little-endian dump: magic, header of four float64
    (n_points, spacing, center, time), then interleaved Re/Im float64."""

    def write(fh):
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<4d", float(field.grid.n_points),
                             field.grid.spacing, field.grid.center,
                             field.time))
        inter = np.empty(2 * field.grid.n_points, dtype="<f8")
        inter[0::2] = field.amplitudes.real
        inter[1::2] = field.amplitudes.imag
        fh.write(inter.tobytes())

    atomic_write_bytes(path, write)


def wavefield_from_binary(path: str) -> WaveField:
    with open(path, "rb") as fh:
        magic = fh.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a wavefield binary dump")
        n_f, spacing, center, time = struct.unpack("<4d", fh.read(32))
        n = int(n_f)
        raw = np.frombuffer(fh.read(16 * n), dtype="<f8")
    if len(raw) != 2 * n:
        raise ValueError(f"{path}: truncated wavefield dump")
    amps = raw[0::2] + 1j * raw[1::2]
    grid = Grid(center=center, half_width=0.5 * spacing * (n - 1), n_points=n)
    if abs(grid.spacing - spacing) > 1e-15 * max(spacing, 1e-300):
        raise ValueError(f"{path}: inconsistent grid header")
    return WaveField(grid, amps, time)

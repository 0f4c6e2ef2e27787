"""Analytic arm wavefunctions and the combined state on a spatial grid.

Every wavefunction at the encounter time T_f factorizes (in the frame of
its own classical COM path) into

    Psi_arm(x) = phi_COM(u, T_f) * exp(i theta_arm) * exp(i m v_arm u / hbar)

with u = x - x_c, phi_COM the expanding Gaussian envelope common to both
arms, theta_arm the accumulated scalar phase (action + laser + internal)
and v_arm the arm's COM velocity at T_f.  The combined state is the
weighted sum c_f Psi_f + c_b Psi_b, whose density beats at the wavenumber
q = m (v_b - v_f) / hbar.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .ioutil import atomic_write_bytes
from .kinematics import ArmTrajectory, GROUND
from .model import (
    HBAR,
    CondensateParams,
    DomainError,
    Environment,
    TransitionParams,
    expansion_rate,
    expansion_rate_derivative,
)
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
    """Complex amplitude sampled on a grid at a fixed time."""

    grid: Grid
    amplitudes: np.ndarray   # complex, length n_points
    time: float              # s

    def __post_init__(self):
        if len(self.amplitudes) != self.grid.n_points:
            raise DomainError("amplitude array length must match the grid")

    def norm(self) -> float:
        """Sum of |amplitude|^2 times spacing (approximates the L2 norm)."""
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.spacing)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EncounterState:
    """Everything the flux/critical-density formulas need at encounter.

    The envelope R and phase gradient grad(theta) refer to the free arm's
    wavefunction written as R e^{i theta}; theta_b - theta_f is carried
    to full precision (theta_b is stored as theta_f plus the exact
    difference, so subtracting the stored scalars is safe).
    """

    grid: Grid
    time: float                          # s, encounter time T_f
    R_profile: np.ndarray                # |phi_COM|(u)
    theta_gradient_profile: np.ndarray   # d theta / dx (1/m)
    theta_f: float                       # rad
    theta_b: float                       # rad
    q: float                             # 1/m
    weights: ArmAmplitudes
    com_wavefunction: np.ndarray         # complex phi_COM(u)
    free_velocity: float                 # m/s, free arm COM velocity at T_f
    mass: float                          # kg
    hbar: float                          # J s

    @property
    def delta_theta(self) -> float:
        return self.theta_b - self.theta_f


def com_wavefunction(grid: Grid, t: float, params: CondensateParams,
                     hbar: float = HBAR) -> np.ndarray:
    """Expanding-Gaussian COM envelope about the grid center at time t.

    (1/sqrt(b)) psi_0(u/b) exp[ i m (db/dt) u^2 / (2 hbar b) ] with
    psi_0 the trap ground state and b(t) the expansion factor.
    """
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    a = params.oscillator_length
    b = expansion_rate(t, params.trap_frequency)
    bdot = expansion_rate_derivative(t, params.trap_frequency)
    u = grid.offsets()
    envelope = (math.pi ** -0.25 / math.sqrt(a * b)
                * np.exp(-0.5 * (u / (a * b)) ** 2))
    chirp = (params.mass * bdot / (2.0 * hbar * b)) * u * u
    return envelope * np.exp(1j * chirp)


def _arm_field(grid: Grid, trajectory: ArmTrajectory, t_final: float,
               params: CondensateParams, env: Environment) -> WaveField:
    """Evaluate one arm: envelope times scalar phase times plane wave."""
    x_c = trajectory.position(t_final)
    if abs(x_c - grid.center) > 1e-9:
        raise DomainError(
            f"grid center {grid.center} m is not the arm's COM position "
            f"{x_c} m at t = {t_final} s")
    theta = trajectory.total_phase_at(t_final).mod_two_pi()
    v = trajectory.velocity(t_final)
    com = com_wavefunction(grid, t_final, params, env.hbar)
    u = grid.offsets()
    phase = theta + (params.mass * v / env.hbar) * u
    return WaveField(grid, com * np.exp(1j * phase), t_final)


def free_arm_wavefunction(grid: Grid, T_f: float, params: CondensateParams,
                          env: Environment, transition: TransitionParams,
                          trajectory: ArmTrajectory | None = None) -> WaveField:
    """Freely falling arm at the encounter time.

    If no trajectory is given, the arm launches from the grid-consistent
    origin at t = 0 with the condensate's launch velocity in the ground
    state and never sees a pulse.
    """
    if T_f < 0.0:
        raise DomainError("T_f must be nonnegative")
    if trajectory is None:
        trajectory = ArmTrajectory.launch(params, env, transition,
                                          internal_state=GROUND)
    if trajectory.kick_count != 0:
        raise DomainError("the free arm must not contain pulses")
    return _arm_field(grid, trajectory, T_f, params, env)


def pulsed_arm_wavefunction(grid: Grid, trajectory: ArmTrajectory, T_f: float,
                            params: CondensateParams, env: Environment,
                            transition: TransitionParams) -> WaveField:
    """LMT arm at the encounter time, from its accumulated trajectory."""
    if trajectory.params != params or trajectory.transition != transition:
        raise DomainError("trajectory was built for different physical parameters")
    if T_f < trajectory.end_time:
        raise DomainError(
            f"encounter time {T_f} s precedes the last pulse at "
            f"{trajectory.end_time} s")
    return _arm_field(grid, trajectory, T_f, params, env)


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


def encounter_state(grid: Grid, free_arm: ArmTrajectory,
                    pulsed_arm: ArmTrajectory, T_f: float,
                    weights: ArmAmplitudes, params: CondensateParams,
                    env: Environment,
                    transition: TransitionParams) -> EncounterState:
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

    m = params.mass
    hbar = env.hbar
    v_f = free_arm.velocity(T_f)
    v_b = pulsed_arm.velocity(T_f)
    q = m * (v_b - v_f) / hbar

    # q must equal (m/hbar)(v_N + g T_N - v_0): the velocity the last
    # pulse left the arm with, corrected for the shared free fall.
    last = pulsed_arm.segment(-1)
    q_def = m * (last.start_velocity + env.gravity * last.start_time
                 - free_arm.segment(0).start_velocity) / hbar
    if abs(q - q_def) > 1e-12 * max(abs(q), abs(q_def), 1.0):
        raise DomainError(
            f"inconsistent beat wavenumber: {q} vs definition {q_def}")

    theta_f = free_arm.total_phase_at(T_f).mod_two_pi()
    delta = pulsed_arm.total_phase_at(T_f).add(
        free_arm.total_phase_at(T_f).neg()).mod_two_pi()

    com = com_wavefunction(grid, T_f, params, hbar)
    b = expansion_rate(T_f, params.trap_frequency)
    bdot = expansion_rate_derivative(T_f, params.trap_frequency)
    u = grid.offsets()
    grad_theta = (m / hbar) * (v_f + (bdot / b) * u)

    return EncounterState(
        grid=grid, time=T_f, R_profile=np.abs(com),
        theta_gradient_profile=grad_theta,
        theta_f=theta_f, theta_b=theta_f + delta, q=q, weights=weights,
        com_wavefunction=com, free_velocity=v_f, mass=m, hbar=hbar)


def combined_from_state(state: EncounterState) -> WaveField:
    """Eq.-14-style factored evaluation of the combined state.

    Psi(u) = phi_COM e^{i theta_f} e^{i m v_f u / hbar}
             * [c_f + c_b e^{i q u} e^{i (theta_b - theta_f)}].
    """
    u = state.grid.offsets()
    carrier = state.theta_f + (state.mass * state.free_velocity / state.hbar) * u
    beat = (state.weights.c_f
            + state.weights.c_b * np.exp(1j * (state.q * u + state.delta_theta)))
    amps = state.com_wavefunction * np.exp(1j * carrier) * beat
    return WaveField(state.grid, amps, state.time)


# -- export --------------------------------------------------------------

def wavefield_to_csv(field: WaveField, path: str) -> None:
    """Columns: x, Re Psi, Im Psi, |Psi|^2."""
    x = field.grid.positions()
    data = np.column_stack([x, field.amplitudes.real, field.amplitudes.imag,
                            np.abs(field.amplitudes) ** 2])

    def write(fh):
        fh.write(b"x_m,re_psi,im_psi,density\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g")

    atomic_write_bytes(path, write)


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

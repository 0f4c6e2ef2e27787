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
:class:`~qbackflow.observables.WeightKernel` samples it, and the arm
fields and :func:`combined_from_state` evaluate it for the wavefield
dump and the split-step oracle."""

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


def _arm(state: EncounterState, theta: float, dk: float) -> WaveField:
    """phi_COM e^{i (theta + (k_f + dk) u)}, k_f = m v_f / hbar, on the
    state's grid at its time."""
    u = state.grid.offsets()
    k = state.params.mass * state.free_velocity / HBAR + dk
    amps = (com_wavefunction(state.grid, state.time, state.params)
            * np.exp(1j * (theta + k * u)))
    return WaveField(state.grid, amps, state.time)


def free_arm_wavefunction(state: EncounterState) -> WaveField:
    """Freely falling arm phi_COM e^{i (theta_f + k_f u)}."""
    return _arm(state, state.theta_f, 0.0)


def pulsed_arm_wavefunction(state: EncounterState) -> WaveField:
    """LMT arm phi_COM e^{i (theta_b + (k_f + q) u)}."""
    return _arm(state, state.theta_b, state.q)


def combine(free: WaveField, pulsed: WaveField,
            weights: ArmAmplitudes) -> WaveField:
    """Weighted sum c_f * Psi_f + c_b * Psi_b of the two arms."""
    if free.grid != pulsed.grid or free.time != pulsed.time:
        raise DomainError(
            f"arms must share one grid and time; times {free.time} s and "
            f"{pulsed.time} s")
    amps = weights.c_f * free.amplitudes + weights.c_b * pulsed.amplitudes
    return WaveField(free.grid, amps, free.time)


def combined_from_state(state: EncounterState) -> WaveField:
    """The combined state c_f Psi_f + c_b Psi_b of the state's two arms."""
    return combine(free_arm_wavefunction(state),
                   pulsed_arm_wavefunction(state), state.weights)


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
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated wavefield header")
        n_f, spacing, center, time = struct.unpack("<4d", header)
        # refused before the body read it sizes; NaN fails every test
        if not (3 <= n_f <= MAX_GRID_POINTS and n_f % 2 == 1):
            raise ValueError(f"{path}: point count {n_f!r} is not an odd "
                             f"integer in [3, {MAX_GRID_POINTS}]")
        n = int(n_f)
        raw = np.frombuffer(fh.read(16 * n), dtype="<f8")
    if len(raw) != 2 * n:
        raise ValueError(f"{path}: truncated wavefield dump")
    amps = raw[0::2] + 1j * raw[1::2]
    grid = Grid(center=center, half_width=0.5 * spacing * (n - 1), n_points=n)
    if abs(grid.spacing - spacing) > 1e-15 * max(spacing, 1e-300):
        raise ValueError(f"{path}: inconsistent grid header")
    return WaveField(grid, amps, time)

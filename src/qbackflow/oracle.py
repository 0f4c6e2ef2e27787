"""Independent split-step Schrödinger propagator (validation only).

Evolves a WaveField under H = p^2/2m + m g x with second-order Strang
splitting on a periodic Fourier grid, applying instantaneous pulse
factors -i e^{i phase} e^{i k x} at scheduled kick events.  Nothing in
the production pipeline imports this module; it exists so every analytic
wavefunction and phase-bookkeeping rule can be checked against a direct
numerical solution of the time-dependent Schrödinger equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HBAR, DomainError
from .wavefield import Grid, WaveField

#: Edge density above this fraction of the peak aborts a propagation
#: (the packet reached the periodic boundary).
EDGE_DENSITY_LIMIT = 1e-12

#: Spectral weight next to the Nyquist wavenumber above this fraction
#: aborts a propagation or an FFT spectrum (momentum reached the edge).
ALIAS_WEIGHT_LIMIT = 1e-9

#: Largest distance, in seconds, of a kick or final time from a time-step
#: multiple.
SNAP_TOLERANCE = 1e-12


class PropagationError(RuntimeError):
    """The numerical evolution left its domain of validity."""


@dataclass(frozen=True)
class KickEvent:
    """Instantaneous multiplication by -i e^{i phase} e^{i signed_k x}."""

    time: float
    signed_k: float
    phase: float = 0.0


@dataclass(frozen=True)
class PropagatorConfig:
    time_step: float
    grid: Grid
    mass: float
    gravity: float = 9.81               # 0.0 for a free particle
    kick_events: tuple[KickEvent, ...] = ()
    hbar: float = HBAR
    trap_frequency: float | None = None  # enables the 1/(50 omega) step check

    def __post_init__(self):
        if self.time_step <= 0.0:
            raise DomainError("time_step must be positive")
        if self.trap_frequency is not None:
            limit = 1.0 / (50.0 * self.trap_frequency)
            if self.time_step > limit:
                raise DomainError(
                    f"time_step {self.time_step} exceeds 1/(50 omega) = {limit}")
        k_nyquist = math.pi / self.grid.spacing
        phase = self.hbar * k_nyquist ** 2 / (2.0 * self.mass) * self.time_step
        if phase >= 0.25 * math.pi:
            raise DomainError(
                f"kinetic phase per step at Nyquist is {phase:.3f} rad "
                ">= pi/4; shrink time_step or coarsen the grid")
        for ev in self.kick_events:
            dist = abs(ev.time - round(ev.time / self.time_step)
                       * self.time_step)
            if dist > SNAP_TOLERANCE:
                raise DomainError(
                    f"kick at t={ev.time} is {dist:.3e} s from a time-step "
                    "multiple; align pulse times with time_step")


def _pulse_factor(grid: Grid, signed_k: float, phase: float) -> np.ndarray:
    """-i e^{i phase} e^{i signed_k x} on the grid, below Nyquist."""
    k_nyquist = math.pi / grid.spacing
    if abs(signed_k) >= k_nyquist:
        raise DomainError(
            f"kick wavenumber {signed_k:.3e} reaches Nyquist {k_nyquist:.3e}")
    return -1j * np.exp(1j * (phase + signed_k * grid.positions()))


def kick(fld: WaveField, signed_k: float, phase: float = 0.0) -> WaveField:
    """Apply -i e^{i phase} e^{i signed_k x}; norm is unchanged."""
    return WaveField(fld.grid, fld.amplitudes * _pulse_factor(
        fld.grid, signed_k, phase), fld.time)


def gaussian_packet(grid: Grid, width: float, velocity: float = 0.0,
                    center: float | None = None, mass: float = 1.0,
                    hbar: float = HBAR, time: float = 0.0) -> WaveField:
    """Minimum-uncertainty Gaussian of given width, moving at velocity."""
    if width <= 0.0:
        raise DomainError("width must be positive")
    x0 = grid.center if center is None else center
    x = grid.positions()
    amp = (math.pi ** -0.25 / math.sqrt(width)
           * np.exp(-0.5 * ((x - x0) / width) ** 2)
           * np.exp(1j * mass * velocity * (x - x0) / hbar))
    return WaveField(grid, amp, time)


def _guard(psi: np.ndarray, grid: Grid, t: float) -> None:
    density = np.abs(psi) ** 2
    peak = float(density.max())
    if peak == 0.0:
        raise PropagationError(f"state vanished at t={t}")
    guard = max(2, grid.n_points // 200)
    edge = float(max(density[:guard].max(), density[-guard:].max()))
    if edge > EDGE_DENSITY_LIMIT * peak:
        raise PropagationError(
            f"wavepacket reached the grid edge at t={t}: edge density "
            f"{edge / peak:.3e} of peak; widen the grid")
    spec = np.abs(np.fft.fft(psi)) ** 2
    total = float(spec.sum())
    lo = max(2, int(0.01 * grid.n_points))
    mid = grid.n_points // 2
    near_nyquist = float(spec[mid - lo:mid + lo + 1].sum())
    if near_nyquist > ALIAS_WEIGHT_LIMIT * total:
        raise PropagationError(
            f"momentum reached the Nyquist edge at t={t}: weight "
            f"{near_nyquist / total:.3e}; refine the grid spacing")


def propagate(initial: WaveField, config: PropagatorConfig,
              t_final: float) -> WaveField:
    """Strang-split evolution of the initial field to t_final."""
    if t_final < initial.time:
        raise DomainError("t_final must not precede the initial time")
    if abs(initial.norm() - 1.0) > 1e-6:
        raise DomainError(f"initial field norm {initial.norm()} is not 1")
    grid = initial.grid
    if grid != config.grid:
        raise DomainError("initial field and config use different grids")
    dt = config.time_step
    n_steps = round((t_final - initial.time) / dt)
    if abs(initial.time + n_steps * dt - t_final) > SNAP_TOLERANCE:
        raise DomainError(
            f"t_final - t_initial = {t_final - initial.time} is not a "
            f"multiple of time_step {dt}")
    kicks_by_step: dict[int, list[KickEvent]] = {}
    for ev in config.kick_events:
        if ev.time < initial.time - SNAP_TOLERANCE or \
           ev.time > t_final + SNAP_TOLERANCE:
            raise DomainError(f"kick at t={ev.time} outside [{initial.time}, {t_final}]")
        step = round((ev.time - initial.time) / dt)
        kicks_by_step.setdefault(step, []).append(ev)

    hbar = config.hbar
    m = config.mass
    x = grid.positions()
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    kinetic_full = np.exp(-1j * hbar * k * k / (2.0 * m) * dt)
    v_half = np.exp(-1j * (m * config.gravity / hbar) * x * (0.5 * dt))

    psi = initial.amplitudes.astype(complex, copy=True)
    guard_every = max(1, n_steps // 20)
    for step in range(n_steps + 1):
        if step:
            psi *= v_half
            psi = np.fft.ifft(kinetic_full * np.fft.fft(psi))
            psi *= v_half
        for ev in kicks_by_step.get(step, ()):
            psi *= _pulse_factor(grid, ev.signed_k, ev.phase)
        if step and (step % guard_every == 0 or step in kicks_by_step):
            _guard(psi, grid, initial.time + step * dt)
    _guard(psi, grid, t_final)
    out = WaveField(grid, psi, t_final)
    if abs(out.norm() - initial.norm()) > 1e-10:
        raise PropagationError("norm drifted beyond 1e-10")
    return out


# -- diagnostics used by the validation suite -----------------------------

def position_expectation(fld: WaveField) -> float:
    d = fld.density()
    return float(np.sum(fld.grid.positions() * d) / np.sum(d))


def position_spread(fld: WaveField) -> float:
    d = fld.density()
    x = fld.grid.positions()
    mean = float(np.sum(x * d) / np.sum(d))
    return math.sqrt(float(np.sum((x - mean) ** 2 * d) / np.sum(d)))


def momentum_spectrum_fft(fld: WaveField) -> tuple[np.ndarray, np.ndarray]:
    """(ascending wavenumbers, |<k|Psi>|^2 normalized to unit integral):
    the numerical reference for the closed-form momentum spectrum.

    Raises on a field whose norm is off by more than 1e-3 and on
    aliasing: more than ALIAS_WEIGHT_LIMIT within 2% of the Nyquist
    wavenumber.
    """
    n = fld.grid.n_points
    if abs(fld.norm() - 1.0) > 1e-3:
        raise DomainError(f"field norm {fld.norm()} is not 1")
    k = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(n, d=fld.grid.spacing))
    density = np.abs(np.fft.fftshift(np.fft.fft(fld.amplitudes))) ** 2
    dk = k[1] - k[0]
    density /= density.sum() * dk
    guard = max(2, int(0.02 * n))
    edge = float((density[:guard].sum() + density[-guard:].sum()) * dk)
    if edge > ALIAS_WEIGHT_LIMIT:
        raise DomainError(
            f"aliasing: spectral weight {edge:.3e} within 2% of the Nyquist "
            f"wavenumber {k[-1]:.3e} 1/m; refine the grid spacing")
    return k, density


def momentum_expectation(fld: WaveField, hbar: float = HBAR) -> float:
    k, spec = momentum_spectrum_fft(fld)
    return float(hbar * np.sum(k * spec) * (k[1] - k[0]))


def energy_expectation(fld: WaveField, config: PropagatorConfig) -> float:
    """<H> for the config's Hamiltonian (diagnostic for drift checks)."""
    k, spec = momentum_spectrum_fft(fld)
    kinetic = (config.hbar ** 2 / (2.0 * config.mass)
               * np.sum(k * k * spec) * (k[1] - k[0]))
    pot = config.mass * config.gravity * position_expectation(fld)
    return float(kinetic + pot)


def compare_fields(analytic: WaveField, numeric: WaveField
                   ) -> tuple[float, float]:
    """(max relative amplitude error, density-weighted phase spread).

    The amplitude error is normalized by the analytic peak amplitude;
    the phase spread is the weighted circular standard deviation of
    arg(numeric / analytic), i.e. the residual after removing a global
    phase.
    """
    if analytic.grid != numeric.grid:
        raise DomainError("fields must share one grid")
    a = analytic.amplitudes
    b = numeric.amplitudes
    peak = float(np.abs(a).max())
    amp_err = float(np.max(np.abs(np.abs(b) - np.abs(a)))) / peak
    w = np.abs(a) ** 2
    rel = b * np.conj(a)
    mean = np.angle(np.sum(w * rel / np.maximum(np.abs(rel), 1e-300)))
    phi = np.angle(rel * np.exp(-1j * mean))
    spread = math.sqrt(float(np.sum(w * phi * phi) / np.sum(w)))
    return amp_err, spread

"""Independent split-step Schrödinger propagator (validation only).

Evolves a WaveField under H = p^2/2m + m g x with second-order Strang
splitting on a periodic Fourier grid, applying instantaneous pulse
factors -i e^{i phase} e^{i k x} at scheduled kick events.  A field
stack (one row per arm) advances in one loop, each kick acting on its
own row.  The ``run`` and ``sweep`` commands never import this module;
``validate`` does, so that every analytic wavefunction and
phase-bookkeeping rule is checked against a direct numerical solution of
the time-dependent Schrödinger equation.

Why the errors are rounding noise: with T = p^2/2m and V = m g x,
[T, V] = -i hbar g p, so [T, [T, V]] = 0 and [V, [T, V]] = hbar^2 m g^2
is a c-number.  Every nested commutator in the BCH expansion of the
Strang step e^{-iV dt/2hbar} e^{-iT dt/hbar} e^{-iV dt/2hbar} beyond
second order is therefore zero or a c-number, and each step equals the
exact propagator up to a global phase of order dt^3, the same for every
arm.  compare_fields removes that phase, so what remains is rounding
that grows only with the step count: on the reduced scenario's 525-point
grid the worst error is 5.6e-14 at dt = 5e-7 s, 1.2e-13 at 2.5e-7 s and
3.3e-13 at 1.25e-7 s.  The full complex field, global phase included,
still converges as dt^2.

So the trap frequency, which enters only through the initial width,
bounds no step.  Only two rules do: the kinetic phase per step at the
Nyquist wavenumber stays below pi/4, and kicks snap to step multiples.

Why the grid lengths are smooth: each step is one FFT pair over the
whole field stack, and pocketfft runs a length with a large prime factor
(513 = 3^3 19, 1025 = 5^2 41) through a generic O(p) pass.  fft_length
rounds a point count up to an odd 3·5·7-smooth one (525, 1029), which
takes only the fast radix passes.  One step, which advances both rows
of a two-row stack, costs 20 µs at 525 points against 25 µs at 513, and
36 µs at 1029 against 55 µs at 1025 (2-vCPU VM, best of 8 propagations
of 2,000 steps, guards included).  It also rounds less, so the errors
above are smaller than the 3.7e-13 to 1.4e-12 the same scenario gives
on 513 points.

Why the step loop calls pocketfft directly: np.fft.fft and np.fft.ifft
end in the gufuncs numpy.fft._pocketfft_umath.fft and .ifft after about
2.5 µs of argument handling per call.  An FFT pair on a two-row stack of
525 points takes 20-27 µs through np.fft and 15-22 µs through the
gufuncs.  propagate calls the gufuncs over the last axis with the scale
factors np.fft's default norm passes, 1 forward and 1/n inverse, so each
step rounds exactly as the np.fft calls do.  Its phase factors are tiled
to the stack's (rows, n) shape once: an in-place multiply by an (n,)
factor costs 1.8 µs there against 1.1 µs for one of the stack's shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .model import HBAR, DomainError
from .wavefield import Grid, WaveField

#: Edge density above this fraction of the peak aborts a propagation
#: (the packet reached the periodic boundary).
EDGE_DENSITY_LIMIT = 1e-12

#: Spectral weight next to the Nyquist wavenumber above this fraction
#: aborts a propagation (momentum reached the edge).
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
    row: int = 0          # the row of a field stack it acts on


@dataclass(frozen=True)
class PropagatorConfig:
    time_step: float
    grid: Grid
    mass: float
    gravity: float = 9.81               # 0.0 for a free particle
    kick_events: tuple[KickEvent, ...] = ()

    def __post_init__(self):
        if self.time_step <= 0.0:
            raise DomainError("time_step must be positive")
        k_nyquist = math.pi / self.grid.spacing
        phase = HBAR * k_nyquist ** 2 / (2.0 * self.mass) * self.time_step
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


def fft_length(minimum: int) -> int:
    """Smallest odd 3·5·7-smooth integer >= minimum: a grid length whose
    FFTs take only pocketfft's fast radix-3, -5 and -7 passes."""
    n = max(minimum, 1) | 1
    while True:
        rest = n
        for p in (3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 2


def _pulse_factor(grid: Grid, signed_k: float, phase: float) -> np.ndarray:
    """-i e^{i phase} e^{i signed_k x} on the grid, below Nyquist."""
    k_nyquist = math.pi / grid.spacing
    if abs(signed_k) >= k_nyquist:
        raise DomainError(
            f"kick wavenumber {signed_k:.3e} reaches Nyquist {k_nyquist:.3e}")
    return -1j * np.exp(1j * (phase + signed_k * grid.positions()))


def gaussian_packet(grid: Grid, width: float, velocity: float = 0.0,
                    center: float | None = None, *, mass: float) -> WaveField:
    """Minimum-uncertainty Gaussian of given width, moving at velocity,
    at t = 0."""
    if width <= 0.0:
        raise DomainError("width must be positive")
    x0 = grid.center if center is None else center
    x = grid.positions()
    amp = (math.pi ** -0.25 / math.sqrt(width)
           * np.exp(-0.5 * ((x - x0) / width) ** 2)
           * np.exp(1j * mass * velocity * (x - x0) / HBAR))
    return WaveField(grid, amp, 0.0)


def _guard(psi: np.ndarray, grid: Grid, t: float) -> None:
    """Raise if any row of the (rows, n) stack touches the grid edge or
    the Nyquist wavenumber."""
    density = np.abs(psi) ** 2
    peak = density.max(axis=-1)
    if not peak.all():
        raise PropagationError(
            f"state in row {int(np.argmin(peak))} vanished at t={t}")
    guard = max(2, grid.n_points // 200)
    edge = np.maximum(density[:, :guard].max(axis=-1),
                      density[:, -guard:].max(axis=-1)) / peak
    row = int(np.argmax(edge))
    if edge[row] > EDGE_DENSITY_LIMIT:
        raise PropagationError(
            f"wavepacket in row {row} reached the grid edge at t={t}: edge "
            f"density {edge[row]:.3e} of peak; widen the grid")
    spec = np.abs(np.fft.fft(psi, axis=-1)) ** 2
    lo = max(2, int(0.01 * grid.n_points))
    mid = grid.n_points // 2
    near_nyquist = spec[:, mid - lo:mid + lo + 1].sum(axis=-1) / spec.sum(
        axis=-1)
    row = int(np.argmax(near_nyquist))
    if near_nyquist[row] > ALIAS_WEIGHT_LIMIT:
        raise PropagationError(
            f"momentum in row {row} reached the Nyquist edge at t={t}: "
            f"weight {near_nyquist[row]:.3e}; refine the grid spacing")


def propagate(initial: WaveField, config: PropagatorConfig,
              t_final: float) -> WaveField:
    """Strang-split evolution of the initial field to t_final.

    A (rows, n) stack advances every row in the same loop; each kick acts
    on its own row.  The result has the shape of the initial amplitudes.
    """
    if t_final < initial.time:
        raise DomainError("t_final must not precede the initial time")
    norm0 = np.atleast_1d(initial.norm())
    off = np.abs(norm0 - 1.0)
    if off.max() > 1e-6:
        raise DomainError(
            f"initial field norm {norm0[np.argmax(off)]} is not 1")
    grid = initial.grid
    if grid != config.grid:
        raise DomainError("initial field and config use different grids")
    dt = config.time_step
    n_steps = round((t_final - initial.time) / dt)
    if abs(initial.time + n_steps * dt - t_final) > SNAP_TOLERANCE:
        raise DomainError(
            f"t_final - t_initial = {t_final - initial.time} is not a "
            f"multiple of time_step {dt}")
    rows = len(norm0)
    kicks_by_step: dict[int, list[KickEvent]] = {}
    for ev in config.kick_events:
        if ev.time < initial.time - SNAP_TOLERANCE or \
           ev.time > t_final + SNAP_TOLERANCE:
            raise DomainError(f"kick at t={ev.time} outside [{initial.time}, {t_final}]")
        if not 0 <= ev.row < rows:
            raise DomainError(
                f"kick at t={ev.time} acts on row {ev.row} of a {rows}-row "
                "field")
        step = round((ev.time - initial.time) / dt)
        kicks_by_step.setdefault(step, []).append(ev)

    # (rows, n) phase factors and direct pocketfft calls: see the module
    # docstring.
    m = config.mass
    x = grid.positions()
    k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    kinetic_full = np.tile(np.exp(-1j * HBAR * k * k / (2.0 * m) * dt),
                           (rows, 1))
    v_rate = -1j * (m * config.gravity / HBAR) * x
    v_half = np.tile(np.exp(v_rate * (0.5 * dt)), (rows, 1))
    v_full = np.tile(np.exp(v_rate * dt), (rows, 1))
    inverse_scale = 1.0 / grid.n_points

    # Between stops the closing potential half-step of one Strang step and
    # the opening one of the next fuse into one full step; at a stop (kick,
    # guard or last step) the state is the exact Strang-step state.
    guard_every = max(1, n_steps // 20)
    stops = sorted({*range(guard_every, n_steps + 1, guard_every),
                    *kicks_by_step, n_steps})
    psi = np.array(initial.amplitudes, dtype=complex, ndmin=2)
    done = 0
    for stop in stops:
        if stop > done:
            psi *= v_half
            for step in range(done + 1, stop + 1):
                _pocketfft.fft(psi, 1.0, out=psi)
                psi *= kinetic_full
                _pocketfft.ifft(psi, inverse_scale, out=psi)
                psi *= v_full if step < stop else v_half
            done = stop
        for ev in kicks_by_step.get(stop, ()):
            psi[ev.row] *= _pulse_factor(grid, ev.signed_k, ev.phase)
        _guard(psi, grid, initial.time + stop * dt)
    out = WaveField(grid, psi.reshape(np.shape(initial.amplitudes)), t_final)
    drift = np.abs(np.atleast_1d(out.norm()) - norm0)
    if drift.max() > 1e-10:
        raise PropagationError(
            f"norm of row {int(np.argmax(drift))} drifted beyond 1e-10")
    return out


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

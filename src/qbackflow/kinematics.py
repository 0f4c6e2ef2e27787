"""Classical arm trajectories under gravity with instantaneous kicks.

Each interferometer arm is a piecewise-ballistic center-of-mass path.
Between pulses position and velocity follow free fall; at a pulse the
velocity jumps by hbar * k_eff / m where k_eff is the signed effective
kick wavenumber (the beam direction folded with the internal state, so
that a pulse with k_eff multiplies the wavefunction by e^{i k_eff x}).

Alongside the path the trajectory accumulates three phase ledgers:

* action phase   : (1/hbar) * integral of the COM Lagrangian,
                   closed form per segment,
* internal phase : -E_mu * dt / hbar per segment, mu toggling at pulses,
* laser phase    : per pulse, mu * phi_L + k_eff * x_c(t) - pi/2
                   (the -pi/2 is the -i prefactor of a resonant pulse).

Phases are kept unreduced in double-double precision; see phaseacc.

Storage and cost
----------------
A trajectory is an array ledger: one entry per segment start (the
launch, then one per pulse) holding the time, position, velocity and
internal state.  :meth:`ArmTrajectory.kicks` appends a whole pulse
array in one vectorised pass, and :meth:`ArmTrajectory.kick` is its
one-pulse case:

* the post-pulse states come from the free-fall recurrence written as
  sequential cumulative sums, which round exactly as a pulse-by-pulse
  evaluation of :func:`free_fall_step` does;
* the action, internal and laser terms of every closed segment come
  from the same double-double formulas as :func:`action_phase_dd` and
  :func:`internal_phase_dd`, evaluated elementwise on arrays;
* each ledger is then reduced once, by an exactly rounded sum
  (:func:`phaseacc.fsum_dd`), into a single DoubleDouble.

A build is O(n) in the pulse count and segment lookups are binary
searches.  Only the order in which segment terms are summed differs
from a pulse-by-pulse double-double ledger, which moves the reduced
phases by far less than 1e-9 rad even at 8,000 pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CondensateParams, DomainError, Environment, TransitionParams
from .phaseacc import DoubleDouble, fsum_dd, product, two_prod

GROUND = +1
EXCITED = -1


class OrderingError(ValueError):
    """A pulse was applied before the trajectory's current end."""


class NoEncounterError(RuntimeError):
    """The two arms never meet after the requested time."""

    def __init__(self, msg: str, min_separation: float):
        super().__init__(msg)
        self.min_separation = min_separation


def free_fall_step(position: float, velocity: float, dt: float,
                   g: float) -> tuple[float, float]:
    """Ballistic update over dt: x' = x + v dt - g dt^2 / 2, v' = v - g dt."""
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    return position + velocity * dt - 0.5 * g * dt * dt, velocity - g * dt


def action_phase(momentum_after_pulse: float, position_after_pulse: float,
                 dt: float, mass: float, g: float,
                 hbar: float | None = None) -> float:
    """COM action between pulses divided by hbar.

    (1/hbar) [ (P^2/2m - m g x) dt - P g dt^2 + (1/3) m g^2 dt^3 ]
    for an arm that leaves a pulse with momentum P at height x.
    """
    return action_phase_dd(momentum_after_pulse, position_after_pulse,
                           dt, mass, g, hbar).value()


def action_phase_dd(P: float, x: float, dt: float, mass: float, g: float,
                    hbar: float | None = None) -> DoubleDouble:
    """Double-double version of :func:`action_phase`.

    P, x and dt may also be arrays of one shape: the terms are then
    evaluated elementwise, rounded as the scalar code rounds them.
    """
    if np.any(np.less(dt, 0.0)):
        raise DomainError("dt must be nonnegative")
    if hbar is None:
        from .model import HBAR as hbar  # noqa: F811
    acc = product(P, P).div_float(2.0 * mass).mul_float(dt)
    acc = acc.add(product(mass, g, x, dt).neg())
    acc = acc.add(product(P, g, dt, dt).neg())
    acc = acc.add(product(mass, g, g, dt, dt, dt).div_float(3.0))
    return acc.div_float(hbar)


def internal_phase(energy: float, dt: float, hbar: float | None = None) -> float:
    """Phase -E dt / hbar accumulated by an internal state over dt."""
    return internal_phase_dd(energy, dt, hbar).value()


def internal_phase_dd(energy: float, dt: float,
                      hbar: float | None = None) -> DoubleDouble:
    """Double-double version of :func:`internal_phase`; arrays as in
    :func:`action_phase_dd`."""
    if np.any(np.less(dt, 0.0)):
        raise DomainError("dt must be nonnegative")
    if hbar is None:
        from .model import HBAR as hbar  # noqa: F811
    return product(energy, dt).div_float(hbar).neg()


@dataclass(frozen=True)
class Segment:
    """One ballistic stretch; the last segment of a trajectory is open-ended."""

    start_time: float
    end_time: float             # math.inf for the live segment
    start_position: float
    start_velocity: float
    internal_state: int         # +1 ground, -1 excited


@dataclass(frozen=True, eq=False)
class ArmTrajectory:
    """Immutable COM path of one arm with accumulated phase ledgers.

    ``times``, ``positions``, ``velocities`` and ``internal_states`` hold
    the state at each segment start: index 0 is the launch, index i > 0
    the state just after pulse i.  The ledgers cover all *closed*
    segments (up to the last pulse); use :meth:`phases_at` to extend
    them to an arbitrary later time.
    """

    params: CondensateParams
    env: Environment
    transition: TransitionParams
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    internal_states: np.ndarray
    action_phase_total: DoubleDouble
    laser_phase_total: DoubleDouble
    internal_phase_total: DoubleDouble
    kick_velocity_total: float = 0.0

    @staticmethod
    def launch(params: CondensateParams, env: Environment,
               transition: TransitionParams, *, position: float = 0.0,
               velocity: float | None = None, time: float = 0.0,
               internal_state: int = GROUND) -> "ArmTrajectory":
        transition.energy(internal_state)  # rejects anything but +1 / -1
        v = params.launch_velocity if velocity is None else velocity
        zero = DoubleDouble()
        return ArmTrajectory(params, env, transition, np.array([float(time)]),
                             np.array([float(position)]), np.array([float(v)]),
                             np.array([internal_state]), zero, zero, zero)

    # -- path queries -------------------------------------------------

    @property
    def kick_count(self) -> int:
        return len(self.times) - 1

    def segment(self, i: int) -> Segment:
        """Segment i (negative i counts from the live segment backwards)."""
        n = len(self.times)
        if not -n <= i < n:
            raise IndexError(f"segment {i} of {n}")
        i %= n
        end = float(self.times[i + 1]) if i + 1 < n else math.inf
        return Segment(float(self.times[i]), end, float(self.positions[i]),
                       float(self.velocities[i]), int(self.internal_states[i]))

    @property
    def segments(self) -> tuple[Segment, ...]:
        """All segments, built on demand; prefer :meth:`segment` for one."""
        return tuple(self.segment(i) for i in range(len(self.times)))

    def _segment_at(self, t: float) -> Segment:
        if not t >= self.times[0]:  # also rejects NaN
            raise DomainError(f"time {t} precedes trajectory start")
        return self.segment(int(np.searchsorted(self.times, t, "right")) - 1)

    def position(self, t: float) -> float:
        seg = self._segment_at(t)
        x, _ = free_fall_step(seg.start_position, seg.start_velocity,
                              t - seg.start_time, self.env.gravity)
        return x

    def velocity(self, t: float) -> float:
        seg = self._segment_at(t)
        return seg.start_velocity - self.env.gravity * (t - seg.start_time)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def internal_state_at(self, t: float) -> int:
        return self._segment_at(t).internal_state

    # -- construction -------------------------------------------------

    def kick(self, pulse_time: float, signed_k: float,
             laser_phase: float = 0.0) -> "ArmTrajectory":
        """Close the live segment at pulse_time and start a kicked one.

        The one-pulse case of :meth:`kicks`.
        """
        return self.kicks([pulse_time], [signed_k], [laser_phase])

    # Extreme inputs overflow to inf or NaN here; a non-finite phase is
    # refused, with its value, when it is reduced mod 2 pi.
    @np.errstate(over="ignore", invalid="ignore")
    def kicks(self, pulse_times, signed_ks, laser_phases=0.0) -> "ArmTrajectory":
        """Apply a time-ordered pulse array in one pass.

        At each pulse the velocity jumps by hbar * signed_k / m and the
        internal state toggles.  Equal pulse times are allowed; a pulse
        before the trajectory's end raises :class:`OrderingError`.  The
        closed segments' action and internal phases and the pulses'
        laser/kick phases are added to the ledgers.
        """
        t = np.asarray(pulse_times, dtype=float)
        n = t.size
        if n == 0:
            return self
        k = np.broadcast_to(np.asarray(signed_ks, dtype=float), (n,))
        phi = np.broadcast_to(np.asarray(laser_phases, dtype=float), (n,))
        dt = np.diff(t, prepend=self.times[-1])
        bad = np.flatnonzero(~(dt >= 0.0))  # NaN counts as out of order
        if bad.size:
            i = bad[0]
            before = self.times[-1] if i == 0 else t[i - 1]
            raise OrderingError(
                f"pulse at t={t[i]} precedes trajectory end t={before}")
        g = self.env.gravity
        m = self.params.mass
        hbar = self.env.hbar
        dv = hbar * k / m

        # Ballistic pass over the live segment's start and the n pulses.
        # np.cumsum adds left to right, so interleaving the increments
        # rounds v' = (v - g dt) + dv and x' = (x + v dt) - ((0.5 g) dt) dt
        # exactly as free_fall_step in a pulse-by-pulse build does.
        steps = np.empty(2 * n + 1)
        steps[0] = self.velocities[-1]
        steps[1::2] = -(g * dt)
        steps[2::2] = dv
        v = np.cumsum(steps)[::2]
        steps[0] = self.positions[-1]
        steps[1::2] = v[:-1] * dt
        steps[2::2] = -(0.5 * g * dt * dt)
        x = np.cumsum(steps)[::2]
        mu = self.internal_states[-1] * np.resize([1, -1], n + 1)

        # Ledger terms: segment i closes at pulse i, which lands at x[i + 1].
        tr = self.transition
        energy = np.where(mu[:-1] == GROUND, tr.ground_energy,
                          tr.excited_energy)
        action = action_phase_dd(m * v[:-1], x[:-1], dt, m, g, hbar)
        internal = internal_phase_dd(energy, dt, hbar)
        kx_hi, kx_lo = two_prod(k, x[1:])
        quarter_turns = two_prod(float(n), -0.5 * math.pi)

        def total(old: DoubleDouble, *terms) -> DoubleDouble:
            return fsum_dd(np.concatenate(
                [np.ravel(a) for a in ((old.hi, old.lo),) + terms]).tolist())

        return ArmTrajectory(
            self.params, self.env, self.transition,
            np.concatenate((self.times, t)),
            np.concatenate((self.positions, x[1:])),
            np.concatenate((self.velocities, v[1:])),
            np.concatenate((self.internal_states, mu[1:])),
            total(self.action_phase_total, action.hi, action.lo),
            total(self.laser_phase_total, mu[:-1] * phi, kx_hi, kx_lo,
                  quarter_turns),
            total(self.internal_phase_total, internal.hi, internal.lo),
            float(np.cumsum(np.concatenate(([self.kick_velocity_total],
                                            dv)))[-1]))

    # -- phase queries ------------------------------------------------

    def phases_at(self, t: float) -> tuple[DoubleDouble, DoubleDouble, DoubleDouble]:
        """(action, laser, internal) phase totals through time t.

        t must not precede the last pulse; the live segment contributes
        its ballistic action and internal evolution up to t.
        """
        last = self.segment(-1)
        if t < last.start_time:
            raise DomainError("phase query before the last pulse is not supported")
        m = self.params.mass
        dt = t - last.start_time
        action = self.action_phase_total.add(
            action_phase_dd(m * last.start_velocity, last.start_position,
                            dt, m, self.env.gravity, self.env.hbar))
        internal = self.internal_phase_total.add(
            internal_phase_dd(self.transition.energy(last.internal_state),
                              dt, self.env.hbar))
        return action, self.laser_phase_total, internal

    def total_phase_at(self, t: float) -> DoubleDouble:
        a, l, i = self.phases_at(t)
        return a.add(l).add(i)


def solve_encounter(free_arm: ArmTrajectory, pulsed_arm: ArmTrajectory,
                    after_time: float, *, position_tol: float = 0.0) -> float:
    """Earliest time >= after_time at which the arm COMs coincide.

    Gravity cancels in the relative coordinate, so after the last pulse
    the separation is linear in time and the root is exact.
    """
    if after_time < max(free_arm.end_time, pulsed_arm.end_time):
        raise DomainError("after_time must not precede the arms' last pulses")
    r = pulsed_arm.position(after_time) - free_arm.position(after_time)
    w = pulsed_arm.velocity(after_time) - free_arm.velocity(after_time)
    scale = max(abs(free_arm.position(after_time)), abs(pulsed_arm.position(after_time)), 1e-30)
    tol = max(position_tol, 1e-12 * scale)
    if abs(r) <= tol:
        return after_time
    if w == 0.0 or (r > 0) == (w > 0):
        raise NoEncounterError(
            f"arms separate after t={after_time}: separation {abs(r):.3e} m, "
            f"relative velocity {w:.3e} m/s", abs(r))
    return after_time - r / w

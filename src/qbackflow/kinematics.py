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
A trajectory is its arrays: one entry per segment start (the launch,
then one per pulse) holding the time, position, velocity and internal
state, plus the three reduced ledgers.  There is no per-segment object:
a query at time t finds its entry by one binary search and reads the
arrays there.  :meth:`ArmTrajectory.kicks` appends a whole pulse
array, of one pulse or many, in one vectorised pass:

* the post-pulse states come from the free-fall recurrence written as
  sequential cumulative sums, which round exactly as a pulse-by-pulse
  evaluation of :func:`free_fall_step` does;
* a closed segment's action, [P^2 dt / 2m - m g x dt - g P dt^2
  + m g^2 dt^3 / 3] / hbar for an arm leaving a pulse at x with P = m v,
  needs only the sums of P^2 dt, x dt, P dt^2 and dt^3; the internal
  ledger is -(E / hbar) times the excited segments' summed dt, the
  laser ledger sums mu phi_L and k x.  One pairwise double-double sum
  (:func:`phaseacc.sum_products_dd`) reduces these seven rows at once,
  and the constants are applied to the sums once each.

A build is O(n) in the pulse count.  On an 8,012-pulse shuttle sequence
the ledgers lie within 1 u^2 (u = 2**-53) of their sums of |terms| of
the exact values, and within 2.8e-27 rad (action), 3.2e-27 rad (laser)
and 1.3e-18 rad (internal, of 1.7e13 rad) of the pulse-by-pulse ledger
of :func:`action_phase_dd` and :func:`internal_phase_dd`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HBAR, CondensateParams, DomainError, TransitionParams
from .phaseacc import DoubleDouble, product, sum_products_dd, two_prod

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


def action_phase_dd(P: float, x: float, dt: float, mass: float,
                    g: float) -> DoubleDouble:
    """COM action between pulses divided by hbar, in double-double:

    (1/hbar) [ (P^2/2m - m g x) dt - P g dt^2 + (1/3) m g^2 dt^3 ]
    for an arm that leaves a pulse with momentum P at height x.
    """
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    acc = product(P, P).div_float(2.0 * mass).mul_float(dt)
    acc = acc.add(product(mass, g, x, dt).neg())
    acc = acc.add(product(P, g, dt, dt).neg())
    acc = acc.add(product(mass, g, g, dt, dt, dt).div_float(3.0))
    return acc.div_float(HBAR)


def internal_phase_dd(energy: float, dt: float) -> DoubleDouble:
    """Phase -E dt / hbar accumulated by an internal state over dt, in
    double-double."""
    if dt < 0.0:
        raise DomainError("dt must be nonnegative")
    return product(energy, dt).div_float(HBAR).neg()


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
    gravity: float              # m / s^2, magnitude, acts downward
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
    def launch(params: CondensateParams, gravity: float,
               transition: TransitionParams) -> "ArmTrajectory":
        """The released condensate: at x = 0 and t = 0 in the ground
        state, moving at the launch velocity."""
        zero = DoubleDouble()
        return ArmTrajectory(params, gravity, transition, np.array([0.0]),
                             np.array([0.0]),
                             np.array([float(params.launch_velocity)]),
                             np.array([GROUND]), zero, zero, zero)

    # -- path queries -------------------------------------------------

    @property
    def kick_count(self) -> int:
        return len(self.times) - 1

    def _entry(self, t: float) -> tuple[float, float, float, int]:
        """(time, position, velocity, internal state) at the start of the
        segment holding t: the last entry at or before t, so of pulses at
        one time the last one wins."""
        if not t >= self.times[0]:  # also rejects NaN
            raise DomainError(f"time {t} precedes trajectory start")
        i = int(np.searchsorted(self.times, t, "right")) - 1
        return (float(self.times[i]), float(self.positions[i]),
                float(self.velocities[i]), int(self.internal_states[i]))

    def position(self, t: float) -> float:
        t0, x, v, _ = self._entry(t)
        return free_fall_step(x, v, t - t0, self.gravity)[0]

    def velocity(self, t: float) -> float:
        t0, _, v, _ = self._entry(t)
        return v - self.gravity * (t - t0)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    # -- construction -------------------------------------------------

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
        g = self.gravity
        m = self.params.mass
        dv = HBAR * k / m

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
        mu = self.internal_states[-1] * (1 - 2 * (np.arange(n + 1) & 1))

        # Ledger rows (see the module docstring): segment i closes at
        # pulse i, which lands at x[i + 1].
        P = m * v[:-1]
        sums = sum_products_dd([
            (P, P, dt), (x[:-1], dt), (P, dt, dt), (dt, dt, dt),
            (np.where(mu[:-1] == EXCITED, dt, 0.0),), (mu[:-1] * phi,),
            (k, x[1:])])
        pp_dt, x_dt, p_dt2, dt3, excited, mu_phi, kx = map(
            DoubleDouble, *(part.tolist() for part in sums))
        action = (pp_dt.div_float(2.0 * m)
                  .add(x_dt.mul_float(m).mul_float(g).neg())
                  .add(p_dt2.mul_float(g).neg())
                  .add(dt3.mul_float(m).mul_float(g).mul_float(g)
                       .div_float(3.0))
                  .div_float(HBAR))
        internal = excited.mul_float(
            self.transition.excited_energy).div_float(HBAR).neg()
        quarter_turns = DoubleDouble(*two_prod(float(n), -0.5 * math.pi))

        return ArmTrajectory(
            self.params, self.gravity, self.transition,
            np.concatenate((self.times, t)),
            np.concatenate((self.positions, x[1:])),
            np.concatenate((self.velocities, v[1:])),
            np.concatenate((self.internal_states, mu[1:])),
            self.action_phase_total.add(action),
            self.laser_phase_total.add(mu_phi).add(kx).add(quarter_turns),
            self.internal_phase_total.add(internal),
            float(np.cumsum(np.concatenate(([self.kick_velocity_total],
                                            dv)))[-1]))

    # -- phase queries ------------------------------------------------

    def phases_at(self, t: float) -> tuple[DoubleDouble, DoubleDouble, DoubleDouble]:
        """(action, laser, internal) phase totals through time t.

        t must not precede the last pulse; the live segment contributes
        its ballistic action and internal evolution up to t.
        """
        t0, x, v, mu = self._entry(t)
        if t0 < self.end_time:
            raise DomainError("phase query before the last pulse is not supported")
        m = self.params.mass
        action = self.action_phase_total.add(
            action_phase_dd(m * v, x, t - t0, m, self.gravity))
        internal = self.internal_phase_total.add(
            internal_phase_dd(self.transition.energy(mu), t - t0))
        return action, self.laser_phase_total, internal

    def total_phase_at(self, t: float) -> DoubleDouble:
        a, l, i = self.phases_at(t)
        return a.add(l).add(i)


def solve_encounter(free_arm: ArmTrajectory,
                    pulsed_arm: ArmTrajectory) -> float:
    """Earliest time, from the arms' last pulse on, when the COMs coincide.

    Gravity cancels in the relative coordinate, so after the last pulse
    the separation is linear in time and the root is exact.
    """
    t0 = max(free_arm.end_time, pulsed_arm.end_time)
    r = pulsed_arm.position(t0) - free_arm.position(t0)
    w = pulsed_arm.velocity(t0) - free_arm.velocity(t0)
    scale = max(abs(free_arm.position(t0)), abs(pulsed_arm.position(t0)), 1e-30)
    if abs(r) <= 1e-12 * scale:
        return t0
    if w == 0.0 or (r > 0) == (w > 0):
        raise NoEncounterError(
            f"arms separate after t={t0}: separation {abs(r):.3e} m, "
            f"relative velocity {w:.3e} m/s", abs(r))
    return t0 - r / w

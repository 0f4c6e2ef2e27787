"""Physical constants, condensate and transition parameters.

All quantities are SI. The geometry is one-dimensional along the vertical
axis; "up" is positive, so gravity of magnitude g contributes -g to the
acceleration of every arm.

There is one Planck constant, :data:`HBAR` (CODATA 2018), and every
module reads it; nothing takes hbar as a parameter.  The internal ground
state sits at energy 0 and the excited state one photon energy
hbar 2 pi c / lambda above it.  Only the energy difference enters the
phase ledgers, so a ground-state offset would be a gauge choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# CODATA 2018 values.
HBAR = 1.054571817e-34          # J s
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg
SPEED_OF_LIGHT = 299792458.0    # m / s

#: Largest pulse area accepted anywhere: a splitting pulse, a sweep range
#: and the sweep weights all end at two full Rabi cycles.
MAX_PULSE_AREA = 4.0 * math.pi


class DomainError(ValueError):
    """An input is outside the physical domain of an operation."""


def derive_oscillator_length(mass: float, trap_frequency: float) -> float:
    """Harmonic-trap ground-state length a = sqrt(hbar / (m * omega))."""
    if mass <= 0.0:
        raise DomainError(f"mass must be positive, got {mass}")
    if trap_frequency <= 0.0:
        raise DomainError(f"trap_frequency must be positive, got {trap_frequency}")
    product = mass * trap_frequency
    length = math.sqrt(HBAR / product) if product > 0.0 else math.inf
    if not 0.0 < length < math.inf:
        raise DomainError(f"oscillator length sqrt(hbar / (m omega)) is {length} "
                          f"for m = {mass} kg, omega = {trap_frequency} rad/s")
    return length


def expansion(t: float, trap_frequency: float) -> tuple[float, float]:
    """(b, db/dt) after trap release: the width growth factor
    b(t) = sqrt(1 + omega^2 t^2) and its rate db/dt = omega^2 t / b(t)."""
    if t < 0.0:
        raise DomainError("time must be nonnegative (sequences only move forward)")
    what = "b(t)"
    try:
        b = math.sqrt(1.0 + (trap_frequency * t) ** 2)
        what = "db/dt"
        return b, trap_frequency ** 2 * t / b
    except OverflowError:
        raise DomainError(f"expansion rate {what} overflows at omega = "
                          f"{trap_frequency} rad/s, t = {t} s") from None


@dataclass(frozen=True)
class CondensateParams:
    """Identity of the released BEC: mass, trap, launch velocity."""

    mass: float                 # kg
    trap_frequency: float       # rad / s
    launch_velocity: float      # m / s, signed, up positive
    oscillator_length: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "oscillator_length",
            derive_oscillator_length(self.mass, self.trap_frequency),
        )


@dataclass(frozen=True)
class TransitionParams:
    """Two-level optical transition driving the pulses; the ground
    state is at energy 0."""

    wavelength: float           # m
    wavevector_magnitude: float = field(init=False)
    excited_energy: float = field(init=False)  # J, the photon energy

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise DomainError("wavelength must be positive")
        object.__setattr__(self, "wavevector_magnitude", 2.0 * math.pi / self.wavelength)
        object.__setattr__(self, "excited_energy",
                           HBAR * 2.0 * math.pi * SPEED_OF_LIGHT / self.wavelength)
        if not self.excited_energy > 0.0:
            raise DomainError(f"photon energy at wavelength {self.wavelength} m "
                              "underflows to 0")

    def recoil_velocity_for(self, mass: float) -> float:
        """Single-photon recoil velocity hbar k / m."""
        return HBAR * self.wavevector_magnitude / mass

    def energy(self, internal_state: int) -> float:
        """Energy of internal state index mu: +1 ground, -1 excited."""
        if internal_state == +1:
            return 0.0
        if internal_state == -1:
            return self.excited_energy
        raise DomainError(f"internal_state must be +1 or -1, got {internal_state}")


def sr88_params(launch_velocity: float = 0.2) -> CondensateParams:
    """The 88Sr condensate used throughout: 88 u, 2 pi x 70 rad/s trap, 0.2 m/s launch."""
    return CondensateParams(
        mass=88.0 * ATOMIC_MASS_UNIT,
        trap_frequency=2.0 * math.pi * 70.0,
        launch_velocity=launch_velocity,
    )

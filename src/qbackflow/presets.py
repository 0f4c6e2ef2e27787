"""Shipped scenario configurations.

The reference sequence is an 88Sr fountain launched at 0.2 m/s on the
689 nm line: a splitting pulse at t = 0 kicks the LMT arm up by one
recoil, a first array of 38 downward pulses starting at 4 ms (11 us
apart) sends it below the free arm, and a second array of 49 upward
pulses brings the relative velocity to +12 recoils so the arms re-meet
with an encounter velocity difference of 0.079 m/s.  The second array's
start time is calibrated so the free arm's own velocity at the
encounter is 2.8 mm/s: slow enough that the critical-density fractions
land near their published values, fast enough that the momentum
spectrum keeps no measurable weight below zero.
"""

from __future__ import annotations

import math

from .config import ConfigError

#: Number of photon recoils separating the arms at encounter.
REFERENCE_RECOIL_COUNT = 12

#: Frozen calibration of the reference sequence (all seconds / SI).
REFERENCE_SPLIT_TIME_S = 0.0
REFERENCE_ARRAY_1 = {"count": 38, "start_s": 0.004, "interval_s": 1.1e-5,
                     "sign": -1}
REFERENCE_ARRAY_2 = {"count": 49, "start_s": 0.007918780440616613,
                     "interval_s": 1.1e-5, "sign": 1}

#: Derived reference values, regression-locked by the test suite.
REFERENCE_ENCOUNTER_TIME_S = 0.020101936799184504
REFERENCE_DELTA_V_M_PER_S = 0.07897439065498331
REFERENCE_FREE_VELOCITY_M_PER_S = 2.8e-3


def reference_config(pulse_area_rad: float, *,
                     half_width_factor: float = 4.0,
                     fringe_samples: int = 20) -> dict:
    """Full-scale reference scenario with the given splitting-pulse area."""
    return {
        "condensate": {"preset": "sr88", "launch_velocity_m_per_s": 0.2},
        "environment": {"gravity_m_per_s2": 9.81},
        "transition": {"wavelength_m": 6.89e-7},
        "splitting_pulse": {"time_s": REFERENCE_SPLIT_TIME_S,
                            "pulse_area_rad": pulse_area_rad,
                            "laser_phase_rad": 0.0, "sign": 1},
        "weights": {"mode": "splitting_pulse"},
        "pulse_arrays": [dict(REFERENCE_ARRAY_1), dict(REFERENCE_ARRAY_2)],
        "encounter": {"auto": True},
        "grid": {"half_width_factor": half_width_factor,
                 "fringe_samples": fringe_samples,
                 "envelope_samples": 50},
        "spectrum": {"enabled": True, "half_width_factor": 6.0},
        "output": {"profile_window_m": 5e-7, "wavefield_dump": False},
    }


def reduced_scale_config() -> dict:
    """Small, fast scenario for cross-checking against the numerical
    propagator: weaker gravity, a tighter trap, a long-wavelength
    transition and microsecond-scale pulse spacings keep the oracle grid
    at a few hundred thousand points and the run at a few seconds."""
    return {
        "condensate": {"mass_kg": 88 * 1.66053906660e-27,
                       "trap_frequency_rad_per_s": 2.0 * math.pi * 300.0,
                       "launch_velocity_m_per_s": 6.0e-3},
        "environment": {"gravity_m_per_s2": 2.0},
        "transition": {"wavelength_m": 2.0e-6},
        "splitting_pulse": {"time_s": 0.0, "pulse_area_rad": 0.6 * math.pi,
                            "laser_phase_rad": 0.0, "sign": 1},
        "weights": {"mode": "splitting_pulse"},
        "pulse_arrays": [
            {"count": 3, "start_s": 2.0e-4, "interval_s": 5.0e-5, "sign": -1},
            {"count": 5, "start_s": 5.0e-4, "interval_s": 5.0e-5, "sign": 1},
        ],
        "encounter": {"auto": True},
        "grid": {"half_width_factor": 8.0, "fringe_samples": 20,
                 "envelope_samples": 50},
        "spectrum": {"enabled": True, "half_width_factor": 8.0},
        "output": {"profile_window_m": 2e-5, "wavefield_dump": False},
    }


def _fig8_config(variable: str, hi: float, n_samples: int) -> dict:
    cfg = reference_config(0.75 * math.pi,
                           half_width_factor=3.0, fringe_samples=12)
    cfg["sweep"] = {"variable": variable, "range": [0.0, hi],
                    "n_samples": n_samples}
    return cfg


PRESETS = {
    "paper-0.6pi": lambda: reference_config(0.6 * math.pi),
    "paper-0.75pi": lambda: reference_config(0.75 * math.pi),
    "paper-fig8a": lambda: _fig8_config("pulse_area", 4.0 * math.pi, 401),
    "paper-fig8b": lambda: _fig8_config("real_cb", 1.0, 201),
}


def preset_config(name: str) -> dict:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return factory()

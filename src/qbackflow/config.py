"""The JSON scenario configuration: one schema with its defaults and
limits, one validating walk of a document over it, and the Scenario
built from the result, with its SweepSpec."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import (MAX_PULSE_AREA, SPEED_OF_LIGHT, CondensateParams,
                    DomainError, TransitionParams, sr88_params)

REQUIRED = object()   # the default of a key a document must give
OPTIONAL = object()   # the default of a key left out when absent
_LIMIT = 2 ** 1024 - 2 ** 970   # the smallest integer float() cannot hold

#: Largest pulse schedule accepted, refused at parse time: parsing and
#: building the arms peak at about 380 bytes per pulse (1.05 GiB more
#: for 4e6 pulses than for 1e6), so ~0.4 GB here.
MAX_PULSES = 1_000_000

#: Largest sweep accepted, refused at parse time: a sweep and its CSV
#: peak at about 500 bytes per sample, whatever the grid (380 MiB more
#: for 1e6 samples than for 2e5 on the fig8 grid), so ~0.5 GB here.
MAX_SAMPLES = 1_000_000

#: The values of sweep.variable.
SWEEP_VARIABLES = ("pulse_area", "real_cb")


class ConfigError(ValueError):
    """A configuration document failed validation."""


class Key:
    """A SCHEMA entry; the comment on SCHEMA describes its fields."""

    def __init__(self, kind, default=REQUIRED, rule=(None, ""), *,
                 modes=None, mode=None, unread=""):
        self.kind, self.default = kind, default
        self.test, self.message = rule
        self.modes, self.mode, self.unread = modes, mode, unread


POSITIVE = (lambda v: v > 0, "must be positive, got {}")
NONNEGATIVE = (lambda v: v >= 0, "must be >= 0, got {}")
SIGN = (lambda v: v in (1, -1), "must be 1 or -1")
UNKNOWN = "unknown {!r}"


#: Every key path a document may hold ("[]": each element of a list):
#: its JSON kind (None: any value), default, and rule (a test of the
#: typed value and a message formatted with it).  `modes` maps each mode
#: of its object that reads a key to the key's default there; an
#: object's `mode` names its first key, which sets the mode, and
#: `unread` ends the refusal of a key that mode does not read.
SCHEMA = {
    "condensate": Key(dict, mode="preset", unread="next to condensate.preset"),
    "condensate.preset": Key(None, OPTIONAL, (lambda v: v == "sr88", UNKNOWN)),
    "condensate.mass_kg": Key(float, rule=POSITIVE, modes={None: REQUIRED}),
    "condensate.trap_frequency_rad_per_s":
        Key(float, rule=POSITIVE, modes={None: REQUIRED}),
    "condensate.launch_velocity_m_per_s":
        Key(float, modes={None: REQUIRED, "sr88": 0.2}),
    "environment": Key(dict, {}),
    "environment.gravity_m_per_s2": Key(float, 9.81, NONNEGATIVE),
    "transition": Key(dict),
    "transition.wavelength_m": Key(float, rule=POSITIVE),
    "splitting_pulse": Key(dict),
    "splitting_pulse.time_s": Key(float),
    "splitting_pulse.pulse_area_rad": Key(float, rule=(
        lambda v: 0.0 <= v <= MAX_PULSE_AREA, "must lie in [0, 4 pi]")),
    "splitting_pulse.laser_phase_rad": Key(float, 0.0),
    "splitting_pulse.sign": Key(int, 1, SIGN),
    "weights": Key(dict, {"mode": "splitting_pulse"}, mode="mode",
                   unread="in weights.mode {!r}"),
    "weights.mode": Key(str, rule=(lambda v: v in ("splitting_pulse",
                                                   "real_cb"), UNKNOWN)),
    "weights.cb": Key(float, rule=(lambda v: 0.0 <= v <= 1.0,
                                   "must lie in [0, 1]"),
                      modes={"real_cb": REQUIRED}),
    "pulse_arrays": Key(list, []),
    "pulse_arrays[]": Key(dict),
    "pulse_arrays[].count": Key(int, rule=(lambda v: v >= 1, "must be >= 1")),
    "pulse_arrays[].start_s": Key(float),
    "pulse_arrays[].interval_s": Key(float, rule=POSITIVE),
    "pulse_arrays[].sign": Key(int, rule=SIGN),
    "pulse_arrays[].laser_phase_rad": Key(float, 0.0),
    "encounter": Key(dict, {}),
    "encounter.auto": Key(bool, True, (lambda v: v, "must be true; the "
                          "encounter time is solved from the pulse schedule")),
    "sweep": Key(dict, OPTIONAL),
    "sweep.variable": Key(str, rule=(lambda v: v in SWEEP_VARIABLES, UNKNOWN)),
    "sweep.range": Key(list, rule=(lambda v: len(v) == 2,
                                   "expected [lo, hi]")),
    "sweep.range[]": Key(float),
    "sweep.n_samples": Key(int, rule=(
        lambda v: 2 <= v <= MAX_SAMPLES,
        f"{{}} is below 2 or above the limit of {MAX_SAMPLES} samples")),
    "grid": Key(dict, {}),
    "grid.half_width_factor": Key(float, 8.0, POSITIVE),
    "grid.envelope_samples": Key(int, 50, POSITIVE),
    "grid.fringe_samples": Key(int, 20, POSITIVE),
    "spectrum": Key(dict, {}),
    "spectrum.enabled": Key(bool, False),
    "spectrum.half_width_factor": Key(float, 6.0, POSITIVE),
    "output": Key(dict, {}),
    "output.profile_window_m": Key(float, OPTIONAL, POSITIVE),
    "output.wavefield_dump": Key(bool, False),
}

#: Object path ("" for the root) -> {key: (path, Key, kind if a number,
#: magnitude bound, test, modes, default)}, unpacked for a fast path.
_CHILDREN = {}
for _path, _key in SCHEMA.items():
    _parent, _, _name = _path.rpartition(".")
    if not _name.endswith("[]"):
        _CHILDREN.setdefault(_parent, {})[_name] = (
            _path, _key, _key.kind if _key.kind in (int, float) else None,
            math.inf if _key.kind is float else _LIMIT, _key.test,
            _key.modes, _key.default)


def _object(node: dict, path: str, where: str, spec: Key) -> dict:
    """`node` checked against SCHEMA, with typed values and defaults:
    unknown keys first, then each key in SCHEMA order."""
    if not isinstance(node, dict):   # an element of a list
        raise ConfigError(f"{where}: expected object")
    children = _CHILDREN[path]
    for name in node:
        if name not in children:
            raise ConfigError(f"{where}.{name}: unknown key; known keys "
                              f"are {', '.join(children)}")
    out = {}
    for name, (child, key, number, bound, test, modes,
               default) in children.items():
        if modes is not None:
            mode = out.get(spec.mode)
            if mode not in modes:
                if name in node:
                    raise ConfigError(f"{where}.{name}: not read "
                                      + spec.unread.format(mode))
                continue
            default = modes[mode]
        value = node.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{where}: missing required key {name!r}")
        # Numbers of the exact kind that pass, most of a long pulse
        # list, skip the call.
        if type(value) is number and -bound < value < bound and (
                test is None or test(value)):
            out[name] = value
        elif value is not OPTIONAL:
            out[name] = _value(value, child, key, where, name)
    return out


def _value(value, path: str, key: Key, where: str, name):
    """`value` checked: an int widens to float, a bool passes only as
    bool, a number must fit a float; objects and lists are walked."""
    kind = key.kind
    at = f"{where}[{name}]" if isinstance(name, int) else f"{where}.{name}"
    if kind is not None and type(value) is not kind and (
            isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind)):
        raise ConfigError(f"{at}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    if isinstance(value, int) and kind in (int, float) and not (
            -_LIMIT < value < _LIMIT):
        raise ConfigError(f"{at}: integer too large for a float")
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{at}: must be finite, got {value}")
    if key.test is not None and not key.test(value):
        raise ConfigError(f"{at}: " + key.message.format(value))
    if kind is dict:
        return _object(value, path, at.removeprefix("config."), key)
    if kind is not list:
        return value
    at, item = at.removeprefix("config."), path + "[]"
    if item in _CHILDREN:   # a list of objects
        return [_object(v, item, f"{at}[{i}]", SCHEMA[item])
                for i, v in enumerate(value)]
    return [_value(v, item, SCHEMA[item], at, i) for i, v in enumerate(value)]


@dataclass(frozen=True)
class SweepSpec:
    variable: str            # "pulse_area" | "real_cb"
    lo: float
    hi: float
    n_samples: int

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(f"unknown sweep variable {self.variable!r}")
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        if not self.lo < self.hi:
            raise DomainError("range must satisfy lo < hi")
        if self.variable == "pulse_area" and not (
                0.0 <= self.lo and self.hi <= MAX_PULSE_AREA):
            raise DomainError("pulse_area range must lie within [0, 4 pi]")
        if self.variable == "real_cb" and not (0.0 <= self.lo and self.hi <= 1.0):
            raise DomainError("real_cb range must lie within [0, 1]")

    def values(self):
        import numpy as np
        return np.linspace(self.lo, self.hi, self.n_samples)


@dataclass(frozen=True)
class Scenario:
    params: CondensateParams
    gravity: float            # m / s^2, magnitude, acts downward
    transition: TransitionParams
    pulses: object            # (n, 3) float array of (time_s, sign,
                              # laser_phase_rad), splitting pulse first
    weights: object           # ArmAmplitudes
    grid_cfg: dict            # each section validated, defaults applied
    spectrum_cfg: dict
    output_cfg: dict
    sweep_spec: SweepSpec | None
    raw: dict


def parse_config(cfg: dict) -> Scenario:
    """Validate a configuration document into a Scenario."""
    import numpy as np
    from .pulses import real_weights, splitting_weights

    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")
    doc = _object(cfg, "", "config", Key(dict))
    cond, split = doc["condensate"], doc["splitting_pulse"]
    try:
        params = (sr88_params(cond["launch_velocity_m_per_s"])
                  if "preset" in cond else
                  CondensateParams(cond["mass_kg"],
                                   cond["trap_frequency_rad_per_s"],
                                   cond["launch_velocity_m_per_s"]))
    except DomainError as exc:
        raise ConfigError(f"condensate: {exc}") from exc
    try:
        transition = TransitionParams(doc["transition"]["wavelength_m"])
    except DomainError as exc:
        raise ConfigError(f"transition.wavelength_m: {exc}") from exc
    weights = (real_weights(doc["weights"]["cb"])
               if doc["weights"]["mode"] == "real_cb" else
               splitting_weights(split["pulse_area_rad"],
                                 split["laser_phase_rad"]))
    recoil = transition.recoil_velocity_for(params.mass)
    if not recoil < SPEED_OF_LIGHT:   # inf too
        raise ConfigError(f"transition.wavelength_m: the one-photon recoil "
                          f"hbar k / m is {recoil:.3g} m/s for m = "
                          f"{params.mass:.4g} kg, not below the speed of "
                          "light")

    # Pulse j of an array lands at start + j * interval; the splitting
    # pulse is a one-pulse array.
    arrays = [dict(split, count=1, start_s=split["time_s"], interval_s=0.0),
              *doc["pulse_arrays"]]
    counts = [arr["count"] for arr in arrays]
    for i, total in enumerate(itertools.accumulate(counts)):
        if total > MAX_PULSES:
            raise ConfigError(f"pulse_arrays[{i - 1}].count: {counts[i]} "
                              f"pulses bring the schedule to {total}, above "
                              f"the limit of {MAX_PULSES} pulses")
    for i, arr in enumerate(doc["pulse_arrays"]):
        if not math.isfinite(arr["start_s"]
                             + (arr["count"] - 1) * arr["interval_s"]):
            raise ConfigError(f"pulse_arrays[{i}].interval_s: the last of "
                              f"{arr['count']} pulses lands at a time "
                              "beyond the float range")
    rows = np.repeat(np.array([(arr["start_s"], arr["sign"],
                                arr["laser_phase_rad"], arr["interval_s"])
                               for arr in arrays]), counts, axis=0)
    j = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    pulses = rows[:, :3]
    pulses[:, 0] += j * rows[:, 3]
    increasing = pulses[1:, 0] > pulses[:-1, 0]   # no difference to overflow
    if not increasing.all():   # name the later pulse's array
        i = np.searchsorted(np.cumsum(counts), increasing.argmin() + 1,
                            "right")
        raise ConfigError(f"pulse_arrays[{i - 1}].start_s: pulse times must "
                          "be strictly increasing (splitting pulse first)")
    if split["time_s"] < 0.0:
        raise ConfigError("splitting_pulse.time_s: must be >= 0")

    sweep, sweep_spec = doc.get("sweep"), None
    if sweep is not None:
        try:
            sweep_spec = SweepSpec(sweep["variable"], *sweep["range"],
                                   sweep["n_samples"])
        except DomainError as exc:   # SCHEMA checked the other keys
            raise ConfigError(f"sweep.range: {exc}") from exc
    return Scenario(params, doc["environment"]["gravity_m_per_s2"],
                    transition, pulses, weights, doc["grid"],
                    doc["spectrum"], doc["output"], sweep_spec, cfg)

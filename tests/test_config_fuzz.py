"""Fuzzing the config boundary with extreme and ill-typed values.

Mutations replace or delete the value at a key path of
``qbackflow.config.SCHEMA``, starting from configs that set every
optional key their modes read: explicit condensate parameters with
splitting-pulse weights, and the ``sr88`` preset with real weights.
Every mutated config must end in a clean outcome: ``main()`` returns 0,
2 or 3, ``run_scenario`` raises nothing but the package's own
configuration, domain and no-encounter errors, and neither emits a
numpy ``RuntimeWarning``.
"""

import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from qbackflow.cli import (
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_VALIDATION,
    ConfigError,
    main,
    run_scenario,
)
from qbackflow.config import SCHEMA
from qbackflow.kinematics import NoEncounterError
from qbackflow.model import DomainError
from qbackflow.presets import reduced_scale_config

DELETE = "<deleted>"
VALUES = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
          10 ** 15, 10 ** 30, 10 ** 400, True, False, "x", None, [], DELETE)


def _full_config(preset: bool) -> dict:
    """reduced_scale_config with every optional key its modes read."""
    cfg = reduced_scale_config()
    for arr in cfg["pulse_arrays"]:
        arr["laser_phase_rad"] = 0.25
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    if preset:
        cfg["condensate"] = {"preset": "sr88", "launch_velocity_m_per_s": 6e-3}
        cfg["weights"] = {"mode": "real_cb", "cb": 0.37}
    return cfg


BASES = {"explicit": _full_config(False), "preset": _full_config(True)}


def _key_paths(path: str, cfg: dict) -> list[tuple]:
    """A SCHEMA path as key tuples into cfg, one per list element."""
    keys = [()]
    for part in path.split("."):
        keys = [k + (part.removesuffix("[]"),) for k in keys]
        if part.endswith("[]"):
            keys = [k + (i,) for k in keys for i in range(len(_node(cfg, k)))]
    return keys


def _node(cfg, keys):
    for key in keys:
        cfg = cfg[key]
    return cfg


PATHS = tuple(dict.fromkeys(keys for cfg in BASES.values() for path in SCHEMA
                            for keys in _key_paths(path, cfg)))


def _mutated(base: str, changes) -> dict:
    cfg = json.loads(json.dumps(BASES[base]))
    for path, value in changes:
        try:
            node = _node(cfg, path[:-1])
            if isinstance(node, list):
                node[path[-1]]   # an earlier change may have emptied it
        except (KeyError, IndexError, TypeError):
            continue            # an earlier change removed the parent
        if not isinstance(node, (dict, list)):
            continue
        if value == DELETE:
            if path[-1] in node or isinstance(node, list):
                del node[path[-1]]
        else:
            node[path[-1]] = value
    return cfg


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(BASES)),
       st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)),
                min_size=1, max_size=3))
@example("explicit", [(("condensate", "launch_velocity_m_per_s"), 1e300)])
@example("explicit", [(("condensate", "trap_frequency_rad_per_s"), 1e-300)])
@example("explicit", [(("condensate", "trap_frequency_rad_per_s"), 1e300)])
@example("explicit", [(("environment", "gravity_m_per_s2"), 10 ** 400)])
@example("preset", [(("grid", "fringe_samples"), 10 ** 400)])
@example("explicit", [(("transition", "wavelength_m"), 1e-300),
                      (("pulse_arrays", 0, "start_s"), 1e-300)])
def test_mutated_config_fails_cleanly(tmp_path, base, changes):
    cfg = _mutated(base, changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    # Record every warning, so none is raised or printed before the error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run_scenario(cfg)
        except (ConfigError, DomainError, NoEncounterError):
            pass
        code = main(["run", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PIPELINE)
    assert not [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
                if issubclass(w.category, RuntimeWarning)]


def test_fuzz_paths_reach_every_schema_path():
    reached = {".".join(k if isinstance(k, str) else "[]" for k in keys)
               .replace(".[]", "[]") for keys in PATHS}
    assert reached == set(SCHEMA)

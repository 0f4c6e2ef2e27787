"""Fuzzing the config boundary with extreme and ill-typed leaf values.

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
from qbackflow.kinematics import NoEncounterError
from qbackflow.model import DomainError
from qbackflow.presets import reduced_scale_config

DELETE = "<deleted>"
VALUES = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
          True, False, "x", None, [], DELETE)


def _leaf_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = tuple(_leaf_paths(reduced_scale_config()))


def _mutated(changes) -> dict:
    cfg = reduced_scale_config()
    for path, value in changes:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value == DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(VALUES)),
                min_size=1, max_size=3))
@example([(("condensate", "launch_velocity_m_per_s"), 1e300)])
@example([(("condensate", "trap_frequency_rad_per_s"), 1e-300)])
@example([(("condensate", "trap_frequency_rad_per_s"), 1e300)])
def test_mutated_config_fails_cleanly(tmp_path, changes):
    cfg = _mutated(changes)
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

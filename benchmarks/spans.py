"""Span tracing of the package's layers, from outside the package.

The tracer replaces public entry points of each ``qbackflow`` module with
wrappers that record a span (name, start, end, parent, op id) and, where
the call carries one, a work count.  ``cli`` resolves its imports at call
time, so patching the module attribute catches its calls; ``sweep`` and
``wavefield`` bind ``atomic_write_*`` at import, so those names are
patched in those modules as well.  Spans are kept in memory and reduced
to per-op layer figures when each op ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

LAYERS = ("cli", "kinematics", "wavefield", "observables", "sweep", "oracle",
          "ioutil")


def _n_samples(args, kwargs, result):
    return args[1].n_samples


def _steps_and_points(args, kwargs, result):
    initial, config, t_final = args[:3]
    return (round((t_final - initial.time) / config.time_step),
            config.grid.n_points)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


#: (module, attribute, span name, layer, count(args, kwargs, result)).
#: ``cli.spectrum_state`` belongs to the spectrum, so it is an
#: observables span even though it lives in ``cli``.
TRACED = (
    ("cli", "main", "cli.main", "cli", None),
    ("cli", "oracle_cross_check", "cli.oracle_cross_check", "cli", None),
    ("cli", "run_scenario", "cli.run_scenario", "cli", None),
    ("cli", "run_sweep", "cli.run_sweep", "cli", None),
    ("cli", "build_state", "cli.build_state", "cli", None),
    ("cli", "oracle_arm_field", "cli.oracle_arm_field", "cli", None),
    ("cli", "parse_config", "cli.parse_config", "cli", None),
    ("cli", "build_trajectories", "kinematics.trajectory", "kinematics",
     lambda a, k, r: r[1].kick_count),
    ("cli", "resolve_encounter", "kinematics.encounter", "kinematics", None),
    ("wavefield", "encounter_state", "wavefield.encounter_state",
     "wavefield", lambda a, k, r: a[0].n_points),
    ("wavefield", "combined_from_state", "wavefield.combined_from_state",
     "wavefield", None),
    ("wavefield", "free_arm_wavefunction", "wavefield.free_arm",
     "wavefield", None),
    ("wavefield", "pulsed_arm_wavefunction", "wavefield.pulsed_arm",
     "wavefield", None),
    ("wavefield", "combine", "wavefield.combine", "wavefield", None),
    ("observables", "report", "observables.report", "observables",
     lambda a, k, r: a[0].grid.n_points),
    ("cli", "spectrum_state", "observables.spectrum_state", "observables",
     lambda a, k, r: r.grid.n_points if r is not None else 0),
    ("observables", "momentum_spectrum", "observables.momentum_spectrum",
     "observables", None),
    ("observables", "classical_backflow_check", "observables.classical_check",
     "observables", None),
    ("sweep", "SweepEngine.__init__", "sweep.init", "sweep", None),
    ("sweep", "SweepEngine.sweep_pulse_area", "sweep.run", "sweep",
     _n_samples),
    ("sweep", "SweepEngine.sweep_real_weights", "sweep.run", "sweep",
     _n_samples),
    ("sweep", "SweepEngine.backflow_rate", "sweep.eval", "sweep", None),
    ("sweep", "SweepResult.to_csv", "sweep.to_csv", "sweep", None),
    ("sweep", "SweepResult.summary", "sweep.summary", "sweep", None),
    ("oracle", "propagate", "oracle.propagate", "oracle",
     _steps_and_points),
    ("oracle", "compare_fields", "oracle.compare", "oracle", None),
    ("oracle", "gaussian_packet", "oracle.gaussian_packet", "oracle", None),
    ("ioutil", "atomic_write_text", "ioutil.write", "ioutil", _file_size),
    ("ioutil", "atomic_write_bytes", "ioutil.write", "ioutil", _file_size),
    ("sweep", "atomic_write_text", "ioutil.write", "ioutil", _file_size),
    ("wavefield", "atomic_write_bytes", "ioutil.write", "ioutil", _file_size),
)

TRACED_NAMES = tuple(sorted({f"qbackflow.{m}.{a}" for m, a, *_ in TRACED}))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "count",
                 "failed", "child_time")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.count = None
        self.failed = False
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while an op is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_id = 0
        self.per_op: list[dict] = []

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, layer, count in TRACED:
            owner = importlib.import_module(f"qbackflow.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, layer, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name, layer, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, layer, parent, parent.op)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                parent.child_time += span.end - span.start
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    # -- ops ---------------------------------------------------------------

    def run_op(self, fn, *args):
        """Call fn(*args) under a root span; returns (result, exception)."""
        self._op_id += 1
        root = Span("op", None, None, self._op_id)
        self.spans = [root]
        self._stack.append(root)
        root.start = time.perf_counter()
        try:
            return fn(*args), None
        except Exception as exc:
            root.failed = True
            return None, exc
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self.per_op.append(op_figures(self.spans))
            self.spans = []


def _total(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name):
    return sum(s.count or 0 for s in spans if s.name == name)


def op_figures(spans: list[Span]) -> dict:
    """Per-op layer figures from one op's spans (times in ms)."""
    root = spans[0]
    body = spans[1:]
    op_ms = root.duration * 1e3
    fig = {"op_ms": op_ms}
    for layer in LAYERS:
        mine = [s for s in body if s.layer == layer]
        fig[f"{layer}.share"] = sum(s.self_time for s in mine) * 1e3 / op_ms
        fig[f"{layer}.failed"] = sum(s.failed for s in mine)

    cli_self = [s for s in body if s.layer == "cli"
                and s.name != "cli.parse_config"]
    fig["cli.parse_ms"] = _total(body, "cli.parse_config") * 1e3
    fig["cli.self_ms"] = sum(s.self_time for s in cli_self) * 1e3

    traj_ms = _total(body, "kinematics.trajectory") * 1e3
    pulses = _count(body, "kinematics.trajectory")
    fig["kinematics.trajectory_ms"] = traj_ms
    fig["kinematics.encounter_ms"] = _total(body, "kinematics.encounter") * 1e3
    fig["kinematics.pulses"] = pulses
    fig["kinematics.us_per_pulse"] = traj_ms * 1e3 / pulses if pulses else 0.0

    state_ms = _total(body, "wavefield.encounter_state") * 1e3
    points = _count(body, "wavefield.encounter_state")
    fig["wavefield.state_ms"] = state_ms
    fig["wavefield.grid_points"] = points
    fig["wavefield.ns_per_point"] = state_ms * 1e6 / points if points else 0.0

    report_ms = _total(body, "observables.report") * 1e3
    report_points = _count(body, "observables.report")
    fig["observables.report_ms"] = report_ms
    fig["observables.report_ns_per_point"] = (
        report_ms * 1e6 / report_points if report_points else 0.0)
    fig["observables.spectrum_ms"] = 1e3 * (
        _total(body, "observables.spectrum_state")
        + _total(body, "observables.momentum_spectrum"))
    fig["observables.spectrum_points"] = _count(body,
                                                "observables.spectrum_state")

    evals = sum(1 for s in body if s.name == "sweep.eval")
    samples = _count(body, "sweep.run")
    sweep_ms = _total(body, "sweep.run") * 1e3
    fig["sweep.init_ms"] = _total(body, "sweep.init") * 1e3
    fig["sweep.evals"] = evals
    fig["sweep.refine_evals"] = evals - samples
    fig["sweep.grid_eval_ratio"] = samples / evals if evals else 0.0
    fig["sweep.us_per_eval"] = sweep_ms * 1e3 / evals if evals else 0.0

    prop_ms = _total(body, "oracle.propagate") * 1e3
    props = [s.count for s in body
             if s.name == "oracle.propagate" and not s.failed]
    steps = sum(c[0] for c in props)
    fig["oracle.propagate_ms"] = prop_ms
    fig["oracle.steps"] = steps
    fig["oracle.grid_points"] = max((c[1] for c in props), default=0)
    fig["oracle.us_per_step"] = prop_ms * 1e3 / steps if steps else 0.0
    fig["oracle.compare_ms"] = _total(body, "oracle.compare") * 1e3

    # nested writes (text -> bytes) count once, at the outermost span
    writes = [s for s in body if s.name == "ioutil.write"
              and s.parent.name != "ioutil.write"]
    fig["ioutil.write_ms"] = sum(s.duration for s in writes) * 1e3
    fig["ioutil.files"] = len(writes)
    fig["ioutil.bytes"] = sum(s.count or 0 for s in writes)
    return fig


def median_figures(per_op: list[dict]) -> dict:
    keys = per_op[0].keys()
    return {k: statistics.median(f[k] for f in per_op) for k in keys}

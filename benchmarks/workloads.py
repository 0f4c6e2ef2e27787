"""Inputs, operations and output checks of the four benchmark workloads.

Every input is generated here from the workload seed and from constants
copied out of the package at the commit that introduced the benchmark
(the frozen reference pulse arrays, the reduced and mid-scale oracle
scenarios, the regression locks).  Nothing calls ``qbackflow.presets``,
so a refactor of the package cannot silently change what is measured.

Each workload owns a *round*: a fixed list of inputs whose sizes are
stratified over the workload's stated range.  The seed jitters each size
inside a narrow band around its stratum centre and draws everything that
does not change the cost (laser phases, pulse areas, shuttle start,
sweep variable, op order).  The timed phase always runs whole
rounds, so every run sees the same mix of sizes and the median and tail
latencies land inside a stratum instead of on a boundary between two.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

# -- constants copied from the package ------------------------------------

HBAR = 1.054571817e-34
ATOMIC_MASS_UNIT = 1.66053906660e-27
SR88_MASS_KG = 88.0 * ATOMIC_MASS_UNIT
SR88_TRAP_RAD_PER_S = 2.0 * math.pi * 70.0
SR_LINE_WAVELENGTH_M = 6.89e-7

REFERENCE_SPLIT_TIME_S = 0.0
REFERENCE_ARRAY_1 = {"count": 38, "start_s": 0.004, "interval_s": 1.1e-5,
                     "sign": -1}
REFERENCE_ARRAY_2 = {"count": 49, "start_s": 0.007918780440616613,
                     "interval_s": 1.1e-5, "sign": 1}
REFERENCE_PULSES = 1 + REFERENCE_ARRAY_1["count"] + REFERENCE_ARRAY_2["count"]
REFERENCE_RECOIL_COUNT = 12
REFERENCE_ENCOUNTER_TIME_S = 0.020101936799184504

#: report.json scalars of the 0.75 pi reference run, as locked by the
#: acceptance tests.
REGRESSION_LOCKS_075PI = {
    "rho_crit_max_fraction": 0.3868485230773098,
    "density_min_fraction": 0.17170308066691342,
    "max_negative_flux_per_s": -768.6709638540091,
    "backflow_rate_m_per_s": 0.0034806483812857662,
}

#: Generator guard: every input must stay at the reference scale.
#: Unbalanced long pulse arrays have produced two-million-point grids and
#: out-of-memory kills, which would measure the allocator, not the code.
MAX_ENCOUNTER_TIME_S = 0.03
MAX_GRID_POINTS = 50_000

#: Shuttle pulses for long sequences: sub-microsecond spacing keeps 8k
#: pulses inside the 4 ms before the first reference array.
SHUTTLE_INTERVAL_S = 4.5e-7
#: Pulses per shuttle half-block.  The arm's net drift, and with it the
#: encounter time and grid size, grows with block x pulse count; a fixed
#: block keeps those tied to the pulse count alone.
SHUTTLE_BLOCK = 12

ORACLE_LIMIT = 1e-5


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's expectation."""


# -- config builders ------------------------------------------------------

def reference_config(pulse_area: float, laser_phase: float = 0.0, *,
                     half_width_factor: float = 4.0,
                     fringe_samples: int = 20) -> dict:
    return {
        "condensate": {"preset": "sr88", "launch_velocity_m_per_s": 0.2},
        "environment": {"gravity_m_per_s2": 9.81},
        "transition": {"wavelength_m": SR_LINE_WAVELENGTH_M},
        "splitting_pulse": {"time_s": REFERENCE_SPLIT_TIME_S,
                            "pulse_area_rad": pulse_area,
                            "laser_phase_rad": laser_phase, "sign": 1},
        "weights": {"mode": "splitting_pulse"},
        "pulse_arrays": [dict(REFERENCE_ARRAY_1), dict(REFERENCE_ARRAY_2)],
        "encounter": {"auto": True},
        "grid": {"half_width_factor": half_width_factor,
                 "fringe_samples": fringe_samples,
                 "envelope_samples": 50},
        "spectrum": {"enabled": True, "half_width_factor": 6.0},
        "output": {"profile_window_m": 5e-7, "wavefield_dump": False},
    }


def shuttle_arrays(n_pulses: int, block: int, start: float,
                   rng: random.Random | None = None) -> list[dict]:
    """Zero-net blocks of `block` down then `block` up pulses.

    The last block is shortened so exactly n_pulses (even) are emitted.
    """
    if n_pulses % 2:
        raise ValueError("shuttle pulse count must be even")
    arrays = []
    t = start
    left = n_pulses // 2
    while left:
        m = min(block, left)
        for sign in (-1, 1):
            phase = rng.uniform(0.0, 2.0 * math.pi) if rng else 0.0
            arrays.append({"count": m, "start_s": t,
                           "interval_s": SHUTTLE_INTERVAL_S, "sign": sign,
                           "laser_phase_rad": phase})
            t += m * SHUTTLE_INTERVAL_S
        left -= m
    return arrays


def long_sequence_config(total_pulses: int, block: int, start: float,
                         pulse_area: float, laser_phase: float,
                         rng: random.Random | None = None) -> dict:
    cfg = reference_config(pulse_area, laser_phase)
    shuttle = shuttle_arrays(total_pulses - REFERENCE_PULSES, block, start,
                             rng)
    cfg["pulse_arrays"] = shuttle + cfg["pulse_arrays"]
    return cfg


def sweep_config(variable: str, n_samples: int) -> dict:
    cfg = reference_config(0.75 * math.pi, half_width_factor=3.0,
                           fringe_samples=12)
    rng = [0.0, 4.0 * math.pi] if variable == "pulse_area" else [0.0, 1.0]
    cfg["sweep"] = {"variable": variable, "range": rng,
                    "n_samples": n_samples}
    return cfg


def reduced_config(pulse_area: float, laser_phase: float) -> dict:
    """The reduced-scale oracle scenario (weak gravity, 2 um line)."""
    return {
        "condensate": {"mass_kg": 88 * ATOMIC_MASS_UNIT,
                       "trap_frequency_rad_per_s": 2.0 * math.pi * 300.0,
                       "launch_velocity_m_per_s": 6.0e-3},
        "environment": {"gravity_m_per_s2": 2.0},
        "transition": {"wavelength_m": 2.0e-6},
        "splitting_pulse": {"time_s": 0.0, "pulse_area_rad": pulse_area,
                            "laser_phase_rad": laser_phase, "sign": 1},
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


def midscale_config(pulse_area: float, laser_phase: float) -> dict:
    """Paper atom, line and gravity on the reduced pulse pattern (the
    nightly mid-scale oracle scenario)."""
    return {
        "condensate": {"preset": "sr88", "launch_velocity_m_per_s": 5e-3},
        "environment": {"gravity_m_per_s2": 9.81},
        "transition": {"wavelength_m": SR_LINE_WAVELENGTH_M},
        "splitting_pulse": {"time_s": 0.0, "pulse_area_rad": pulse_area,
                            "laser_phase_rad": laser_phase, "sign": 1},
        "weights": {"mode": "splitting_pulse"},
        "pulse_arrays": [
            {"count": 3, "start_s": 2.0e-4, "interval_s": 5.0e-5, "sign": -1},
            {"count": 5, "start_s": 5.0e-4, "interval_s": 5.0e-5, "sign": 1},
        ],
        "encounter": {"auto": True},
        "grid": {"half_width_factor": 6.0, "fringe_samples": 20,
                 "envelope_samples": 50},
        "spectrum": {"enabled": False},
        "output": {},
    }


# -- closed-form scale estimate (generator guard) ---------------------------

def _condensate(cfg: dict) -> tuple[float, float]:
    cond = cfg["condensate"]
    if cond.get("preset") == "sr88":
        return SR88_MASS_KG, SR88_TRAP_RAD_PER_S
    return cond["mass_kg"], cond["trap_frequency_rad_per_s"]


def pulse_list(cfg: dict) -> list[tuple[float, int]]:
    sp = cfg["splitting_pulse"]
    pulses = [(sp["time_s"], sp["sign"])]
    for arr in cfg["pulse_arrays"]:
        pulses.extend((arr["start_s"] + j * arr["interval_s"], arr["sign"])
                      for j in range(arr["count"]))
    return pulses


def encounter_estimate(cfg: dict) -> tuple[float, int]:
    """(encounter time, grid points) in closed form.

    Gravity cancels in the arm separation, so after the last pulse it is
    sum_i s_i v_r (t - t_i) and vanishes at t = sum s_i t_i / sum s_i.
    The grid follows the package's sizing rule: half width = factor x
    envelope width, spacing = min(envelope / envelope_samples,
    fringe / fringe_samples).
    """
    pulses = pulse_list(cfg)
    net = sum(s for _, s in pulses)
    if net == 0:
        raise ValueError("arms never re-meet: zero net recoil")
    t_f = math.fsum(s * t for t, s in pulses) / net
    mass, omega = _condensate(cfg)
    sigma = math.sqrt(HBAR / (mass * omega)) * math.hypot(1.0, omega * t_f)
    q = abs(net) * 2.0 * math.pi / cfg["transition"]["wavelength_m"]
    g = cfg.get("grid", {})
    spacing = min(sigma / g.get("envelope_samples", 50),
                  2.0 * math.pi / q / g.get("fringe_samples", 20))
    points = int(math.ceil(2.0 * g.get("half_width_factor", 8.0) * sigma
                           / spacing)) + 1
    return t_f, points | 1


def guard_scale(cfg: dict) -> float:
    """The input's encounter time, after checking it is at reference
    scale."""
    t_f, points = encounter_estimate(cfg)
    if not 0.0 < t_f < MAX_ENCOUNTER_TIME_S:
        raise ValueError(f"generated input leaves reference scale: "
                         f"encounter at {t_f:.4g} s")
    if points >= MAX_GRID_POINTS:
        raise ValueError(f"generated input leaves reference scale: "
                         f"{points} grid points")
    return t_f


# -- helpers ----------------------------------------------------------------

def rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def expect_close(what: str, got: float, want: float, rel: float) -> None:
    err = rel_err(got, want)
    if not err <= rel:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} "
                          f"(relative error {err:.3e} > {rel:g})")


def stratified(lo: float, hi: float, count: int, rng: random.Random,
               jitter: float = 0.1) -> list[float]:
    """One value per stratum of [lo, hi], within +-jitter/2 of a stratum
    width around its centre."""
    width = (hi - lo) / count
    return [lo + width * (i + 0.5 + jitter * (rng.random() - 0.5))
            for i in range(count)]


def run_cli(argv: list[str]) -> None:
    from qbackflow import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qbackflow {argv[0]} exited {code}")


@dataclass
class Input:
    label: str
    config: dict
    path: str = ""
    options: dict = field(default_factory=dict)
    encounter_time: float = 0.0


# -- workloads -------------------------------------------------------------

class Workload:
    name = ""
    #: percentile reported as op_tail_ms: the highest that keeps at least
    #: ten ops of a default-length run beyond it.
    tail_percentile = 0.0

    def __init__(self, workdir: str, seed: int, tiny: bool = False):
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.tiny = tiny
        self.inputs = self.generate()
        for i, inp in enumerate(self.inputs):
            inp.encounter_time = guard_scale(inp.config)
            inp.path = os.path.join(workdir, f"input-{i:02d}.json")
            with open(inp.path, "w") as fh:
                json.dump(inp.config, fh)
        self.order = list(range(len(self.inputs)))
        self.rng.shuffle(self.order)

    def generate(self) -> list[Input]:
        raise NotImplementedError

    def warmup_input(self) -> Input:
        """A seed-independent-size input, so set-up cost is comparable."""
        return self.inputs[len(self.inputs) // 2]

    def op(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, result) -> None:
        """Raise CheckFailed when the op's output is wrong."""

    def preflight(self) -> list[tuple[str, str | None]]:
        """Untimed extra checked ops: [(label, failure or None)]."""
        return []


class ReferenceRuns(Workload):
    name = "reference-runs"
    tail_percentile = 97.0

    def generate(self):
        self._rates = {}
        n = 4 if self.tiny else 16
        areas = stratified(0.55 * math.pi, 0.95 * math.pi, n, self.rng,
                           jitter=1.0)
        return [Input(f"area={a / math.pi:.4f}pi",
                      reference_config(a, self.rng.uniform(0.0, 2 * math.pi)))
                for a in areas]

    def warmup_input(self):
        return self.inputs[0]

    def op(self, inp):
        run_cli(["run", "--config", inp.path, "--out-dir", self.out_dir])

    def _expected_rate(self, inp: Input) -> float:
        """The SweepEngine kernel's rate for this input, computed once."""
        if inp.path not in self._rates:
            from qbackflow.cli import build_state
            from qbackflow.sweep import SweepEngine
            ctx = build_state(inp.config)
            self._rates[inp.path] = SweepEngine(ctx.state).backflow_rate(
                ctx.weights)
        return self._rates[inp.path]

    def check(self, inp, result):
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            doc = json.load(fh)
        expect_close("backflow rate vs SweepEngine",
                     doc["report"]["backflow_rate_m_per_s"],
                     self._expected_rate(inp), 1e-10)
        expect_close("encounter time", doc["encounter"]["time_s"],
                     REFERENCE_ENCOUNTER_TIME_S, 1e-12)
        for name in ("profiles.csv", "spectrum.csv"):
            if not os.path.getsize(os.path.join(self.out_dir, name)):
                raise CheckFailed(f"{name} is empty")

    def preflight(self):
        path = os.path.join(self.workdir, "lock-075pi.json")
        with open(path, "w") as fh:
            json.dump(reference_config(0.75 * math.pi), fh)
        try:
            run_cli(["run", "--config", path, "--out-dir", self.out_dir])
            with open(os.path.join(self.out_dir, "report.json")) as fh:
                rep = json.load(fh)["report"]
            for key, want in REGRESSION_LOCKS_075PI.items():
                expect_close(f"0.75 pi lock {key}", rep[key], want, 1e-9)
        except Exception as exc:  # reported as a failed op
            return [("lock-0.75pi", f"{type(exc).__name__}: {exc}")]
        return [("lock-0.75pi", None)]


class LongSequences(Workload):
    name = "long-sequences"
    tail_percentile = 60.0

    def generate(self):
        lo, hi, n = (200, 800, 3) if self.tiny else (2000, 8000, 7)
        inputs = []
        for total in stratified(lo, hi, n, self.rng):
            # the shuttle part must be even: whole down-up blocks
            total = REFERENCE_PULSES + 2 * round(
                (total - REFERENCE_PULSES) / 2)
            cfg = long_sequence_config(
                total, SHUTTLE_BLOCK, self.rng.uniform(2e-5, 1e-4),
                self.rng.uniform(0.55 * math.pi, 0.95 * math.pi),
                self.rng.uniform(0.0, 2 * math.pi), self.rng)
            inputs.append(Input(f"pulses={total}", cfg))
        return inputs

    def op(self, inp):
        run_cli(["run", "--config", inp.path, "--out-dir", self.out_dir])

    def check(self, inp, result):
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            enc = json.load(fh)["encounter"]
        recoil = HBAR * 2.0 * math.pi / SR_LINE_WAVELENGTH_M / SR88_MASS_KG
        expect_close("delta v", enc["delta_v_m_per_s"],
                     REFERENCE_RECOIL_COUNT * recoil, 1e-9)
        expect_close("encounter time vs closed form", enc["time_s"],
                     inp.encounter_time, 1e-9)


class WeightSweeps(Workload):
    name = "weight-sweeps"
    tail_percentile = 75.0
    spot_rows = 3

    def generate(self):
        self._shared_state = None
        lo, hi, n = (201, 801, 3) if self.tiny else (2001, 8001, 7)
        inputs = []
        for samples in stratified(lo, hi, n, self.rng):
            var = self.rng.choice(("pulse_area", "real_cb"))
            inputs.append(Input(f"{var},n={int(samples)}",
                                sweep_config(var, int(samples))))
        return inputs

    def op(self, inp):
        run_cli(["sweep", "--config", inp.path, "--out-dir", self.out_dir])

    def _state(self, inp: Input):
        # every sweep input shares one encounter state (same sequence,
        # splitting pulse and grid); build it once, outside the timing
        if self._shared_state is None:
            from qbackflow.cli import build_state
            self._shared_state = build_state(inp.config).state
        return self._shared_state

    def check(self, inp, result):
        from qbackflow.observables import report
        from qbackflow.pulses import real_weights
        from qbackflow.sweep import canonical_pulse_area_weights
        with open(os.path.join(self.out_dir, "sweep.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        spec = inp.config["sweep"]
        if len(rows) != spec["n_samples"]:
            raise CheckFailed(f"sweep.csv has {len(rows)} rows, "
                              f"expected {spec['n_samples']}")
        weights_of = (canonical_pulse_area_weights
                      if spec["variable"] == "pulse_area" else real_weights)
        rates = [float(r[1]) for r in rows]
        picks = {rates.index(max(rates))}
        picks.update(self.rng.randrange(len(rows))
                     for _ in range(self.spot_rows - 1))
        state = self._state(inp)
        for i in sorted(picks):
            value, rate, rho_max, dmin = map(float, rows[i])
            rep = report(state, weights_of(value))
            expect_close(f"row {i} backflow rate", rate, rep.backflow_rate,
                         1e-10)
            expect_close(f"row {i} rho_crit max", rho_max,
                         rep.rho_crit_max_fraction, 1e-10)
            expect_close(f"row {i} density min", dmin,
                         rep.density_min_fraction, 1e-10)


class OracleValidation(Workload):
    name = "oracle-validation"
    tail_percentile = 70.0
    scenarios = {
        "reduced": (reduced_config, {"time_step": 2.5e-7,
                                     "oracle_points": 513}),
        "midscale": (midscale_config, {"time_step": 1.25e-7,
                                       "oracle_points": 1025}),
    }

    def generate(self):
        kinds = (["reduced"] * 2 if self.tiny
                 else ["reduced"] * 3 + ["midscale"] * 2)
        inputs = []
        for kind in kinds:
            build, options = self.scenarios[kind]
            cfg = build(self.rng.uniform(0.55 * math.pi, 0.95 * math.pi),
                        self.rng.uniform(0.0, 2.0 * math.pi))
            inputs.append(Input(kind, cfg, options=dict(options)))
        return inputs

    def warmup_input(self):
        return self.inputs[0]

    def op(self, inp):
        from qbackflow import cli
        return cli.oracle_cross_check(inp.config, **inp.options)

    def check(self, inp, result):
        for arm in ("free_arm", "pulsed_arm", "combined"):
            amp, phase = result[arm]
            if not (amp <= ORACLE_LIMIT and phase <= ORACLE_LIMIT):
                raise CheckFailed(f"{inp.label} {arm}: amplitude {amp:.3e}, "
                                  f"phase {phase:.3e} (limit {ORACLE_LIMIT})")
        expect_close("encounter time vs closed form",
                     result["encounter_time_s"], inp.encounter_time, 1e-9)


WORKLOADS = {w.name: w for w in (ReferenceRuns, LongSequences, WeightSweeps,
                                 OracleValidation)}


def oracle_max_error(result) -> float:
    return max(max(result[a]) for a in ("free_arm", "pulsed_arm", "combined"))

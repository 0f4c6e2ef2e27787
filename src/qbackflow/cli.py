"""Batch command-line entry point.

Subcommands:

* ``run``      — execute one scenario; write report JSON + profile CSVs.
* ``sweep``    — sweep splitting-pulse area or real weights; write CSV/JSON.
* ``validate`` — cross-check the analytic pipeline against the numerical
                 propagator on the reduced-scale scenario.
* ``presets``  — list shipped configurations or dump one as JSON.

Configuration is a single JSON document with SI, unit-suffixed keys (see
``presets.reference_config`` for a complete example).  Exit codes:
0 success, 2 configuration/validation error, 3 physics/pipeline error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PIPELINE = 3


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _get(cfg: dict, key: str, kind, where: str, default=None, required=True,
         positive=False):
    if key not in cfg:
        if not required:
            return default
        raise ConfigError(f"{where}: missing required key {key!r}")
    return _typed(cfg[key], kind, f"{where}.{key}", positive)


def _typed(value, kind, path: str, positive=False):
    """`value` as `kind`: ints widen to float, bools pass only as bool,
    floats must be finite and, if `positive`, numbers > 0."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if positive and not value > 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


#: Keys of the optional sections; numbers must be positive.  `grid` holds
#: the sizing knobs of `Grid.auto`, or an explicit grid (`half_width_m`
#: with `n_points`).
_SECTION_KEYS = {
    "grid": (("half_width_factor", float), ("envelope_samples", int),
             ("fringe_samples", int), ("half_width_m", float),
             ("n_points", int)),
    "spectrum": (("enabled", bool), ("half_width_factor", float)),
    "output": (("profile_window_m", float), ("wavefield_dump", bool)),
}


@dataclass(frozen=True)
class Scenario:
    params: object            # CondensateParams
    env: object               # Environment
    transition: object        # TransitionParams
    pulses: object            # (n, 3) float array of (time_s, sign,
                              # laser_phase_rad), splitting pulse first
    weights: object           # ArmAmplitudes
    encounter_time: float | None  # None: the first meeting after the pulses
    grid_cfg: dict            # the validated keys of each section
    spectrum_cfg: dict
    output_cfg: dict
    sweep_spec: object | None  # SweepSpec
    raw: dict


def parse_config(cfg: dict) -> Scenario:
    """Validate a configuration document into a Scenario."""
    from .model import DomainError
    try:
        return _parse_config(cfg)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(cfg: dict) -> Scenario:
    import numpy as np
    from .model import CondensateParams, Environment, TransitionParams, sr88_params
    from .pulses import PulseSpec, real_weights, splitting_weights
    from .sweep import SweepSpec

    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")

    cond = _get(cfg, "condensate", dict, "config")
    if "preset" in cond:
        if cond["preset"] != "sr88":
            raise ConfigError(f"condensate.preset: unknown {cond['preset']!r}")
        params = sr88_params(
            launch_velocity=_get(cond, "launch_velocity_m_per_s", float,
                                 "condensate", default=0.2, required=False))
    else:
        params = CondensateParams(
            mass=_get(cond, "mass_kg", float, "condensate", positive=True),
            trap_frequency=_get(cond, "trap_frequency_rad_per_s", float,
                                "condensate", positive=True),
            launch_velocity=_get(cond, "launch_velocity_m_per_s", float,
                                 "condensate"))

    env_cfg = _get(cfg, "environment", dict, "config", default={}, required=False)
    env = Environment(gravity=_get(env_cfg, "gravity_m_per_s2", float,
                                   "environment", default=9.81, required=False))

    tr_cfg = _get(cfg, "transition", dict, "config")
    transition = TransitionParams(
        wavelength=_get(tr_cfg, "wavelength_m", float, "transition",
                        positive=True))

    sp = _get(cfg, "splitting_pulse", dict, "config")
    split_time = _get(sp, "time_s", float, "splitting_pulse")
    split_area = _get(sp, "pulse_area_rad", float, "splitting_pulse")
    if not 0.0 <= split_area <= 4.0 * math.pi:
        raise ConfigError("splitting_pulse.pulse_area_rad: must lie in [0, 4 pi]")
    split_phase = _get(sp, "laser_phase_rad", float, "splitting_pulse",
                       default=0.0, required=False)
    split_sign = _get(sp, "sign", int, "splitting_pulse", default=1,
                      required=False)
    if split_sign not in (1, -1):
        raise ConfigError("splitting_pulse.sign: must be 1 or -1")

    w_cfg = _get(cfg, "weights", dict, "config",
                 default={"mode": "splitting_pulse"}, required=False)
    mode = _get(w_cfg, "mode", str, "weights")
    if mode == "real_cb":
        real_cb = _get(w_cfg, "cb", float, "weights")
        if not 0.0 <= real_cb <= 1.0:
            raise ConfigError("weights.cb: must lie in [0, 1]")
        weights = real_weights(real_cb)
    elif mode == "splitting_pulse":
        weights = splitting_weights(PulseSpec(split_time, split_area,
                                              split_phase, split_sign))
    else:
        raise ConfigError(f"weights.mode: unknown {mode!r}")

    # Pulse j of an array lands at start + j * interval; the splitting
    # pulse is a one-pulse array.
    heads = [(split_time, split_sign, split_phase, 0.0)]
    counts = [1]
    arrays = _get(cfg, "pulse_arrays", list, "config", default=[],
                  required=False)
    for i, arr in enumerate(arrays):
        where = f"pulse_arrays[{i}]"
        if not isinstance(arr, dict):
            raise ConfigError(f"{where}: expected object")
        count = _get(arr, "count", int, where)
        if count < 1:
            raise ConfigError(f"{where}.count: must be >= 1")
        start = _get(arr, "start_s", float, where)
        interval = _get(arr, "interval_s", float, where, positive=True)
        sign = _get(arr, "sign", int, where)
        if sign not in (1, -1):
            raise ConfigError(f"{where}.sign: must be 1 or -1")
        heads.append((start, sign, _get(arr, "laser_phase_rad", float, where,
                                        default=0.0, required=False), interval))
        counts.append(count)
    rows = np.repeat(np.array(heads), counts, axis=0)
    j = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    pulses = rows[:, :3]
    pulses[:, 0] += j * rows[:, 3]
    if not np.all(np.diff(pulses[:, 0]) > 0.0):
        raise ConfigError("pulse times must be strictly increasing "
                          "(splitting pulse first)")
    if split_time < 0.0:
        raise ConfigError("splitting_pulse.time_s: must be >= 0")

    enc = _get(cfg, "encounter", dict, "config", default={"auto": True},
               required=False)
    enc_time = None
    if not _get(enc, "auto", bool, "encounter", default="time_s" not in enc,
                required=False):
        enc_time = _get(enc, "time_s", float, "encounter")
        if enc_time <= pulses[-1, 0]:
            raise ConfigError("encounter.time_s: must follow the last pulse")

    sections = {}
    for name, keys in _SECTION_KEYS.items():
        given = _get(cfg, name, dict, "config", default={}, required=False)
        sections[name] = {key: _get(given, key, kind, name,
                                    positive=kind is not bool)
                          for key, kind in keys if key in given}
    n_points = sections["grid"].get("n_points", 3)
    if n_points < 3 or n_points % 2 == 0:
        raise ConfigError("grid.n_points: must be odd and >= 3")

    sweep_spec = None
    if "sweep" in cfg:
        sw = _get(cfg, "sweep", dict, "config")
        rng = _get(sw, "range", list, "sweep")
        if len(rng) != 2:
            raise ConfigError("sweep.range: expected [lo, hi]")
        lo, hi = (_typed(v, float, f"sweep.range[{i}]")
                  for i, v in enumerate(rng))
        try:
            sweep_spec = SweepSpec(
                variable=_get(sw, "variable", str, "sweep"),
                lo=lo, hi=hi,
                n_samples=_get(sw, "n_samples", int, "sweep"))
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc

    return Scenario(params, env, transition, pulses, weights, enc_time,
                    sections["grid"], sections["spectrum"], sections["output"],
                    sweep_spec, cfg)


# -- pipeline -------------------------------------------------------------

@dataclass(frozen=True)
class PipelineContext:
    scenario: Scenario
    free_arm: object
    pulsed_arm: object
    encounter_time: float
    weights: object
    grid: object
    state: object


def build_trajectories(sc: Scenario):
    from .kinematics import ArmTrajectory
    free = ArmTrajectory.launch(sc.params, sc.env, sc.transition)
    times, signs, phases = sc.pulses.T
    pulsed = free.kicks(times, signs * sc.transition.wavevector_magnitude,
                        phases)
    return free, pulsed


def resolve_encounter(sc: Scenario, free, pulsed) -> float:
    if sc.encounter_time is not None:
        return sc.encounter_time
    from .kinematics import NoEncounterError, solve_encounter
    if len(sc.pulses) == 1:
        raise NoEncounterError(
            "the splitting pulse is the only pulse, so the arms separate "
            "from it and never re-meet; add pulse_arrays that turn the "
            "pulsed arm back", 0.0)
    return solve_encounter(free, pulsed, pulsed.end_time)


def _auto_grid(sc: Scenario, center: float, t_f: float, q: float,
               grid_points: int | None):
    from .model import DomainError, expansion_rate
    from .wavefield import Grid
    g = sc.grid_cfg
    sigma = sc.params.oscillator_length * expansion_rate(
        t_f, sc.params.trap_frequency)
    try:
        if "half_width_m" in g and "n_points" in g:
            grid = Grid(center=center, half_width=g["half_width_m"],
                        n_points=g["n_points"])
        else:
            grid = Grid.auto(center, sigma, beat_wavenumber=q, **{
                k: v for k, v in g.items()
                if k not in ("half_width_m", "n_points")})
        if grid_points is not None:
            grid = Grid(center=grid.center, half_width=grid.half_width,
                        n_points=grid_points)
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return grid


def build_state(cfg: dict, grid_points: int | None = None) -> PipelineContext:
    """Run the scenario pipeline up to the analytic encounter state."""
    from .wavefield import encounter_state
    sc = parse_config(cfg)
    free, pulsed = build_trajectories(sc)
    t_f = resolve_encounter(sc, free, pulsed)
    center = free.position(t_f)
    q = sc.params.mass * (pulsed.velocity(t_f) - free.velocity(t_f)) / sc.env.hbar
    grid = _auto_grid(sc, center, t_f, q, grid_points)
    state = encounter_state(grid, free, pulsed, t_f, sc.weights, sc.params,
                            sc.env, sc.transition)
    return PipelineContext(sc, free, pulsed, t_f, sc.weights, grid, state)


def spectrum_state(ctx: PipelineContext):
    """Closed-form momentum-space description of the encounter (or None)."""
    from .model import DomainError
    from .observables import MomentumState
    scfg = ctx.scenario.spectrum_cfg
    if not scfg.get("enabled", False):
        return None
    try:
        return MomentumState.from_encounter(
            ctx.state, ctx.scenario.params, scfg.get("half_width_factor", 6.0))
    except DomainError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc


def _spectrum_block(ctx: PipelineContext) -> dict | None:
    from .observables import momentum_spectrum
    ms = spectrum_state(ctx)
    if ms is None:
        return None
    return {
        "negative_weight": ms.negative_weight,
        "peak_wavenumbers_per_m": sorted([ms.k_f, ms.k_f + ms.q]),
        "cross_term_bound": ms.cross_term_bound,
        "_spectrum": (ms.grid.positions(), momentum_spectrum(ms)),
    }


def _provenance(ctx: PipelineContext) -> dict:
    return {"package_version": __version__, "config": ctx.scenario.raw,
            "grid": {"center_m": ctx.grid.center,
                     "half_width_m": ctx.grid.half_width,
                     "n_points": ctx.grid.n_points,
                     "spacing_m": ctx.grid.spacing}}


def run_scenario(cfg: dict, out_dir: str | None = None,
                 grid_points: int | None = None):
    """Full run: report + optional spectrum (+ artifacts when out_dir given)."""
    import numpy as np
    from .ioutil import atomic_write_text
    from .observables import classical_backflow_check, report

    ctx = build_state(cfg, grid_points)
    rep = report(ctx.state)
    check = classical_backflow_check(ctx.scenario.params,
                                     abs(ctx.scenario.params.launch_velocity))
    spec_block = _spectrum_block(ctx)

    doc = {
        "report": rep.scalars(),
        "encounter": {
            "time_s": ctx.encounter_time,
            "position_m": ctx.grid.center,
            "free_velocity_m_per_s": ctx.free_arm.velocity(ctx.encounter_time),
            "pulsed_velocity_m_per_s": ctx.pulsed_arm.velocity(ctx.encounter_time),
            "delta_v_m_per_s": (ctx.pulsed_arm.velocity(ctx.encounter_time)
                                - ctx.free_arm.velocity(ctx.encounter_time)),
            "beat_wavenumber_per_m": ctx.state.q,
        },
        "weights": {
            "c_b": [ctx.weights.c_b.real, ctx.weights.c_b.imag],
            "c_f": [ctx.weights.c_f.real, ctx.weights.c_f.imag],
        },
        "classical_check": {
            "plane_wave_ratio": check.plane_wave_ratio,
            "spreading_ratio": check.spreading_ratio,
            "passed": check.passed,
        },
        "provenance": _provenance(ctx),
    }
    if spec_block is not None:
        k, density = spec_block.pop("_spectrum")
        doc["momentum_spectrum"] = spec_block

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(os.path.join(out_dir, "report.json"),
                          json.dumps(doc, indent=2) + "\n")
        window = ctx.scenario.output_cfg.get("profile_window_m",
                                             ctx.grid.half_width)
        u = ctx.grid.offsets()
        sel = np.abs(u) <= window
        rows = np.column_stack([
            ctx.grid.positions()[sel], rep.flux_profile[sel],
            rep.density_profile[sel], rep.critical_density_profile[sel]])
        buf = ["x_m,flux_per_s,density_per_m,rho_crit_per_m"]
        buf.extend(f"{r[0]:.17g},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g}"
                   for r in rows)
        atomic_write_text(os.path.join(out_dir, "profiles.csv"),
                          "\n".join(buf) + "\n")
        if spec_block is not None:
            # only samples carrying weight; the empty tails between and
            # beyond the arms would bloat the CSV
            keep = density > 1e-15 * density.max()
            srows = ["k_per_m,density"]
            srows.extend(f"{a:.17g},{b:.17g}"
                         for a, b in zip(k[keep], density[keep]))
            atomic_write_text(os.path.join(out_dir, "spectrum.csv"),
                              "\n".join(srows) + "\n")
        if ctx.scenario.output_cfg.get("wavefield_dump", False):
            from .wavefield import combined_from_state, wavefield_to_binary
            wavefield_to_binary(combined_from_state(ctx.state),
                                os.path.join(out_dir, "wavefield.bin"))
    return doc, rep, ctx


def run_sweep(cfg: dict, out_dir: str | None = None,
              grid_points: int | None = None):
    from .ioutil import atomic_write_text
    from .sweep import SweepEngine
    ctx = build_state(cfg, grid_points)
    spec = ctx.scenario.sweep_spec
    if spec is None:
        raise ConfigError("config has no 'sweep' section")
    engine = SweepEngine(ctx.state)
    if spec.variable == "pulse_area":
        result = engine.sweep_pulse_area(spec)
    else:
        result = engine.sweep_real_weights(spec)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.to_csv(os.path.join(out_dir, "sweep.csv"))
        summary = result.summary()
        summary["provenance"] = _provenance(ctx)
        atomic_write_text(os.path.join(out_dir, "sweep.json"),
                          json.dumps(summary, indent=2) + "\n")
    return result, ctx


# -- validation -----------------------------------------------------------

def oracle_grid_for(ctx: PipelineContext, oracle_points: int):
    """Lab-frame grid holding both arms' full excursions plus envelope."""
    import numpy as np
    from .model import expansion_rate
    from .wavefield import Grid
    sc = ctx.scenario
    t_f = ctx.encounter_time
    sigma_f = sc.params.oscillator_length * expansion_rate(
        t_f, sc.params.trap_frequency)
    span = [ctx.grid.center]
    for arm in (ctx.free_arm, ctx.pulsed_arm):
        for t in np.linspace(0.0, t_f, 64):
            span.append(arm.position(float(t)))
    lo, hi = min(span) - 10.0 * sigma_f, max(span) + 10.0 * sigma_f
    half = max(ctx.grid.center - lo, hi - ctx.grid.center)
    return Grid(center=ctx.grid.center, half_width=half,
                n_points=oracle_points)


def oracle_arm_field(ctx: PipelineContext, trajectory, grid,
                     time_step: float):
    """Propagate one arm numerically, including pulse and internal-state
    scalar phases, so its absolute phase is comparable to the analytic
    evaluation (up to one arm-independent global phase)."""
    import numpy as np
    from .oracle import KickEvent, PropagatorConfig, gaussian_packet, propagate
    from .wavefield import WaveField
    sc = ctx.scenario
    t_f = ctx.encounter_time
    # Pulses act as -i e^{i mu phi_L} e^{i s k x}; mu is the internal
    # state before the pulse, which toggles from ground at launch.
    kicks = ()
    if trajectory.kick_count:
        times, signs, phases = sc.pulses.T
        kicks = tuple(map(
            KickEvent, times.tolist(),
            (signs * sc.transition.wavevector_magnitude).tolist(),
            (np.resize([1, -1], len(times)) * phases).tolist()))
    config = PropagatorConfig(
        time_step=time_step, grid=grid, mass=sc.params.mass,
        gravity=sc.env.gravity, kick_events=kicks, hbar=sc.env.hbar,
        trap_frequency=sc.params.trap_frequency)
    initial = gaussian_packet(
        grid, sc.params.oscillator_length, sc.params.launch_velocity,
        center=trajectory.segment(0).start_position, mass=sc.params.mass,
        hbar=sc.env.hbar)
    out = propagate(initial, config, t_f)
    # The internal-state energy is the one scalar the propagator does
    # not model; it differs between the arms, so fold it in exactly.
    _, _, internal = trajectory.phases_at(t_f)
    return WaveField(grid, out.amplitudes * np.exp(1j * internal.mod_two_pi()),
                     t_f)


def oracle_cross_check(cfg: dict, *, time_step: float = 2.5e-7,
                       oracle_points: int = 513) -> dict:
    """Compare the analytic arms and combined state against the
    split-step propagator for a (reduced-scale) scenario.

    Returns per-field (max relative amplitude error, phase spread) pairs.
    """
    from .oracle import SNAP_TOLERANCE, compare_fields
    from .wavefield import (WaveField, combine, free_arm_wavefunction,
                            pulsed_arm_wavefunction)

    ctx = build_state(cfg)
    sc = ctx.scenario
    t_f = ctx.encounter_time
    n = round(t_f / time_step)
    if abs(n * time_step - t_f) > SNAP_TOLERANCE:
        raise ConfigError("encounter time is not a multiple of time_step; "
                          "pick a scenario with commensurate pulse timing")
    grid = oracle_grid_for(ctx, oracle_points)

    analytic_free = free_arm_wavefunction(grid, t_f, sc.params, sc.env,
                                          sc.transition,
                                          trajectory=ctx.free_arm)
    analytic_pulsed = pulsed_arm_wavefunction(grid, ctx.pulsed_arm, t_f,
                                              sc.params, sc.env, sc.transition)
    analytic_combined = combine(analytic_free, analytic_pulsed, ctx.weights)

    numeric_free = oracle_arm_field(ctx, ctx.free_arm, grid, time_step)
    numeric_pulsed = oracle_arm_field(ctx, ctx.pulsed_arm, grid, time_step)
    numeric_combined = WaveField(
        grid,
        ctx.weights.c_f * numeric_free.amplitudes
        + ctx.weights.c_b * numeric_pulsed.amplitudes, t_f)

    return {
        "free_arm": compare_fields(analytic_free, numeric_free),
        "pulsed_arm": compare_fields(analytic_pulsed, numeric_pulsed),
        "combined": compare_fields(analytic_combined, numeric_combined),
        "encounter_time_s": t_f,
    }


def run_validation() -> bool:
    from .presets import reduced_scale_config
    results = oracle_cross_check(reduced_scale_config())
    ok = True
    for name in ("free_arm", "pulsed_arm", "combined"):
        amp, phase = results[name]
        passed = amp <= 1e-5 and phase <= 1e-5
        ok = ok and passed
        print(f"{name}: max amplitude error {amp:.3e}, "
              f"phase spread {phase:.3e} rad "
              f"[{'ok' if passed else 'FAIL'}]")
    return ok


# -- entry point ----------------------------------------------------------

def _load_config(args) -> dict:
    if getattr(args, "preset", None):
        from .presets import preset_config
        try:
            return preset_config(args.preset)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                return json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from exc
    raise ConfigError("provide --config PATH or --preset NAME")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbackflow",
        description="Backflow-state preparation and analysis for "
                    "LMT atom interferometry")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON scenario file")
        p.add_argument("--preset", help="shipped preset name")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--grid-points", type=int,
                       help="override the grid point count (odd)")

    common(sub.add_parser("run", help="run one scenario"))
    common(sub.add_parser("sweep", help="run a parameter sweep"))
    sub.add_parser("validate",
                   help="cross-check analytics against the propagator")
    p_presets = sub.add_parser("presets", help="list or dump presets")
    p_presets.add_argument("--preset", help="dump this preset as JSON")

    args = parser.parse_args(argv)

    try:
        if args.command == "presets":
            from .presets import PRESETS, preset_config
            if args.preset:
                try:
                    print(json.dumps(preset_config(args.preset), indent=2))
                except KeyError as exc:
                    raise ConfigError(str(exc)) from exc
            else:
                for name in sorted(PRESETS):
                    print(name)
            return EXIT_OK

        if args.command == "validate":
            return EXIT_OK if run_validation() else EXIT_PIPELINE

        cfg = _load_config(args)
        if args.grid_points is not None and (
                args.grid_points < 3 or args.grid_points % 2 == 0):
            raise ConfigError("--grid-points must be odd and >= 3")
        if args.command == "run":
            doc, rep, ctx = run_scenario(cfg, args.out_dir, args.grid_points)
            print(f"encounter at t = {ctx.encounter_time:.9g} s, "
                  f"delta v = {doc['encounter']['delta_v_m_per_s']:.6g} m/s")
            print(f"backflow rate {rep.backflow_rate:.6g} m/s, "
                  f"rho_crit max {100 * rep.rho_crit_max_fraction:.4g}%, "
                  f"density min {100 * rep.density_min_fraction:.4g}%")
            print(f"artifacts written to {args.out_dir}")
            return EXIT_OK
        if args.command == "sweep":
            result, _ = run_sweep(cfg, args.out_dir, args.grid_points)
            print(f"max backflow rate {result.max_backflow_rate:.6g} m/s "
                  f"at {result.spec.variable} = {result.argmax_value:.6g} "
                  f"(refined {result.refined_argmax_value:.6g})")
            print(f"artifacts written to {args.out_dir}")
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # physics/pipeline errors
        from .model import DomainError
        kind = "pipeline error"
        if isinstance(exc, DomainError):
            kind = "physics error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

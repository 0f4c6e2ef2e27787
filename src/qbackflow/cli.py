"""Batch command-line entry point.

Subcommands:

* ``run``      — execute one scenario; write report JSON + profile CSVs.
* ``sweep``    — sweep splitting-pulse area or real weights; write CSV/JSON.
* ``validate`` — cross-check the analytic pipeline against the numerical
                 propagator on the reduced-scale scenario.
* ``presets``  — list shipped configurations or dump one as JSON.

Configuration is a single JSON document with SI, unit-suffixed keys, as
``config.SCHEMA`` defines them (``presets.reference_config`` builds one).
Exit codes: 0 success, 2 configuration/validation error,
3 physics/pipeline error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .config import ConfigError, Scenario, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PIPELINE = 3


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
    from .kinematics import NoEncounterError, solve_encounter
    if len(sc.pulses) == 1:
        raise NoEncounterError(
            "the splitting pulse is the only pulse, so the arms separate "
            "from it and never re-meet; add pulse_arrays that turn the "
            "pulsed arm back", 0.0)
    return solve_encounter(free, pulsed, pulsed.end_time)


def _auto_grid(sc: Scenario, center: float, t_f: float, q: float,
               grid_points: int | None):
    from .model import DomainError, expansion
    from .wavefield import Grid
    sigma = sc.params.oscillator_length * expansion(
        t_f, sc.params.trap_frequency)[0]
    try:
        grid = Grid.auto(center, sigma, beat_wavenumber=q, **sc.grid_cfg)
        if grid_points is not None:
            grid = Grid(center=grid.center, half_width=grid.half_width,
                        n_points=grid_points)
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    return grid


def build_state(cfg: dict, grid_points: int | None = None) -> PipelineContext:
    """Run the scenario pipeline up to the analytic encounter state."""
    from .wavefield import beat_wavenumber, encounter_state
    sc = parse_config(cfg)
    free, pulsed = build_trajectories(sc)
    t_f = resolve_encounter(sc, free, pulsed)
    center = free.position(t_f)
    # the recoil check runs before a rounding-noise q can size the grid
    q = beat_wavenumber(free, pulsed, t_f)
    grid = _auto_grid(sc, center, t_f, q, grid_points)
    state = encounter_state(grid, free, pulsed, t_f, sc.weights)
    return PipelineContext(sc, free, pulsed, t_f, sc.weights, grid, state)


def spectrum_state(ctx: PipelineContext):
    """Closed-form momentum-space description of the encounter (or None)."""
    from .model import DomainError
    from .observables import MomentumState
    scfg = ctx.scenario.spectrum_cfg
    if not scfg["enabled"]:
        return None
    try:
        return MomentumState.from_encounter(ctx.state,
                                            scfg["half_width_factor"])
    except DomainError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc


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
    from .ioutil import atomic_write_text, csv_text
    from .observables import (classical_backflow_check, momentum_spectrum,
                              report)

    ctx = build_state(cfg, grid_points)
    rep = report(ctx.state)
    ms = spectrum_state(ctx)
    v_f = ctx.state.free_velocity
    v_b = ctx.pulsed_arm.velocity(ctx.encounter_time)
    doc = {
        "report": rep.scalars(),
        "encounter": {
            "time_s": ctx.encounter_time,
            "position_m": ctx.grid.center,
            "free_velocity_m_per_s": v_f,
            "pulsed_velocity_m_per_s": v_b,
            "delta_v_m_per_s": v_b - v_f,
            "beat_wavenumber_per_m": ctx.state.q,
        },
        "weights": {
            "c_b": [ctx.weights.c_b.real, ctx.weights.c_b.imag],
            "c_f": [ctx.weights.c_f.real, ctx.weights.c_f.imag],
        },
        "classical_check": classical_backflow_check(
            ctx.scenario.params, abs(ctx.scenario.params.launch_velocity)),
        "provenance": _provenance(ctx),
    }
    if ms is not None:
        doc["momentum_spectrum"] = {
            "negative_weight": ms.negative_weight,
            "peak_wavenumbers_per_m": sorted([ms.k_f, ms.k_f + ms.q]),
            "cross_term_bound": ms.cross_term_bound,
        }
        k, density = ms.grid.positions(), momentum_spectrum(ms)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(os.path.join(out_dir, "report.json"),
                          json.dumps(doc) + "\n")
        window = ctx.scenario.output_cfg.get("profile_window_m",
                                             ctx.grid.half_width)
        u = ctx.grid.offsets()
        sel = np.abs(u) <= window
        atomic_write_text(os.path.join(out_dir, "profiles.csv"), csv_text(
            "x_m,flux_per_s,density_per_m,rho_crit_per_m",
            [ctx.grid.positions()[sel], rep.flux_profile[sel],
             rep.density_profile[sel], rep.critical_density_profile[sel]]))
        if ms is not None:
            # only samples carrying weight; the empty tails between and
            # beyond the arms would bloat the CSV
            keep = density > 1e-15 * density.max()
            atomic_write_text(os.path.join(out_dir, "spectrum.csv"),
                              csv_text("k_per_m,density",
                                       [k[keep], density[keep]]))
        if ctx.scenario.output_cfg["wavefield_dump"]:
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
                          json.dumps(summary) + "\n")
    return result, ctx


# -- validation -----------------------------------------------------------

def oracle_grid_for(ctx: PipelineContext, oracle_points: int):
    """Lab-frame grid holding both arms' full excursions plus envelope, on
    the smallest odd 3·5·7-smooth point count >= oracle_points."""
    import numpy as np
    from .model import expansion
    from .oracle import fft_length
    from .wavefield import Grid
    sc = ctx.scenario
    t_f = ctx.encounter_time
    sigma_f = sc.params.oscillator_length * expansion(
        t_f, sc.params.trap_frequency)[0]
    span = [ctx.grid.center]
    for arm in (ctx.free_arm, ctx.pulsed_arm):
        for t in np.linspace(0.0, t_f, 64):
            span.append(arm.position(float(t)))
    lo, hi = min(span) - 10.0 * sigma_f, max(span) + 10.0 * sigma_f
    half = max(ctx.grid.center - lo, hi - ctx.grid.center)
    return Grid(center=ctx.grid.center, half_width=half,
                n_points=fft_length(oracle_points))


def oracle_arm_field(ctx: PipelineContext, grid, time_step: float):
    """Propagate the arms numerically as one field stack, row 0 the free
    arm and row 1 the pulsed one, including pulse and internal-state
    scalar phases, so each row's absolute phase is comparable to the
    analytic evaluation (up to one arm-independent global phase)."""
    import numpy as np
    from .oracle import KickEvent, PropagatorConfig, gaussian_packet, propagate
    from .wavefield import WaveField
    sc = ctx.scenario
    t_f = ctx.encounter_time
    arms = (ctx.free_arm, ctx.pulsed_arm)
    # Every pulse acts on the pulsed arm as -i e^{i mu phi_L} e^{i s k x};
    # mu is its internal state before the pulse.
    times, signs, phases = sc.pulses.T
    ks = signs * sc.transition.wavevector_magnitude
    kicks = tuple(KickEvent(*pulse, 1) for pulse in zip(
        times.tolist(), ks.tolist(),
        (ctx.pulsed_arm.internal_states[:-1] * phases).tolist()))
    config = PropagatorConfig(
        time_step=time_step, grid=grid, mass=sc.params.mass,
        gravity=sc.env.gravity, kick_events=kicks,
        trap_frequency=sc.params.trap_frequency)
    packet = gaussian_packet(
        grid, sc.params.oscillator_length, sc.params.launch_velocity,
        center=ctx.free_arm.positions[0], mass=sc.params.mass).amplitudes
    out = propagate(WaveField(grid, np.stack([packet, packet]), 0.0),
                    config, t_f)
    # The internal-state energy is the one scalar the propagator does
    # not model; it differs between the arms, so fold it in exactly.
    internal = np.array([arm.phases_at(t_f)[2].mod_two_pi() for arm in arms])
    return WaveField(grid, out.amplitudes * np.exp(1j * internal)[:, None],
                     t_f)


def oracle_cross_check(cfg: dict, *, time_step: float = 2.5e-7,
                       oracle_points: int = 513) -> dict:
    """Compare the arm and combined fields of the ``EncounterState`` that
    ``report()`` reads, on the oracle grid, against the split-step
    propagator for a (reduced-scale) scenario.

    oracle_points is a minimum: the grid takes the smallest odd
    3·5·7-smooth point count at or above it (525 for 513, 1029 for
    1025), where the propagator's FFTs run fastest.

    Returns per-field (max relative amplitude error, phase spread) pairs.
    """
    from dataclasses import replace
    from .oracle import SNAP_TOLERANCE, compare_fields
    from .wavefield import (WaveField, combine, combined_from_state,
                            free_arm_wavefunction, pulsed_arm_wavefunction)

    ctx = build_state(cfg)
    t_f = ctx.encounter_time
    n = round(t_f / time_step)
    if abs(n * time_step - t_f) > SNAP_TOLERANCE:
        raise ConfigError("encounter time is not a multiple of time_step; "
                          "pick a scenario with commensurate pulse timing")
    grid = oracle_grid_for(ctx, oracle_points)
    state = replace(ctx.state, grid=grid)

    free, pulsed = (WaveField(grid, row, t_f) for row in
                    oracle_arm_field(ctx, grid, time_step).amplitudes)
    return {
        "free_arm": compare_fields(free_arm_wavefunction(state), free),
        "pulsed_arm": compare_fields(pulsed_arm_wavefunction(state), pulsed),
        "combined": compare_fields(combined_from_state(state),
                                   combine(free, pulsed, ctx.weights)),
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

def _preset_config(name: str) -> dict:
    from .presets import preset_config
    try:
        return preset_config(name)
    except KeyError as exc:   # its one argument is the message
        raise ConfigError(exc.args[0]) from exc


def _load_config(args) -> dict:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("give --config or --preset, not both")
    if getattr(args, "preset", None):
        return _preset_config(args.preset)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                return json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, or a huge integer
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
            from .presets import PRESETS
            if args.preset:
                print(json.dumps(_preset_config(args.preset), indent=2))
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

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qbackflow.cli import (
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_VALIDATION,
    ConfigError,
    build_state,
    build_trajectories,
    main,
    oracle_cross_check,
    parse_config,
    run_scenario,
    run_sweep,
)
from qbackflow.config import MAX_PULSES, MAX_SAMPLES
from qbackflow.model import HBAR, MAX_PULSE_AREA, SPEED_OF_LIGHT, DomainError
from qbackflow.presets import PRESETS, preset_config, reduced_scale_config
from qbackflow.sweep import canonical_pulse_area_weights


# -- config validation -----------------------------------------------------

def test_parse_config_roundtrip():
    sc = parse_config(reduced_scale_config())
    assert sc.weights.c_b == math.cos(0.3 * math.pi)
    assert sc.pulses.tolist() == [
        [0.0, 1.0, 0.0], [2e-4, -1.0, 0.0], [2e-4 + 5e-5, -1.0, 0.0],
        [2e-4 + 2 * 5e-5, -1.0, 0.0]] + [
        [5e-4 + j * 5e-5, 1.0, 0.0] for j in range(5)]
    assert sc.raw == reduced_scale_config()


def test_parse_config_takes_numpy_floats():
    # a float subclass is a float; library callers may build configs
    # from numpy scalars
    cfg = reduced_scale_config()
    cfg["environment"]["gravity_m_per_s2"] = np.float64(2.0)
    cfg["sweep"] = {"variable": "real_cb", "n_samples": 5,
                    "range": [np.float64(0.0), np.float64(1.0)]}
    sc = parse_config(cfg)
    assert sc.gravity == 2.0
    assert (sc.sweep_spec.lo, sc.sweep_spec.hi) == (0.0, 1.0)


def test_parse_config_missing_sections():
    with pytest.raises(ConfigError, match="condensate"):
        parse_config({})
    cfg = reduced_scale_config()
    del cfg["transition"]
    with pytest.raises(ConfigError, match="transition"):
        parse_config(cfg)


def test_parse_config_field_errors():
    cfg = reduced_scale_config()
    cfg["condensate"]["mass_kg"] = -1.0
    with pytest.raises(ConfigError, match="mass_kg"):
        parse_config(cfg)

    cfg = reduced_scale_config()
    cfg["splitting_pulse"]["pulse_area_rad"] = 20.0
    with pytest.raises(ConfigError, match="pulse_area_rad"):
        parse_config(cfg)

    cfg = reduced_scale_config()
    cfg["splitting_pulse"]["sign"] = 0
    with pytest.raises(ConfigError, match="sign"):
        parse_config(cfg)

    cfg = reduced_scale_config()
    cfg["weights"] = {"mode": "complex"}
    with pytest.raises(ConfigError, match="mode"):
        parse_config(cfg)

    cfg = reduced_scale_config()
    cfg["weights"] = {"mode": "real_cb", "cb": 1.5}
    with pytest.raises(ConfigError, match="cb"):
        parse_config(cfg)

    cfg = reduced_scale_config()
    cfg["environment"] = {"gravity_m_per_s2": -1.0}
    with pytest.raises(ConfigError, match=r"^environment\.gravity_m_per_s2: "
                       r"must be >= 0, got -1\.0$"):
        parse_config(cfg)


def _fig8a_config():
    return preset_config("paper-fig8a")


@pytest.mark.parametrize("config", [reduced_scale_config, _fig8a_config],
                         ids=["reduced", "paper-fig8a"])
def test_parse_config_refuses_recoil_at_light_speed(config):
    cfg = config()
    mass = parse_config(cfg).params.mass
    # the wavelength whose one-photon recoil hbar k / m is c
    at_c = 2.0 * math.pi * HBAR / (mass * SPEED_OF_LIGHT)
    for wavelength in (1e-300, 0.5 * at_c):
        cfg["transition"]["wavelength_m"] = wavelength
        with pytest.raises(ConfigError, match=r"^transition\.wavelength_m: "
                           "the one-photon recoil .* not below the speed "
                           "of light$"):
            parse_config(cfg)
    # below c every ledger term is finite, so later checks see numbers
    cfg["transition"]["wavelength_m"] = 2.0 * at_c
    _, pulsed = build_trajectories(parse_config(cfg))
    assert all(math.isfinite(ledger.value()) for ledger in (
        pulsed.action_phase_total, pulsed.laser_phase_total,
        pulsed.internal_phase_total))


def test_parse_config_requires_increasing_pulse_times():
    cfg = reduced_scale_config()
    cfg["pulse_arrays"][1]["start_s"] = 1e-4   # overlaps the first array
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(cfg)


def test_parse_config_domain_error_becomes_config_error():
    cfg = reduced_scale_config()
    cfg["condensate"] = {"mass_kg": 1e-25,
                         "trap_frequency_rad_per_s": -5.0,
                         "launch_velocity_m_per_s": 0.0}
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_unknown_preset_raises_configerror_with_listing():
    with pytest.raises(ConfigError, match="paper-0.6pi"):
        preset_config("nope")


def test_shipped_presets_parse():
    assert set(PRESETS) == {"paper-0.6pi", "paper-0.75pi",
                            "paper-fig8a", "paper-fig8b"}
    for name in PRESETS:
        sc = parse_config(preset_config(name))
        assert sc.params.launch_velocity == 0.2


# -- pipeline entry points --------------------------------------------------

def test_run_scenario_artifacts(tmp_path):
    out = str(tmp_path / "out")
    doc, rep, ctx = run_scenario(reduced_scale_config(), out_dir=out)
    report_doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report_doc["report"]["backflow_rate_m_per_s"] == pytest.approx(
        rep.backflow_rate)
    assert report_doc["provenance"]["config"] == reduced_scale_config()
    lines = (tmp_path / "out" / "profiles.csv").read_text().strip().split("\n")
    assert lines[0] == "x_m,flux_per_s,density_per_m,rho_crit_per_m"
    assert len(lines) > 10
    spectrum = (tmp_path / "out" / "spectrum.csv").read_text()
    assert spectrum.startswith("k_per_m,density\n")
    assert doc["momentum_spectrum"]["negative_weight"] < 1e-6
    assert not os.path.exists(os.path.join(out, "wavefield.bin"))


def test_run_scenario_builds_one_encounter_state(monkeypatch):
    # The momentum spectrum is closed-form: it needs no second state.
    import qbackflow.wavefield as wavefield
    calls = []
    build = wavefield.encounter_state
    monkeypatch.setattr(wavefield, "encounter_state",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    doc, _, _ = run_scenario(reduced_scale_config())
    assert "momentum_spectrum" in doc
    assert len(calls) == 1


def test_run_scenario_wavefield_dump(tmp_path):
    from qbackflow.wavefield import wavefield_from_binary
    cfg = reduced_scale_config()
    cfg["output"]["wavefield_dump"] = True
    cfg["spectrum"]["enabled"] = False
    out = str(tmp_path / "out")
    doc, rep, ctx = run_scenario(cfg, out_dir=out)
    assert "momentum_spectrum" not in doc
    field = wavefield_from_binary(os.path.join(out, "wavefield.bin"))
    assert field.grid.n_points == ctx.grid.n_points
    assert field.time == ctx.encounter_time


def test_run_sweep_requires_sweep_section():
    with pytest.raises(ConfigError, match="sweep"):
        run_sweep(reduced_scale_config())


def test_run_sweep_artifacts(tmp_path):
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 9}
    out = str(tmp_path / "out")
    result, ctx = run_sweep(cfg, out_dir=out)
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert doc["n_samples"] == 9
    assert doc["provenance"]["grid"]["n_points"] == ctx.grid.n_points
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 10


def test_grid_points_override():
    ctx = build_state(reduced_scale_config(), grid_points=4097)
    assert ctx.grid.n_points == 4097
    # the override replaces an auto point count too large to build
    cfg = reduced_scale_config()
    cfg["grid"]["fringe_samples"] = 10 ** 9
    grid = build_state(cfg, grid_points=1001).grid
    assert grid.n_points == 1001
    assert grid.half_width == ctx.grid.half_width


# -- command-line interface ------------------------------------------------

def _write_config(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_main_run_ok(tmp_path, capsys):
    path = _write_config(tmp_path, reduced_scale_config())
    code = main(["run", "--config", path, "--out-dir",
                 str(tmp_path / "out")])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "backflow rate" in captured.out
    assert (tmp_path / "out" / "report.json").exists()


def test_main_sweep_ok(tmp_path, capsys):
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "pulse_area",
                    "range": [0.0, 2.0 * math.pi], "n_samples": 11}
    path = _write_config(tmp_path, cfg)
    code = main(["sweep", "--config", path, "--out-dir",
                 str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "max backflow rate" in capsys.readouterr().out
    assert (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("config", [reduced_scale_config, _fig8a_config],
                         ids=["reduced", "paper-fig8a"])
def test_main_absurd_wavelength_exits_2_naming_it(tmp_path, capsys, config):
    cfg = config()
    cfg["transition"]["wavelength_m"] = 1e-300
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "configuration error: transition.wavelength_m: the one-photon "
        "recoil hbar k / m is 4.53e+291 m/s for m = 1.461e-25 kg, not below "
        "the speed of light\n")


def test_run_and_sweep_share_the_pulse_area_bound(tmp_path, capsys):
    # a splitting pulse and a sweep range end at the same 4 pi
    for area, expected in ((MAX_PULSE_AREA, EXIT_OK),
                           (MAX_PULSE_AREA + 5e-13, EXIT_VALIDATION)):
        run_cfg, sweep_cfg = _fig8a_config(), _fig8a_config()
        run_cfg["splitting_pulse"]["pulse_area_rad"] = area
        sweep_cfg["sweep"]["range"] = [0.0, area]
        codes = [main([command, "--config", _write_config(tmp_path, cfg),
                       "--out-dir", str(tmp_path / "o")])
                 for command, cfg in (("run", run_cfg), ("sweep", sweep_cfg))]
        assert codes == [expected, expected], area
    assert capsys.readouterr().err == (
        "configuration error: splitting_pulse.pulse_area_rad: must lie in "
        "[0, 4 pi]\n"
        "configuration error: sweep.range: pulse_area range must lie within "
        "[0, 4 pi]\n")
    canonical_pulse_area_weights(MAX_PULSE_AREA)
    with pytest.raises(DomainError, match="must lie in"):
        canonical_pulse_area_weights(MAX_PULSE_AREA + 5e-13)


def test_main_invalid_config_exits_2(tmp_path, capsys):
    cfg = reduced_scale_config()
    del cfg["splitting_pulse"]
    path = _write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_main_refuses_preset_with_config(tmp_path, capsys, command):
    path = _write_config(tmp_path, preset_config("paper-fig8a"))
    out = tmp_path / "o"
    code = main([command, "--preset", "paper-fig8a", "--config", path,
                 "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert ("configuration error: give --config or --preset, not both"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("section, index, key, value", [
    ("pulse_arrays", 1, "start_s", math.nan),
    ("environment", None, "gravity_m_per_s2", math.inf),
    ("pulse_arrays", 0, "count", True),
])
def test_main_rejects_nonfinite_and_bool_values(tmp_path, capsys, section,
                                                index, key, value):
    # json writes these as NaN / Infinity / true, which json.load accepts
    cfg = reduced_scale_config()
    target = cfg[section] if index is None else cfg[section][index]
    target[key] = value
    path = _write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    where = section if index is None else f"{section}[{index}]"
    assert f"{where}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("grid.half_width_factor", math.nan),
    ("grid.envelope_samples", 0),
    ("spectrum.half_width_factor", math.inf),
    ("grid.n_points", 2.5),
    ("output.profile_window_m", None),
    ("sweep.range[0]", None),
    ("grid.fringe_samples", True),
    ("grid.fringe_samples", "20"),
    ("sweep.range[0]", True),
    ("encounter.auto", "no"),
    ("encounter.auto", False),
])
def test_main_rejects_bad_optional_keys(tmp_path, capsys, path, value):
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    section, key = path.split(".")
    if key.startswith("range["):
        cfg[section]["range"][int(key[6])] = value
    else:
        cfg[section][key] = value
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert path in capsys.readouterr().err


def _spectrum_enable(cfg):
    del cfg["spectrum"]["enabled"]
    cfg["spectrum"]["enable"] = True


#: Key path -> change to reduced_scale_config (with a sweep) adding it.
UNKNOWN_KEYS = {
    "environment.gravity": lambda cfg: cfg["environment"].update(gravity=5.0),
    "spectrum.enable": _spectrum_enable,
    "config.pulse_array":
        lambda cfg: cfg.update(pulse_array=cfg["pulse_arrays"][0]),
    "grid.n_points": lambda cfg: cfg["grid"].update(n_points=1001),
    "grid.half_width_m": lambda cfg: cfg["grid"].update(half_width_m=1e-4),
    "pulse_arrays[0].laser_phase":
        lambda cfg: cfg["pulse_arrays"][0].update(laser_phase=0.5),
    "sweep.n_sample": lambda cfg: cfg["sweep"].update(n_sample=9),
    "encounter.time_s": lambda cfg: cfg["encounter"].update(time_s=1e-2),
}


@pytest.mark.parametrize("path", UNKNOWN_KEYS)
def test_main_rejects_unknown_keys(tmp_path, capsys, path):
    # A key no parser reads would be dropped, and the run would use the
    # default it was meant to replace.
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    UNKNOWN_KEYS[path](cfg)
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert f"{path}: unknown key" in capsys.readouterr().err


#: Key path -> change adding a known key the config's mode does not read.
UNREAD_KEYS = {
    "condensate.mass_kg":
        lambda cfg: cfg["condensate"].update(mass_kg=1e-25),
    "condensate.trap_frequency_rad_per_s":
        lambda cfg: cfg["condensate"].update(trap_frequency_rad_per_s=50.0),
    "weights.cb": lambda cfg: cfg["weights"].update(cb=0.9),
}


@pytest.mark.parametrize("path", UNREAD_KEYS)
def test_main_rejects_unread_keys(tmp_path, capsys, path):
    # Next to a preset or in splitting-pulse weights these keys would be
    # dropped and the run would go on with values the config does not
    # state.
    cfg = preset_config("paper-0.6pi")
    UNREAD_KEYS[path](cfg)
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert f"{path}: not read" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("variable", 3, "sweep.variable: expected str, got int"),
    ("n_samples", None, "sweep: missing required key 'n_samples'"),
    ("variable", "detuning", "sweep.variable: unknown 'detuning'"),
    ("n_samples", 1,
     "sweep.n_samples: 1 is below 2 or above the limit of 1000000 samples"),
    ("range", [1.0, 1.0], "sweep.range: range must satisfy lo < hi"),
    ("range", [0.0, 1.5], "sweep.range: real_cb range must lie within [0, 1]"),
])
def test_main_sweep_errors_name_the_key_once(tmp_path, capsys, key, value,
                                             message):
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    if value is None:
        del cfg["sweep"][key]
    else:
        cfg["sweep"][key] = value
    code = main(["sweep", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("command, path, value, limit", [
    ("run", "pulse_arrays[1].count", 10 ** 15, MAX_PULSES),
    ("run", "pulse_arrays[1].count", 10 ** 30, MAX_PULSES),
    ("sweep", "sweep.n_samples", 10 ** 15, MAX_SAMPLES),
])
def test_main_refuses_oversized_schedules(tmp_path, capsys, command, path,
                                          value, limit):
    # Refused at parse time with the key, not by numpy failing to
    # allocate petabytes (or to convert the count to a C long).
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    if path == "sweep.n_samples":
        cfg["sweep"]["n_samples"] = value
    else:
        cfg["pulse_arrays"][1]["count"] = value
    code = main([command, "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: {value} ")
    assert f"limit of {limit}" in err
    # the benchmark's longest schedule and sweep fit with a wide margin
    assert limit >= 100 * 8012


@pytest.mark.parametrize("section, key", [
    ("environment", "gravity_m_per_s2"),
    ("grid", "fringe_samples"),
])
def test_main_refuses_integers_no_float_holds(tmp_path, capsys, section,
                                              key):
    # JSON integers are unbounded; one beyond the float range is refused
    # with its key path, not by an OverflowError in the pipeline.
    cfg = reduced_scale_config()
    cfg[section][key] = 10 ** 400
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"configuration error: {section}.{key}: integer too large for a "
        "float\n")


@pytest.mark.parametrize("content", [
    # one digit more than Python's int-string limit (4,300 by default)
    pytest.param(b'{"grid": {"fringe_samples": ' + b"9" * 4301 + b"}}",
                 id="huge-integer", marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="this Python reads integers of any length")),
    pytest.param(b"\xff{}", id="not-utf-8"),
])
def test_main_undecodable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    code = main(["run", "--config", str(path),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        f"configuration error: {path}: invalid JSON: ")


def test_main_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_VALIDATION
    code = main(["run"])   # neither --config nor --preset
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("command, preset", [("run", "paper-0.6pi"),
                                             ("sweep", "paper-fig8b")])
def test_main_uncreatable_out_dir_exits_2(tmp_path, capsys, command, preset):
    # a file where the directory, or one of its parents, should be
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        code = main([command, "--preset", preset, "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            f"configuration error: --out-dir: cannot create directory {out}: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, preset, artifact", [
    ("run", "paper-0.6pi", "report.json"),
    ("run", "paper-0.6pi", "profiles.csv"),
    ("run", "paper-0.6pi", "spectrum.csv"),
    ("run", "paper-0.6pi", "wavefield.bin"),
    ("sweep", "paper-fig8b", "sweep.csv"),
    ("sweep", "paper-fig8b", "sweep.json")])
def test_main_artifact_blocked_by_directory_exits_2(tmp_path, capsys, command,
                                                    preset, artifact):
    # a directory where an artifact file should be: the command refuses
    # before it writes any artifact, so no set is left half new
    args = ["--preset", preset]
    if artifact == "wavefield.bin":
        cfg = preset_config(preset)
        cfg["output"]["wavefield_dump"] = True
        args = ["--config", _write_config(tmp_path, cfg)]
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    code = main([command, *args, "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"configuration error: --out-dir: cannot write {out / artifact}: "
        "Is a directory\n")
    assert [p.name for p in out.iterdir()] == [artifact]


def test_main_no_encounter_exits_3(tmp_path, capsys):
    cfg = reduced_scale_config()
    cfg["pulse_arrays"] = []       # single up-kick: arms never re-meet
    path = _write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_PIPELINE
    # the cause, not a symptom such as a norm check on the t = 0 "meeting"
    err = capsys.readouterr().err
    assert err.startswith("pipeline error: the splitting pulse is the only "
                          "pulse")
    assert "never re-meet" in err


def test_main_lost_recoil_exits_3(tmp_path, capsys):
    # A 2.5 kg atom recoils by 1.3e-28 m/s, below the 8.7e-19 m/s float64
    # resolution of its 6e-3 m/s launch velocity: the kicks vanish from
    # the arm velocities, and a beat wavenumber made of rounding noise
    # must not be reported.
    cfg = reduced_scale_config()
    cfg["condensate"]["mass_kg"] = 2.5
    out = tmp_path / "o"
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)])
    assert code == EXIT_PIPELINE
    err = capsys.readouterr().err
    assert err.startswith("physics error: the arm velocities lose the "
                          "pulses' recoil")
    assert "one recoil hbar k / m is 1.33e-28 m/s" in err
    assert "velocity resolution is 8.67e-19 m/s" in err
    assert not out.exists()


def test_main_lost_recoil_with_wide_envelope_exits_3(tmp_path, capsys):
    # At 6 m/s and 1e-5 rad/s the rounding-noise q would ask for a
    # 4.4e6-point grid; the recoil check must fire before that grid is
    # sized, so the run exits 3 on the cause, not 2 on the grid limit.
    cfg = reduced_scale_config()
    cfg["condensate"].update({"mass_kg": 2.5, "launch_velocity_m_per_s": 6.0,
                              "trap_frequency_rad_per_s": 1e-5})
    out = tmp_path / "o"
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(out)])
    assert code == EXIT_PIPELINE
    err = capsys.readouterr().err
    assert err.startswith("physics error: the arm velocities lose the "
                          "pulses' recoil")
    assert not out.exists()


def test_main_bad_grid_points_exits_2(tmp_path):
    path = _write_config(tmp_path, reduced_scale_config())
    assert main(["run", "--config", path, "--grid-points", "100"]) == \
        EXIT_VALIDATION


def test_main_refuses_oversized_grids(tmp_path, capsys):
    # A billion samples per fringe passes validation but the grid would
    # need 2.6e10 points; the count is refused before anything is
    # allocated.
    cfg = reduced_scale_config()
    cfg["grid"]["fringe_samples"] = 10 ** 9
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "grid: 2.572e+10 grid points exceed" in capsys.readouterr().err
    code = main(["run", "--config", _write_config(tmp_path,
                                                  reduced_scale_config()),
                 "--out-dir", str(tmp_path / "o"), "--grid-points", "99999999"])
    assert code == EXIT_VALIDATION
    assert "grid: 99999999 grid points exceed" in capsys.readouterr().err


def _spectrum_too_wide(cfg):
    cfg["spectrum"]["half_width_factor"] = 1e9
    return cfg


def _split_before_launch(cfg):
    cfg["splitting_pulse"]["time_s"] = -1e-4
    return cfg


def _arrays_out_of_order(cfg):
    cfg["pulse_arrays"][1]["start_s"] = 1e-4   # before pulse_arrays[0] ends
    return cfg


def _last_pulse_overflows(cfg):
    cfg["pulse_arrays"][1].update(interval_s=1e303, count=200000)
    return cfg


def _pulse_span_overflows(cfg):
    # finite pulse times whose differences overflow
    cfg["splitting_pulse"]["time_s"] = -1e308
    for i, arr in enumerate(cfg["pulse_arrays"]):
        arr.update(start_s=(1.0 + 0.1 * i) * 1e308, interval_s=1e300)
    return cfg


def _oscillator_length_inf(cfg):
    cfg["condensate"].update(mass_kg=1e-300, trap_frequency_rad_per_s=1e-300)
    return cfg


def _photon_energy_zero(cfg):
    cfg["transition"]["wavelength_m"] = 1e300
    return cfg


@pytest.mark.parametrize("mutate, message", [
    (_spectrum_too_wide,
     "spectrum: 3.2e+10 grid points exceed the limit of 4000001"),
    (_split_before_launch, "splitting_pulse.time_s: must be >= 0"),
    (lambda cfg: [cfg], "configuration root must be a JSON object"),
    (_arrays_out_of_order, "pulse_arrays[1].start_s: pulse times must be "
     "strictly increasing (splitting pulse first)"),
    (_last_pulse_overflows, "pulse_arrays[1].interval_s: the last of 200000 "
     "pulses lands at a time beyond the float range"),
    (_pulse_span_overflows, "splitting_pulse.time_s: must be >= 0"),
    (_oscillator_length_inf, "condensate: oscillator length "
     "sqrt(hbar / (m omega)) is inf for m = 1e-300 kg, omega = 1e-300 rad/s"),
    (_photon_energy_zero, "transition.wavelength_m: photon energy at "
     "wavelength 1e+300 m underflows to 0"),
], ids=["spectrum-grid", "negative-split-time", "list-root",
        "pulse-order", "last-pulse-overflow", "pulse-span-overflow",
        "oscillator-length", "photon-energy"])
def test_main_refusal_messages(tmp_path, capsys, mutate, message):
    path = _write_config(tmp_path, mutate(reduced_scale_config()))
    code = main(["run", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_oracle_cross_check_refuses_incommensurate_encounter():
    cfg = reduced_scale_config()
    cfg["pulse_arrays"][1]["start_s"] = 5.1e-4
    with pytest.raises(ConfigError) as err:
        oracle_cross_check(cfg)
    assert str(err.value) == (
        "encounter time is not a multiple of time_step; pick a scenario "
        "with commensurate pulse timing")


def test_main_presets_listing(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out == sorted(PRESETS)


def test_main_presets_dump(capsys):
    assert main(["presets", "--preset", "paper-0.6pi"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == preset_config("paper-0.6pi")


def test_presets_command_imports_no_numpy():
    # listing or dumping a preset needs no numerics, so it must not pay
    # the numpy import; this checks structure, not timing
    import qbackflow
    script = ("import sys\n"
              "from qbackflow.cli import main\n"
              "assert main(['presets']) == 0\n"
              "assert main(['presets', '--preset', 'paper-0.6pi']) == 0\n"
              "print(sorted(m for m in sys.modules if 'numpy' in m))\n")
    src = os.path.dirname(os.path.dirname(qbackflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_run_command_imports_neither_sweep_nor_oracle(tmp_path):
    # a run needs neither the sweep engine nor the validation propagator;
    # this checks structure, not timing
    import qbackflow
    script = ("import sys\n"
              "from qbackflow.cli import main\n"
              "assert main(['run', '--preset', 'paper-0.6pi', '--out-dir', "
              f"{str(tmp_path)!r}]) == 0\n"
              "print(sorted(m for m in ('qbackflow.sweep', 'qbackflow.oracle')"
              " if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(qbackflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_main_unknown_preset(capsys):
    assert main(["presets", "--preset", "nope"]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["presets", "run"])
def test_main_unknown_preset_message(capsys, command):
    assert main([command, "--preset", "nope"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "configuration error: unknown preset 'nope'; available: "
        "paper-0.6pi, paper-0.75pi, paper-fig8a, paper-fig8b\n")


def test_main_validate(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[ok]") == 3

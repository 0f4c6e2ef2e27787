import json
import math
import os

import pytest

from qbackflow.cli import (
    EXIT_OK,
    EXIT_PIPELINE,
    EXIT_VALIDATION,
    ConfigError,
    build_state,
    main,
    parse_config,
    run_scenario,
    run_sweep,
)
from qbackflow.presets import PRESETS, preset_config, reduced_scale_config


# -- config validation -----------------------------------------------------

def test_parse_config_roundtrip():
    sc = parse_config(reduced_scale_config())
    assert sc.weights.c_b == math.cos(0.3 * math.pi)
    assert sc.pulses.tolist() == [
        [0.0, 1.0, 0.0], [2e-4, -1.0, 0.0], [2e-4 + 5e-5, -1.0, 0.0],
        [2e-4 + 2 * 5e-5, -1.0, 0.0]] + [
        [5e-4 + j * 5e-5, 1.0, 0.0] for j in range(5)]
    assert sc.encounter_time is None
    assert sc.raw == reduced_scale_config()


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


def test_unknown_preset_raises_keyerror_with_listing():
    with pytest.raises(KeyError, match="paper-0.6pi"):
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


def test_main_invalid_config_exits_2(tmp_path, capsys):
    cfg = reduced_scale_config()
    del cfg["splitting_pulse"]
    path = _write_config(tmp_path, cfg)
    code = main(["run", "--config", path, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "configuration error" in capsys.readouterr().err


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
])
def test_main_rejects_bad_optional_keys(tmp_path, capsys, path, value):
    cfg = reduced_scale_config()
    cfg["sweep"] = {"variable": "real_cb", "range": [0.0, 1.0],
                    "n_samples": 5}
    cfg["encounter"]["time_s"] = 1e-3
    section, key = path.split(".")
    if key.startswith("range["):
        cfg[section]["range"][int(key[6])] = value
    else:
        cfg[section][key] = value
    code = main(["run", "--config", _write_config(tmp_path, cfg),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert path in capsys.readouterr().err


def test_main_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_VALIDATION
    code = main(["run"])   # neither --config nor --preset
    assert code == EXIT_VALIDATION


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


def test_main_presets_listing(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out == sorted(PRESETS)


def test_main_presets_dump(capsys):
    assert main(["presets", "--preset", "paper-0.6pi"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == preset_config("paper-0.6pi")


def test_main_unknown_preset(capsys):
    assert main(["presets", "--preset", "nope"]) == EXIT_VALIDATION


def test_main_validate(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[ok]") == 3

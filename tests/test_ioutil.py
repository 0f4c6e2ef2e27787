import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbackflow.cli import run_scenario, run_sweep
from qbackflow.ioutil import (CSV_CHUNK_ROWS, atomic_write_bytes,
                              atomic_write_text, csv_text)
from qbackflow.presets import PRESETS, preset_config, reduced_scale_config


def _per_cell(header, columns):
    """The reference: each cell formatted on its own by Python."""
    rows = zip(*(np.asarray(c, float).tolist() for c in columns))
    return header + "\n" + "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                                   for row in rows)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        path = tmp_path / "report.json"
        atomic_write_text(str(path), "{}\n")
        atomic_write_text(str(path), "{}\n")    # replacing keeps the rule
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_atomic_write_failure_keeps_target(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")

    def writer(fh):
        fh.write(b"half a rep")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(str(path), writer)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("rows", [0, 1, 13])   # 13: every special value
def test_csv_text_matches_per_cell_format(rows):
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300,
               1e-300, -1e-300, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0]
    rng = np.random.default_rng(rows)
    columns = [rng.permutation(special)[:rows] for _ in range(3)]
    expected = "a,b,c\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n"
                                   for a, b, c in zip(*columns))
    assert csv_text("a,b,c", columns) == expected


_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, np.uint64).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.lists(st.one_of(_bits, st.floats()),
                                   max_size=120))
def test_csv_text_matches_per_cell_format_on_any_float(m, cells):
    columns = list(np.array(cells[:len(cells) // m * m]).reshape(-1, m).T)
    header = ",".join("abcd"[:m])
    assert csv_text(header, columns) == _per_cell(header, columns)


def _powers_of_ten():
    # float("1e{k}") is the double nearest 10^k
    p = np.array([float(f"1e{k}") for k in range(-100, 18)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                           [float(f"5e{k}") for k in range(-100, 18)]])


def test_csv_text_at_powers_of_ten():
    cells = _powers_of_ten()
    columns = [cells, -cells, np.roll(cells, 1)]
    assert csv_text("a,b,c", columns) == _per_cell("a,b,c", columns)


@pytest.mark.parametrize("shift", [-0.3, 0.3])
def test_csv_text_corrects_an_exponent_log10_misses(monkeypatch, shift):
    # a log10 that misses by up to a decade: the exact product sets the
    # exponent, whichever way it is off
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(7)
    columns = [_powers_of_ten(), rng.uniform(0, 1, 472) * 10.0 ** rng.integers(
        -100, 18, 472)]
    assert csv_text("a,b", columns) == _per_cell("a,b", columns)


@pytest.mark.parametrize("x, text", [
    # the double nearest 1e-6 lies below it; its 17-digit product at
    # 10^22 rounds to 1e16, so the exponent must come from the exact value
    (1e-6, "9.9999999999999995e-07"),
    (2.0 ** -25, "2.9802322387695312e-08"),    # ...3125: a tie, to even
    (-0.0, "-0"), (0.0, "0"), (1e16, "10000000000000000"),
    (1e17, "1e+17"), (0.0001, "0.0001"), (1e-5, "1.0000000000000001e-05")])
def test_csv_text_known_cells(x, text):
    assert f"{x:.17g}" == text
    assert csv_text("x", [np.array([x])]) == f"x\n{text}\n"


@pytest.mark.parametrize("rows", [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                  CSV_CHUNK_ROWS + 1])
def test_csv_text_chunk_edges(rows):
    rng = np.random.default_rng(rows)
    scaled = rng.uniform(-1, 1, rows) * 10.0 ** rng.integers(-110, 20, rows)
    special = rng.choice([np.nan, np.inf, 0.0, -0.0, 1e-300], rows)
    columns = [scaled, np.where(rng.random(rows) < 0.1, special, scaled[::-1]),
               np.arange(rows) * 0.1]
    assert csv_text("a,b,c", columns) == _per_cell("a,b,c", columns)


def test_every_csv_artifact_cell_is_17g_text(tmp_path):
    # the text of every cell is the "%.17g" text of the float it reads as
    for name in sorted(PRESETS):
        run_scenario(preset_config(name), out_dir=str(tmp_path / name))
    run_scenario(reduced_scale_config(), out_dir=str(tmp_path / "reduced"))
    for name in ("paper-fig8a", "paper-fig8b"):
        run_sweep(preset_config(name), out_dir=str(tmp_path / f"{name}-sweep"))
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert len(paths) == 2 * 5 + 2
    for path in paths:
        lines = path.read_text().splitlines()
        cells = [c for line in lines[1:] for c in line.split(",")]
        assert len(lines) > 10 and cells
        bad = [c for c in cells if c != "%.17g" % float(c)]
        assert not bad, (path, bad[:5])

import os
import stat

import numpy as np
import pytest

from qbackflow.ioutil import atomic_write_bytes, atomic_write_text, csv_text


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

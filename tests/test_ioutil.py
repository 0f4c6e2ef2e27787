import os
import stat

import pytest

from qbackflow.ioutil import atomic_write_text


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

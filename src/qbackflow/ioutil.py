"""Atomic file writing: temp file in the target directory, then rename."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, writer) -> None:
    """Call writer(binary_file) on a temp file, then rename into place.

    mkstemp creates the temp file as 0600; it is given the mode a plain
    open() would, 0666 less the umask, before it replaces path.
    """
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(fh.fileno(), 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, lambda fh: fh.write(text.encode()))

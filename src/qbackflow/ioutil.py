"""Artifact writing: CSV text, and atomic writes through a temp file in
the target directory that is then renamed into place."""

from __future__ import annotations

import os
import tempfile

import numpy as np


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


def csv_text(header: str, columns) -> str:
    """Equal-length float columns as CSV text under a header line.

    Every cell is %.17g of the float, the text f"{x:.17g}" gives, so the
    values read back exactly; one % format fills the whole body.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cells = tuple(np.column_stack(columns).ravel().tolist())
    return header + "\n" + (row * len(columns[0])) % cells

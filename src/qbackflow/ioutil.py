"""Artifact writing: CSV text, and atomic writes through a temp file in
the target directory that is then renamed into place.

Every CSV cell is the text "%.17g" gives its float, so a cell reads back
as exactly that float.  numpy makes the digits of the cells with
1e-99 <= |x| < 1e17, and of the zeros:

* With X = floor(log10 |x|) and k = 16 - X, the 17 significant digits
  of x are the integer nearest x·10^k, in [1e16, 1e17).  10^k is held
  as the double-double H + L, H = float(10^k) and L = float(10^k - H)
  (L = 0 for k <= 22, where 10^k is an exact double).
* ``phaseacc.two_prod`` gives |x|·H exactly as hi + lo.  With
  r = lo + |x|·L, the exact x·10^k is hi + r to within 1e-14: the
  product |x|·L and the sum each round by less than 2e-15, and the part
  of 10^k below H + L adds less than 2e-15.  hi >= 1e16 > 2^53 is an
  even integer, so D = int64(hi) + rint(r) rounds x·10^k to nearest
  with ties to even, as "%.17g" does.
* r is inexact, so a cell whose r lies within 1e-9 of a half-integer
  is formatted by Python instead; so are the exact ties, such as
  2^-25·10^24 = 29802322387695312.5.
* log10 can miss the exponent by one, and D cannot tell: the double
  nearest 1e-6 lies just below it, and at k = 22 its product rounds to
  hi = 1e16 with r < 0, so D = 1e16 would print "1e-06" for
  "9.9999999999999995e-07".  So X is checked on the exact value: it is
  too large when (hi - 1e16) + r < 0 and too small when
  (hi - 1e17) + r >= 0.  Near each bound the difference is exact, so
  the sum has the sign of the exact one unless that lies within 1e-14
  of the bound, where either exponent gives the same text.  Such cells
  are redone once with X -/+ 1.  A D that rounds up to 1e17 is 1e16
  with X + 1.

The text of a cell then follows "%g": fixed notation for -4 <= X < 17,
d.ddd e-XX below that, trailing zeros and a bare point dropped.  Each
cell's bytes sit in a column of one slot matrix, with zero bytes as
filler that ``bytes.translate`` deletes.  nan, ±inf, |x| < 1e-99,
|x| >= 1e17 and the near-ties go through one Python "%-24.17g" format.
"""

from __future__ import annotations

import functools
import os
import tempfile

import numpy as np

from .phaseacc import two_prod

CSV_CHUNK_ROWS = 2048   # bounds the per-cell temporaries

# slot rows of a cell: sign, "0.000", 17 x (digit, point), "e-XX", separator
_DIGIT, _EXP, _SEP = 6, 40, 44


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
    values read back exactly (see the module docstring).
    """
    cells = np.column_stack(columns).astype(float, copy=False)
    seps = np.frombuffer(b"," * (cells.shape[1] - 1) + b"\n", np.uint8)
    return header + "\n" + b"".join(
        _cells_bytes(cells[i:i + CSV_CHUNK_ROWS].ravel(), seps)
        for i in range(0, len(cells), CSV_CHUNK_ROWS)).decode()


@functools.cache
def _tables():
    """10^k as H + L for k = 0..115; 0000..9999 and e-00..e-99 as ASCII
    uint32s; per four digits, 1 + the index of the last nonzero one."""
    powers = [10 ** k for k in range(116)]
    hi = np.array(powers, float)
    lo = np.array([p - int(h) for p, h in zip(powers, hi.tolist())], float)
    g = np.arange(10000)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - 13 * (g == 0)
    exps = b"".join(b"e-%02d" % e for e in range(100))
    return (hi, lo, (quads + 48).astype(np.uint8).view(np.uint32)[:, 0],
            np.frombuffer(exps, np.uint32), sig)


def _cells_bytes(v, seps):
    """The "%.17g" text of each cell of v, each followed by its separator
    from seps (cycled), as bytes."""
    hi_t, lo_t, quads, exps, sig = _tables()
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-99) & (a < 1e17)     # exact exponents -99..16
    a[~fast] = 1.0
    x = np.clip(np.floor(np.log10(a)), -99, 16).astype(np.int64)
    d, ok, todo = np.empty(n, np.int64), fast, slice(None)
    for _ in range(2):                   # again where log10 missed by one
        at, k = a[todo], 16 - x[todo]
        hi, lo = two_prod(at, hi_t[k])
        r = lo + at * lo_t[k]
        rounded = np.rint(r)
        d[todo] = hi.astype(np.int64) + rounded.astype(np.int64)
        ok[todo] &= np.abs(np.abs(r - rounded) - 0.5) >= 1e-9
        below, above = (hi - 1e16) + r < 0, (hi - 1e17) + r >= 0
        x[todo] += above.astype(np.int64) - below
        todo = np.arange(n)[todo][below | above]
    ok[todo] = False
    d[v == 0], ok[v == 0] = 0, True      # x is 0 there, from a = 1
    up = d == 10 ** 17
    d[up], x[up] = 10 ** 16, x[up] + 1
    lead = d // 10 ** 16
    g = np.stack(np.divmod(d // 10 ** 8 % 10 ** 8, 10 ** 4)
                 + np.divmod(d % 10 ** 8, 10 ** 4))
    ndig = np.maximum((sig[g] + [[1], [5], [9], [13]]).max(0), x + 1)
    s = np.zeros((_SEP + 1, n), np.uint8)
    s[0] = np.signbit(v) * ord("-")
    s[1:_DIGIT] = np.frombuffer(b"0.000", np.uint8)[:, None] * (
        np.arange(5)[:, None] < np.where((x < 0) & (x >= -4), 1 - x, 0))
    s[_DIGIT] = lead + ord("0")
    s[_DIGIT + 2:_EXP].reshape(4, 4, 2, n)[:, :, 0] = (
        quads[g].view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1))
    s[_DIGIT:_EXP:2] *= np.arange(17)[:, None] < ndig
    p = np.where(x < -4, 0, x)           # the digit the point follows
    pt = np.flatnonzero((p >= 0) & (ndig > p + 1))
    s.reshape(-1)[(_DIGIT + 1 + 2 * p[pt]) * n + pt] = ord(".")
    sci = np.flatnonzero(x < -4)
    s[_EXP:_SEP, sci] = exps[-x[sci]].view(np.uint8).reshape(-1, 4).T
    s[_SEP].reshape(-1, seps.size)[:] = seps
    bad = np.flatnonzero(~ok)            # nan, inf, out of range, near-ties
    text = ("%-24.17g" * bad.size) % tuple(v[bad].tolist())
    t = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24).T
    s[:_SEP, bad] = 0
    s[:24, bad] = (t != ord(" ")) * t
    return s.T.tobytes().translate(None, b"\0")

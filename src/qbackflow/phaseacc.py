"""Extended-precision phase bookkeeping.

Interferometer phases accumulate to ~1e6 rad (actions) and ~1e13 rad
(optical internal-state evolution) before differences of order unity are
taken.  Plain float64 keeps only ~1e-3 rad of a 1e13 rad total, which
would wreck the fringe position.  Everything here therefore runs on
unevaluated double-double pairs (hi, lo) with hi + lo exact to ~1e-32
relative, built from the classic error-free transformations (two_sum,
Dekker split / two_prod).  Reduction mod 2 pi happens only at the very
end, when a phase becomes the argument of a complex exponential.

The error-free transformations and the DoubleDouble arithmetic are
branch-free, so hi and lo may also be numpy arrays of one shape: every
operation except ``mod_two_pi`` then acts elementwise, with the same
rounding as the scalar code.  kinematics evaluates a whole pulse
array's segment phases this way and reduces each ledger with
:func:`fsum_dd`.
"""

from __future__ import annotations

import math
from itertools import chain

_SPLITTER = 134217729.0  # 2**27 + 1

# 2*pi to double-double precision.
TWO_PI_HI = 6.283185307179586
TWO_PI_LO = 2.4492935982947064e-16


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class DoubleDouble:
    """Immutable hi+lo float pair; the handful of ops the phase math needs."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        s, e = two_sum(hi, lo)
        object.__setattr__(self, "hi", s)
        object.__setattr__(self, "lo", e)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("DoubleDouble is immutable")

    @staticmethod
    def from_product(a: float, b: float) -> "DoubleDouble":
        return DoubleDouble(*two_prod(a, b))

    def add(self, other: "DoubleDouble") -> "DoubleDouble":
        s, e = two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        return DoubleDouble(s, e)

    def add_float(self, x: float) -> "DoubleDouble":
        s, e = two_sum(self.hi, x)
        e += self.lo
        return DoubleDouble(s, e)

    def mul_float(self, x: float) -> "DoubleDouble":
        p, e = two_prod(self.hi, x)
        e += self.lo * x
        return DoubleDouble(p, e)

    def div_float(self, x: float) -> "DoubleDouble":
        q1 = self.hi / x
        p, e = two_prod(q1, x)
        # remainder = self - q1*x, evaluated in double-double
        s, f = two_sum(self.hi, -p)
        f += self.lo - e
        q2 = (s + f) / x
        return DoubleDouble(q1, q2)

    def neg(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def value(self) -> float:
        return self.hi + self.lo

    def mod_two_pi(self) -> float:
        """Reduce to (-pi, pi]; exact up to ~1e-18 rad for |phase| < 1e15."""
        n = round(self.value() / TWO_PI_HI)
        if n == 0:
            return self.value()
        p1, e1 = two_prod(float(n), TWO_PI_HI)
        p2, e2 = two_prod(float(n), TWO_PI_LO)
        s, e = two_sum(self.hi, -p1)
        e += self.lo - e1 - p2 - e2
        r = s + e
        if r > math.pi:
            r -= TWO_PI_HI
        elif r <= -math.pi:
            r += TWO_PI_HI
        return r

    def __repr__(self):  # pragma: no cover
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"


ZERO = DoubleDouble()


def product(*factors: float) -> DoubleDouble:
    """Double-double product of plain floats, left to right."""
    if not factors:
        return DoubleDouble(1.0)
    if len(factors) == 1:
        return DoubleDouble(factors[0])
    acc = DoubleDouble.from_product(factors[0], factors[1])
    for f in factors[2:]:
        acc = acc.mul_float(f)
    return acc


def fsum_dd(terms: list[float]) -> DoubleDouble:
    """Double-double sum of many floats, accurate to ~2**-106 relative.

    math.fsum rounds the exact sum once; a second pass with that total
    subtracted returns the remainder, itself correctly rounded.  This is
    an accurate sum in twice the working precision in the sense of
    Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005).
    """
    hi = math.fsum(terms)
    return DoubleDouble(hi, math.fsum(chain(terms, (-hi,))))

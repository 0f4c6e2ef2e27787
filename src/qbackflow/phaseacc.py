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
rounding as the scalar code.  kinematics reduces a whole pulse array's
ledger rows at once with :func:`sum_products_dd`.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DomainError

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

    def add(self, other: "DoubleDouble") -> "DoubleDouble":
        s, e = two_sum(self.hi, other.hi)
        e += self.lo + other.lo
        return DoubleDouble(s, e)

    def mul_float(self, x: float) -> "DoubleDouble":
        p, e = two_prod(self.hi, x)
        e += self.lo * x
        return DoubleDouble(p, e)

    def div_float(self, x: float) -> "DoubleDouble":
        # A dividend below 2^-900 is scaled up by an exact 2^600 first, or
        # the remainder's two_prod error term falls into the subnormals;
        # up is 1.0 otherwise, so normal-range results are unchanged.
        up = 1.0 + (abs(self.hi) < 2.0 ** -900) * (2.0 ** 600 - 1.0)
        hi = self.hi * up
        q1 = hi / x
        p, e = two_prod(q1, x)
        # remainder = self - q1*x, evaluated in double-double
        s, f = two_sum(hi, -p)
        f += self.lo * up - e
        q2 = (s + f) / x
        return DoubleDouble(q1 / up, q2 / up)

    def neg(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def value(self) -> float:
        return self.hi + self.lo

    def mod_two_pi(self) -> float:
        """Reduce to (-pi, pi]; exact up to ~1e-18 rad for |phase| < 1e15."""
        if not math.isfinite(self.value()):
            raise DomainError(f"phase {self.value()} rad is not finite")
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


def product(*factors: float) -> DoubleDouble:
    """Double-double product of two or more plain floats, left to right."""
    acc = DoubleDouble(*two_prod(factors[0], factors[1]))
    for f in factors[2:]:
        acc = acc.mul_float(f)
    return acc


def sum_products_dd(rows) -> tuple[np.ndarray, np.ndarray]:
    """Double-double sums of rows of products, each row a tuple of one to
    three float arrays of length n >= 1: the sums' hi and lo arrays.

    two_prod forms the products, unnormalised.  All rows are summed at
    once, pairwise (an odd level keeps its middle column): the hi parts
    by two_sum, its exact errors and the lo parts in floats, as in Sum2
    of Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005).  A sum
    is off by at most (2 d (d + 2) + 3) u^2 times its row's sum of
    |products|, d = ceil(log2 n), u = 2**-53; one that is not finite
    comes back as inf or NaN.
    """
    n = len(rows[0][0])
    hi, lo, tmp = np.empty((3, n, len(rows)))
    for i, (product_hi, *factors) in enumerate(rows):
        product_lo = 0.0
        for f in factors:
            product_hi, e = two_prod(product_hi, f)
            product_lo = product_lo * f + e
        hi[:, i], lo[:, i] = product_hi, product_lo
    while n > 1:    # two_sum in place: temporaries cost more than the adds
        h = (n + 1) // 2
        a, b, s, bb = hi[:n - h], hi[h:n], tmp[:n - h], tmp[h:n]
        np.add(a, b, out=s)
        np.subtract(s, a, out=bb)
        b -= bb
        bb -= s
        a += bb                 # a - (s - bb)
        a += b                  # the exact error of s
        lo[:n - h] += lo[h:n]
        lo[:n - h] += a
        hi[:n - h] = s
        n = h
    return two_sum(hi[0], lo[0])

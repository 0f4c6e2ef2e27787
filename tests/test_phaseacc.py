import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from qbackflow.phaseacc import (
    TWO_PI_HI,
    TWO_PI_LO,
    DoubleDouble,
    fsum_dd,
    product,
    two_prod,
    two_sum,
)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e100, max_value=1e100)


@given(finite, finite)
def test_two_sum_error_free(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(st.floats(-1e70, 1e70), st.floats(-1e70, 1e70))
def test_two_prod_error_free(a, b):
    # error-free only while the product stays clear of underflow
    assume(a == 0.0 or b == 0.0 or abs(a * b) >= 1e-250)
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_two_pi_constants():
    # hi is round(2 pi), lo the residual, accurate to ~1e-32 relative.
    two_pi = Fraction(
        "6.283185307179586476925286766559005768394338798750211641949889185")
    assert TWO_PI_HI == 2.0 * math.pi
    assert abs(Fraction(TWO_PI_HI) + Fraction(TWO_PI_LO) - two_pi) < Fraction(
        1, 10**31)


@given(finite, finite)
def test_doubledouble_add_exact(a, b):
    d = DoubleDouble(a).add(DoubleDouble(b))
    exact = Fraction(a) + Fraction(b)
    got = Fraction(d.hi) + Fraction(d.lo)
    if exact == 0:
        assert got == 0
    else:
        assert abs((got - exact) / exact) < Fraction(1, 10**30)


@given(st.floats(-1e60, 1e60), st.floats(-1e60, 1e60))
def test_doubledouble_mul_float(a, b):
    assume(a == 0.0 or b == 0.0 or abs(a * b) >= 1e-250)
    d = DoubleDouble(a).mul_float(b)
    exact = Fraction(a) * Fraction(b)
    got = Fraction(d.hi) + Fraction(d.lo)
    if exact == 0:
        assert got == 0
    else:
        assert abs((got - exact) / exact) < Fraction(1, 10**30)


@given(st.floats(-1e60, 1e60),
       st.floats(-1e60, 1e60).filter(lambda x: abs(x) > 1e-60))
def test_doubledouble_div_float(a, b):
    assume(a == 0.0 or 1e-250 <= abs(a / b) <= 1e250)
    d = DoubleDouble(a).div_float(b)
    exact = Fraction(a) / Fraction(b)
    got = Fraction(d.hi) + Fraction(d.lo)
    if exact == 0:
        assert got == 0
    else:
        assert abs((got - exact) / exact) < Fraction(1, 10**30)


def test_product_chain():
    d = product(3.0, 7.0, 1.0 / 3.0)
    assert d.value() == pytest.approx(7.0, rel=1e-30)


@given(st.lists(st.floats(-1e20, 1e20), min_size=0, max_size=50))
@example([3.380031572320693e16] + [3.602879701896392e16] * 4
         + [1.8030769922807245e-139])
def test_fsum_dd_is_exact_to_double_double(terms):
    # hi + lo carries the exact sum to within a rounding of the remainder
    total = fsum_dd(terms)
    exact = sum(map(Fraction, terms), Fraction(0))
    assert abs(Fraction(total.hi) + Fraction(total.lo) - exact) <= (
        Fraction(math.ulp(total.hi)) * Fraction(2) ** -52)


@given(st.lists(st.tuples(st.floats(-1e30, 1e30), st.floats(-1e30, 1e30),
                          st.floats(0.5, 1e10)), min_size=1, max_size=20))
def test_array_operands_act_elementwise(rows):
    # kinematics evaluates whole pulse arrays through the same code; the
    # rounding must equal the scalar evaluation bit for bit.
    a, b, c = (np.array(col) for col in zip(*rows))
    arr = product(a, b).add(DoubleDouble(c).neg()).div_float(3.0).mul_float(c)
    for i, (x, y, z) in enumerate(rows):
        one = product(x, y).add(DoubleDouble(z).neg()).div_float(3.0).mul_float(z)
        assert (arr.hi[i], arr.lo[i]) == (one.hi, one.lo)


def test_mod_two_pi_small_values():
    assert DoubleDouble(0.25).mod_two_pi() == 0.25
    assert DoubleDouble(-0.25).mod_two_pi() == -0.25
    # interval is (-pi, pi]
    r = DoubleDouble(math.pi + 1e-3).mod_two_pi()
    assert r == pytest.approx(1e-3 - math.pi, abs=1e-15)


def test_mod_two_pi_huge_phase():
    # N * 2pi + 0.3 for N = 1e12 reduces back to 0.3; a plain float64
    # carries only ~1e-3 rad of precision at this magnitude.
    n = 1.0e12
    phase = product(n, TWO_PI_HI).add(product(n, TWO_PI_LO)).add_float(0.3)
    assert phase.mod_two_pi() == pytest.approx(0.3, abs=1e-9)


def test_ledger_difference_before_reduction():
    # Two ledgers near 1e13 rad differing by exactly 1.0 rad.
    a = product(1.6e12, TWO_PI_HI).add(product(1.6e12, TWO_PI_LO))
    b = a.add_float(1.0)
    assert b.add(a.neg()).value() == pytest.approx(1.0, abs=1e-12)


def test_immutability():
    d = DoubleDouble(1.0)
    with pytest.raises(AttributeError):
        d.hi = 2.0

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import fsum_dd
from qbackflow.model import DomainError
from qbackflow.phaseacc import (
    TWO_PI_HI,
    TWO_PI_LO,
    DoubleDouble,
    product,
    sum_products_dd,
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
@example(1.0388860654221522e-302, 1.8285646239548893e-58)
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


@pytest.mark.parametrize("terms", [[math.inf, -math.inf], [math.inf, 1.0],
                                   [1e308, 1e308], [math.nan, 1.0]])
def test_fsum_dd_of_a_non_finite_sum_is_not_finite(terms):
    # math.fsum raises on inf - inf and on overflow; a trajectory's
    # ledger is summed here and refused only when it is reduced mod 2 pi
    assert not math.isfinite(fsum_dd(terms).value())


def _sum_bound(n: int) -> float:
    """sum_products_dd's bound, (2 d (d + 2) + 3) u^2 with d =
    ceil(log2 n), plus 2 u^2 for rounding the fsum_dd reference."""
    d = (n - 1).bit_length()
    return (2 * d * (d + 2) + 5) * 2.0 ** -106


def _assert_sums_near_exact(rows):
    """Each row's sum within _sum_bound of the exact sum, relative to the
    row's sum of |products|.  two_prod splits each product exactly into
    floats (no factor here is small enough to underflow), and fsum_dd
    sums them."""
    sum_hi, sum_lo = sum_products_dd(rows)
    for factors, got_hi, got_lo in zip(rows, sum_hi, sum_lo):
        parts = [factors[0]]
        for f in factors[1:]:
            parts = [q for p in parts for q in two_prod(p, f)]
        exact = fsum_dd(np.concatenate(parts).tolist())
        size = float(np.abs(np.prod(factors, axis=0)).sum())
        gap = abs(Fraction(got_hi) + Fraction(got_lo)
                  - Fraction(exact.hi) - Fraction(exact.lo))
        assert gap <= Fraction(_sum_bound(len(factors[0])) * size)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 1023, 4096,
                               8012])
def test_sum_products_dd_is_near_the_exact_sum(n):
    # Measured: at most 2.7 u^2 of a row's sum of |products| here, and
    # 7.2 u^2 on 3,000 random rows of up to 200 columns, against the
    # bound of 393 u^2 at 8,012 columns.
    rng = np.random.default_rng(n)
    mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    # heavy cancellation: pairs x, -x (1 + 2**-40) leave a tiny exact sum
    half = rng.standard_normal((n + 1) // 2) * 1e12
    cancel = np.concatenate([half, -half * (1.0 + 2.0 ** -40)])[:n]
    cancel = cancel[rng.permutation(n)]
    spread = rng.uniform(0.5, 2.0, (3, n))
    _assert_sums_near_exact([
        (mixed,), (cancel,), (mixed, spread[0]), (cancel, spread[0]),
        (mixed, spread[0], spread[1]), (cancel, spread[1], spread[2]),
        (np.full(n, 0.1), spread[2], spread[2]), (np.zeros(n), spread[0])])


_factor = st.one_of(st.just(0.0), st.floats(1e-60, 1e60),
                    st.floats(-1e60, -1e-60))


@given(st.lists(st.tuples(_factor, _factor, _factor), min_size=1,
                max_size=70))
def test_sum_products_dd_of_any_rows(columns):
    a, b, c = (np.array(col) for col in zip(*columns))
    _assert_sums_near_exact([(a,), (a, b), (a, b, c), (c[::-1], b, a)])


@pytest.mark.parametrize("row", [[math.inf, -math.inf], [math.inf, 1.0],
                                 [-math.inf, 2.0, 3.0], [1e308, 1e308, -1.0],
                                 [math.nan, 1.0, 2.0]])
def test_sum_products_dd_of_a_non_finite_sum_is_refused(row):
    # Overflow and inf - inf warn in numpy; kinematics reduces its rows
    # under np.errstate, and refuses the phase when it is reduced mod 2 pi.
    finite = np.arange(len(row), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = sum_products_dd([(finite,), (np.array(row),)])
    assert hi[0] + lo[0] == math.fsum(finite)
    phase = DoubleDouble(hi[1], lo[1])
    assert not math.isfinite(phase.value())
    with pytest.raises(DomainError, match="not finite"):
        phase.mod_two_pi()


@given(st.lists(st.tuples(st.floats(-1e30, 1e30), st.floats(-1e30, 1e30),
                          st.floats(0.5, 1e10)), min_size=1, max_size=20))
def test_array_operands_act_elementwise(rows):
    # The arithmetic on arrays must round as the scalar evaluation does,
    # bit for bit.
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
    # +-3 pi / 2 pi = +-1.5 rounds to +-2, so the remainder lands on
    # the far side of +-pi and wraps back
    for phase, wrapped in ((3.0 * math.pi, math.pi),
                           (-3.0 * math.pi, -math.pi)):
        r = DoubleDouble(phase).mod_two_pi()
        assert -math.pi < r <= math.pi
        assert r == pytest.approx(wrapped, abs=1e-15)


def test_mod_two_pi_huge_phase():
    # N * 2pi + 0.3 for N = 1e12 reduces back to 0.3; a plain float64
    # carries only ~1e-3 rad of precision at this magnitude.
    n = 1.0e12
    phase = (product(n, TWO_PI_HI).add(product(n, TWO_PI_LO))
             .add(DoubleDouble(0.3)))
    assert phase.mod_two_pi() == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("hi, lo", [(math.inf, 0.0), (math.inf, -math.inf),
                                    (math.nan, 0.0)])
def test_mod_two_pi_rejects_nonfinite_phase(hi, lo):
    with pytest.raises(DomainError, match="not finite"):
        DoubleDouble(hi, lo).mod_two_pi()


def test_ledger_difference_before_reduction():
    # Two ledgers near 1e13 rad differing by exactly 1.0 rad.
    a = product(1.6e12, TWO_PI_HI).add(product(1.6e12, TWO_PI_LO))
    b = a.add(DoubleDouble(1.0))
    assert b.add(a.neg()).value() == pytest.approx(1.0, abs=1e-12)


def test_immutability():
    d = DoubleDouble(1.0)
    with pytest.raises(AttributeError):
        d.hi = 2.0

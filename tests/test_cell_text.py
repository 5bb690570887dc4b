"""grid's cell formatter: gridsplit._cell_text writes the bytes of
"%.{D}g" % v for every double v and every D, through its long-double fast
path where that decides and through "%" elsewhere.  Each case compares the
formatter's text with "%" itself, value by value.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htaspec import gridsplit

FAST = gridsplit._EPS < np.finfo(np.float64).eps  # a long double wider than the double
needs_fast = pytest.mark.skipif(not FAST, reason="the long double is the double: every value takes %")


def texts(values, digits):
    """The formatter's text of each value, NUL bytes dropped."""
    text = gridsplit._cell_text(np.array(values, dtype=np.float64), digits).copy()
    text[:, -1] = 10  # each row's last byte is free: a line end here
    return text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def expect(values, digits):
    return [f"%.{digits}g" % v for v in values]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40), st.integers(1, 17))
def test_any_double_any_digits(values, digits):
    assert texts(values, digits) == expect(values, digits)


@pytest.mark.parametrize("digits", [17, 16, 6, 1])
def test_random_bit_patterns(digits):
    # every double is as likely as every other: mostly far exponents, with
    # NaNs, infinities and subnormals among them
    rng = np.random.default_rng(20261022 + digits)
    values = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64).tolist()
    got = texts(values, digits)
    wrong = [(v, g, e) for v, g, e in zip(values, got, expect(values, digits)) if g != e]
    assert wrong == []


PINNED = [
    # floor(log10 |v|) reads 23 for 1e23 (99999999999999991611392): the
    # exponent is corrected once, and the product rounds to 16 nines, not 1e+23
    (1e23, 16),
    # the product lands on 10^(D-1) (1e17 is exact; the first spelling rounds to it)
    (9.9999999999999999e16, 17),
    (1e17, 17),
    (np.nextafter(1e17, 0.0), 17),
    # an exact tie, rounded to even by "%": 1e+05
    (99999.5, 5),
    # the ends of the double range, subnormal and largest finite
    (5e-324, 17),
    (5e-324, 1),
    (1.7976931348623157e308, 17),
    (1.7976931348623157e308, 1),
    (-1.7976931348623157e308, 6),
    # fixed and scientific notation switch between 0.0001 and 1e-05
    (1e-05, 17),
    (1e-05, 6),
    (0.0001, 17),
    (0.0001, 6),
    (-0.00012345, 3),
    # fixed notation with integer digits, zeros among them
    (1000.0, 17),
    (120000.0, 6),
    (1200.5, 6),
    (123456.0, 6),
    (1234567.0, 6),
    # "%" writes these
    (-0.0, 17),
    (0.0, 6),
    (-math.nan, 17),
    (math.nan, 6),
    (-math.inf, 17),
    (math.inf, 1),
]


@pytest.mark.parametrize("value, digits", PINNED, ids=[f"{v!r}-{d}" for v, d in PINNED])
def test_pinned(value, digits):
    assert texts([value], digits) == expect([value], digits)


@pytest.mark.parametrize("digits", [18, 25])
def test_more_than_17_digits_all_take_percent(digits, monkeypatch):
    monkeypatch.setattr(gridsplit, "_tables", lambda: pytest.fail("the fast path ran"))
    values = [0.1, -2.5e-300, 1e23, 5e-324, math.nan, -0.0]
    assert texts(values, digits) == expect(values, digits)


def test_long_double_as_narrow_as_the_double_takes_percent(monkeypatch):
    # where the long double is the double, eps = 2^-52: no element is decided
    monkeypatch.setattr(gridsplit, "_EPS", np.finfo(np.float64).eps)
    monkeypatch.setattr(gridsplit, "_tables", lambda: pytest.fail("the fast path ran"))
    rng = random.Random(7)
    values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(2000)] + [0.0, math.nan, math.inf]
    for digits in (1, 6, 17):
        assert texts(values, digits) == expect(values, digits)


@needs_fast
def test_powers_of_ten_are_correctly_rounded():
    # every 10^e the fast path can scale by, D from 1 to 17, |v| from the
    # least subnormal to the largest double, the exponent corrected once
    bits = np.finfo(np.longdouble).nmant
    for e in range(-310, 343):
        num, den = gridsplit._ten(e).as_integer_ratio()
        exact = Fraction(10) ** e
        # the binade of 10^e: 2^top <= 10^e < 2^(top + 1)
        top = exact.numerator.bit_length() - exact.denominator.bit_length()
        top -= Fraction(2) ** top > exact
        assert 2 * abs(Fraction(num, den) - exact) <= Fraction(2) ** (top - bits), e


@needs_fast
def test_fast_path_decides_most_values(monkeypatch):
    # "%" writes only zeros and the few values the bound leaves undecided:
    # at D = 17, 10^D eps is about 0.011, so about 2 % of fractions lie that
    # close to 1/2; the exponent of 1e23, which floor(log10) misreads, is
    # corrected rather than left to "%"
    seen = []
    percent = gridsplit._percent
    monkeypatch.setattr(gridsplit, "_percent", lambda v, digits: seen.extend(v.tolist()) or percent(v, digits))
    rng = np.random.default_rng(3)
    values = (rng.standard_normal(20000) * 10.0 ** rng.integers(-12, 3, 20000)).tolist() + [1e23, 1e-5, 0.0]
    assert texts(values, 17) == expect(values, 17)
    assert 0.0 in seen and 1e23 not in seen and 1e-5 not in seen
    assert len(seen) < 0.04 * len(values)
    seen.clear()
    assert texts([1e23], 16) == expect([1e23], 16) and seen == []

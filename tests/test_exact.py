import sys
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lacasse.exact import exact_str
from oracles import multinomial, str_unlimited


def test_multinomial_examples():
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([3, 0, 0]) == 1
    assert multinomial([2, 2, 1]) == 30  # 5!/(2! 2! 1!)


def test_multinomial_rejects_negative_part():
    with pytest.raises(ValueError):
        multinomial([2, -1, 3])


def _iterated_binomial_oracle(parts: list[int]) -> int:
    # peel parts off one at a time: C(total, p0) C(total-p0, p1) ...
    total = sum(parts)
    acc = 1
    for p in parts:
        acc *= comb(total, p)
        total -= p
    return acc


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_multinomial_equals_iterated_binomials(parts):
    assert multinomial(parts) == _iterated_binomial_oracle(parts)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda v: v != 0),
)
def test_rational_lowest_terms_positive_denominator(p, q):
    f = Fraction(p, q)
    assert f.denominator > 0
    assert gcd(f.numerator, f.denominator) == 1


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=1000),
)
def test_rational_scaling_invariance(p, q, m):
    assert Fraction(p, q) == Fraction(p * m, q * m)


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=999),
    st.fractions(min_value=-100, max_value=100, max_denominator=999),
)
def test_rational_sum_is_normalized(a, b):
    s = a + b
    assert gcd(s.numerator, s.denominator) == 1
    assert s.denominator > 0


# --- exact_str: str() within the int-to-str digit limit, Decimal past it --


@given(
    st.integers(min_value=0, max_value=30_000).flatmap(
        lambda bits: st.integers(min_value=-(2**bits), max_value=2**bits)
    )
)
def test_exact_str_is_str_with_the_limit_lifted(x):
    # up to about 9000 digits, so both sides of the 4300-digit default
    assert exact_str(x) == str_unlimited(x)


@pytest.mark.parametrize(
    "x",
    [10**4299, 10**4300 - 1, 10**4300, -(10**4300)],
    ids=["4300-digits-power", "4300-nines", "4301-digits", "4301-digits-negative"],
)
def test_exact_str_at_the_default_limit(x):
    assert exact_str(x) == str_unlimited(x)


def test_exact_str_where_str_converts_before_refusing():
    # CPython refuses an int of more than 480 30-bit digits (about 4335
    # decimal digits) from its size alone, but a shorter one past the limit
    # only after converting it whole, so here exact_str converts twice:
    # once in str(), once in Decimal
    x = 7**5100  # 4311 digits, 14318 bits
    assert 4301 <= len(str_unlimited(x)) <= 4340
    assert exact_str(x) == str_unlimited(x)
    assert exact_str(-x) == "-" + str_unlimited(x)


@pytest.mark.parametrize(
    "x, text",
    [
        (Fraction(12, 1), "12"),
        (Fraction(-12, 1), "-12"),
        (Fraction(0), "0"),
        (Fraction(-3, 4), "-3/4"),
        (Fraction(10**4300 + 1, 3), f"{str_unlimited(10**4300 + 1)}/3"),
    ],
    ids=["whole", "whole-negative", "zero", "negative", "past-str-limit"],
)
def test_exact_str_fraction(x, text):
    assert exact_str(x) == text


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_exact_str_under_a_user_limit_prints_every_digit_and_keeps_it():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        x = 3**2000  # 955 digits
        with pytest.raises(ValueError):
            str(x)
        texts = exact_str(x), exact_str(Fraction(1, x))
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(old)
    assert limit == 640
    assert texts == (str_unlimited(x), f"1/{str_unlimited(x)}")

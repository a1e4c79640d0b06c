from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import multinomial


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

import inspect
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lacasse
from lacasse.identity import _DIGITS, exact_str
from oracles import multinomial, str_unlimited


def test_multinomial_examples():
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([3, 0, 0]) == 1
    assert multinomial([2, 2, 1]) == 30  # 5!/(2! 2! 1!)


# --- exact_str: str() on pieces of at most _DIGITS digits, split at powers of ten


def test_exact_str_leaves_are_legal_under_any_limit():
    # 640 is the lowest nonzero int-to-str limit Python accepts
    threshold = getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert _DIGITS < threshold


@given(
    st.integers(min_value=0, max_value=100_000).flatmap(
        lambda bits: st.integers(min_value=-(2**bits), max_value=2**bits)
    )
)
def test_exact_str_is_str_with_the_limit_lifted(x):
    # up to about 30,000 digits, so up to six levels of the split, and both
    # sides of the 4300-digit default
    assert exact_str(x) == str_unlimited(x)


@pytest.mark.parametrize("i", range(6))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_exact_str_at_the_split_powers(i, offset):
    # 10^(_DIGITS 2^i) is the i-th split point; one below it is all nines
    # and takes one level fewer
    x = 10 ** (_DIGITS * 2**i) + offset
    assert exact_str(x) == str_unlimited(x)
    assert exact_str(-x) == "-" + str_unlimited(x)


@pytest.mark.parametrize(
    "x",
    [
        10 ** (2 * _DIGITS) + 7,
        5 * 10 ** (3 * _DIGITS),
        10 ** (4 * _DIGITS) + 10 ** _DIGITS,
        (10 ** (8 * _DIGITS) - 1) * 10 ** (5 * _DIGITS) + 3,
    ],
    ids=["zeros-then-7", "5-then-zeros", "zero-leaf-between-ones", "nines-zeros-3"],
)
def test_exact_str_pads_the_low_halves(x):
    # low halves that start with zeros, or are zero, must keep their width
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
    # only after converting it whole; exact_str never calls str() on more
    # than _DIGITS digits, so this band is split like any other size
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
        (
            Fraction(-(7**6000), 3**9100),
            f"-{str_unlimited(7**6000)}/{str_unlimited(3**9100)}",
        ),
    ],
    ids=["whole", "whole-negative", "zero", "negative", "past-str-limit", "both-past-str-limit"],
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
        x = 3**20000  # 9543 digits
        with pytest.raises(ValueError):
            str(x)
        texts = exact_str(x), exact_str(Fraction(1, x))
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(old)
    assert limit == 640
    assert texts == (str_unlimited(x), f"1/{str_unlimited(x)}")


def test_type_hints_resolve():
    # annotations name no type the modules do not import at load time
    functions = [
        obj for obj in map(vars(lacasse).get, lacasse.__all__) if inspect.isfunction(obj)
    ]
    assert len(functions) >= 10
    for function in [*functions, exact_str]:
        typing.get_type_hints(function)

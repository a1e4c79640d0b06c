from fractions import Fraction
from math import factorial

import pytest

from lacasse.exact import DomainError
from lacasse.identity import geom_power, tree_series
from oracles import (
    add,
    exp_trunc,
    mul,
    one,
    reciprocal_unit,
    to_egf,
    to_fractions,
    z,
)

F = Fraction


def _egf_z(order: int) -> tuple[int, ...]:
    # the monomial z as an n!-scaled vector
    return tuple(1 if m == 1 else 0 for m in range(order + 1))


def test_constructor_rejects_negative_order_and_empty():
    # tree_series and geom_power are the only ways the package builds a series
    with pytest.raises(DomainError):
        tree_series(-1)
    with pytest.raises(DomainError):
        geom_power((), 2)


def test_indexing_bounds():
    # a series of order N has entries 0..N, so entry N is the last
    s = tree_series(2)
    assert len(s) == 3
    assert s[2] == 2


# --- the rational oracle arithmetic the checks below lean on --------------
# Pinned here by examples and compared with lacasse elsewhere: add, mul and
# reciprocal_unit by the geom_power tests below, exp_trunc by acceptance
# criterion 6. Never property-tested against another oracle or against
# fractions, which would test code that the package never runs.


def test_add_examples():
    assert add([1, 1], [1, -1]) == [2, 0]
    a = [F(3), F(1, 2), F(7)]
    assert add(a, [0, 0, 0]) == a
    assert add([0, 1, 1], [0, 0, 1]) == [0, 1, 2]  # (z + z^2) + z^2


def test_add_truncates_to_smaller_order():
    a = [F(1)] * 5
    b = [F(1)] * 2
    assert len(add(a, b)) == 2
    assert len(mul(a, b)) == 2


def test_mul_examples():
    assert mul([1, 1, 0], [1, -1, 0]) == [1, 0, -1]
    a = [F(2), F(3, 7), F(1)]
    assert mul(a, one(2)) == a


def test_mul_geometric_series_oracle():
    # 1/(1-z) is all-ones; multiplying back by (1-z) must give 1
    assert mul([F(1)] * 6, [F(1), F(-1), 0, 0, 0, 0]) == one(5)


def test_exp_examples():
    assert exp_trunc([F(0)] * 5) == one(4)
    assert exp_trunc(z(3)) == [1, 1, F(1, 2), F(1, 6)]
    assert exp_trunc([F(0), F(1), F(1)])[2] == F(3, 2)  # (z+z^2) + (z+z^2)^2/2


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        exp_trunc([F(1), F(1)])


# --- tree_series ----------------------------------------------------------


def test_tree_series_examples():
    assert tree_series(4) == (0, 1, 2, 9, 64)
    assert tree_series(0) == (0,)
    assert tree_series(5)[5] == 625  # 5^4
    assert to_fractions(tree_series(4)) == [0, 1, 1, F(3, 2), F(8, 3)]


# --- geom_power -----------------------------------------------------------


def test_geom_power_tree_d1_coefficients():
    # 1/(1-y) = sum n^n z^n / n!: 1, 1, 2, 9/2, 32/3
    s = geom_power(tree_series(4), 1)
    assert s == (1, 1, 4, 27, 256)
    assert to_fractions(s) == [1, 1, 2, F(9, 2), F(32, 3)]


def test_geom_power_of_zero_is_one():
    for d in (1, 2, 5):
        assert geom_power((0, 0, 0, 0), d) == (1, 0, 0, 0)


def test_geom_power_of_z_d2_is_arithmetic_series():
    # 1/(1-z)^2 = sum (k+1) z^k
    s = geom_power(_egf_z(6), 2)
    assert to_fractions(s) == [k + 1 for k in range(7)]


def _geom_sum_oracle(y: list, d: int) -> list:
    # 1/(1-y) as the plain truncated sum of y^k (y has valuation >= 1),
    # then d-fold repeated multiplication
    order = len(y) - 1
    total = one(order)
    power = one(order)
    for _ in range(order):
        power = mul(power, y)
        total = add(total, power)
    result = total
    for _ in range(d - 1):
        result = mul(result, total)
    return result


def test_geom_power_matches_geometric_sum_oracle():
    for y in (tree_series(12), _egf_z(8)):
        for d in range(1, 4):
            want = _geom_sum_oracle(to_fractions(y), d)
            assert to_fractions(geom_power(y, d)) == want


def test_geom_power_inversion_invariant():
    y = to_fractions(tree_series(50))
    inv = to_fractions(geom_power(tree_series(50), 1))
    assert mul(inv, add(one(50), [-c for c in y])) == one(50)
    assert inv == reciprocal_unit(add(one(50), [-c for c in y]))


def test_geom_power_consistency_with_repeated_mul():
    y = tree_series(25)
    base = to_fractions(geom_power(y, 1))
    acc = base
    for d in range(2, 5):
        acc = mul(acc, base)
        assert to_fractions(geom_power(y, d)) == acc


def test_geom_power_egf_integrality():
    # the rational oracle's n! [z^n] of every power is an integer, and the
    # integer route returns exactly those integers
    y = to_fractions(tree_series(40))
    inv = reciprocal_unit(add(one(40), [-c for c in y]))
    power = one(40)
    for d in range(1, 13):
        power = mul(power, inv)
        assert to_egf(power) == list(geom_power(tree_series(40), d))


# The two facts behind the identity (Prodinger, arXiv 1301.3669), at order 300.


def test_geom_power_tree_d1_is_m_to_the_m_at_order_300():
    # 1/(1 - T) = sum m^m z^m / m!
    s = geom_power(tree_series(300), 1)
    assert list(s) == [m**m for m in range(301)]


def test_geom_power_tree_d3_minus_d2_is_m_to_the_m_plus_1_at_order_300():
    # zT' = T/(1 - T) gives (zD)^2 T = T/(1 - T)^3, and
    # 1/(1 - T)^3 - 1/(1 - T)^2 = T/(1 - T)^3: beta(m) - alpha(m) = m^(m+1)
    t = tree_series(300)
    s2, s3 = geom_power(t, 2), geom_power(t, 3)
    assert [s3[m] - s2[m] for m in range(301)] == [m ** (m + 1) for m in range(301)]


def test_geom_power_validation():
    y = tree_series(4)
    with pytest.raises(DomainError):
        geom_power(y, 0)
    with pytest.raises(DomainError):
        geom_power((1, 1), 2)


# --- entries of a series: n! [z^n] ----------------------------------------


def test_geom_power_entry_examples():
    t = tree_series(3)
    assert geom_power(t, 2)[2] == 10  # alpha(2)
    assert geom_power(t, 1)[3] == 27  # 3^3


def test_geom_power_entries_scale_by_factorial():
    s = geom_power(tree_series(8), 3)
    coeffs = _geom_sum_oracle(to_fractions(tree_series(8)), 3)
    for n in range(9):
        assert s[n] == factorial(n) * coeffs[n]

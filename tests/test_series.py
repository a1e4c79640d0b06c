from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import _kernels_py, backend
from lacasse.exact import factorial
from lacasse.series import (
    ConsistencyError,
    TruncatedSeries,
    add,
    egf_coeff,
    exp_trunc,
    geom_power,
    mul,
    tree_series,
)

F = Fraction

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
series_st = st.lists(fracs, min_size=1, max_size=13).map(TruncatedSeries)


# --- construction ---------------------------------------------------------


def test_constructor_pads_to_order():
    s = TruncatedSeries([1, 2], order=4)
    assert s.order == 4
    assert s.coeffs == (F(1), F(2), F(0), F(0), F(0))


def test_constructor_rejects_overflowing_coeffs():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], order=1)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5])


def test_constructor_rejects_negative_order_and_empty():
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=-1)
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_indexing_bounds():
    s = TruncatedSeries([1, 2, 3])
    assert s[2] == 3
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


# --- add ------------------------------------------------------------------


def test_add_examples():
    one_plus = TruncatedSeries([1, 1])
    one_minus = TruncatedSeries([1, -1])
    assert (one_plus + one_minus).coeffs == (F(2), F(0))
    a = TruncatedSeries([3, F(1, 2), 7])
    assert add(a, TruncatedSeries.zero(2)) == a
    left = TruncatedSeries([0, 1, 1])   # z + z^2
    right = TruncatedSeries([0, 0, 1])  # z^2
    assert (left + right).coeffs == (F(0), F(1), F(2))


def test_add_truncates_to_smaller_order():
    a = TruncatedSeries([1, 1, 1, 1, 1])
    b = TruncatedSeries([1, 1])
    assert (a + b).order == 1
    assert (a - b).order == 1
    assert (a * b).order == 1


def test_scalar_coercion():
    y = TruncatedSeries([0, 1, 5], order=4)
    assert (1 - y).coeffs == (F(1), F(-1), F(-5), F(0), F(0))
    assert (y + 1)[0] == 1
    assert (2 * y)[2] == 10


# --- mul ------------------------------------------------------------------


def test_mul_examples():
    one_plus = TruncatedSeries([1, 1], order=2)
    one_minus = TruncatedSeries([1, -1], order=2)
    assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1))
    a = TruncatedSeries([2, F(3, 7), 1])
    assert mul(a, TruncatedSeries.one(2)) == a


def test_mul_geometric_series_oracle():
    # 1/(1-z) is all-ones; multiplying back by (1-z) must give 1
    geometric = TruncatedSeries([1] * 6)
    one_minus_z = TruncatedSeries([1, -1], order=5)
    assert geometric * one_minus_z == TruncatedSeries.one(5)


@given(a=series_st, b=series_st)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(a=series_st, b=series_st, c=series_st)
@settings(deadline=None)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=series_st, b=series_st, c=series_st)
@settings(deadline=None)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


# --- exp ------------------------------------------------------------------


def _exp_powers_oracle(a: TruncatedSeries) -> TruncatedSeries:
    # the defining sum: sum_{j=0..N} a^j / j!
    total = TruncatedSeries.one(a.order)
    power = TruncatedSeries.one(a.order)
    fact = 1
    for j in range(1, a.order + 1):
        power = power * a
        fact *= j
        total = total + TruncatedSeries([c / fact for c in power.coeffs])
    return total


def test_exp_examples():
    assert exp_trunc(TruncatedSeries.zero(4)) == TruncatedSeries.one(4)
    assert exp_trunc(TruncatedSeries.z(3)).coeffs == (F(1), F(1), F(1, 2), F(1, 6))
    bumpy = TruncatedSeries([0, 1, 1], order=2)  # z + z^2
    assert exp_trunc(bumpy)[2] == F(3, 2)  # from (z+z^2) + (z+z^2)^2/2


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        exp_trunc(TruncatedSeries([1, 1]))


@given(a=series_st)
@settings(deadline=None, max_examples=40)
def test_exp_matches_power_sum_oracle(a):
    a = TruncatedSeries([0] + list(a.coeffs[1:]))
    assert exp_trunc(a) == _exp_powers_oracle(a)


@given(a=series_st, b=series_st)
@settings(deadline=None, max_examples=40)
def test_exp_is_multiplicative(a, b):
    a = TruncatedSeries([0] + list(a.coeffs[1:]))
    b = TruncatedSeries([0] + list(b.coeffs[1:]))
    n = min(a.order, b.order)
    a = TruncatedSeries(a.coeffs[: n + 1])
    b = TruncatedSeries(b.coeffs[: n + 1])
    assert exp_trunc(a + b) == exp_trunc(a) * exp_trunc(b)


# --- tree_series ----------------------------------------------------------


def test_tree_series_examples():
    t = tree_series(4)
    assert t.coeffs == (F(0), F(1), F(1), F(3, 2), F(8, 3))
    assert tree_series(0) == TruncatedSeries([0])
    assert tree_series(5)[5] == F(125, 24)  # 5^4/5! = 625/120


def test_tree_series_rejects_negative_order():
    with pytest.raises(ValueError):
        tree_series(-1)


def test_tree_series_satisfies_functional_equation():
    y = tree_series(60)
    assert TruncatedSeries.z(60) * exp_trunc(y) == y


def test_tree_series_coefficients_are_cayley_counts():
    y = tree_series(30)
    for n in range(1, 31):
        assert egf_coeff(y, n) == n ** (n - 1)


def test_tree_series_consistency_guard(monkeypatch):
    class BrokenKernels:
        @staticmethod
        def tree_egf(order):
            good = _kernels_py.tree_egf(order)
            if order >= 3:
                good[3] += 1
            return good

    monkeypatch.setattr(backend, "kernels", BrokenKernels)
    with pytest.raises(ConsistencyError):
        tree_series(5)


# --- geom_power -----------------------------------------------------------


def test_geom_power_tree_d1_coefficients():
    # 1/(1-y) = sum n^n z^n / n!: 1, 1, 2, 9/2, 32/3
    s = geom_power(tree_series(4), 1, 4)
    assert s.coeffs == (F(1), F(1), F(2), F(9, 2), F(32, 3))


def test_geom_power_of_zero_is_one():
    for d in (1, 2, 5):
        assert geom_power(TruncatedSeries.zero(3), d, 3) == TruncatedSeries.one(3)


def test_geom_power_of_z_d2_is_arithmetic_series():
    # 1/(1-z)^2 = sum (k+1) z^k
    s = geom_power(TruncatedSeries.z(6), 2, 6)
    assert s.coeffs == tuple(F(k + 1) for k in range(7))


def test_geom_power_rational_path_matches_geometric_oracle():
    # y = z/2 has non-integral EGF entries: 1/(1-z/2)^2 = sum (k+1) z^k / 2^k
    y = TruncatedSeries([0, F(1, 2)], order=6)
    s = geom_power(y, 2, 6)
    assert s.coeffs == tuple(F(k + 1, 2**k) for k in range(7))


def _geom_sum_oracle(y: TruncatedSeries, d: int) -> TruncatedSeries:
    # 1/(1-y) as the plain truncated sum of y^k (y has valuation >= 1),
    # then d-fold repeated multiplication
    total = TruncatedSeries.one(y.order)
    power = TruncatedSeries.one(y.order)
    for _ in range(y.order):
        power = power * y
        total = total + power
    result = total
    for _ in range(d - 1):
        result = result * total
    return result


def test_geom_power_matches_geometric_sum_oracle():
    tree = tree_series(12)
    half_z = TruncatedSeries([0, F(1, 2)], order=8)  # rational fallback path
    for y in (tree, half_z):
        for d in range(1, 4):
            assert geom_power(y, d, y.order) == _geom_sum_oracle(y, d)


def test_geom_power_inversion_invariant():
    y = tree_series(50)
    inv = geom_power(y, 1, 50)
    assert inv * (1 - y) == TruncatedSeries.one(50)


def test_geom_power_consistency_with_repeated_mul():
    y = tree_series(25)
    base = geom_power(y, 1, 25)
    acc = base
    for d in range(2, 5):
        acc = acc * base
        assert geom_power(y, d, 25) == acc


def test_geom_power_egf_integrality():
    y = tree_series(40)
    for d in range(1, 6):
        s = geom_power(y, d, 40)
        for n in range(41):
            assert egf_coeff(s, n).denominator == 1


def test_geom_power_validation():
    y = tree_series(4)
    with pytest.raises(ValueError):
        geom_power(y, 0, 4)
    with pytest.raises(ValueError):
        geom_power(TruncatedSeries([1, 1]), 2, 1)
    with pytest.raises(ValueError):
        geom_power(y, 2, -1)


def test_geom_power_truncates_to_min_order():
    y = tree_series(10)
    assert geom_power(y, 2, 4).order == 4
    assert geom_power(y, 2, 99).order == 10


# --- egf_coeff ------------------------------------------------------------


def test_egf_coeff_examples():
    t = tree_series(3)
    assert egf_coeff(geom_power(t, 2, 2), 2) == 10  # alpha(2)
    assert egf_coeff(geom_power(t, 1, 3), 3) == 27  # 3^3
    s = TruncatedSeries([F(7, 3), 1])
    assert egf_coeff(s, 0) == s[0]


def test_egf_coeff_beyond_order():
    with pytest.raises(IndexError):
        egf_coeff(tree_series(3), 4)


def test_egf_coeff_scales_by_factorial():
    s = TruncatedSeries([1, 1, F(1, 2), F(1, 6), F(1, 24)])
    for n in range(5):
        assert egf_coeff(s, n) == factorial(n) * s[n]

"""Kernel-level checks.

The rational-series oracles here are deliberately naive Fraction
arithmetic, independent of the integer convolutions they certify.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import _kernels_py, backend
from lacasse.exact import ipow00, multinomial
from lacasse.identity import CompositionCursor

int_vectors = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10)


def _to_series(u):
    # EGF ints -> ordinary Fraction coefficients
    return [Fraction(e, factorial(n)) for n, e in enumerate(u)]


def _to_egf(c):
    out = []
    for n, x in enumerate(c):
        v = x * factorial(n)
        assert v.denominator == 1
        out.append(v.numerator)
    return out


def _series_mul(a, b):
    n = min(len(a), len(b)) - 1
    return [sum(a[j] * b[m - j] for j in range(m + 1)) for m in range(n + 1)]


def _series_exp_powers(a):
    # sum_j a^j / j!, the defining power sum
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * n
    fact = 1
    for j in range(1, n + 1):
        power = _series_mul(power, a)
        fact *= j
        for m in range(n + 1):
            out[m] += power[m] / fact
    return out


def test_backend_kernels_is_the_kernel_module():
    # series and identity call through this attribute, and the benchmark's
    # per-layer tracer rebinds it; it must be the module the tests check
    assert backend.kernels is _kernels_py


def test_pascal_rows_match_comb(kernels):
    rows = kernels.pascal_rows(25)
    for m in range(26):
        for j in range(m + 1):
            assert rows[m][j] == comb(m, j)


def test_pascal_rows_rejects_negative(kernels):
    with pytest.raises(ValueError):
        kernels.pascal_rows(-1)


@given(u=int_vectors, v=int_vectors)
def test_egf_mul_matches_series_oracle(u, v):
    want = _to_egf(_series_mul(_to_series(u), _to_series(v)))
    assert _kernels_py.egf_mul(u, v) == want


@given(u=int_vectors)
def test_egf_exp_matches_power_sum_oracle(u):
    u = [0] + u[1:]
    want = _series_exp_powers(_to_series(u))
    assert _to_series(_kernels_py.egf_exp(u)) == want


@given(u=int_vectors)
def test_egf_recip_times_input_is_one(u):
    u = [1] + u[1:]
    one = [1] + [0] * (len(u) - 1)
    assert _kernels_py.egf_mul(_kernels_py.egf_recip(u), u) == one


@given(u=int_vectors, d=st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_egf_pow_matches_repeated_mul(u, d):
    want = list(u)
    for _ in range(d - 1):
        want = _kernels_py.egf_mul(want, u)
    assert _kernels_py.egf_pow(u, d) == want


def test_egf_validation_errors(kernels):
    with pytest.raises(ValueError):
        kernels.egf_exp([1, 2])
    with pytest.raises(ValueError):
        kernels.egf_recip([2, 1])
    with pytest.raises(ValueError):
        kernels.egf_pow([1, 1], 0)


def test_tree_egf_small_values(kernels):
    # rooted labeled trees: 1, 2, 9, 64, 625 for n = 1..5
    assert kernels.tree_egf(5) == [0, 1, 2, 9, 64, 625]
    assert kernels.tree_egf(0) == [0]


def test_tree_egf_satisfies_functional_equation(kernels):
    # y = z*exp(y) in EGF terms: y[k] == k * exp(y)[k-1]
    y = kernels.tree_egf(40)
    g = kernels.egf_exp(y[:40])
    for k in range(1, 41):
        assert y[k] == k * g[k - 1]


def test_tree_egf_rejects_negative(kernels):
    with pytest.raises(ValueError):
        kernels.tree_egf(-1)


def _comp_sum_oracle(n, d):
    total = 0
    for parts in CompositionCursor(n, d):
        w = multinomial(parts)
        for k in parts:
            w *= ipow00(k, k)
        total += w
    return total


def test_comp_power_sum_examples(kernels):
    assert kernels.comp_power_sum(2, 2) == 10
    assert kernels.comp_power_sum(1, 3) == 3
    assert kernels.comp_power_sum(0, 4) == 1
    assert kernels.comp_power_sum(7, 1) == 7**7


def test_comp_power_sum_matches_cursor_oracle(kernels):
    for d in range(1, 5):
        for n in range(11):
            assert kernels.comp_power_sum(n, d) == _comp_sum_oracle(n, d)


def test_comp_power_sum_validation(kernels):
    with pytest.raises(ValueError):
        kernels.comp_power_sum(-1, 3)
    with pytest.raises(ValueError):
        kernels.comp_power_sum(3, 0)


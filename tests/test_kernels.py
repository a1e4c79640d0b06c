"""Kernel-level checks.

The oracles in ``oracles.py`` are deliberately naive Fraction arithmetic
and definitional sums, independent of the integer convolutions they
certify.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import _kernels_py, backend
from oracles import (
    add,
    comp_sum,
    egf_exp,
    egf_mul,
    exp_power_sum,
    mul,
    one,
    reciprocal_unit,
    to_egf,
    to_fractions,
    tree_fixed_point,
)

int_vectors = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10)


def test_backend_kernels_is_the_kernel_module():
    # series and identity call through this attribute, and the benchmark's
    # per-layer tracer rebinds it; it must be the module the tests check
    assert backend.kernels is _kernels_py


@given(u=int_vectors, v=int_vectors)
def test_egf_mul_matches_series_oracle(u, v):
    want = to_egf(mul(to_fractions(u), to_fractions(v)))
    assert egf_mul(u, v) == want


@given(u=int_vectors)
def test_egf_exp_matches_power_sum_oracle(u):
    u = [0] + u[1:]
    assert to_fractions(egf_exp(u)) == exp_power_sum(to_fractions(u))


@given(u=int_vectors, d=st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_egf_geom_power_matches_fraction_oracle(u, d):
    # (1/(1 - u))^d as the Fraction reciprocal of 1 - u multiplied d times
    u = [0] + u[1:]
    inv = reciprocal_unit(add(one(len(u) - 1), [-c for c in to_fractions(u)]))
    want = inv
    for _ in range(d - 1):
        want = mul(want, inv)
    assert _kernels_py.egf_geom_power(u, d) == to_egf(want)


@given(u=int_vectors)
def test_egf_geom_power_d1_times_one_minus_u_is_one(u):
    # the d = 1 power is the reciprocal of 1 - u
    u = [0] + u[1:]
    one_minus_u = [1] + [-c for c in u[1:]]
    one = [1] + [0] * (len(u) - 1)
    assert egf_mul(_kernels_py.egf_geom_power(u, 1), one_minus_u) == one


@given(u=int_vectors, d=st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_egf_geom_power_matches_repeated_mul(u, d):
    u = [0] + u[1:]
    inv = _kernels_py.egf_geom_power(u, 1)
    want = list(inv)
    for _ in range(d - 1):
        want = egf_mul(want, inv)
    assert _kernels_py.egf_geom_power(u, d) == want


def test_egf_validation_errors(kernels):
    with pytest.raises(ValueError, match="d >= 1"):
        kernels.egf_geom_power([0, 1], 0)
    with pytest.raises(ValueError, match="d >= 1"):
        kernels.egf_geom_power([0, 1], -1)
    with pytest.raises(ValueError, match="constant term 0"):
        kernels.egf_geom_power([1, 1], 2)
    with pytest.raises(ValueError, match="constant term 0"):
        kernels.egf_geom_power([], 2)


def test_tree_egf_small_values(kernels):
    # rooted labeled trees: 1, 2, 9, 64, 625 for n = 1..5
    assert kernels.tree_egf(5) == [0, 1, 2, 9, 64, 625]
    assert kernels.tree_egf(0) == [0]


def test_tree_egf_satisfies_functional_equation(kernels):
    # y = z*exp(y) in EGF terms: y[k] == k * exp(y)[k-1]
    y = kernels.tree_egf(40)
    g = egf_exp(y[:40])
    for k in range(1, 41):
        assert y[k] == k * g[k - 1]


def test_tree_egf_matches_fixed_point_oracle(kernels):
    for k in range(81):
        assert kernels.tree_egf(k) == tree_fixed_point(k)


def test_tree_egf_matches_formula_at_large_order(kernels):
    y = kernels.tree_egf(300)
    assert y[0] == 0
    for n in range(1, 301):
        assert y[n] == n ** (n - 1)


def test_tree_egf_rejects_negative(kernels):
    with pytest.raises(ValueError):
        kernels.tree_egf(-1)


def test_comp_power_sum_examples(kernels):
    assert kernels.comp_power_sum(2, 2, 2) == [[4], [10]]
    assert kernels.comp_power_sum(1, 1, 3) == [[1], [2], [3]]
    assert kernels.comp_power_sum(0, 0, 4) == [[1]] * 4
    assert kernels.comp_power_sum(7, 7, 1) == [[7**7]]
    assert kernels.comp_power_sum(0, 2, 2) == [[1, 1, 4], [1, 2, 10]]


def test_comp_power_sum_matches_cursor_oracle(kernels):
    # every round e = 1..d on every window [first, last] with last <= 12:
    # first = 0, first = last and first > 0 alike, so a window misaligned
    # by first, or a round misaligned by e, shows
    want = {(n, e): comp_sum(n, e) for n in range(13) for e in range(1, 7)}
    for d in range(1, 7):
        for first in range(13):
            for last in range(first, 13):
                rounds = kernels.comp_power_sum(first, last, d)
                assert rounds == [
                    [want[n, e] for n in range(first, last + 1)] for e in range(1, d + 1)
                ]


def test_comp_power_sum_part_count_beyond_recursion_limit(kernels):
    # n = 1 has e compositions into e parts, one 1 among zeros, each of
    # weight 1
    assert kernels.comp_power_sum(0, 1, 3000) == [[1, e] for e in range(1, 3001)]
    assert kernels.comp_power_sum(1, 1, 3000)[-1] == [3000]


def test_kernels_leave_no_reference_cycles(kernels):
    # a cycle keeps a call's Pascal rows and rounds alive until the cyclic
    # collector runs, which shows up as peak RSS in a sweep of calls
    gc.disable()
    try:
        gc.collect()
        kernels.comp_power_sum(0, 40, 4)
        kernels.egf_geom_power(kernels.tree_egf(40), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_comp_power_sum_validation(kernels):
    for first, last, d in ((-1, 3, 3), (4, 3, 3), (0, 3, 0), (2, 2, -1)):
        with pytest.raises(ValueError):
            kernels.comp_power_sum(first, last, d)

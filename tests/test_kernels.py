"""Kernel-level checks.

The oracles in ``oracles.py`` are deliberately naive Fraction arithmetic
and definitional sums, independent of the integer convolutions they
certify.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import kernels
from oracles import (
    add,
    comp_sum,
    egf_exp,
    egf_mul,
    mul,
    one,
    reciprocal_unit,
    to_egf,
    to_fractions,
    tree_fixed_point,
)

int_vectors = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10)


@given(u=int_vectors, d=st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_egf_geom_power_matches_fraction_oracle(u, d):
    # (1/(1 - u))^e as the Fraction reciprocal of 1 - u multiplied e times;
    # the pair is [P_d, P_(d-1)], and P_0 = [1, 0, ...] at d = 1
    u = [0] + u[1:]
    inv = reciprocal_unit(add(one(len(u) - 1), [-c for c in to_fractions(u)]))
    powers = [one(len(u) - 1)]
    for _ in range(d):
        powers.append(mul(powers[-1], inv))
    want = [to_egf(powers[d]), to_egf(powers[d - 1])]
    assert kernels.egf_geom_power(u, d) == want[:1]
    assert kernels.egf_geom_power(u, d, lower=True) == want


@given(u=int_vectors)
def test_egf_geom_power_d1_times_one_minus_u_is_one(u):
    # the d = 1 power is the reciprocal of 1 - u
    u = [0] + u[1:]
    one_minus_u = [1] + [-c for c in u[1:]]
    one = [1] + [0] * (len(u) - 1)
    assert egf_mul(kernels.egf_geom_power(u, 1)[0], one_minus_u) == one


@given(u=int_vectors, d=st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_egf_geom_power_matches_repeated_mul(u, d):
    u = [0] + u[1:]
    [inv] = kernels.egf_geom_power(u, 1)
    want = list(inv)
    for _ in range(d - 1):
        want = egf_mul(want, inv)
    assert kernels.egf_geom_power(u, d) == [want]


def test_egf_geom_power_pair_is_two_passes_at_order_300():
    # the pair's rows from one pass against a pass of their own each, on
    # the tree, whose entries reach thousands of digits
    y = kernels.tree_egf(300)
    for d in (3, 7):
        top, low = kernels.egf_geom_power(y, d, lower=True)
        assert kernels.egf_geom_power(y, d) == [top]
        assert kernels.egf_geom_power(y, d - 1) == [low]


def test_tree_egf_small_values():
    # rooted labeled trees: 1, 2, 9, 64, 625 for n = 1..5
    assert kernels.tree_egf(5) == [0, 1, 2, 9, 64, 625]
    assert kernels.tree_egf(0) == [0]


def test_tree_egf_satisfies_functional_equation():
    # y = z*exp(y) in EGF terms: y[k] == k * exp(y)[k-1]
    y = kernels.tree_egf(40)
    g = egf_exp(y[:40])
    for k in range(1, 41):
        assert y[k] == k * g[k - 1]


def test_tree_egf_matches_fixed_point_oracle():
    # the fixed point to order 80 holds every lower order as its prefix,
    # so one O(order^3) build checks all 81 orders
    oracle = tree_fixed_point(80)
    for k in range(81):
        assert kernels.tree_egf(k) == oracle[: k + 1]


def test_tree_egf_matches_formula_at_large_order():
    y = kernels.tree_egf(300)
    assert y[0] == 0
    for n in range(1, 301):
        assert y[n] == n ** (n - 1)


def test_comp_power_sum_examples():
    assert kernels.comp_power_sum(2, 2, 2) == [[4], [10]]
    assert kernels.comp_power_sum(1, 1, 3) == [[1], [2], [3]]
    assert kernels.comp_power_sum(0, 0, 4) == [[1]] * 4
    assert kernels.comp_power_sum(7, 7, 1) == [[7**7]]
    assert kernels.comp_power_sum(0, 2, 2) == [[1, 1, 4], [1, 2, 10]]


def test_comp_power_sum_matches_cursor_oracle():
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


def test_comp_power_sum_part_count_beyond_recursion_limit():
    # n = 1 has e compositions into e parts, one 1 among zeros, each of
    # weight 1
    assert kernels.comp_power_sum(0, 1, 3000) == [[1, e] for e in range(1, 3001)]
    assert kernels.comp_power_sum(1, 1, 3000)[-1] == [3000]


def test_kernels_leave_no_reference_cycles():
    # a cycle keeps a call's Pascal rows and rounds alive until the cyclic
    # collector runs, which shows up as peak RSS in a sweep of calls
    gc.disable()
    try:
        gc.collect()
        kernels.comp_power_sum(0, 40, 4)
        kernels.egf_geom_power(kernels.tree_egf(40), 3)
        kernels.egf_geom_power(kernels.tree_egf(40), 3, lower=True)
        assert gc.collect() == 0
    finally:
        gc.enable()

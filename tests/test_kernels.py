"""Kernel-level checks.

The references are ``oracles.py``'s naive Fraction series arithmetic and
its definitional composition sum, plus closed values: Cayley's n^(n-1)
for the tree. None of them uses the integer convolutions it certifies.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from lacasse import identity
from oracles import (
    add,
    comp_sum,
    exp_trunc,
    mul,
    one,
    reciprocal_unit,
    to_egf,
    to_fractions,
    z,
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
    assert identity.egf_geom_power(u, d) == want[:1]
    assert identity.egf_geom_power(u, d, lower=True) == want


def test_egf_geom_power_pair_is_two_passes_at_order_300():
    # the pair's rows from one pass against a pass of their own each, on
    # the tree, whose entries reach thousands of digits
    y = identity.tree_egf(300)
    for d in (3, 7):
        top, low = identity.egf_geom_power(y, d, lower=True)
        assert identity.egf_geom_power(y, d) == [top]
        assert identity.egf_geom_power(y, d - 1) == [low]


def _cayley(k):
    # rooted labeled trees: n^(n-1) for n >= 1; with y[0] = 0 these values
    # are the one solution of y = z*exp(y)
    return [0] + [n ** (n - 1) for n in range(1, k + 1)]


def test_tree_egf_small_values():
    assert _cayley(5) == [0, 1, 2, 9, 64, 625]
    for k in range(81):
        assert identity.tree_egf(k) == _cayley(k)


def test_tree_egf_matches_formula_at_large_order():
    assert identity.tree_egf(300) == _cayley(300)


def test_tree_egf_satisfies_functional_equation():
    # y = z*exp(y), in the Fraction arithmetic of the oracles
    y = to_fractions(identity.tree_egf(40))
    assert mul(z(40), exp_trunc(y)) == y


def test_comp_power_sum_examples():
    assert identity.comp_power_sum(2, 2, 2) == [[4], [10]]
    assert identity.comp_power_sum(1, 1, 3) == [[1], [2], [3]]
    assert identity.comp_power_sum(0, 0, 4) == [[1]] * 4
    assert identity.comp_power_sum(7, 7, 1) == [[7**7]]
    assert identity.comp_power_sum(0, 2, 2) == [[1, 1, 4], [1, 2, 10]]


def test_comp_power_sum_matches_composition_oracle():
    # every round e = 1..d on every window [first, last] with last <= 12:
    # first = 0, first = last and first > 0 alike, so a window misaligned
    # by first, or a round misaligned by e, shows
    want = {(n, e): comp_sum(n, e) for n in range(13) for e in range(1, 7)}
    for d in range(1, 7):
        for first in range(13):
            for last in range(first, 13):
                rounds = identity.comp_power_sum(first, last, d)
                assert rounds == [
                    [want[n, e] for n in range(first, last + 1)] for e in range(1, d + 1)
                ]


def test_comp_power_sum_part_count_beyond_recursion_limit():
    # n = 1 has e compositions into e parts, one 1 among zeros, each of
    # weight 1
    assert identity.comp_power_sum(0, 1, 3000) == [[1, e] for e in range(1, 3001)]
    assert identity.comp_power_sum(1, 1, 3000)[-1] == [3000]


def test_kernels_leave_no_reference_cycles():
    # a cycle keeps a call's Pascal rows and rounds alive until the cyclic
    # collector runs, which shows up as peak RSS in a sweep of calls
    gc.disable()
    try:
        gc.collect()
        identity.comp_power_sum(0, 40, 4)
        identity.egf_geom_power(identity.tree_egf(40), 3)
        identity.egf_geom_power(identity.tree_egf(40), 3, lower=True)
        assert gc.collect() == 0
    finally:
        gc.enable()

import math
import random
from fractions import Fraction

import pytest

from lacasse.approx import (
    TREE_DOMAIN_SUP,
    q_float,
    q_growth_check,
    tree_eval,
)
from lacasse.identity import ramanujan_q

# float tree-series coefficients n^(n-1)/n!, rounded once from the exact values
_COEFFS_300 = [float(Fraction(n ** (n - 1), math.factorial(n))) for n in range(1, 301)]


def _partial_sum(z: float, order: int) -> float:
    return sum(_COEFFS_300[n - 1] * z**n for n in range(1, order + 1))


def test_tree_eval_at_zero():
    r = tree_eval(0.0)
    assert r.y == 0.0
    assert r.iterations == 0
    assert r.residual == 0.0


def test_tree_eval_round_trip_defining_equation():
    for z in (0.05, 0.1, 0.2, 0.3, 0.36):
        r = tree_eval(z)
        assert abs(r.y * math.exp(-r.y) - z) <= 1e-14
        assert abs(r.y - z * math.exp(r.y)) == r.residual


def test_tree_eval_matches_series_oracle_at_02():
    r = tree_eval(0.2)
    assert abs(r.y - _partial_sum(0.2, 60)) <= 1e-12


def test_tree_eval_matches_adequately_truncated_series_on_the_full_interval():
    rng = random.Random(1729)
    for _ in range(200):
        z = rng.uniform(0.0, 0.3)
        r = tree_eval(z)
        # order 300 leaves a tail below 1e-15 everywhere on [0, 0.3]
        assert abs(r.y - _partial_sum(z, 300)) <= 1e-12


def test_order_60_oracle_tail_envelope():
    # The order-60 partial sum itself undershoots y near z = 0.3: all tree
    # series terms are positive and the tail reaches ~1.6e-8 at the right
    # edge.  Pin the envelope so the truncation error stays quantified.
    r = tree_eval(0.2999999)
    gap = r.y - _partial_sum(0.2999999, 60)
    assert 1e-9 < gap < 2e-8
    rng = random.Random(1729)
    for _ in range(200):
        z = rng.uniform(0.0, 0.3)
        gap = tree_eval(z).y - _partial_sum(z, 60)
        assert -1e-13 <= gap <= 2e-8  # mathematically >= 0; float summation noise ~1e-15


def test_tree_eval_tight_against_order_60_where_tail_is_negligible():
    rng = random.Random(20260808)
    for _ in range(200):
        z = rng.uniform(0.0, 0.25)
        assert abs(tree_eval(z).y - _partial_sum(z, 60)) <= 1e-12


def test_tree_eval_round_trip_across_domain():
    hi = TREE_DOMAIN_SUP - 1e-6
    for i in range(201):
        z = hi * i / 200
        r = tree_eval(z)
        assert abs(r.y * math.exp(-r.y) - z) <= 1e-12
        assert 0.0 <= r.y < 1.0
        assert r.residual <= 1e-12


def test_tree_eval_newton_iteration_budget():
    worst = 0
    for i in range(301):
        z = 0.3 * i / 300
        worst = max(worst, tree_eval(z).iterations)
    assert worst <= 20


def test_tree_eval_domain_errors():
    for z in (-1e-9, TREE_DOMAIN_SUP, 0.5, 1.0):
        with pytest.raises(ValueError):
            tree_eval(z)


def test_tree_eval_nonconvergence_error():
    with pytest.raises(RuntimeError):
        tree_eval(0.35, max_iter=1)


def test_q_float_examples():
    assert q_float(1) == 1.0
    assert q_float(2) == 1.5
    assert 12.0 < q_float(100) < 12.3  # leading order sqrt(50*pi) - 1/3 ~ 12.2


def test_q_float_is_correctly_rounded():
    for n in range(1, 61):
        exact = ramanujan_q(n)
        approx = q_float(n)
        assert abs(Fraction(approx) - exact) <= Fraction(math.ulp(approx))


def test_q_growth_rows():
    rows = q_growth_check([100, 200, 400])
    assert [row.n for row in rows] == [100, 200, 400]
    for row in rows:
        assert 0.97 <= row.ratio <= 1.01
        assert row.q == ramanujan_q(row.n)


def test_q_growth_single_small_n():
    (row,) = q_growth_check([1])
    assert abs(row.ratio - 1 / math.sqrt(math.pi / 2)) < 1e-12  # ~0.7979


def test_q_growth_empty():
    assert q_growth_check([]) == []


def test_q_growth_monotone_from_below():
    grid = [1, 2, 5, 10, 20, 50, 100, 200, 400]
    ratios = [row.ratio for row in q_growth_check(grid)]
    assert all(r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))

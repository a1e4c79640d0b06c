"""Growth of Ramanujan's Q(n) against its leading asymptotic sqrt(pi*n/2)."""

import math

from lacasse.identity import ramanujan_q


def _ratios(grid):
    return [float(ramanujan_q(n)) / math.sqrt(math.pi * n / 2) for n in grid]


def test_q_growth_monotone_from_below():
    # Q(n) = sqrt(pi*n/2) - 1/3 + O(1/sqrt(n)), so the ratio climbs to 1 from below
    ratios = _ratios([1, 2, 5, 10, 20, 50, 100, 200, 400])
    assert all(r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))

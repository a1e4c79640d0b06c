"""Growth of Ramanujan's Q(n) against its leading asymptotic sqrt(pi*n/2)."""

import math

from lacasse.identity import ramanujan_q


def test_q_growth_monotone_from_below():
    # Q(n) = sqrt(pi*n/2) - 1/3 + O(1/sqrt(n)), so the ratio climbs to 1 from below
    ratios = [float(ramanujan_q(n)) / math.sqrt(math.pi * n / 2) for n in range(1, 401)]
    assert all(a < b < 1 for a, b in zip(ratios, ratios[1:]))

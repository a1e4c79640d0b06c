"""Pure-Python kernels for the hot inner loops.

Callers reach these through ``backend.kernels``.

Series kernels work on EGF integer vectors: entry m holds m! times the
coefficient of z^m.  For every series handled here (the tree function and
the powers of 1/(1 - y)) those entries are integers, and each kernel is one
recurrence of binomial convolutions whose weights come from one Pascal
row, advanced by addition from step to step, so it never leaves the
integers, never divides, never touches a gcd and holds no Pascal table.

``comp_power_sum``, the brute-force route, is built the same way but from
the definition alone: it sums over weak compositions, seeded with k^k, and
touches neither the tree function nor the closed forms.  One call sweeps a
whole window of n and returns every round, s_1 through s_d.
"""

from __future__ import annotations

from operator import add, mul


def egf_geom_power(y: list, d: int) -> list:
    """(1/(1 - y))^d for a vector whose constant term is 0, d >= 1.

    P = (1 - y)^(-d) satisfies P'(1 - y) = d y' P, and the coefficient of
    z^(m-1) on both sides gives
    P[m] = sum_{k=1..m} (C(m-1, k) + d C(m-1, k-1)) y[k] P[m-k]
    from P[0] = 1: one division-free O(N^2) pass for any d, with no
    reciprocal and no chain of products (J.C.P. Miller's power recurrence,
    Knuth, TAOCP vol. 2, 4.7).
    """
    if d < 1:
        raise ValueError(f"egf_geom_power requires d >= 1, got {d}")
    if not y or y[0] != 0:
        raise ValueError("egf_geom_power requires constant term 0")
    n = len(y) - 1
    p = [1]
    row = [1]  # row m - 1 of Pascal's triangle at step m
    for m in range(1, n + 1):
        if m > 1:
            row = [1, *map(add, row, row[1:]), 1]
        acc = d * y[m]  # k = m: C(m-1, m) = 0, C(m-1, m-1) = 1, P[0] = 1
        for k in range(1, m):
            acc += (row[k] + d * row[k - 1]) * y[k] * p[m - k]
        p.append(acc)
    return p


def tree_egf(order: int) -> list:
    """EGF integers of the tree function, solving y = z*exp(y) online.

    With g = exp(y), the z-shift reads y[m] = m * g[m-1], and g' = y'g
    gives g[m] = sum_{j=1..m} C(m-1, j-1) y[j] g[m-j]
    = sum_{i=0..m-1} C(m-1, i) (i+1) g[i] g[m-1-i], which needs g only
    through index m-1.  So one pass alternates the two: read y[m] off g,
    then extend g by one coefficient (the relaxed solve of Brent & Kung,
    JACM 1978, and van der Hoeven, JSC 2002).  The terms i and m-1-i share
    their binomial and their weights sum to m+1, so
    g[m] = (m+1) sum_{i < (m-1)/2} C(m-1, i) g[i] g[m-1-i], plus the middle
    term (h+1) C(m-1, h) g[h]^2 at h = (m-1)/2 when m is odd: only the
    first half of the Pascal row is read, and the whole solve takes about
    order^2/4 products of a binomial and two coefficients.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    y = [0] * (order + 1)
    g = [1]
    row = [1]  # row m - 1 of Pascal's triangle at step m
    for m in range(1, order + 1):
        y[m] = m * g[m - 1]
        if m < order:
            if m > 1:
                row = [1, *map(add, row, row[1:]), 1]
            h = m // 2  # pairs i < h; i = h is the middle term when m is odd
            acc = 0
            for i in range(h):
                acc += row[i] * g[i] * g[m - 1 - i]
            acc *= m + 1
            if m % 2:
                acc += (h + 1) * row[h] * g[h] * g[h]
            g.append(acc)
    return y


def comp_power_sum(first: int, last: int, d: int) -> list:
    """[s_1, ..., s_d], each a list of s_e(n) for n = first..last: the sum
    over the weak compositions of n into e parts of multinomial(parts) *
    prod(k_i^k_i), with 0^0 == 1.

    A weak composition of n is a first part k followed by a composition of
    n - k into e - 1 parts, and multinomial(n; k, rest) = C(n, k) *
    multinomial(n - k; rest), so grouping by the first part gives
    s_e(n) = sum_k C(n, k) k^k s_(e-1)(n - k) from s_1(m) = m^m.  One sweep
    over n = 0..last carries a single Pascal row, advanced by addition,
    and for each n runs the d - 1 rounds on the shared weights
    w[k] = C(n, k) k^k; only the last round, which no other reads, is
    restricted to first..last.  Round 2 is symmetric, its terms k and n - k
    both C(n, k) k^k (n-k)^(n-k), so it is 2 sum_{k < n/2} w[k] (n-k)^(n-k)
    plus w[n/2] (n/2)^(n/2) when n is even, half a round of products.  Each
    sub-sum s_e(m) is thus built once and reused by every n above m: about
    (d - 1/2) * last^2 / 2 products for the whole window, with no division
    and no table of binomials.
    """
    if first < 0 or last < first:
        raise ValueError(f"invalid window [{first}, {last}]; need 0 <= first <= last")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    powt = [k**k for k in range(last + 1)]
    if d == 1:
        return [powt[first:]]
    mids = [[] for _ in range(d - 2)]  # s_2 .. s_(d-1) at 0..n
    out = []
    row = [1]
    for n in range(last + 1):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        rounds = [*mids, out] if n >= first else mids
        if not rounds:
            continue
        w = list(map(mul, row, powt))  # C(n, k) k^k for k = 0..n
        half = (n + 1) // 2  # pairs k < n/2; k = n/2 is the middle term when n is even
        s2 = 2 * sum(map(mul, w[:half], powt[n : n - half : -1]))
        if n % 2 == 0:
            s2 += w[half] * powt[half]
        rounds[0].append(s2)
        for prev, s in zip(rounds, rounds[1:]):
            s.append(sum(map(mul, w, reversed(prev))))  # prev holds 0..n
    return [powt[first:], *(s[first:] for s in mids), out]

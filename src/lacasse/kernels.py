"""The integer kernels behind the series and brute-force routes.

``identity``, the one caller, reads these as ``kernels.<fn>`` at call
time, so rebinding one function here reaches every call: that is the seam
through which the fault-injection tests break one at a time.  The
brute route makes one ``comp_power_sum`` call per ``identity.route_table``,
not one per n, so a wrapper sees the whole window and every round at once.

Series kernels work on EGF integer vectors: entry m holds m! times the
coefficient of z^m.  For every series handled here (the tree function and
the powers of 1/(1 - y)) those entries are integers, and each kernel is one
recurrence of binomial convolutions whose weights come from one Pascal
row, advanced by addition from step to step, so it never leaves the
integers, never divides, never touches a gcd and holds no Pascal table.
``egf_geom_power`` returns a list of rows, like ``comp_power_sum``: P_d,
and on request P_(d-1) from the same pass's products.

``comp_power_sum``, the brute-force route, is built the same way but from
the definition alone: it sums over weak compositions, seeded with k^k, and
touches neither the tree function nor the closed forms.  One call sweeps a
whole window of n and returns every round, s_1 through s_d.
"""

from operator import add, mul


def egf_geom_power(y: list, d: int, lower: bool = False) -> list:
    """[P_d], or [P_d, P_(d-1)] when ``lower``, with P_e = (1/(1 - y))^e.
    Needs a nonempty y with y[0] == 0, and d >= 1; the caller checks.

    P = P_d satisfies P'(1 - y) = d y' P, and the coefficient of z^(m-1)
    on both sides gives, with v_k = y[k] P[m-k],
    P[m] = sum_{k=1..m} (C(m-1, k) + d C(m-1, k-1)) v_k = A_m + d B_m
    from P[0] = 1: one division-free O(N^2) pass for any d, with no
    reciprocal and no chain of products (J.C.P. Miller's power recurrence,
    Knuth, TAOCP vol. 2, 4.7).  The weights C(m-1, k) + d C(m-1, k-1) obey
    Pascal's rule themselves, so P_d alone carries them as its row.

    The same products give the next power down.  (1 - y) P_d = P_(d-1), so
    P_(d-1)' = (d-1) y' P_d, whose coefficient of z^(m-1) is
    P_(d-1)[m] = (d-1) B_m (P_0 = [1, 0, ...] at d = 1).  That is series
    algebra, not the Lacasse identity, so the lower row is a route to
    alpha as independent as its own pass would be.  The pair carries row
    m - 1 of Pascal's triangle, and since C(m-1, j) = C(m-1, m-1-j), each of
    A_m = sum_j C(m-1, j) v_j and B_m = sum_j C(m-1, j) v_(j+1) adds its
    terms j and m-1-j first and takes one product per pair.  So step m makes
    the m products v_k once for both rows, and two half-length weighted
    sums: about the cost of P_d alone, where two passes cost twice that.
    P_d alone takes its one weighted sum whole, as the fold would save no
    product there and add an addition per term.
    """
    n = len(y) - 1
    top, low = [1], [1]
    # the weights at step m: row m - 1 of Pascal's triangle for the pair,
    # C(m-1, k) + d C(m-1, k-1) for k = 0..m for P_d alone
    row = [1] if lower else [1, d]
    for m in range(1, n + 1):
        if m > 1:
            row = [row[0], *map(add, row, row[1:]), row[-1]]
        v = [0, *map(mul, y[1 : m + 1], reversed(top))]  # v_k for k = 0..m; v_0 = 0
        if lower:
            b = _palindrome_dot(row, v[1:])  # sum_k C(m-1, k-1) v_k
            top.append(_palindrome_dot(row, v[:m]) + d * b)
            low.append((d - 1) * b)
        else:
            top.append(sum(map(mul, row, v)))
    return [top, low] if lower else [top]


def _palindrome_dot(row: list, x: list) -> int:
    """sum_j row[j] x[j] for a row with row[j] == row[-1-j]: the terms j and
    len(row) - 1 - j share a weight, so each pair takes one product."""
    h = len(row) // 2
    s = sum(map(mul, row, map(add, x[:h], reversed(x))))  # map stops after h
    if len(row) % 2:
        s += row[h] * x[h]
    return s


def tree_egf(order: int) -> list:
    """EGF integers of the tree function, solving y = z*exp(y) online.
    Needs order >= 0; the caller checks.

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
    and no table of binomials.  Needs 0 <= first <= last and d >= 1; the
    caller checks.
    """
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

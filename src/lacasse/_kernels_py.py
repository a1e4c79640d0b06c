"""Pure-Python kernels for the hot inner loops.

Callers reach these through ``backend.kernels``.

Series kernels work on EGF integer vectors: entry m holds m! times the
coefficient of z^m.  For every series handled here (the tree function and
the powers of 1/(1 - y)) those entries are integers, and each kernel is one
recurrence of binomial convolutions with Pascal-row weights, so it never
leaves the integers, never divides and never touches a gcd.
"""

from __future__ import annotations


def pascal_rows(order: int) -> list[list[int]]:
    """Rows 0..order of Pascal's triangle, built by the additive recurrence."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    rows = [[1]]
    for m in range(1, order + 1):
        prev = rows[-1]
        row = [1]
        for j in range(1, m):
            row.append(prev[j - 1] + prev[j])
        row.append(1)
        rows.append(row)
    return rows


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
    rows = pascal_rows(max(n - 1, 0))
    p = [1]
    for m in range(1, n + 1):
        row = rows[m - 1]
        acc = d * y[m]  # k = m: C(m-1, m) = 0, C(m-1, m-1) = 1, P[0] = 1
        for k in range(1, m):
            acc += (row[k] + d * row[k - 1]) * y[k] * p[m - k]
        p.append(acc)
    return p


def tree_egf(order: int) -> list:
    """EGF integers of the tree function, solving y = z*exp(y) online.

    With g = exp(y), the z-shift reads y[m] = m * g[m-1], and g' = y'g
    gives g[m] = sum_{j=1..m} C(m-1, j-1) y[j] g[m-j], which needs y only
    through index m.  So one pass alternates the two: read y[m] off g, then
    extend g by one coefficient.  O(order^2) products (the relaxed solve of
    Brent & Kung, JACM 1978, and van der Hoeven, JSC 2002).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    rows = pascal_rows(max(order - 1, 0))
    y = [0] * (order + 1)
    g = [1]
    for m in range(1, order + 1):
        y[m] = m * g[m - 1]
        if m < order:
            row = rows[m - 1]
            acc = 0
            for j in range(1, m + 1):
                acc += row[j - 1] * y[j] * g[m - j]
            g.append(acc)
    return y


def comp_power_sum(n: int, d: int) -> int:
    """Sum of multinomial(parts) * prod(k_i^k_i) over weak compositions of n into d parts.

    Deliberately a plain enumeration (the oracle for the closed forms):
    each of the C(n+d-1, d-1) compositions contributes exactly one term,
    and no partial sum is shared between compositions.  The multinomial is
    a product of Pascal-row binomials taken part by part: a part j of the
    r still to place contributes C(r, j) * j^j, multiplied once into the
    factor that every composition under it shares.  The last two parts
    (j, r - j) add C(r, j) * j^j * (r-j)^(r-j) each.  0^0 == 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    powt = [k**k for k in range(n + 1)]
    if d == 1:
        return powt[n]
    rows = pascal_rows(n)
    total = 0
    # depth first over the leading d - 2 parts, without recursion (d is not
    # bounded by the recursion limit): (left to place, parts left, factor)
    todo = [(n, d, 1)]
    while todo:
        r, parts, f = todo.pop()
        if r == 0:  # the one composition whose remaining parts are all 0
            total += f
            continue
        row = rows[r]
        if parts == 2:
            tail = reversed(powt[: r + 1])  # (r-j)^(r-j) for j = 0..r
            total += f * sum(c * (p * q) for c, p, q in zip(row, powt, tail))
        else:
            for j in range(r + 1):
                todo.append((r - j, parts - 1, f * row[j] * powt[j]))
    return total

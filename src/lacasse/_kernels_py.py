"""Pure-Python kernels for the hot inner loops.

Callers reach these through ``backend.kernels``.

Series kernels work on EGF integer vectors: entry m holds m! times the
coefficient of z^m.  For every series handled here (the tree function and
rational functions of it) those entries are integers, so the convolutions
below never leave the integers and never touch a gcd.
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


def _mul(u: list, v: list, rows: list, n: int) -> list:
    # w[m] = sum_j C(m, j) u[j] v[m-j]
    out = [0] * (n + 1)
    for m in range(n + 1):
        row = rows[m]
        acc = 0
        for j in range(m + 1):
            uj = u[j]
            if uj:
                acc += row[j] * uj * v[m - j]
        out[m] = acc
    return out


def egf_recip(u: list) -> list:
    """EGF reciprocal of a vector whose constant term is 1."""
    if not u or u[0] != 1:
        raise ValueError("egf_recip requires constant term 1")
    n = len(u) - 1
    rows = pascal_rows(n)
    b = [0] * (n + 1)
    b[0] = 1
    for m in range(1, n + 1):
        row = rows[m]
        acc = 0
        for j in range(1, m + 1):
            uj = u[j]
            if uj:
                acc += row[j] * uj * b[m - j]
        b[m] = -acc
    return b


def egf_pow(u: list, d: int) -> list:
    """d-th EGF power by binary powering, d >= 1."""
    if d < 1:
        raise ValueError(f"egf_pow requires d >= 1, got {d}")
    n = len(u) - 1
    rows = pascal_rows(n)
    result = None
    base = list(u)
    while d:
        if d & 1:
            result = base if result is None else _mul(result, base, rows, n)
        d >>= 1
        if d:
            base = _mul(base, base, rows, n)
    return list(result)


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

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


def _exp(u: list, rows: list, n: int) -> list:
    # g[0] = 1, g[m] = sum_{j>=1} C(m-1, j-1) u[j] g[m-j]
    g = [0] * (n + 1)
    g[0] = 1
    for m in range(1, n + 1):
        row = rows[m - 1]
        acc = 0
        for j in range(1, m + 1):
            uj = u[j]
            if uj:
                acc += row[j - 1] * uj * g[m - j]
        g[m] = acc
    return g


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
    """EGF integers of the tree function via the fixed point y <- z*exp(y).

    Runs order+1 full reassignment passes.  Pass p is evaluated at
    truncation order min(p, order): coefficients through p-1 are already
    exact going in, so the pass can only fix coefficient p and everything
    above min(p, order) would be discarded anyway.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    rows = pascal_rows(max(order - 1, 0))
    y = [0] * (order + 1)
    for p in range(1, order + 2):
        m = min(p, order)
        if m == 0:
            continue
        g = _exp(y, rows, m - 1)
        # z-shift in EGF terms: coefficient k of z*s is k * (EGF of s at k-1)
        for k in range(1, m + 1):
            y[k] = k * g[k - 1]
    return y


def comp_power_sum(n: int, d: int) -> int:
    """Sum of multinomial(parts) * prod(k_i^k_i) over weak compositions of n into d parts.

    Deliberately a dumb enumeration (the oracle for the closed forms): a
    colex odometer visits each of the C(n+d-1, d-1) compositions once and
    each term is computed from factorial and k^k tables, 0^0 == 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n == 0:
        return 1
    fact = [1] * (n + 1)
    powt = [1] * (n + 1)
    f = 1
    for k in range(1, n + 1):
        f *= k
        fact[k] = f
        powt[k] = k**k
    nf = fact[n]
    comp = [0] * d
    comp[0] = n
    total = 0
    while True:
        den = 1
        w = 1
        for ki in comp:
            den *= fact[ki]
            w *= powt[ki]
        total += (nf // den) * w
        i = 0
        while comp[i] == 0:
            i += 1
        if i == d - 1:
            break
        v = comp[i]
        comp[i] = 0
        comp[0] = v - 1
        comp[i + 1] += 1
    return total

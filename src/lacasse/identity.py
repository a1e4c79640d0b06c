"""Closed forms for alpha, beta and the general d-part sum, the tree
function's series and its powers, the Lacasse identity verifier over the
closed, brute-force and series routes, and Ramanujan's Q-function.

The quantities, for n >= 0 (0^0 == 1 throughout):

    alpha(n) = sum_{k=0..n} C(n,k) k^k (n-k)^(n-k)
             = sum_{k=0..n} (n!/k!) n^k
    beta(n)  = sum over weak 3-part compositions of n of
               multinomial * k1^k1 k2^k2 k3^k3
             = sum_{k=0..n} (n!/k!) (n+1-k) n^k

and the identity under test is beta(n) - alpha(n) = n^(n+1), equivalently
xi2(n) = xi(n) + n after dividing by n^n.

A series is a tuple of ints truncated at a fixed order: entry m holds m!
times the coefficient of z^m (the series' exponential-generating-function
entry).  The tree function y(z) (the solution of y = z*e^y) and every
power of 1/(1 - y) have integer entries in this form, so the series route
to alpha, beta and the general d-part sums never leaves the integers.

The series kernels, ``tree_egf`` and ``egf_geom_power``, are each one
recurrence of binomial convolutions whose weights come from one Pascal
row, advanced by addition from step to step, so they never divide, never
touch a gcd and hold no Pascal table.  ``comp_power_sum``, the brute-force
route, is built the same way but from the definition alone: it sums over
weak compositions, seeded with k^k, and touches neither the tree function
nor the closed forms.

Values are Python ints (arbitrary precision, no overflow at any size used
here) and ``fractions.Fraction`` (always lowest terms, positive
denominator).  ``exact_str`` prints both: ints by divide and conquer over
powers of ten, with ``str()`` only on pieces of at most ``_DIGITS``
digits, so printing loads no module (from Python 3.12 CPython's own
``divmod`` imports ``_pylong``, and with it ``decimal``, for a quotient
and divisor past a few thousand digits).

An argument outside a quantity's domain raises DomainError, and every
verification failure is a ConsistencyError, both raised here.  The callers
here reach the three kernels through this module's globals at call time,
so rebinding one (``identity.tree_egf``) reaches every call: that is the
seam through which the fault-injection tests break one at a time.
"""

import os
from collections import namedtuple
from collections.abc import Sequence
from functools import partial
from itertools import accumulate, repeat
from math import comb
from operator import add, mul

__all__ = [
    "ConsistencyError",
    "DEFAULT_BRUTE_CUTOFF",
    "DomainError",
    "IdentityFailureError",
    "RouteDisagreementError",
    "VerificationReport",
    "alpha_closed",
    "beta_closed",
    "geom_power",
    "ramanujan_q",
    "s_d_closed",
    "telescoping_difference",
    "tree_series",
    "verify_lacasse",
    "verify_range",
    "xi",
    "xi2",
]

ALL_ROUTES = ("closed", "brute", "series")

# Brute force is dropped (never errors) once the enumeration would exceed
# this many weak compositions.
DEFAULT_BRUTE_CUTOFF = 2_000_000


# the leaf size of exact_str's split: below 640, the lowest nonzero
# int-to-str digit limit Python accepts, so every str() it makes is legal
# under any limit
_DIGITS = 600
_LEAF = 10**_DIGITS


class DomainError(ValueError):
    """An argument outside the domain of the requested quantity.

    The one error the CLI reports as a usage or domain error (exit 2).  Any
    other ValueError is a fault inside the program and is not caught there.
    """


def exact_str(x) -> str:
    """Full decimal digits of an int, or ``p/q`` of a Fraction, at any size.

    An int is its own numerator over denominator 1, so both types are read
    through ``numerator`` and ``denominator``.  An int below 10^_DIGITS in
    magnitude prints with ``str()``.  A larger one is split by ``divmod`` at
    10^(_DIGITS 2^k), the powers squared up from 10^_DIGITS once per call,
    and both halves print the same way, each low half zero-padded to its
    full width.  Every ``str()`` call so prints fewer digits than any
    int-to-str limit Python accepts: the process-wide limit is never read
    or changed, and the split's quadratic divisions cost less than
    ``str()``'s quadratic conversion of the whole int.
    The CLI's output and every failure message that quotes a value go
    through here.
    """
    p, q = x.numerator, x.denominator
    if q != 1:
        return f"{exact_str(p)}/{exact_str(q)}"
    if -_LEAF < p < _LEAF:
        return str(p)
    if p < 0:
        return "-" + exact_str(-p)
    powers = [_LEAF]  # powers[k] = 10^(_DIGITS 2^k), until p < powers[-1]^2
    while p.bit_length() > 2 * powers[-1].bit_length() - 2:
        powers.append(powers[-1] * powers[-1])
    return _digits(p, powers, len(powers) - 1, False)


def _digits(p: int, powers: list, k: int, pad: bool) -> str:
    """The digits of 0 <= p < powers[k]^2 (p < 10^_DIGITS at k = -1),
    zero-padded to _DIGITS 2^(k+1) when ``pad``."""
    if k < 0:
        return str(p).zfill(_DIGITS) if pad else str(p)
    if not pad and p < powers[k]:
        return _digits(p, powers, k - 1, False)
    hi, lo = divmod(p, powers[k])
    return _digits(hi, powers, k - 1, pad) + _digits(lo, powers, k - 1, True)


class ConsistencyError(RuntimeError):
    """Two independent constructions of the same value disagreed.

    The one verification failure: the CLI reports it, and its subclasses
    below, as exit 1.  This never fires on correct code; it signals an
    arithmetic bug, not a property of the input.
    """


class RouteDisagreementError(ConsistencyError):
    """Two computation routes returned different values for the same quantity."""

    def __init__(self, n: int, quantity: str, routes: tuple[str, str], values: tuple[int, int]):
        super().__init__(n, quantity, routes, values)  # args rebuild it when unpickled
        self.n = n
        self.quantity = quantity
        self.routes = routes
        self.values = values

    def __str__(self) -> str:
        return (
            f"routes {self.routes[0]!r} and {self.routes[1]!r} disagree on "
            f"{self.quantity}({self.n}): "
            f"{exact_str(self.values[0])} vs {exact_str(self.values[1])}"
        )


class IdentityFailureError(ConsistencyError):
    """beta(n) - alpha(n) missed n^(n+1); an implementation bug, never the math."""

    def __init__(self, n: int, difference: int, expected: int):
        super().__init__(n, difference, expected)  # args rebuild it when unpickled
        self.n = n
        self.difference = difference
        self.expected = expected

    def __str__(self) -> str:
        return (
            f"beta({self.n}) - alpha({self.n}) = {exact_str(self.difference)} "
            f"!= n^(n+1) = {exact_str(self.expected)}"
        )


class VerificationReport(
    namedtuple("VerificationReport", "n alpha beta difference expected routes_compared passed")
):
    """Per-n outcome of the identity check across the compared routes."""

    __slots__ = ()


def alpha_closed(n: int) -> int:
    """alpha(n) = sum_k (n!/k!) n^k, the d = 2 case of s_d_closed."""
    return s_d_closed(n, 2)


def beta_closed(n: int) -> int:
    """beta(n) = sum_k (n!/k!) (n+1-k) n^k, the d = 3 case of s_d_closed."""
    return s_d_closed(n, 3)


def s_d_closed(n: int, d: int) -> int:
    """n! [z^n] (1/(1-y))^d as a finite sum, for the tree function y.

    The weight C(n-j+d-2, d-2) on the j-th term is the coefficient of
    y^(n-j) in 1/(1-y)^(d-1): d=2 and d=3 give the alpha and beta
    closed forms (weights 1 and n+1-j), and d=1 degenerates to n^n
    (empty geometric factor, weight [j == n]).  Up to d = 4 the weights
    are d - 2 prefix sums of ones; from d = 5 one ``math.comb`` per weight
    is faster, and its cost barely grows with d.  The sum is
    ``_falling_sum``'s binary splitting, three Horner steps per leaf pass.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if d == 1:
        return n**n
    if d < 5:  # C(k+d-2, d-2) at k = n-j, by the hockey-stick identity
        weights = [1] * (n + 1)
        for _ in range(d - 2):
            weights = list(accumulate(weights))
        weights.reverse()
    else:
        weights = list(map(comb, range(n + d - 2, d - 3, -1), repeat(d - 2)))
    return _falling_sum(n, weights)


_BLOCK = 64  # terms per Horner block; smaller blocks cost more to combine


def _falling_sum(n: int, weights: list[int], certify: bool = False) -> int:
    """sum_{j=0..top} (top!/j!) weights[j] n^j, top = len(weights) - 1.

    Horner's step (t, f) -> (t*n + f*weights[j], f*j), from (0, 1) as j falls
    from top to 0, is affine: the j in [a, b) give (t*n^(b-a) + f*T, f*F),
    and split at m, T = T_hi*n^(m-a) + F_hi*T_lo and F = F_lo*F_hi.  So the
    range is halved down to Horner blocks: balanced products, no division.
    A block's one single-step loop takes its (b - a) mod 3 leftover steps
    from j = b - 1, and its three-step loop the rest, each pass composed as
    t -> t*n^3 + f*((w_j*n + j*w_(j-1))*n + j(j-1)*w_(j-2)) and
    f -> f*j(j-1)(j-2): the coefficient stays a few machine words, so a
    pass costs about what one step does.

    ``certify`` is for the weights n - j of ``telescoping_difference``: each
    step then maps t + f to (t + f)*n, so every block's (T, F) has
    T + F == n^(b-a).  Certifying, the single-step loop takes every step
    and checks each, leaving the three-step loop empty, and each combine is
    checked too.  A miss raises ConsistencyError naming the step's k or the
    block.
    """
    pw = [n**i for i in range(_BLOCK + 1)] if certify else None
    n3 = n**3

    def block(a: int, b: int) -> tuple[int, int]:
        if b - a <= _BLOCK:
            t, f = 0, 1
            top = a - 1 if certify else b - 1 - (b - a) % 3
            for j in range(b - 1, top, -1):
                t = t * n + f * weights[j]
                f *= j
                if certify and t + f != pw[b - j]:
                    raise ConsistencyError(
                        f"telescoping cancellation broke at n={n}, k={j}: "
                        f"{exact_str(t + f)} != n^{b - j} = {exact_str(pw[b - j])}"
                    )
            for j in range(top, a, -3):
                jj = j * (j - 1)
                t = t * n3 + f * ((weights[j] * n + j * weights[j - 1]) * n + jj * weights[j - 2])
                f *= jj * (j - 2)
            return t, f
        m = (a + b) // 2
        t_lo, f_lo = block(a, m)
        t_hi, f_hi = block(m, b)
        t, f = t_hi * n ** (m - a) + f_hi * t_lo, f_lo * f_hi
        if certify and t + f != n ** (b - a):
            raise ConsistencyError(
                f"telescoping cancellation broke at n={n}, block [{a}, {b}): "
                f"{exact_str(t + f)} != n^{b - a} = {exact_str(n ** (b - a))}"
            )
        return t, f

    return block(0, len(weights))[0]


def _fraction(p: int, q: int):
    """p/q in lowest terms; ``fractions`` loads on the first rational built."""
    from fractions import Fraction

    return Fraction(p, q)


def xi(n: int):
    """alpha(n) / n^n as a ``fractions.Fraction``; undefined at n = 0."""
    if n < 1:
        raise DomainError(f"xi({n}) is undefined; n >= 1 required (division by n^n)")
    return _fraction(alpha_closed(n), n**n)


def xi2(n: int):
    """beta(n) / n^n as a ``fractions.Fraction``; undefined at n = 0."""
    if n < 1:
        raise DomainError(f"xi2({n}) is undefined; n >= 1 required (division by n^n)")
    return _fraction(beta_closed(n), n**n)


def telescoping_difference(n: int) -> int:
    """Evaluate sum_k (n!/k!) (n-k) n^k and certify its telescoping collapse.

    With u_k = (n!/k!) n^k, so that k u_k = n u_(k-1), the k-th term
    u_k (n-k) is n u_k - n u_(k-1), with u_(-1) = 0, so a block [a, b) of k
    telescopes to n (u_(b-1) - u_(a-1)) and the whole sum to n u_n = n^(n+1).
    It is ``_falling_sum`` with weights n - k, the binary splitting that
    also sums alpha, beta and Q, run with ``certify``: every Horner step
    and every block combine must keep T + F == n^(b-a), and the root block
    [0, n+1) has F = 0, so its T must be n^(n+1).  The total is compared
    with a separately computed n^(n+1) as well; any miss raises
    ConsistencyError.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    total = _falling_sum(n, [n - k for k in range(n + 1)], certify=True)
    expected = n ** (n + 1)
    if total != expected:
        raise ConsistencyError(
            f"telescoping sum at n={n} is {exact_str(total)}, "
            f"expected n^(n+1) = {exact_str(expected)}"
        )
    return total


def ramanujan_q(n: int):
    """Q(n) = sum_{k=1..n} n! / ((n-k)! n^k) as a ``fractions.Fraction``.

    Over the common denominator n^(n-1) the k-th term has numerator
    ((n-1)!/j!) n^j with j = n-k, so the numerator is ``_falling_sum`` with
    unit weights, and one Fraction is built.  alpha(n) = n^n (1 + Q(n)).
    """
    if n < 1:
        raise DomainError(f"ramanujan_q({n}) is undefined; n >= 1 required")
    return _fraction(_falling_sum(n, [1] * n), n ** (n - 1))


def brute_force_admitted(n: int, d: int, cutoff: int = DEFAULT_BRUTE_CUTOFF) -> bool:
    """True when the d-part enumeration of n stays within the term cutoff.

    Needs n >= 0 and d >= 1; the caller checks.
    """
    return comb(n + d - 1, d - 1) <= cutoff


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


def _normalize_routes(routes) -> tuple[str, ...]:
    requested = set(routes)
    unknown = requested.difference(ALL_ROUTES)
    if unknown:
        raise DomainError(f"unknown routes {sorted(unknown)}; valid routes are {ALL_ROUTES}")
    requested.add("closed")  # the closed forms are always computed
    return tuple(r for r in ALL_ROUTES if r in requested)


def verify_lacasse(
    n: int, routes=ALL_ROUTES, cutoff: int = DEFAULT_BRUTE_CUTOFF
) -> VerificationReport:
    """Check beta(n) - alpha(n) = n^(n+1) across every admitted route.

    This is ``verify_range(n, n, routes, cutoff)[0]``, errors included.
    The closed forms are always evaluated; the brute-force route is used
    when requested and below the cutoff; the series route when requested.
    Route disagreement or an identity miss raises (either one means a bug
    somewhere in the arithmetic, since the identity is a theorem).
    """
    return verify_range(n, n, routes, cutoff)[0]


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


def tree_series(order: int) -> tuple[int, ...]:
    """The tree function y(z) = sum_{n>=1} n^(n-1) z^n / n! to the given order.

    Returns (0, 1, 2, 9, 64, ...): entry n is n^(n-1), the number of rooted
    labeled trees on n vertices.  Built two independent ways on every call:
    the explicit formula and the recurrence solving y = z * exp(y) one
    coefficient at a time.  A mismatch raises ConsistencyError, since every
    downstream result leans on this series.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    formula = [0] + [n ** (n - 1) for n in range(1, order + 1)]
    fixed_point = tree_egf(order)
    if formula != fixed_point:
        bad = next(i for i in range(order + 1) if formula[i] != fixed_point[i])
        raise ConsistencyError(
            f"tree series constructions disagree at z^{bad}: "
            f"formula {exact_str(formula[bad])}, fixed point {exact_str(fixed_point[bad])}"
        )
    return tuple(formula)


def geom_power(y: Sequence[int], d: int) -> tuple[int, ...]:
    """(1/(1 - y))^d truncated at len(y) - 1; y needs zero constant term.

    Input and output are n!-scaled integer vectors.  One division-free
    pass for any d (``egf_geom_power``): no reciprocal, no products of
    powers.
    """
    if d < 1:
        raise DomainError(f"geom_power requires d >= 1, got {d}")
    if not y or y[0] != 0:
        raise DomainError("geom_power requires a zero constant term")
    return tuple(egf_geom_power(y, d)[0])


def route_table(
    route: str, first: int, last: int, ds, cutoff: int = DEFAULT_BRUTE_CUTOFF
) -> dict[int, list[int]]:
    """{n: [s_d(n) for d in ds]} for each n in [first, last] that ``route`` admits.

    ``closed`` evaluates ``s_d_closed`` per n.  ``series`` reads the powers
    (1/(1 - y))^d off one ``tree_series(last)``, taking d and d - 1 from
    one ``egf_geom_power`` pass when ``ds`` holds both (``verify``'s alpha
    and beta) and any other d from a pass of its own; both admit every n.
    ``brute`` reads rounds ``ds`` off one ``comp_power_sum`` sweep at
    ``max(ds)`` over the n whose enumeration stays within ``cutoff``
    (admission only ever drops n from the top, so they are a prefix).
    Needs a route of ``ALL_ROUTES`` (any other is taken as ``brute``),
    0 <= first <= last and every d >= 1; the caller checks.
    """
    window = range(first, last + 1)
    if route == "closed":
        return {n: [s_d_closed(n, d) for d in ds] for n in window}
    if route == "series":
        t = tree_series(last)
        powers = {}
        for d in sorted(set(ds), reverse=True):
            if d not in powers:
                powers.update(zip((d, d - 1), egf_geom_power(t, d, lower=d - 1 in ds)))
        return {n: [powers[d][n] for d in ds] for n in window}
    top = max(ds)
    admitted = [n for n in window if brute_force_admitted(n, top, cutoff)]
    if not admitted:
        return {}
    rounds = comp_power_sum(first, admitted[-1], top)
    return {n: [rounds[d - 1][i] for d in ds] for i, n in enumerate(admitted)}


def verify_range(
    first: int,
    last: int,
    routes=ALL_ROUTES,
    cutoff: int = DEFAULT_BRUTE_CUTOFF,
    jobs: int = 1,
) -> list[VerificationReport]:
    """verify_lacasse for every n in [first, last], reports ordered by n.

    Each requested route builds its alpha and beta (s_2 and s_3) for the
    whole range as one ``route_table``.  The tables are built side by side
    in up to ``jobs`` processes, never more than there are routes or CPUs;
    every n is then checked here, in order: alpha across the routes that
    admit it, beta likewise, then beta - alpha = n^(n+1).  So the reports,
    and the first failure raised, are the same for every ``jobs``.  The
    process pool is imported only when more than one worker runs, so a
    one-worker run never loads ``multiprocessing``.  Every worker is born
    with SIGINT blocked, under any start method, so Ctrl-C, which a terminal
    sends to the whole process group, reaches this process alone, even
    while a worker is still starting up, and its KeyboardInterrupt is the
    only report.  That interrupt, one sent to this process alone, or a
    worker's failure ends the pool's workers at once, so the error is
    raised without waiting for the other tables.
    """
    if first < 1 or last < first:
        raise DomainError(f"invalid range [{first}, {last}]; need 1 <= from <= to")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    requested = _normalize_routes(routes)
    build = partial(route_table, first=first, last=last, ds=(2, 3), cutoff=cutoff)
    workers = min(jobs, len(requested), os.cpu_count() or 1)
    if workers == 1:
        tables = list(map(build, requested))
    else:
        import signal
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import active_children

        others = set(active_children())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                # the workers start in map and inherit the mask; where the
                # pool uses multiprocessing's resource tracker, its
                # constructor has started it, as starting it here would
                # unblock SIGINT
                blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    results = pool.map(build, requested)
                finally:  # an interrupt held meanwhile is raised here
                    signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                tables = list(results)
            except BaseException:  # the pool's exit would wait for every table
                for worker in set(active_children()) - others:
                    worker.terminate()
                raise
    reports = []
    for n in range(first, last + 1):
        rows = {route: table[n] for route, table in zip(requested, tables) if n in table}
        closed = rows["closed"]
        for i, quantity in enumerate(("alpha", "beta")):
            for route, row in rows.items():
                if row[i] != closed[i]:
                    raise RouteDisagreementError(
                        n, quantity, ("closed", route), (closed[i], row[i])
                    )
        alpha, beta = closed
        difference = beta - alpha
        expected = n ** (n + 1)
        if difference != expected:
            raise IdentityFailureError(n, difference, expected)
        reports.append(
            VerificationReport(
                n=n,
                alpha=alpha,
                beta=beta,
                difference=expected,  # proved equal: one int serves both
                expected=expected,
                routes_compared=tuple(rows),
                passed=True,
            )
        )
    return reports

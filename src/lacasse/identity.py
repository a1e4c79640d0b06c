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

Every verification failure is a ConsistencyError raised here, and this
module is the one caller of ``kernels``.
"""

import os
from collections import namedtuple
from collections.abc import Sequence
from functools import partial
from itertools import accumulate, repeat
from math import comb

from . import kernels
from .exact import DomainError, exact_str

__all__ = [
    "ConsistencyError",
    "DEFAULT_BRUTE_CUTOFF",
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

    With u_k = (n!/k!) n^k, the k-th term u_k (n-k) is u_k n - u_(k+1) (k+1),
    so the sum over any block of k telescopes to its two boundary terms.
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
    fixed_point = kernels.tree_egf(order)
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
    return tuple(kernels.egf_geom_power(y, d)[0])


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
                powers.update(zip((d, d - 1), kernels.egf_geom_power(t, d, lower=d - 1 in ds)))
        return {n: [powers[d][n] for d in ds] for n in window}
    top = max(ds)
    admitted = [n for n in window if brute_force_admitted(n, top, cutoff)]
    if not admitted:
        return {}
    rounds = kernels.comp_power_sum(first, admitted[-1], top)
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
    one-worker run never loads ``multiprocessing``.  Its workers take
    SIGINT's default action, so Ctrl-C, which a terminal sends to the whole
    process group, ends them at once and leaves this process's
    KeyboardInterrupt as the only report, without waiting for the tables.
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

        with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_DFL)) as pool:
            tables = list(pool.map(build, requested))
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

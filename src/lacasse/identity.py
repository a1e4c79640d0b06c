"""Closed forms for alpha, beta and the general d-part sum, their brute-force
oracles, the Lacasse identity verifier, and Ramanujan's Q-function.

The quantities, for n >= 0 (0^0 == 1 throughout):

    alpha(n) = sum_{k=0..n} C(n,k) k^k (n-k)^(n-k)
             = sum_{k=0..n} (n!/k!) n^k
    beta(n)  = sum over weak 3-part compositions of n of
               multinomial * k1^k1 k2^k2 k3^k3
             = sum_{k=0..n} (n!/k!) (n+1-k) n^k

and the identity under test is beta(n) - alpha(n) = n^(n+1), equivalently
xi2(n) = xi(n) + n after dividing by n^n.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import backend
from . import series as _series
from .exact import binomial, ipow00, multinomial
from .series import ConsistencyError

__all__ = [
    "ALL_ROUTES",
    "CompositionCursor",
    "DEFAULT_BRUTE_CUTOFF",
    "IdentityFailureError",
    "RouteDisagreementError",
    "VerificationReport",
    "alpha_closed",
    "alpha_direct",
    "beta_closed",
    "beta_direct",
    "brute_force_admitted",
    "ramanujan_q",
    "s_d_closed",
    "telescoping_difference",
    "verify_lacasse",
    "verify_range",
    "xi",
    "xi2",
    "xi_scaled_brute",
]

ALL_ROUTES = ("closed", "brute", "series")

# Brute force is dropped (never errors) once the enumeration would exceed
# this many weak compositions.
DEFAULT_BRUTE_CUTOFF = 2_000_000


class RouteDisagreementError(RuntimeError):
    """Two computation routes returned different values for the same quantity."""

    def __init__(self, n: int, quantity: str, routes: tuple[str, str], values: tuple[int, int]):
        self.n = n
        self.quantity = quantity
        self.routes = routes
        self.values = values
        super().__init__(
            f"routes {routes[0]!r} and {routes[1]!r} disagree on {quantity}({n}): "
            f"{values[0]} vs {values[1]}"
        )


class IdentityFailureError(RuntimeError):
    """beta(n) - alpha(n) missed n^(n+1); an implementation bug, never the math."""

    def __init__(self, n: int, difference: int, expected: int):
        self.n = n
        self.difference = difference
        self.expected = expected
        super().__init__(
            f"beta({n}) - alpha({n}) = {difference} != n^(n+1) = {expected}"
        )


@dataclass(frozen=True)
class VerificationReport:
    """Per-n outcome of the identity check across the compared routes."""

    n: int
    alpha: int
    beta: int
    difference: int
    expected: int
    routes_compared: tuple[str, ...]
    passed: bool


class CompositionCursor:
    """Iterator over the weak compositions of n into d parts.

    Colex odometer order, starting from (n, 0, ..., 0) and ending at
    (0, ..., 0, n); visits each of the C(n+d-1, d-1) compositions exactly
    once.  ``current`` exposes the last tuple yielded.
    """

    def __init__(self, n: int, d: int):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.n = n
        self.d = d
        self.current: tuple[int, ...] | None = None
        self._exhausted = False

    def __iter__(self) -> "CompositionCursor":
        return self

    def __next__(self) -> tuple[int, ...]:
        if self._exhausted:
            raise StopIteration
        if self.current is None:
            first = [0] * self.d
            first[0] = self.n
            self.current = tuple(first)
            return self.current
        state = list(self.current)
        i = 0
        while i < self.d and state[i] == 0:
            i += 1
        if i >= self.d - 1:
            self._exhausted = True
            raise StopIteration
        v = state[i]
        state[i] = 0
        state[0] = v - 1
        state[i + 1] += 1
        self.current = tuple(state)
        return self.current


def _powers(base: int, top: int) -> list[int]:
    # [base^0 .. base^top] by repeated multiplication; base^0 == 1 even for base 0
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def alpha_direct(n: int) -> int:
    """The definitional sum sum_k C(n,k) k^k (n-k)^(n-k)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(
        binomial(n, k) * ipow00(k, k) * ipow00(n - k, n - k) for k in range(n + 1)
    )


def alpha_closed(n: int) -> int:
    """alpha(n) = sum_k (n!/k!) n^k, accumulated as falling factorials (no division)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    powers = _powers(n, n)
    total = 0
    ff = 1  # n!/k! while k runs n down to 0
    for k in range(n, -1, -1):
        total += ff * powers[k]
        ff *= k
    return total


def beta_direct(n: int) -> int:
    """The definitional 3-part multinomial sum, enumerated composition by composition."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    for parts in CompositionCursor(n, 3):
        w = multinomial(parts)
        for k in parts:
            w *= ipow00(k, k)
        total += w
    return total


def beta_closed(n: int) -> int:
    """beta(n) = sum_k (n!/k!) (n+1-k) n^k, falling-factorial accumulation."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    powers = _powers(n, n)
    total = 0
    ff = 1
    for k in range(n, -1, -1):
        total += ff * (n + 1 - k) * powers[k]
        ff *= k
    return total


def s_d_closed(n: int, d: int) -> int:
    """n! [z^n] (1/(1-y))^d as a finite sum, for the tree function y.

    The weight C(n-j+d-2, d-2) on the j-th term is the coefficient of
    y^(n-j) in 1/(1-y)^(d-1): d=2 and d=3 reduce to the alpha and beta
    closed forms, and d=1 degenerates to n^n (empty geometric factor,
    weight [j == n]).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return ipow00(n, n)
    powers = _powers(n, n)
    total = 0
    ff = 1
    for j in range(n, -1, -1):
        total += ff * binomial(n - j + d - 2, d - 2) * powers[j]
        ff *= j
    return total


def xi_scaled_brute(n: int, d: int) -> int:
    """Oracle for s_d_closed: enumerate all weak d-part compositions of n.

    Cost is C(n+d-1, d-1) terms; intended for moderate n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return backend.kernels.comp_power_sum(n, d)


def xi(n: int) -> Fraction:
    """alpha(n) / n^n as an exact rational; undefined at n = 0."""
    if n < 1:
        raise ValueError(f"xi({n}) is undefined; n >= 1 required (division by n^n)")
    return Fraction(alpha_closed(n), n**n)


def xi2(n: int) -> Fraction:
    """beta(n) / n^n as an exact rational; undefined at n = 0."""
    if n < 1:
        raise ValueError(f"xi2({n}) is undefined; n >= 1 required (division by n^n)")
    return Fraction(beta_closed(n), n**n)


def telescoping_difference(n: int) -> int:
    """Evaluate sum_k (n!/k!) (n-k) n^k and certify its telescoping collapse.

    The sum splits termwise into upper[k] - lower[k] with
    upper[k] = (n!/k!) n^(k+1) and lower[k] = (n!/(k-1)!) n^k, and
    lower[k] == upper[k-1] cancels everything except upper[n] = n^(n+1).
    Both the split and the cancellation are checked term by term; any
    mismatch raises ConsistencyError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    powers = _powers(n, n + 1)
    ff = [0] * (n + 1)  # ff[k] = n!/k!
    acc = 1
    for k in range(n, -1, -1):
        ff[k] = acc
        acc *= k
    total = 0
    upper = []
    lower = [0]  # k = 0 term has factor k = 0
    for k in range(n + 1):
        term = ff[k] * (n - k) * powers[k]
        up = ff[k] * powers[k + 1]
        low = ff[k] * k * powers[k]
        if term != up - low:
            raise ConsistencyError(
                f"telescoping split broke at n={n}, k={k}: {term} != {up} - {low}"
            )
        total += term
        upper.append(up)
        if k:
            lower.append(low)
    for k in range(1, n + 1):
        if lower[k] != upper[k - 1]:
            raise ConsistencyError(
                f"telescoping cancellation broke at n={n}, k={k}: "
                f"{lower[k]} != {upper[k - 1]}"
            )
    expected = powers[n + 1]  # n^(n+1); ff[n] == 1
    if total != expected:
        raise ConsistencyError(
            f"telescoping sum at n={n} is {total}, expected n^(n+1) = {expected}"
        )
    return total


def ramanujan_q(n: int) -> Fraction:
    """Q(n) = sum_{k=1..n} n! / ((n-k)! n^k) as an exact rational.

    Terms are built multiplicatively, term_1 = 1 and
    term_{k+1} = term_k * (n-k)/n, so no factorial ever materializes.
    Satisfies alpha(n) = n^n (1 + Q(n)).
    """
    if n < 1:
        raise ValueError(f"ramanujan_q({n}) is undefined; n >= 1 required")
    num = 1  # falling product (n-1)(n-2)...(n-k+1)
    den = 1  # n^(k-1)
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(num, den)
        num *= n - k
        den *= n
    return total


def brute_force_admitted(n: int, d: int, cutoff: int = DEFAULT_BRUTE_CUTOFF) -> bool:
    """True when the d-part enumeration of n stays within the term cutoff."""
    return binomial(n + d - 1, d - 1) <= cutoff


def _normalize_routes(routes) -> tuple[str, ...]:
    requested = set(routes)
    unknown = requested.difference(ALL_ROUTES)
    if unknown:
        raise ValueError(f"unknown routes {sorted(unknown)}; valid routes are {ALL_ROUTES}")
    requested.add("closed")  # the closed forms are always computed
    return tuple(r for r in ALL_ROUTES if r in requested)


def _require_agreement(n: int, quantity: str, values: dict[str, int]) -> None:
    items = list(values.items())
    base_route, base = items[0]
    for route, val in items[1:]:
        if val != base:
            raise RouteDisagreementError(n, quantity, (base_route, route), (base, val))


def _series_alpha_beta(n: int) -> tuple[int, int]:
    t = _series.tree_series(n)
    a = _series.egf_coeff(_series.geom_power(t, 2, n), n)
    b = _series.egf_coeff(_series.geom_power(t, 3, n), n)
    if a.denominator != 1 or b.denominator != 1:
        raise ConsistencyError(f"series route produced non-integer counts at n={n}")
    return a.numerator, b.numerator


def verify_lacasse(
    n: int,
    routes=ALL_ROUTES,
    cutoff: int = DEFAULT_BRUTE_CUTOFF,
    _series_values: tuple[int, int] | None = None,
) -> VerificationReport:
    """Check beta(n) - alpha(n) = n^(n+1) across every admitted route.

    The closed forms are always evaluated; the brute-force route is used
    when requested and below the cutoff; the series route when requested.
    Route disagreement or an identity miss raises (either one means a bug
    somewhere in the arithmetic, since the identity is a theorem).
    """
    if n < 1:
        raise ValueError(f"verify_lacasse requires n >= 1, got {n}")
    requested = _normalize_routes(routes)
    alpha_by = {"closed": alpha_closed(n)}
    beta_by = {"closed": beta_closed(n)}
    used = ["closed"]
    if "brute" in requested and brute_force_admitted(n, 3, cutoff):
        alpha_by["brute"] = alpha_direct(n)
        beta_by["brute"] = xi_scaled_brute(n, 3)
        used.append("brute")
    if "series" in requested:
        a_s, b_s = _series_values if _series_values is not None else _series_alpha_beta(n)
        alpha_by["series"] = a_s
        beta_by["series"] = b_s
        used.append("series")
    _require_agreement(n, "alpha", alpha_by)
    _require_agreement(n, "beta", beta_by)
    alpha = alpha_by["closed"]
    beta = beta_by["closed"]
    difference = beta - alpha
    expected = n ** (n + 1)
    if difference != expected:
        raise IdentityFailureError(n, difference, expected)
    return VerificationReport(
        n=n,
        alpha=alpha,
        beta=beta,
        difference=difference,
        expected=expected,
        routes_compared=tuple(used),
        passed=True,
    )


def _verify_task(args) -> VerificationReport:
    n, routes, cutoff, series_values = args
    return verify_lacasse(n, routes, cutoff, _series_values=series_values)


def verify_range(
    first: int,
    last: int,
    routes=ALL_ROUTES,
    cutoff: int = DEFAULT_BRUTE_CUTOFF,
    jobs: int = 1,
) -> list[VerificationReport]:
    """verify_lacasse for every n in [first, last], reports ordered by n.

    The series tables are built once at order ``last`` and shared across
    the whole range; per-n work fans out over up to ``jobs`` processes,
    never more than there are values of n or CPUs (results are identical
    regardless of jobs).
    """
    if first < 1 or last < first:
        raise ValueError(f"invalid range [{first}, {last}]; need 1 <= from <= to")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    requested = _normalize_routes(routes)
    series_values: dict[int, tuple[int, int]] = {}
    if "series" in requested:
        t = _series.tree_series(last)
        s2 = _series.geom_power(t, 2, last)
        s3 = _series.geom_power(t, 3, last)
        for n in range(first, last + 1):
            a = _series.egf_coeff(s2, n)
            b = _series.egf_coeff(s3, n)
            if a.denominator != 1 or b.denominator != 1:
                raise ConsistencyError(f"series route produced non-integer counts at n={n}")
            series_values[n] = (a.numerator, b.numerator)
    tasks = [
        (n, requested, cutoff, series_values.get(n))
        for n in range(first, last + 1)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return [_verify_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_verify_task, tasks, chunksize=chunk))

"""Reference implementations the tests compare the package against.

Deliberately naive and independent of the integer kernels they certify:

* rational series are plain lists of Fractions, index n holding the
  coefficient of z^n: ``add`` and ``mul`` truncate to the shorter input,
  and ``exp_trunc`` and ``reciprocal_unit`` solve the defining recurrences
  term by term;
* ``to_fractions`` and ``to_egf`` convert between those lists and the
  package's n!-scaled integer vectors, so every series fact is checked in
  Fraction arithmetic, not in the kernels' representation;
* ``compositions`` yields the weak compositions of n into d parts as
  stars-and-bars words, one per choice of d - 1 bar places among
  n + d - 1, and ``comp_sum`` weights each with ``multinomial``, a
  factorial quotient, one term per composition (at d = 2 it is alpha and
  at d = 3 beta, by direct enumeration), apart from ``comp_power_sum``'s
  sweep, which groups compositions by their first part and shares each
  sub-sum across every n and every round of a window;
* ``s_d_formula`` is the README's closed sum, alpha's at d = 2 and beta's
  at d = 3, and ``q_formula`` the defining sum of Q, with each n!/k! a
  factorial division and every term built on its own, apart from the
  binary splitting behind ``s_d_closed`` and ``ramanujan_q``;
* ``str_unlimited`` is ``str()`` with Python's int-to-str digit limit
  lifted, against ``exact_str``.

Each oracle is pinned by example tests to known values and compared with a
``lacasse`` function. None is property-tested against another oracle or
against the stdlib: such a test checks code that the package never runs.
``test_api.py::test_every_oracle_is_named_by_a_test`` fails if one of them
is used in no test file, or if this module imports ``lacasse``.
"""

import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

# --- rational series ------------------------------------------------------


def to_fractions(egf) -> list[Fraction]:
    """Ordinary coefficients of an n!-scaled integer vector."""
    return [Fraction(e, factorial(n)) for n, e in enumerate(egf)]


def to_egf(coeffs) -> list[int]:
    """The n!-scaled integer vector of ordinary coefficients, which must be integral."""
    out = []
    for n, c in enumerate(coeffs):
        v = Fraction(c) * factorial(n)
        if v.denominator != 1:
            raise ValueError(f"n! * coefficient {n} is not an integer: {v}")
        out.append(v.numerator)
    return out


def one(order: int) -> list[Fraction]:
    return [Fraction(1)] + [Fraction(0)] * order


def z(order: int) -> list[Fraction]:
    """The monomial z (the constant series 0 when order is 0)."""
    return ([Fraction(0), Fraction(1)] + [Fraction(0)] * order)[: order + 1]


def add(a: list, b: list) -> list[Fraction]:
    """Coefficientwise sum, truncated to the shorter input."""
    return [x + y for x, y in zip(a, b)]


def mul(a: list, b: list) -> list[Fraction]:
    """Cauchy product, truncated to the shorter input."""
    n = min(len(a), len(b)) - 1
    return [sum((a[j] * b[m - j] for j in range(m + 1)), Fraction(0)) for m in range(n + 1)]


def exp_trunc(a: list) -> list[Fraction]:
    """Exponential of a series with zero constant term, by the derivative recurrence.

    g' = a'g gives g[m] = (1/m) * sum_{j=1..m} j a[j] g[m-j], the defining
    power sum exactly in O(order^2) coefficient operations.
    """
    if a[0] != 0:
        raise ValueError("exp_trunc requires a zero constant term")
    n = len(a) - 1
    g = one(n)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += j * a[j] * g[m - j]
        g[m] = acc / m
    return g


def reciprocal_unit(a: list) -> list[Fraction]:
    """b with a * b = 1, for a series with constant term 1."""
    if a[0] != 1:
        raise ValueError("reciprocal_unit requires constant term 1")
    n = len(a) - 1
    b = one(n)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += a[j] * b[m - j]
        b[m] = -acc
    return b


# --- weak compositions ----------------------------------------------------


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The weak compositions of n into d parts, as stars-and-bars words.

    A word of n stars and d - 1 bars has n + d - 1 places; each choice of
    the bars' places gives one composition, whose parts are the runs of
    stars between consecutive bars.
    """
    for bars in combinations(range(n + d - 1), d - 1):
        edges = (-1, *bars, n + d - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def multinomial(parts: Iterable[int]) -> int:
    """Return (sum parts)! / prod(parts_i!) for nonnegative parts."""
    total = 0
    denom = 1
    for p in parts:
        total += p
        denom *= factorial(p)
    return factorial(total) // denom


def comp_sum(n: int, d: int) -> int:
    """Sum of multinomial(parts) * prod(k^k) over the weak d-part compositions of n."""
    total = 0
    for parts in compositions(n, d):
        w = multinomial(parts)
        for k in parts:
            w *= k**k  # 0**0 == 1
        total += w
    return total


# --- closed sums ----------------------------------------------------------


def s_d_formula(n: int, d: int) -> int:
    """sum_{j=0..n} (n!/j!) C(n-j+d-2, d-2) n^j, each n!/j! by factorial division.

    At d = 1 the weight is [j == n], so the sum is n^n.
    """
    if d == 1:
        return n**n
    n_fact = factorial(n)
    return sum(n_fact // factorial(j) * comb(n - j + d - 2, d - 2) * n**j for j in range(n + 1))


def q_formula(n: int) -> Fraction:
    """Ramanujan's Q(n) = sum_{k=1..n} n! / ((n-k)! n^k), one Fraction per term."""
    return sum(
        (Fraction(factorial(n), factorial(n - k) * n**k) for k in range(1, n + 1)), Fraction(0)
    )


# --- decimal printing -----------------------------------------------------


def str_unlimited(x) -> str:
    """str(x) with Python's int-to-str digit limit lifted, then restored."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # before Python 3.10.7 there is no limit
        return str(x)
    old = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(old)

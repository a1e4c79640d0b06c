"""Exact integer and rational arithmetic, plus the combinatorial primitives.

Values are Python ints (arbitrary precision, no overflow at any size used
here) and ``fractions.Fraction`` (always lowest terms, positive denominator,
value equality).  Everything is pure and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import comb as _comb
from math import factorial as _factorial

# Arbitrary-precision integer / rational types used throughout the package.
ExactInt = int
ExactRational = Fraction

__all__ = [
    "DomainError",
    "ExactInt",
    "ExactRational",
    "binomial",
    "factorial",
    "ipow00",
    "multinomial",
]


class DomainError(ValueError):
    """An argument outside the domain of the requested quantity.

    The one error the CLI reports as a usage or domain error (exit 2).  Any
    other ValueError is a fault inside the program and is not caught there.
    """


def factorial(n: int) -> int:
    """Return n! exactly for nonnegative n."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return _factorial(n)


def binomial(n: int, k: int) -> int:
    """Return C(n, k), which is 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return _comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """Return (sum parts)! / prod(parts_i!) for nonnegative parts."""
    total = 0
    denom = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be >= 0, got {p}")
        total += p
        denom *= _factorial(p)
    return _factorial(total) // denom


def ipow00(base: int, exp: int) -> int:
    """Return base**exp for nonnegative arguments, with 0**0 == 1."""
    if base < 0 or exp < 0:
        raise ValueError(f"ipow00 requires base >= 0 and exp >= 0, got {base}**{exp}")
    # Python int pow already defines 0**0 == 1; the convention is relied on
    # everywhere a k^k factor meets k == 0.
    return base**exp

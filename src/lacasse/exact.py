"""The error raised for an argument outside a quantity's domain.

Values throughout the package are Python ints (arbitrary precision, no
overflow at any size used here) and ``fractions.Fraction`` (always lowest
terms, positive denominator).  Factorials and binomials come straight from
``math.factorial`` and ``math.comb``, powers from ``**``, whose
``0**0 == 1`` is the convention every k^k factor relies on.
"""

from __future__ import annotations

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An argument outside the domain of the requested quantity.

    The one error the CLI reports as a usage or domain error (exit 2).  Any
    other ValueError is a fault inside the program and is not caught there.
    """

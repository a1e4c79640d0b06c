"""The domain error and the one decimal formatter for exact values.

Values throughout the package are Python ints (arbitrary precision, no
overflow at any size used here) and ``fractions.Fraction`` (always lowest
terms, positive denominator).  Factorials are running products and
binomials are Pascal rows or prefix sums, both built as the sums that use
them run (``math.comb`` only sizes the brute-force cutoff); powers come
from ``**``, whose ``0**0 == 1`` is the convention every k^k factor
relies on.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An argument outside the domain of the requested quantity.

    The one error the CLI reports as a usage or domain error (exit 2).  Any
    other ValueError is a fault inside the program and is not caught there.
    """


def exact_str(x: int | Fraction) -> str:
    """Full decimal digits of an int, or ``p/q`` of a Fraction, at any size.

    ``str(int)`` refuses ints longer than ``sys.get_int_max_str_digits()``
    (4300 digits by default from Python 3.11 on); ``Decimal`` prints the
    same digits with no such limit, and leaves the process-wide limit alone.
    The CLI's output and every failure message that quotes a value go
    through here.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return exact_str(x.numerator)
        return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
    return str(Decimal(x))

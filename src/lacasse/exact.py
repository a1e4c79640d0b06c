"""The domain error and the one decimal formatter for exact values.

Values throughout the package are Python ints (arbitrary precision, no
overflow at any size used here) and ``fractions.Fraction`` (always lowest
terms, positive denominator).  Factorials are running products and
binomials are Pascal rows or prefix sums, both built as the sums that use
them run (``math.comb`` only sizes the brute-force cutoff); powers come
from ``**``, whose ``0**0 == 1`` is the convention every k^k factor
relies on.  Ints print with ``str()`` within Python's int-to-str digit
limit and through ``Decimal`` past it, so this module imports neither
``decimal`` nor ``fractions`` up front.
"""

from __future__ import annotations

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An argument outside the domain of the requested quantity.

    The one error the CLI reports as a usage or domain error (exit 2).  Any
    other ValueError is a fault inside the program and is not caught there.
    """


def exact_str(x: int | Fraction) -> str:
    """Full decimal digits of an int, or ``p/q`` of a Fraction, at any size.

    An int is its own numerator over denominator 1, so both types are read
    through ``numerator`` and ``denominator``.  Each part prints with
    ``str()`` within ``sys.get_int_max_str_digits()`` (4300 digits by
    default in Python 3.10.7 and later); past the limit ``str()`` raises
    ValueError and ``Decimal``, imported only then, prints the same digits
    with no limit and leaves the process-wide limit alone.
    The CLI's output and every failure message that quotes a value go
    through here.
    """
    p, q = x.numerator, x.denominator
    if q != 1:
        return f"{exact_str(p)}/{exact_str(q)}"
    try:
        return str(p)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(p))

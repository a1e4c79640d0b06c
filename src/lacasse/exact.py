"""The domain error and the one decimal formatter for exact values.

Values throughout the package are Python ints (arbitrary precision, no
overflow at any size used here) and ``fractions.Fraction`` (always lowest
terms, positive denominator).  Factorials are running products, built as
the sums that use them run; binomials are Pascal rows, prefix sums or,
for ``s_d_closed`` from d = 5 and the brute-force cutoff, ``math.comb``;
powers come from ``**``, whose ``0**0 == 1`` is the convention every k^k
factor relies on.  Ints print by divide and conquer over powers of ten,
with ``str()`` only on pieces of at most ``_DIGITS`` digits, so printing
needs no module and this one imports none (from Python 3.12 CPython's own
``divmod`` imports ``_pylong``, and with it ``decimal``, for a quotient
and divisor past a few thousand digits).
"""

__all__ = ["DomainError"]

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

"""Truncated tree-function series as n!-scaled integer vectors.

A series is a tuple of ints truncated at a fixed order: entry m holds m!
times the coefficient of z^m (the series' exponential-generating-function
entry).  The tree function y(z) (the solution of y = z*e^y) and every
power of 1/(1 - y) have integer entries in this form, so the series route
to alpha, beta and the general d-part sums never leaves the integers.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import kernels
from .exact import DomainError, exact_str

__all__ = [
    "ConsistencyError",
    "geom_power",
    "tree_series",
]


class ConsistencyError(RuntimeError):
    """Two independent constructions of the same value disagreed.

    The one verification failure: the CLI reports it, and its subclasses
    in ``identity``, as exit 1.  This never fires on correct code; it
    signals an arithmetic bug, not a property of the input.
    """


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
    return tuple(kernels.egf_geom_power(y, d))

"""Exact verification of the Lacasse identity beta(n) - alpha(n) = n^(n+1).

Three independent routes lead to every quantity: closed-form sums,
brute-force multinomial enumeration, and coefficient extraction from
tree-function series.  All arithmetic is exact (arbitrary-precision
integers and rationals).
"""

from .exact import DomainError
from .identity import (
    ALL_ROUTES,
    DEFAULT_BRUTE_CUTOFF,
    IdentityFailureError,
    RouteDisagreementError,
    VerificationReport,
    alpha_closed,
    beta_closed,
    ramanujan_q,
    s_d_closed,
    telescoping_difference,
    verify_lacasse,
    verify_range,
    xi,
    xi2,
)
from .series import ConsistencyError, egf_coeff, geom_power, tree_series

__version__ = "0.1.0"

__all__ = [
    "ALL_ROUTES",
    "DEFAULT_BRUTE_CUTOFF",
    "ConsistencyError",
    "DomainError",
    "IdentityFailureError",
    "RouteDisagreementError",
    "VerificationReport",
    "alpha_closed",
    "beta_closed",
    "egf_coeff",
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

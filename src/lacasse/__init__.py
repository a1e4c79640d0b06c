"""Exact verification of the Lacasse identity beta(n) - alpha(n) = n^(n+1).

Three independent routes lead to every quantity: closed-form sums,
brute-force multinomial enumeration, and coefficient extraction from
tree-function series.  All arithmetic is exact (arbitrary-precision
integers and rationals); a floating-point companion covers the tree
function on [0, 1/e) and Ramanujan's Q-function growth.
"""

from .approx import QGrowthRow, TreeEvalResult, q_float, q_growth_check, tree_eval
from .exact import DomainError
from .identity import (
    ALL_ROUTES,
    DEFAULT_BRUTE_CUTOFF,
    IdentityFailureError,
    RouteDisagreementError,
    VerificationReport,
    alpha_closed,
    alpha_direct,
    beta_closed,
    brute_force_admitted,
    ramanujan_q,
    s_d_closed,
    telescoping_difference,
    verify_lacasse,
    verify_range,
    xi,
    xi2,
    xi_scaled_brute,
)
from .series import ConsistencyError, egf_coeff, geom_power, tree_series

__version__ = "0.1.0"

__all__ = [
    "ALL_ROUTES",
    "DEFAULT_BRUTE_CUTOFF",
    "ConsistencyError",
    "DomainError",
    "IdentityFailureError",
    "QGrowthRow",
    "RouteDisagreementError",
    "TreeEvalResult",
    "VerificationReport",
    "alpha_closed",
    "alpha_direct",
    "beta_closed",
    "brute_force_admitted",
    "egf_coeff",
    "geom_power",
    "q_float",
    "q_growth_check",
    "ramanujan_q",
    "s_d_closed",
    "telescoping_difference",
    "tree_eval",
    "tree_series",
    "verify_lacasse",
    "verify_range",
    "xi",
    "xi2",
    "xi_scaled_brute",
]

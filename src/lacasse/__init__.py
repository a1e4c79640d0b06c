"""Exact verification of the Lacasse identity beta(n) - alpha(n) = n^(n+1).

Three independent routes lead to every quantity: closed-form sums,
brute-force multinomial enumeration, and coefficient extraction from
tree-function series.  All arithmetic is exact (arbitrary-precision
integers and rationals).
"""

from .exact import *
from .identity import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *identity.__all__]

"""The kernel module every hot loop calls through.

``series`` and ``identity`` reach the kernels as ``backend.kernels.<fn>``
rather than importing the functions directly, so a caller can rebind this
one attribute to wrap or replace all of them at once (the benchmark's
tracer and the consistency-guard tests do).
"""

from . import _kernels_py as kernels  # noqa: F401

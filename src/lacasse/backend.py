"""The kernel module every hot loop calls through.

``series``, ``identity`` and ``cli`` reach the three kernels (``tree_egf``,
``egf_geom_power`` and ``comp_power_sum``) as ``backend.kernels.<fn>``
rather than importing them directly, so rebinding one function on this
module reaches every caller: the benchmark's tracer wraps them that way,
and the fault-injection tests break one at a time.  The brute route makes
one ``comp_power_sum`` call per ``identity.route_table``, not one per n,
and takes alpha and beta from its rounds, so a wrapper sees the whole
window and every round at once.
"""

from . import _kernels_py as kernels  # noqa: F401

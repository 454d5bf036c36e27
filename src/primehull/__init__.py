"""Extremal primes: vertices of the prime counting function's upper hull.

A prime e is extremal when (e, pi(e)) is an extreme point of the convex
hull of pi's subgraph.  The package streams a segmented sieve through an
exact incremental hull, proves vertices final against explicit pi upper
bounds, and ships the analytic window machinery for the tangent-crossing
asymptotics, statistics over the resulting sequence, and an exact-rational
variant driven by x/pi(x).

Only the names below are re-exported; everything else is imported from its
submodule.
"""

from .analysis import find_twins, records_from_state
from .hull_engine import HullState, compute_extremal
from .m_variant import compute_m_extremal
from .persistence import export_csv, load_checkpoint, save_checkpoint
from .prime_stream import SieveConfig, iter_prime_blocks

__all__ = [
    "HullState",
    "SieveConfig",
    "compute_extremal",
    "compute_m_extremal",
    "export_csv",
    "find_twins",
    "iter_prime_blocks",
    "load_checkpoint",
    "records_from_state",
    "save_checkpoint",
]

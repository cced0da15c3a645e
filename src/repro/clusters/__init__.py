"""Simulated cluster platforms.

:mod:`repro.clusters.spec` defines :class:`ClusterSpec`, the bridge between
a hardware description and a runnable :class:`~repro.mpi.MpiWorld`;
:mod:`repro.clusters.presets` parameterises the two Grid'5000 clusters the
paper evaluates on (Grisou and Gros) plus a few generic platforms.
"""

from repro.clusters.presets import GRISOU, GROS, MINICLUSTER, PRESETS, get_preset
from repro.clusters.spec import ClusterSpec, seed_free

__all__ = [
    "ClusterSpec", "GRISOU", "GROS", "MINICLUSTER", "PRESETS", "get_preset",
    "seed_free",
]

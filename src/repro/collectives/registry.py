"""A uniform registry over all collective operations and their algorithms.

The selection modules and the CLI address algorithms as
``(operation, name)`` pairs; this module is the single lookup point.
"""

from __future__ import annotations

from typing import Union

from repro.collectives.allgather import ALLGATHER_ALGORITHMS, AllgatherAlgorithm
from repro.collectives.allreduce import ALLREDUCE_ALGORITHMS, AllreduceAlgorithm
from repro.collectives.alltoall import ALLTOALL_ALGORITHMS, AlltoallAlgorithm
from repro.collectives.barrier import BARRIER_ALGORITHMS, BarrierAlgorithm
from repro.collectives.bcast import BCAST_ALGORITHMS, BcastAlgorithm
from repro.collectives.gather import GATHER_ALGORITHMS, GatherAlgorithm
from repro.collectives.reduce import REDUCE_ALGORITHMS, ReduceAlgorithm
from repro.collectives.scatter import SCATTER_ALGORITHMS, ScatterAlgorithm
from repro.errors import SelectionError

#: Any catalogue entry type.
CollectiveAlgorithm = Union[
    AllgatherAlgorithm,
    AllreduceAlgorithm,
    AlltoallAlgorithm,
    BarrierAlgorithm,
    BcastAlgorithm,
    GatherAlgorithm,
    ReduceAlgorithm,
    ScatterAlgorithm,
]

_CATALOGUES: dict[str, dict[str, CollectiveAlgorithm]] = {
    "allgather": ALLGATHER_ALGORITHMS,
    "allreduce": ALLREDUCE_ALGORITHMS,
    "alltoall": ALLTOALL_ALGORITHMS,
    "barrier": BARRIER_ALGORITHMS,
    "bcast": BCAST_ALGORITHMS,
    "gather": GATHER_ALGORITHMS,
    "reduce": REDUCE_ALGORITHMS,
    "scatter": SCATTER_ALGORITHMS,
}


def operations() -> list[str]:
    """Names of all collective operations."""
    return sorted(_CATALOGUES)


def algorithm_names(operation: str) -> list[str]:
    """Algorithm names available for ``operation``."""
    return sorted(_catalogue(operation))


def get_algorithm(operation: str, name: str) -> CollectiveAlgorithm:
    """Look up one algorithm; raises :class:`SelectionError` if unknown."""
    catalogue = _catalogue(operation)
    try:
        return catalogue[name]
    except KeyError:
        known = ", ".join(sorted(catalogue))
        raise SelectionError(
            f"unknown {operation} algorithm {name!r}; known: {known}"
        ) from None


def _catalogue(operation: str) -> dict[str, CollectiveAlgorithm]:
    try:
        return _CATALOGUES[operation]
    except KeyError:
        known = ", ".join(sorted(_CATALOGUES))
        raise SelectionError(
            f"unknown collective operation {operation!r}; known: {known}"
        ) from None

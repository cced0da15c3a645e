"""Flat-array decision tables for the serving hot path.

A :class:`~repro.selection.decision_table.DecisionTable` stores a grid of
:class:`Selection` dataclasses behind tuple-of-tuples indirection — the
right shape for building, auditing and serialising, but each lookup pays
attribute walks and object indirection per query.  The serving layer
answers hundreds of thousands of queries a second, most of them batched,
so it wants the paper's "straight-line decision function" idea taken one
step further: the whole grid compiled once into four flat parallel
arrays —

* ``proc_points`` / ``size_points`` — the sorted grid axes, for bisect;
* ``algorithm_ids`` — one small int per cell, row-major, indexing
  ``algorithms`` (the deduplicated name list);
* ``segment_sizes`` — one int per cell, row-major.

A lookup is then two ``bisect_right`` calls and two list indexes — no
dict walks, no dataclass attribute access, no per-query allocation.
:meth:`FlatDecisionTable.lookup`, and :meth:`FlatDecisionTable.cell`
beneath it (what the selection server calls), is bit-identical to
:meth:`DecisionTable.lookup` (same floor semantics, same below-grid
clamp flag); ``tests/test_flat_table.py`` holds the differential
property test across all eight collectives.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import SelectionError
from repro.selection.decision_table import DecisionTable


class FlatDecisionTable:
    """A decision grid compiled to flat parallel arrays.

    Attributes are public and immutable by convention — the serving layer
    indexes the per-cell arrays with :meth:`cell`'s answer and must never
    mutate them.
    """

    __slots__ = (
        "operation",
        "proc_points",
        "size_points",
        "algorithms",
        "algorithm_ids",
        "segment_sizes",
        "n_sizes",
        "min_procs",
        "min_size",
    )

    def __init__(
        self,
        operation: str,
        proc_points: tuple[int, ...],
        size_points: tuple[int, ...],
        algorithms: tuple[str, ...],
        algorithm_ids: tuple[int, ...],
        segment_sizes: tuple[int, ...],
    ):
        cells = len(proc_points) * len(size_points)
        if not proc_points or not size_points:
            raise SelectionError("flat table needs a non-empty grid")
        if len(algorithm_ids) != cells or len(segment_sizes) != cells:
            raise SelectionError(
                f"flat table arrays have {len(algorithm_ids)}/"
                f"{len(segment_sizes)} cells, grid has {cells}"
            )
        if algorithm_ids and not (
            0 <= min(algorithm_ids) and max(algorithm_ids) < len(algorithms)
        ):
            raise SelectionError("algorithm_ids index outside algorithms")
        self.operation = operation
        self.proc_points = proc_points
        self.size_points = size_points
        self.algorithms = algorithms
        self.algorithm_ids = algorithm_ids
        self.segment_sizes = segment_sizes
        self.n_sizes = len(size_points)
        self.min_procs = proc_points[0]
        self.min_size = size_points[0]

    @classmethod
    def from_table(
        cls, table: DecisionTable, operation: str = "bcast"
    ) -> "FlatDecisionTable":
        """Compile a :class:`DecisionTable` grid into flat arrays."""
        algorithms: list[str] = []
        index: dict[str, int] = {}
        ids: list[int] = []
        segments: list[int] = []
        for row in table.choices:
            for selection in row:
                algorithm_id = index.get(selection.algorithm)
                if algorithm_id is None:
                    algorithm_id = index[selection.algorithm] = len(algorithms)
                    algorithms.append(selection.algorithm)
                ids.append(algorithm_id)
                segments.append(selection.segment_size)
        return cls(
            operation=operation,
            proc_points=tuple(table.proc_points),
            size_points=tuple(table.size_points),
            algorithms=tuple(algorithms),
            algorithm_ids=tuple(ids),
            segment_sizes=tuple(segments),
        )

    def cell(self, procs: int, nbytes: int) -> tuple[int, bool]:
        """Row-major index of the floor cell for ``(procs, nbytes)``,
        plus the below-grid clamp flag.

        The one floor/clamp rule of the serving layer: ``bisect_right - 1``
        on each axis, floored at the first cell, clamped when either
        coordinate lies below the grid.
        """
        i = bisect_right(self.proc_points, procs) - 1
        if i < 0:
            i = 0
        j = bisect_right(self.size_points, nbytes) - 1
        if j < 0:
            j = 0
        return (
            i * self.n_sizes + j,
            procs < self.min_procs or nbytes < self.min_size,
        )

    def lookup(self, procs: int, nbytes: int) -> tuple[str, int, bool]:
        """``(algorithm, segment_size, clamped)`` — the flat counterpart
        of :meth:`DecisionTable.lookup`, bit-identical by construction
        and by the differential test."""
        k, clamped = self.cell(procs, nbytes)
        return (
            self.algorithms[self.algorithm_ids[k]],
            self.segment_sizes[k],
            clamped,
        )

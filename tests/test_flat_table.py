"""Differential tests: FlatDecisionTable vs DecisionTable.

The serving hot path answers queries from flat parallel arrays
(:class:`repro.selection.flat_table.FlatDecisionTable`); correctness is
defined as bit-identity with :meth:`DecisionTable.lookup` — same floor
semantics, same below-grid clamp flag.  The property test here fuzzes
randomly-built tables for **all eight collectives** with on-grid,
off-grid, below-grid and degenerate queries and compares every answer.
"""

import random

import pytest

from repro.clusters import MINICLUSTER
from repro.collectives.registry import algorithm_names, operations
from repro.errors import SelectionError
from repro.selection import DecisionTable, FlatDecisionTable
from repro.selection.oracle import Selection
from repro.service import build_artifact
from repro.units import KiB, MiB, log_spaced_sizes

EIGHT_OPERATIONS = (
    "allgather", "allreduce", "alltoall", "barrier",
    "bcast", "gather", "reduce", "scatter",
)


def random_table(operation: str, rng: random.Random) -> DecisionTable:
    """A random but valid decision grid for ``operation``."""
    names = algorithm_names(operation)
    proc_points = tuple(sorted(rng.sample(range(2, 200), rng.randint(1, 9))))
    if operation == "barrier":
        # Barrier tables are built over the degenerate size grid (the
        # operation has no message), matching build_artifact.
        size_points = (0,)
    else:
        size_points = tuple(
            sorted(rng.sample(range(1, 1 << 22), rng.randint(1, 9)))
        )
    choices = tuple(
        tuple(
            Selection(
                rng.choice(names),
                rng.choice((0, 0, 8192, 65536)),
                operation,
            )
            for _ in size_points
        )
        for _ in proc_points
    )
    return DecisionTable(
        proc_points=proc_points, size_points=size_points, choices=choices
    )


def fuzz_queries(table: DecisionTable, rng: random.Random, count: int):
    """On-grid, off-grid, above-grid, below-grid and boundary queries."""
    procs_points = table.proc_points
    size_points = table.size_points
    queries = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:  # exactly on grid
            procs = rng.choice(procs_points)
            nbytes = rng.choice(size_points)
        elif roll < 0.5:  # off-grid inside / above the grid
            procs = rng.randint(procs_points[0], procs_points[-1] * 2)
            nbytes = rng.randint(size_points[0], size_points[-1] * 2 + 1)
        elif roll < 0.75:  # below the grid on at least one axis
            procs = rng.randint(0, max(procs_points[0] - 1, 0))
            nbytes = rng.randint(0, max(size_points[0] - 1, 0))
        else:  # boundary +/- 1
            procs = rng.choice(procs_points) + rng.choice((-1, 0, 1))
            nbytes = rng.choice(size_points) + rng.choice((-1, 0, 1))
        queries.append((procs, nbytes))
    # Degenerate corners, always included.
    queries += [
        (procs_points[0], size_points[0]),
        (procs_points[-1], size_points[-1]),
        (0, 0),
        (1, 1),
        (procs_points[-1] + 10**6, size_points[-1] + 10**9),
    ]
    return queries


class TestDifferential:
    @pytest.mark.parametrize("operation", EIGHT_OPERATIONS)
    def test_bit_identical_to_decision_table(self, operation):
        assert operation in operations()
        rng = random.Random(EIGHT_OPERATIONS.index(operation))
        for round_index in range(10):
            table = random_table(operation, rng)
            flat = FlatDecisionTable.from_table(table, operation=operation)
            assert flat.operation == operation
            for procs, nbytes in fuzz_queries(table, rng, 200):
                selection, clamped = table.lookup(procs, nbytes)
                assert flat.lookup(procs, nbytes) == (
                    selection.algorithm,
                    selection.segment_size,
                    clamped,
                ), (operation, round_index, procs, nbytes)


class TestCompilation:
    def test_from_table_deduplicates_algorithms(self):
        rng = random.Random(3)
        table = random_table("reduce", rng)
        flat = FlatDecisionTable.from_table(table, operation="reduce")
        assert len(set(flat.algorithms)) == len(flat.algorithms)
        cells = len(flat.proc_points) * len(flat.size_points)
        assert len(flat.algorithm_ids) == cells
        assert len(flat.segment_sizes) == cells
        assert all(
            0 <= algorithm_id < len(flat.algorithms)
            for algorithm_id in flat.algorithm_ids
        )
        # Round-trip: every cell decodes to the original selection.
        for i, procs in enumerate(table.proc_points):
            for j, nbytes in enumerate(table.size_points):
                assert flat.algorithms[
                    flat.algorithm_ids[i * flat.n_sizes + j]
                ] == table.choices[i][j].algorithm

    def test_empty_grid_rejected(self):
        with pytest.raises(SelectionError):
            FlatDecisionTable("bcast", (), (0,), ("x",), (), ())

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(SelectionError):
            FlatDecisionTable("bcast", (2, 4), (0,), ("x",), (0,), (0, 0))

    def test_algorithm_id_out_of_range_rejected(self):
        with pytest.raises(SelectionError):
            FlatDecisionTable("bcast", (2,), (0,), ("x",), (1,), (0,))


class TestRealArtifact:
    """The service consumes flat tables through ``flat_tables()``."""

    @pytest.fixture(scope="class")
    def artifact(self, mini_platform):
        return build_artifact(
            MINICLUSTER,
            proc_points=range(2, 17, 2),
            size_points=log_spaced_sizes(8 * KiB, 1 * MiB, 6),
            platforms={"bcast": mini_platform},
        )

    def test_flat_tables_match_entries(self, artifact):
        flats = artifact.flat_tables()
        assert set(flats) == set(artifact.entries)
        rng = random.Random(17)
        for operation, entry in artifact.entries.items():
            flat = flats[operation]
            for procs, nbytes in fuzz_queries(entry.table, rng, 300):
                selection, clamped = entry.table.lookup(procs, nbytes)
                assert flat.lookup(procs, nbytes) == (
                    selection.algorithm,
                    selection.segment_size,
                    clamped,
                )

    def test_flat_tables_memoised(self, artifact):
        assert artifact.flat_tables() is artifact.flat_tables()

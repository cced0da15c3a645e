"""Degenerate-input sweep across every selection layer.

The same query must get the same answer whether it goes through the
:class:`DecisionTable`, the generated Python decision function
(``compile_python``), :meth:`SelectionArtifact.select`, or ``POST
/select`` on a live server — *including* at the corners: ``m = 0``,
``procs = 1``, queries below the decision grid (which clamp to the first
cell, flagged via ``DecisionTable.lookup``) and queries far above it
(genuine floor lookups).  A divergence between layers here would mean a
deployed decision function disagrees with the service that packaged it.

Degenerate *calibration* inputs (an unknown algorithm, a communicator
size outside the cluster, too few sweep points) must fail typed before
a single simulation runs, for every collective's pipeline.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import ArtifactError
from repro.exec.job import SimJob, execute_job
from repro.exec.runner import ParallelRunner
from repro.selection.codegen import compile_python, generate_c
from repro.service import (
    ArtifactRegistry,
    SelectionService,
    ServiceThread,
    build_artifact,
)
from repro.service.artifact import calibrate_operation
from repro.units import KiB, MiB, log_spaced_sizes

GRID_PROCS = tuple(range(2, 17, 2))
GRID_SIZES = tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6))

#: The sweep: (procs, nbytes, expect_clamped).
DEGENERATE_POINTS = (
    (1, 0, True),                          # both axes below the grid
    (1, 64 * KiB, True),                   # procs below, size on-grid
    (8, 0, True),                          # size below, procs on-grid
    (2, 1, True),                          # one byte: below the 8 KiB floor
    (2, 8 * KiB - 1, True),                # just under the size floor
    (2, 8 * KiB, False),                   # exactly the grid origin
    (16, 1 * MiB, False),                  # exactly the grid corner
    (500, 1 * MiB, False),                 # far above the proc grid
    (16, 1 << 30, False),                  # 1 GiB: far above the size grid
    (500, 1 << 30, False),                 # far above both axes
)


@pytest.fixture(scope="module")
def artifact(mini_platform):
    return build_artifact(
        MINICLUSTER,
        proc_points=GRID_PROCS,
        size_points=GRID_SIZES,
        platforms={"bcast": mini_platform},
    )


@pytest.fixture(scope="module")
def table(artifact):
    return artifact.entries["bcast"].table


@pytest.fixture(scope="module")
def decision_fn(table):
    return compile_python(table)


@pytest.fixture(scope="module")
def server(artifact, tmp_path_factory):
    directory = tmp_path_factory.mktemp("degenerate-artifacts")
    artifact.save(directory / "minicluster.json")
    service = SelectionService(ArtifactRegistry(directory), cache_size=64)
    with ServiceThread(service) as handle:
        yield handle


def post_select(port, procs, nbytes):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST",
            "/select",
            json.dumps(
                {"cluster": "minicluster", "procs": procs, "nbytes": nbytes}
            ),
        )
        response = conn.getresponse()
        data = json.loads(response.read())
        return response.status, data, response.getheader("X-Trace-Id")
    finally:
        conn.close()


class TestFourLayerAgreement:
    @pytest.mark.parametrize("procs,nbytes,_clamped", DEGENERATE_POINTS)
    def test_table_codegen_artifact_agree(
        self, table, decision_fn, artifact, procs, nbytes, _clamped
    ):
        selection = table.select(procs, nbytes)
        expected = (selection.algorithm, selection.segment_size)
        assert decision_fn(procs, nbytes) == expected
        offline = artifact.select("bcast", procs, nbytes)
        assert (offline.algorithm, offline.segment_size) == expected

    @pytest.mark.parametrize("procs,nbytes,_clamped", DEGENERATE_POINTS)
    def test_server_agrees_with_table(
        self, server, table, procs, nbytes, _clamped
    ):
        selection = table.select(procs, nbytes)
        status, data, _trace = post_select(server.port, procs, nbytes)
        assert status == 200
        assert data["algorithm"] == selection.algorithm
        assert data["segment_size"] == selection.segment_size


class TestClampIndicator:
    @pytest.mark.parametrize("procs,nbytes,clamped", DEGENERATE_POINTS)
    def test_lookup_flags_below_grid(self, table, procs, nbytes, clamped):
        selection, flagged = table.lookup(procs, nbytes)
        assert flagged is clamped
        assert selection == table.select(procs, nbytes)

    def test_clamped_queries_answer_with_first_cell_axis(self, table):
        # A fully below-grid query is the first grid cell exactly.
        selection, flagged = table.lookup(1, 0)
        assert flagged
        assert selection == table.choices[0][0]

    @pytest.mark.parametrize("procs,nbytes,clamped", DEGENERATE_POINTS)
    def test_artifact_lookup_matches_table_lookup(
        self, artifact, table, procs, nbytes, clamped
    ):
        assert artifact.lookup("bcast", procs, nbytes) == table.lookup(
            procs, nbytes
        )

    @pytest.mark.parametrize("procs,nbytes,clamped", DEGENERATE_POINTS)
    def test_server_reports_clamped(self, server, procs, nbytes, clamped):
        status, data, _trace = post_select(server.port, procs, nbytes)
        assert status == 200
        assert data.get("clamped", False) is clamped

    def test_clamped_counter_increments(self, server):
        before = server.service.metrics.clamped.value(operation="bcast")
        # A fresh never-seen below-grid query (avoid the LRU cache).
        status, data, _trace = post_select(server.port, 1, 3)
        assert status == 200 and data["clamped"] is True
        after = server.service.metrics.clamped.value(operation="bcast")
        assert after == before + 1

    def test_generated_sources_document_the_clamp_bounds(self, table):
        from repro.selection.codegen import generate_python

        python_source = generate_python(table)
        c_source = generate_c(table)
        for source in (python_source, c_source):
            assert f"communicator_size < {GRID_PROCS[0]}" in source
            assert f"message_size < {GRID_SIZES[0]}" in source

    def test_c_fallback_branch_is_the_first_cell(self, table):
        """The C backend's unconditional branches clamp like the table."""
        from repro.selection.codegen import C_ALGORITHM_IDS

        first = table.choices[0][0]
        source = generate_c(table)
        # The last emitted decision (the double `if True`/`{` fallback)
        # must be the first grid cell — that is what below-grid clamps to.
        last_algorithm = [
            line for line in source.splitlines() if "*algorithm = " in line
        ][-1]
        assert f"*algorithm = {C_ALGORITHM_IDS[first.algorithm]};" in last_algorithm


class TestTraceIds:
    def test_every_select_response_carries_a_trace_id(self, server):
        status, data, trace = post_select(server.port, 4, 64 * KiB)
        assert status == 200
        assert trace and data["trace_id"] == trace

    def test_trace_ids_are_unique_per_request(self, server):
        ids = {
            post_select(server.port, 4, 64 * KiB)[2] for _ in range(5)
        }
        assert len(ids) == 5


# -- m = 0 no-op convention for the whole-suite collectives ------------------

WHOLE_SUITE = ("allreduce", "allgather", "alltoall", "scatter")


@pytest.fixture(scope="module")
def suite_artifact():
    return build_artifact(
        MINICLUSTER,
        collectives=WHOLE_SUITE,
        proc_points=GRID_PROCS,
        size_points=GRID_SIZES,
        procs=6,
        sizes=(8 * KiB, 64 * KiB, 512 * KiB),
        max_reps=3,
        seed=0,
    )


@pytest.fixture(scope="module")
def suite_server(suite_artifact, tmp_path_factory):
    directory = tmp_path_factory.mktemp("whole-suite-artifacts")
    suite_artifact.save(directory / "minicluster.json")
    service = SelectionService(ArtifactRegistry(directory), cache_size=64)
    with ServiceThread(service) as handle:
        yield handle


def post_select_operation(port, operation, procs, nbytes):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST",
            "/select",
            json.dumps(
                {
                    "cluster": "minicluster",
                    "operation": operation,
                    "procs": procs,
                    "nbytes": nbytes,
                }
            ),
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestWholeSuiteZeroBytes:
    """m = 0 is a no-op end to end for allreduce/allgather/alltoall/scatter.

    Regression for the PR 4 convention the whole-suite modules originally
    missed: their generators used to send zero-byte messages and pay full
    latency at m = 0.  Now all four layers agree — empty schedule (the
    simulator measures exactly 0.0), zero model prediction, a clamped but
    well-defined table answer, and the served decision matching it.
    """

    @pytest.mark.parametrize("operation", WHOLE_SUITE)
    def test_simulator_measures_exactly_zero(self, operation):
        from repro.collectives.registry import algorithm_names

        for algorithm in algorithm_names(operation):
            for procs in (2, 5, 8):
                assert execute_job(
                    SimJob(MINICLUSTER, operation, procs, algorithm)
                ) == 0.0

    @pytest.mark.parametrize("operation", WHOLE_SUITE)
    def test_single_rank_is_also_a_noop(self, operation):
        from repro.collectives.registry import algorithm_names

        for algorithm in algorithm_names(operation):
            assert execute_job(SimJob(
                MINICLUSTER, operation, 1, algorithm, nbytes=64 * KiB
            )) == 0.0

    @pytest.mark.parametrize("operation", WHOLE_SUITE)
    def test_models_predict_zero(self, suite_artifact, operation):
        platform = suite_artifact.entries[operation].platform
        for procs in (2, 8, 16):
            predictions = platform.predict_all(procs, 0)
            assert predictions and all(
                time == 0.0 for time in predictions.values()
            )

    @pytest.mark.parametrize("operation", WHOLE_SUITE)
    @pytest.mark.parametrize("procs,nbytes", ((1, 0), (8, 0), (2, 1)))
    def test_four_layer_agreement_at_degenerate_points(
        self, suite_artifact, suite_server, operation, procs, nbytes
    ):
        table = suite_artifact.entries[operation].table
        selection = table.select(procs, nbytes)
        expected = (selection.algorithm, selection.segment_size)
        compiled = suite_artifact.entries[operation].compile()
        assert compiled(procs, nbytes) == expected
        offline = suite_artifact.select(operation, procs, nbytes)
        assert (offline.algorithm, offline.segment_size) == expected
        status, data = post_select_operation(
            suite_server.port, operation, procs, nbytes
        )
        assert status == 200
        assert (data["algorithm"], data["segment_size"]) == expected
        assert data.get("clamped", False) is True

    @pytest.mark.parametrize("operation", WHOLE_SUITE)
    def test_segment_sizes_are_zero_everywhere(self, suite_artifact, operation):
        table = suite_artifact.entries[operation].table
        assert all(
            choice.segment_size == 0
            for row in table.choices
            for choice in row
        )


# -- degenerate calibration inputs fail typed, before any simulation -------

ALL_PIPELINES = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)

#: case -> (kwargs of a size sweep, kwargs of the barrier's P sweep,
#: expected message).  MINICLUSTER hosts 2..16 processes.
DEGENERATE_CALIBRATIONS = {
    "unknown_algorithm": (
        {"algorithms": ["no_such_algorithm"]},
        {"algorithms": ["no_such_algorithm"]},
        "no_such_algorithm; known: ",
    ),
    "procs_below_range": (
        {"procs": 1}, {"proc_counts": (1,)}, "procs=1 outside 2..16",
    ),
    "procs_above_range": (
        {"procs": 17}, {"proc_counts": (4, 17)}, "procs=17 outside 2..16",
    ),
    "too_few_points": (
        {"sizes": (64 * KiB,)}, {"proc_counts": ()}, "need at least",
    ),
}


class TestDegenerateCalibration:
    @pytest.mark.parametrize("case", sorted(DEGENERATE_CALIBRATIONS))
    @pytest.mark.parametrize("operation", ALL_PIPELINES)
    def test_refused_before_any_simulation(self, operation, case):
        sweep_kwargs, barrier_kwargs, message = DEGENERATE_CALIBRATIONS[case]
        kwargs = barrier_kwargs if operation == "barrier" else sweep_kwargs
        runner = ParallelRunner(jobs=1)
        try:
            with pytest.raises(ArtifactError, match=message):
                calibrate_operation(
                    MINICLUSTER, operation, runner=runner, max_reps=3,
                    **kwargs,
                )
            assert runner.stats.simulations == 0
        finally:
            runner.close()

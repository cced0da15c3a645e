"""Tests for the execution subsystem: jobs, cache, runner, equivalence.

The load-bearing properties:

* equal experiments fingerprint equal, different experiments different —
  on both :class:`ClusterSpec` and :class:`SimJob`;
* the persistent cache survives a round trip, drops stale-salt files, and
  counts its traffic;
* parallel execution is bit-for-bit identical to serial, for batches and
  for the full Table-3 pipeline;
* a warm persistent cache replays the full pipeline with *zero* new
  simulations.
"""

from __future__ import annotations

import json

import pytest

from repro.clusters import MINICLUSTER
from repro.clusters.spec import ClusterSpec
from repro.errors import SimulationError
from repro.exec import (
    CACHE_SCHEMA,
    ParallelRunner,
    ResultCache,
    SimJob,
    code_salt,
    execute_job,
)
from repro.measure import experiment, run_experiment
from repro.units import KiB


def bcast_job(seed=0, nbytes=8 * KiB, algorithm="binomial", procs=8):
    return SimJob(
        spec=MINICLUSTER,
        kind="bcast",
        procs=procs,
        algorithm=algorithm,
        nbytes=nbytes,
        segment_size=0,
        seed=seed,
    )


class TestClusterSpecFingerprint:
    def test_stable_across_instances(self):
        a = MINICLUSTER.fingerprint()
        b = ClusterSpec(
            name=MINICLUSTER.name,
            nodes=MINICLUSTER.nodes,
            procs_per_node=MINICLUSTER.procs_per_node,
            network=MINICLUSTER.network,
            noise_sigma=MINICLUSTER.noise_sigma,
            nics_per_node=MINICLUSTER.nics_per_node,
            slow_nodes=MINICLUSTER.slow_nodes,
        ).fingerprint()
        assert a == b

    def test_every_fidelity_knob_changes_it(self):
        base = MINICLUSTER.fingerprint()
        assert MINICLUSTER.with_noise(0.5).fingerprint() != base
        smaller = ClusterSpec(
            name=MINICLUSTER.name,
            nodes=MINICLUSTER.nodes - 1,
            procs_per_node=MINICLUSTER.procs_per_node,
            network=MINICLUSTER.network,
            noise_sigma=MINICLUSTER.noise_sigma,
        )
        assert smaller.fingerprint() != base

    def test_name_alone_distinguishes(self):
        renamed = ClusterSpec(
            name="other",
            nodes=MINICLUSTER.nodes,
            procs_per_node=MINICLUSTER.procs_per_node,
            network=MINICLUSTER.network,
            noise_sigma=MINICLUSTER.noise_sigma,
        )
        assert renamed.fingerprint() != MINICLUSTER.fingerprint()


class TestSimJob:
    def test_fingerprint_stable_and_distinct(self):
        assert bcast_job().fingerprint() == bcast_job().fingerprint()
        base = bcast_job().fingerprint()
        assert bcast_job(seed=1).fingerprint() != base
        assert bcast_job(nbytes=16 * KiB).fingerprint() != base
        assert bcast_job(algorithm="chain").fingerprint() != base
        assert bcast_job(procs=4).fingerprint() != base

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown job kind"):
            SimJob(spec=MINICLUSTER, kind="alltoallw", procs=4)

    def test_execute_matches_direct_measurement(self):
        job = bcast_job()
        direct = run_experiment(
            MINICLUSTER, experiment("bcast", 8, "binomial", nbytes=8 * KiB),
            seed=0,
        )
        assert execute_job(job) == direct


class TestResultCache:
    def test_roundtrip_and_persistence(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("k1") is None
        cache.put("k1", 1.5)
        assert cache.get("k1") == 1.5
        cache.close()

        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("k1") == 1.5
        assert reopened.stats.loaded == 1
        reopened.close()

    def test_stale_salt_drops_everything(self, tmp_path):
        path = tmp_path / f"results-v{CACHE_SCHEMA}.jsonl"
        lines = [json.dumps({"schema": CACHE_SCHEMA, "salt": "stale"})]
        lines += [json.dumps({"k": f"k{i}", "v": float(i)}) for i in range(3)]
        path.write_text("\n".join(lines) + "\n")

        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        assert cache.stats.invalidated == 3
        # The file was rewritten with the current salt.
        header = json.loads(path.read_text().splitlines()[0])
        assert header["salt"] == code_salt()
        cache.close()

    def test_corrupt_line_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("good", 2.0)
        cache.close()
        with open(cache.path, "a") as handle:
            handle.write("{not json\n")
        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.stats.corrupt_lines == 1
        assert reopened.get("good") == 2.0
        reopened.close()

    def test_truncated_tail_skipped_and_sanitized(self, tmp_path):
        """A line torn mid-write (crash, full disk) is dropped, counted,
        and scrubbed from the file so the next open is clean."""
        cache = ResultCache(tmp_path)
        cache.put("good", 2.0)
        cache.put("torn", 3.0)
        cache.close()
        raw = cache.path.read_bytes()
        cache.path.write_bytes(raw[:-9])  # tear the final record

        reopened = ResultCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("good") == 2.0
        assert reopened.get("torn") is None
        assert reopened.stats.corrupt_lines == 1
        reopened.close()

        clean = ResultCache(tmp_path)  # rewrite scrubbed the torn line
        assert clean.stats.corrupt_lines == 0
        assert len(clean) == 1
        clean.close()

    def test_binary_garbage_and_bad_header_tolerated(self, tmp_path):
        path = tmp_path / f"results-v{CACHE_SCHEMA}.jsonl"
        lines = [
            json.dumps(["not", "a", "dict"]).encode(),  # header not a dict
            b"\xff\xfe garbage \x00",                   # not UTF-8
            json.dumps({"k": "ok", "v": 4.0}).encode(),
        ]
        path.write_bytes(b"\n".join(lines) + b"\n")
        cache = ResultCache(tmp_path)
        # Non-dict header counts as a salt mismatch: entries invalidated.
        assert cache.get("ok") is None
        assert len(cache) == 0
        cache.put("fresh", 1.0)
        cache.close()
        reopened = ResultCache(tmp_path)
        assert reopened.get("fresh") == 1.0
        assert reopened.stats.corrupt_lines == 0
        reopened.close()

    def test_stats_count_traffic(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("missing")
        cache.put("k", 1.0)
        cache.put("k", 1.0)  # duplicate put is a no-op
        cache.get("k")
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "loaded": 0,
            "invalidated": 0,
            "corrupt_lines": 0,
        }
        cache.close()


class TestParallelRunner:
    BATCH = [bcast_job(seed=s, algorithm=a)
             for s in (0, 1) for a in ("binomial", "chain", "linear")]

    def test_parallel_bit_identical_to_serial(self):
        serial = ParallelRunner(jobs=1)
        parallel = ParallelRunner(jobs=2)
        try:
            assert serial.run(self.BATCH) == parallel.run(self.BATCH)
        finally:
            serial.close()
            parallel.close()

    def test_memo_avoids_resimulation(self):
        runner = ParallelRunner(jobs=1)
        first = runner.run(self.BATCH)
        # MINICLUSTER is noise-free: the two seeds of each algorithm
        # share one simulation.
        assert runner.stats.simulations == 3
        assert runner.stats.deduped_cells == 3
        second = runner.run(self.BATCH)
        assert second == first
        assert runner.stats.simulations == 3
        assert runner.stats.memo_hits == len(self.BATCH)
        runner.close()

    def test_duplicate_jobs_in_one_batch_simulate_once_each(self):
        runner = ParallelRunner(jobs=1)
        runner.prefetch(self.BATCH + self.BATCH)
        assert runner.stats.simulations == 3
        assert runner.stats.deduped_cells == 3
        runner.close()

    def test_batched_prefetch_also_dedupes_seeds(self, reference_runner):
        # MINICLUSTER is noise-free, so the runner collapses the seed
        # axis: one simulation per (algorithm), not per (seed,
        # algorithm) — and the results must match the reference.
        runner = ParallelRunner(jobs=1)
        runner.prefetch(self.BATCH + self.BATCH)
        assert runner.run(self.BATCH) == reference_runner.run(self.BATCH)
        assert runner.stats.simulations == 3  # binomial, chain, linear
        # 12 submitted = 6 exact-duplicate fingerprints folded up front,
        # then the seed axis collapses the remaining 6 to 3 dedupe keys.
        assert runner.stats.simulations + runner.stats.deduped_cells == 6
        assert runner.stats.deduped_cells == 3
        runner.close()

    def test_closed_runner_is_freed(self):
        import gc
        import weakref

        runner = ParallelRunner(jobs=1)
        runner.run(self.BATCH[:1])
        alive = weakref.ref(runner)
        runner.close()
        runner.close()  # idempotent
        del runner
        gc.collect()
        # Nothing (the interpreter-exit hook included) keeps a closed
        # runner, its memo or its cache handle reachable.
        assert alive() is None

    def test_persistent_cache_feeds_second_runner(self, tmp_path):
        first = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        results = first.run(self.BATCH)
        first.close()

        second = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        assert second.run(self.BATCH) == results
        assert second.stats.simulations == 0
        assert second.stats.cache_hits == len(self.BATCH)
        second.close()


class _ExplodingPool:
    """Stands in for an executor whose workers have all died."""

    def map(self, fn, jobs, chunksize=1):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("worker died")

    def shutdown(self, wait=False, cancel_futures=False):
        pass


class TestPoolCrashRecovery:
    BATCH = [bcast_job(seed=s, algorithm=a)
             for s in (10, 11) for a in ("binomial", "chain", "linear")]

    def expected(self):
        serial = ParallelRunner(jobs=1)
        try:
            return serial.run(self.BATCH)
        finally:
            serial.close()

    def test_one_crash_recovers_via_pool_rebuild(self, monkeypatch):
        runner = ParallelRunner(jobs=2)
        real_make = runner._make_pool
        made = []

        def flaky_make():
            made.append(None)
            return _ExplodingPool() if len(made) == 1 else real_make()

        monkeypatch.setattr(runner, "_make_pool", flaky_make)
        try:
            assert runner.run(self.BATCH) == self.expected()
            assert runner.stats.pool_failures == 1
            assert runner.stats.fallback_batches == 0
        finally:
            runner.close()

    def test_permanent_crash_falls_back_in_process(self, monkeypatch):
        runner = ParallelRunner(jobs=2)
        monkeypatch.setattr(runner, "_make_pool", _ExplodingPool)
        try:
            assert runner.run(self.BATCH) == self.expected()
            assert runner.stats.pool_failures == 2  # both retries burned
            assert runner.stats.fallback_batches == 1
        finally:
            runner.close()

    def test_live_worker_kill_mid_run(self):
        """SIGKILL a real worker process; the batch still completes with
        results bit-identical to serial execution."""
        import os
        import signal
        import time as _time

        runner = ParallelRunner(jobs=2)
        try:
            runner._pool = runner._make_pool()
            # Force workers to actually spawn before the kill.
            list(runner._pool.map(abs, [1, 2, 3]))
            deadline = _time.monotonic() + 10
            while not runner._pool._processes and _time.monotonic() < deadline:
                _time.sleep(0.01)
            victim, process = next(iter(runner._pool._processes.items()))
            os.kill(victim, signal.SIGKILL)
            # Let the pool see the death before the batch: otherwise the
            # surviving worker may finish every slab first and the pool
            # never breaks.
            process.join(timeout=10)
            deadline = _time.monotonic() + 10
            while not runner._pool._broken and _time.monotonic() < deadline:
                _time.sleep(0.01)
            assert runner._pool._broken
            assert runner.run(self.BATCH) == self.expected()
            assert runner.stats.pool_failures >= 1
        finally:
            runner.close()


@pytest.fixture(scope="module")
def comparison_inputs(request):
    """Platform + experiment grid for the pipeline equivalence tests."""
    from repro.units import MiB, log_spaced_sizes

    calibration = request.getfixturevalue("mini_calibration")
    sizes = log_spaced_sizes(8 * KiB, 1 * MiB, 4)
    return calibration.platform, 8, sizes


class TestPipelineEquivalence:
    def _rows(self, platform, procs, sizes, runner):
        from repro.bench.runner import selection_comparison
        from repro.selection.oracle import MeasuredOracle

        oracle = MeasuredOracle(
            MINICLUSTER, max_reps=3, runner=runner
        )
        return selection_comparison(
            MINICLUSTER, platform, procs, sizes, oracle=oracle
        )

    def test_jobs4_bit_identical_to_serial(self, comparison_inputs):
        platform, procs, sizes = comparison_inputs
        serial = ParallelRunner(jobs=1)
        parallel = ParallelRunner(jobs=4)
        try:
            rows1 = self._rows(platform, procs, sizes, serial)
            rows4 = self._rows(platform, procs, sizes, parallel)
        finally:
            serial.close()
            parallel.close()
        assert rows1 == rows4

    def test_warm_cache_rerun_simulates_nothing(
        self, comparison_inputs, tmp_path
    ):
        platform, procs, sizes = comparison_inputs
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        rows_cold = self._rows(platform, procs, sizes, cold)
        assert cold.stats.simulations > 0
        cold.close()

        warm = ParallelRunner(jobs=2, cache=ResultCache(tmp_path))
        rows_warm = self._rows(platform, procs, sizes, warm)
        warm.close()
        assert rows_warm == rows_cold
        assert warm.stats.simulations == 0

    def test_oracle_stats_exposed(self, comparison_inputs):
        platform, procs, sizes = comparison_inputs
        runner = ParallelRunner(jobs=1)
        from repro.selection.oracle import MeasuredOracle

        oracle = MeasuredOracle(MINICLUSTER, max_reps=3, runner=runner)
        oracle.best(procs, sizes[0])
        oracle.best(procs, sizes[0])  # replays from the oracle memo
        stats = oracle.stats.as_dict()
        runner.close()
        assert stats["memo_misses"] == len(oracle.algorithms)
        assert stats["memo_hits"] == len(oracle.algorithms)
        assert stats["simulations"] == runner.stats.memo_hits


class TestCalibrationEquivalence:
    def test_parallel_calibration_identical(self):
        from repro.estimation.workflow import calibrate_platform
        from repro.units import MiB, log_spaced_sizes

        kwargs = dict(
            procs=6,
            sizes=log_spaced_sizes(8 * KiB, 256 * KiB, 4),
            gamma_max_procs=4,
            max_reps=3,
        )
        serial = ParallelRunner(jobs=1)
        parallel = ParallelRunner(jobs=2)
        try:
            one = calibrate_platform(MINICLUSTER, runner=serial, **kwargs)
            two = calibrate_platform(MINICLUSTER, runner=parallel, **kwargs)
        finally:
            serial.close()
            parallel.close()
        assert one.platform == two.platform
        assert one.gamma_estimate.table == two.gamma_estimate.table

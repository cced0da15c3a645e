"""Parallel execution of simulation jobs with layered caching.

A :class:`ParallelRunner` takes batches of :class:`~repro.exec.job.SimJob`
and returns their results *in batch order*.  Every request — :meth:`run`,
:meth:`run_one` and :meth:`prefetch` — resolves through one step:

1. **in-process memo** — every result this runner has ever produced,
   keyed by job fingerprint (always on; this is what makes *prefetching*
   work even with the persistent cache disabled);
2. **persistent cache** — the cross-process, cross-session
   :class:`~repro.exec.cache.ResultCache`, if configured;
3. **seed dedupe** — misses that must produce the same float (equal
   fingerprints, or seed repetitions on a seed-free spec, see
   :func:`repro.sim.batch.dedupe_key`) collapse to one cell;
4. **execution** — one executor call runs the cells through the replay
   executor of :class:`~repro.sim.batch.BatchSimulator`, inline or as
   contiguous slabs on a ``ProcessPoolExecutor``.

Determinism: simulations are seeded and share no state, slabs are
contiguous and reassembled in order (``Executor.map``), and the replay
executor is bit-identical to the event loop of
:func:`~repro.exec.job.execute_job` — so results are bit-for-bit identical
for any ``jobs`` value, warm or cold cache.  ``execute_job`` stays the
reference the tests compare the runner against (``tests/test_exec.py``,
``tests/test_runner_reference.py``); the runner never calls it.

The typical access pattern is *prefetch then replay*: a hot caller submits
the first repetitions of every measurement in its sweep as one batch, then
runs its (inherently sequential) adaptive-measurement loop, which finds
each simulation already memoised.  Adaptive loops that need more
repetitions than were prefetched resolve each extra repetition the same
way, as a one-cell executor call.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.exec.cache import ResultCache
from repro.exec.job import SimJob

#: Sleep before each pool-rebuild attempt after a worker crash.  Short:
#: the common killer (OOM, an operator's stray ``kill``) either clears
#: immediately or keeps recurring, in which case we stop paying for pools
#: and fall back to in-process execution.
_POOL_RETRY_BACKOFF = (0.05, 0.25)


@dataclass
class ExecStats:
    """Counters of one runner's activity.

    ``simulations`` counts actual simulator executions; a fully warm rerun
    of a benchmark shows ``simulations == 0``.  ``deduped_cells`` counts
    misses answered by another cell's simulation (seed dedupe on seed-free
    specs), so ``simulations + deduped_cells`` is the number of distinct
    fingerprints resolved by execution.  ``pool_failures`` counts
    worker-pool crashes survived by rebuilding the pool;
    ``fallback_batches`` counts executor calls that exhausted the retries
    and ran in-process instead.
    """

    simulations: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    batches: int = 0
    pool_failures: int = 0
    fallback_batches: int = 0
    deduped_cells: int = 0

    def as_dict(self) -> dict:
        return {
            "simulations": self.simulations,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "pool_failures": self.pool_failures,
            "fallback_batches": self.fallback_batches,
            "deduped_cells": self.deduped_cells,
        }


def cpu_count() -> int:
    """Usable CPU count (respects affinity masks where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_init() -> None:
    """Initialise a pool worker: start from empty topology memos.

    Workers live for the whole pool generation and execute arbitrarily many
    slabs; starting each generation from a known-empty (and bounded, see
    :data:`repro.topology.builders.TREE_CACHE_MAXSIZE`) tree cache keeps
    long chaos sweeps over many (P, algorithm) pairs at a flat footprint.
    """
    from repro.topology.builders import clear_tree_caches

    clear_tree_caches()


def _replay_cells(cells: Sequence[SimJob]) -> list[float]:
    """Results of ``cells``, in order, from one replay-executor pass.

    Module-level, hence picklable: pool workers receive each slab as a
    ``tuple[SimJob, ...]`` and run it through this function.
    """
    # Imported here, not at module top: a process only pays for the
    # simulation stack once it actually executes a cell.
    from repro.sim.batch import BatchSimulator

    return BatchSimulator().run(cells)


class ParallelRunner:
    """Executes simulation jobs across processes, memoising every result.

    ``jobs`` is the worker-process count: 1 (the default) executes inline
    with no pool; ``0`` or ``None`` means "all cores".  The pool is created
    lazily on the first parallel executor call and reused across calls.
    """

    def __init__(
        self, jobs: int | None = 1, cache: ResultCache | None = None
    ):
        self.jobs = cpu_count() if not jobs else max(1, int(jobs))
        self.cache = cache
        self.stats = ExecStats()
        self._memo: dict[str, float] = {}
        self._pool: ProcessPoolExecutor | None = None
        atexit.register(self.close)

    def close(self) -> None:
        """Shut the worker pool down and release the cache handle.

        Also drops the interpreter-exit hook, which would otherwise keep
        this runner — memo, cache handle and all — alive until exit.
        Safe to call repeatedly.
        """
        atexit.unregister(self.close)
        self._discard_pool()
        if self.cache is not None:
            self.cache.close()

    # -- resolution --------------------------------------------------------

    def run(self, batch: Sequence[SimJob]) -> list[float]:
        """Results of ``batch``, in order; simulates only unseen jobs."""
        self.stats.batches += 1
        if len(batch) == 1:
            # Fast path: a single already-memoised job is a dict lookup —
            # the per-rep shape of adaptive measurement after a prefetch.
            # It skips span bookkeeping entirely (a span would cost ~5x
            # the lookup); estimation spans carry the aggregate hit
            # counts instead.
            value = self._memo.get(batch[0].fingerprint())
            if value is not None:
                self.stats.memo_hits += 1
                return [value]
        return self._resolve(batch)

    def run_one(self, job: SimJob) -> float:
        """Result of a single job."""
        return self.run([job])[0]

    def prefetch(self, batch: Sequence[SimJob]) -> None:
        """Warm the memo (and cache) with ``batch``.

        Duplicate fingerprints inside ``batch`` are collapsed up front, so
        callers can enumerate naively.
        """
        unique: dict[str, SimJob] = {}
        for job in batch:
            unique.setdefault(job.fingerprint(), job)
        self.run(list(unique.values()))

    def _resolve(self, batch: Sequence[SimJob]) -> list[float]:
        """memo → persistent cache → seed dedupe → one executor call.

        Every miss is stored under its own fingerprint, in the memo and
        the cache, so warm replay never depends on how a cold run deduped.
        """
        from repro.sim.batch import dedupe_key

        stats = self.stats
        memo_before, cache_before = stats.memo_hits, stats.cache_hits
        with obs.span("exec.run", jobs=len(batch)) as run_span:
            results: list[float | None] = [None] * len(batch)
            # Batch indices of each missed fingerprint.
            misses: dict[str, list[int]] = {}
            for index, job in enumerate(batch):
                key = job.fingerprint()
                value = self._memo.get(key)
                if value is not None:
                    stats.memo_hits += 1
                    results[index] = value
                    continue
                if key in misses:
                    misses[key].append(index)
                    continue
                if self.cache is not None:
                    value = self.cache.get(key)
                    if value is not None:
                        stats.cache_hits += 1
                        self._memo[key] = value
                        results[index] = value
                        continue
                misses[key] = [index]
            # Missed fingerprints per executor cell, collapsed before
            # slabbing so the dedupe works across slab boundaries.
            cells: dict[str, list[str]] = {}
            for key, indices in misses.items():
                cells.setdefault(dedupe_key(batch[indices[0]]), []).append(key)
            executed = [batch[misses[keys[0]][0]] for keys in cells.values()]
            if executed:
                outcomes = self._execute(executed)
                stats.simulations += len(executed)
                stats.deduped_cells += len(misses) - len(executed)
                stored: list[tuple[str, float]] = []
                for keys, value in zip(cells.values(), outcomes):
                    for key in keys:
                        self._memo[key] = value
                        stored.append((key, value))
                        for index in misses[key]:
                            results[index] = value
                if self.cache is not None:
                    self.cache.put_many(stored)
            if obs.is_enabled():
                # Hit counts come from stats deltas so the untraced loop
                # above stays byte-for-byte the fast path.  Per-job spans
                # only cover executed cells: memo/cache hits are
                # microsecond dict/disk lookups, and a span each would
                # cost more than the hit itself (measured >15% on a
                # warm-cache build).
                run_span.set_attrs(
                    memo_hits=stats.memo_hits - memo_before,
                    cache_hits=stats.cache_hits - cache_before,
                    executed=len(executed),
                    deduped=len(misses) - len(executed),
                )
                for job in executed:
                    with obs.span(
                        "exec.job",
                        source="sim",
                        kind=job.kind,
                        algorithm=job.algorithm,
                        procs=job.procs,
                        nbytes=job.nbytes,
                    ):
                        pass
        return results  # type: ignore[return-value]

    # -- execution ---------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_init
        )

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _execute(self, cells: list[SimJob]) -> list[float]:
        """Results of ``cells``, in order, from the replay executor.

        Serial runners, and calls of at most two cells, run inline.
        Parallel runners cut the cells into contiguous slabs (~2 per
        worker: slabs are coarse on purpose, one IPC round trip and one
        engine pass each) and ship whole slabs to pool workers.
        """
        if self.jobs == 1 or len(cells) <= 2:
            with obs.span("exec.execute", dispatch="inline", cells=len(cells)):
                return _replay_cells(cells)
        slab_size = -(-len(cells) // (self.jobs * 2))
        slabs = [
            tuple(cells[start:start + slab_size])
            for start in range(0, len(cells), slab_size)
        ]
        # A worker dying mid-call (OOM killer, stray signal, container
        # eviction) surfaces as BrokenProcessPool and poisons the whole
        # executor.  Cells are pure functions of their fingerprint, so the
        # call is safely re-runnable: rebuild the pool and retry, then
        # give up on parallelism and finish in-process.  Results stay
        # bit-identical on every path — the same simulations run, only the
        # process executing them changes.
        for backoff in _POOL_RETRY_BACKOFF:
            try:
                if self._pool is None:
                    self._pool = self._make_pool()
                with obs.span(
                    "exec.execute", dispatch="pool", cells=len(cells),
                    workers=self.jobs, slabs=len(slabs),
                ):
                    results: list[float] = []
                    for slab_results in self._pool.map(_replay_cells, slabs):
                        results.extend(slab_results)
                    return results
            except BrokenProcessPool:
                self.stats.pool_failures += 1
                self._discard_pool()
                time.sleep(backoff)
        self.stats.fallback_batches += 1
        with obs.span("exec.execute", dispatch="fallback", cells=len(cells)):
            return _replay_cells(cells)


# -- process-wide default runner ------------------------------------------

_default_runner: ParallelRunner | None = None


def configure(
    jobs: int | None = 1,
    cache: bool = False,
    cache_dir: str | None = None,
) -> ParallelRunner:
    """Install (and return) the process-wide default runner.

    Called by the CLI's ``--jobs`` / ``--no-cache`` / ``--cache-dir``
    flags; library users can call it directly or pass explicit
    ``runner=`` objects to the hot callers instead.
    """
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = ParallelRunner(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache else None,
    )
    return _default_runner


def default_runner() -> ParallelRunner:
    """The process-wide runner, built from the environment on first use.

    ``REPRO_JOBS`` (int; 0 = all cores) and ``REPRO_CACHE`` (non-empty,
    non-"0" enables the persistent cache at ``REPRO_CACHE_DIR`` or the
    default location) configure it without code changes.  The
    zero-config default is serial execution with in-process memoisation
    only.
    """
    global _default_runner
    if _default_runner is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        cache_on = os.environ.get("REPRO_CACHE", "") not in ("", "0")
        _default_runner = ParallelRunner(
            jobs=jobs, cache=ResultCache() if cache_on else None
        )
    return _default_runner


def reset_default_runner() -> None:
    """Tear down the default runner (tests; re-created on next use)."""
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
        _default_runner = None

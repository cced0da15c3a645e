"""Selection primitives and the measured oracle (ground truth).

A :class:`Selection` names an algorithm plus the segment size it should run
with — the same pair Open MPI's decision functions produce.  The
:class:`MeasuredOracle` runs every candidate algorithm on the simulated
cluster and returns the empirically best one; Table 3's "Best" column and
the green curve of Fig. 5.

Measurements flow through the :mod:`repro.exec` runner, so they are
memoised at three levels: the oracle's own ``(procs, nbytes, algorithm,
segment)`` memo (so Table 3 and Fig. 5 share *means*), the runner's
in-process memo, and — when configured — the persistent result cache (so
they are shared across processes and sessions).  :meth:`prefetch` warms a
whole sweep through the runner in one parallel batch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.clusters.spec import ClusterSpec
from repro.errors import SelectionError
from repro.estimation.alphabeta import OPERATION_PROFILES
from repro.estimation.statistics import adaptive_measure
from repro.exec.job import SimJob
from repro.exec.runner import ParallelRunner, default_runner
from repro.units import KiB


@dataclass(frozen=True)
class Selection:
    """An algorithm choice: name plus segment size (0 = unsegmented).

    ``operation`` names the collective the choice belongs to (``"bcast"``
    unless the future-work reduce selection produced it); the algorithm
    name is validated against that operation's catalogue.
    """

    algorithm: str
    segment_size: int
    operation: str = "bcast"

    def __post_init__(self) -> None:
        from repro.collectives.registry import algorithm_names

        known = algorithm_names(self.operation)
        if self.algorithm not in known:
            raise SelectionError(
                f"unknown {self.operation} algorithm {self.algorithm!r}; "
                f"known: {', '.join(known)}"
            )
        if self.segment_size < 0:
            raise SelectionError(f"negative segment size {self.segment_size}")

    def describe(self) -> str:
        if self.segment_size:
            return f"{self.algorithm} ({self.segment_size // 1024} KB segments)"
        return f"{self.algorithm} (no segmentation)"


@dataclass
class OracleStats:
    """Memo-effectiveness counters of one :class:`MeasuredOracle`.

    ``simulations`` counts the simulator runs performed *for this oracle*
    (repetitions of adaptive measurements); runner-level cache hits that
    avoided a simulation entirely are visible in the runner's own stats.
    """

    memo_hits: int = 0
    memo_misses: int = 0
    simulations: int = 0

    def as_dict(self) -> dict:
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "simulations": self.simulations,
        }


def stable_key_hash(key: tuple) -> int:
    """Deterministic across processes (unlike ``hash`` on strings)."""
    return zlib.crc32(repr(key).encode("utf-8"))


class MeasuredOracle:
    """Exhaustive measurement: the empirically optimal algorithm.

    Results are memoised per ``(procs, nbytes, algorithm, segment_size)``
    so Table 3 and Fig. 5 share measurements.

    ``operation`` picks the collective under test (default ``"bcast"``,
    the paper's experiment) and is also the job kind timing one call.
    Its :data:`~repro.estimation.alphabeta.OPERATION_PROFILES` row gives
    the default candidates (the calibrated ones: the paper's six for
    broadcast, the flat algorithms for reduce, the full catalogue
    otherwise) and whether algorithms take a segment size; unsegmented
    operations force ``segment_size=0``.
    """

    #: Repetitions prefetched per measurement before the adaptive loop runs.
    #: Deterministic platforms converge after exactly two identical samples,
    #: so two is the whole schedule there; noisy platforms draw any further
    #: repetitions serially.
    PREFETCH_REPS = 2

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        operation: str = "bcast",
        algorithms: Sequence[str] | None = None,
        segment_size: int = 8 * KiB,
        precision: float = 0.025,
        max_reps: int = 12,
        seed: int = 0,
        runner: ParallelRunner | None = None,
    ):
        profile = OPERATION_PROFILES.get(operation)
        if profile is None:
            raise SelectionError(
                f"no measured oracle for operation {operation!r}; "
                f"known: {', '.join(sorted(OPERATION_PROFILES))}"
            )
        self.spec = spec
        self.operation = operation
        self.algorithms = (
            sorted(profile.default_algorithms)
            if algorithms is None
            else list(algorithms)
        )
        self.segment_size = segment_size if profile.segmented else 0
        self.precision = precision
        self.max_reps = max_reps
        self.seed = seed
        self.runner = runner
        self.stats = OracleStats()
        self._cache: dict[tuple[int, int, str, int], float] = {}

    def _runner(self) -> ParallelRunner:
        return self.runner if self.runner is not None else default_runner()

    def _base_seed(self, key: tuple[int, int, str, int]) -> int:
        return self.seed + stable_key_hash(key) % 1_000_000

    def _job(
        self, procs: int, nbytes: int, algorithm: str, seg: int, rep_seed: int
    ) -> SimJob:
        if self.operation == "barrier":
            # Barriers carry no payload: the job ignores size and segment,
            # so measurements at different nbytes share one simulation.
            return SimJob(
                spec=self.spec,
                kind="barrier",
                procs=procs,
                algorithm=algorithm,
                seed=rep_seed,
            )
        return SimJob(
            spec=self.spec,
            kind=self.operation,
            procs=procs,
            algorithm=algorithm,
            nbytes=nbytes,
            segment_size=seg,
            seed=rep_seed,
        )

    def prefetch(
        self,
        procs: int,
        sizes: Sequence[int],
        *,
        selections: Sequence[tuple[int, Selection]] = (),
    ) -> None:
        """Warm the runner with a whole sweep in one parallel batch.

        Enumerates the first :attr:`PREFETCH_REPS` repetitions of every
        (size, algorithm) measurement — plus any extra ``(nbytes,
        selection)`` pairs whose segment sizes differ from the default —
        exactly as the adaptive loop will request them, and executes them
        through the runner.
        """
        grid = [
            (nbytes, name, self.segment_size)
            for nbytes in sizes
            for name in self.algorithms
        ]
        grid += [(n, s.algorithm, s.segment_size) for n, s in selections]
        batch: list[SimJob] = []
        for nbytes, name, seg in grid:
            key = (procs, nbytes, name, seg)
            if key in self._cache:
                continue
            base = self._base_seed(key)
            for rep in range(self.PREFETCH_REPS):
                batch.append(
                    self._job(procs, nbytes, name, seg, base + 7919 * rep)
                )
        if batch:
            self._runner().prefetch(batch)

    def measure(
        self,
        procs: int,
        nbytes: int,
        algorithm: str,
        segment_size: int | None = None,
    ) -> float:
        """Mean measured time of one algorithm (memoised)."""
        seg = self.segment_size if segment_size is None else segment_size
        key = (procs, nbytes, algorithm, seg)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        self.stats.memo_misses += 1
        runner = self._runner()

        def measure_once(rep_seed: int) -> float:
            self.stats.simulations += 1
            return runner.run_one(
                self._job(procs, nbytes, algorithm, seg, rep_seed)
            )

        stats = adaptive_measure(
            measure_once,
            precision=self.precision,
            max_reps=self.max_reps,
            seed=self._base_seed(key),
        )
        self._cache[key] = stats.mean
        return stats.mean

    def measure_selection(self, procs: int, nbytes: int, choice: Selection) -> float:
        """Measured time of an arbitrary (algorithm, segment size) choice."""
        return self.measure(procs, nbytes, choice.algorithm, choice.segment_size)

    def sweep(self, procs: int, nbytes: int) -> dict[str, float]:
        """Measured time of every candidate algorithm at ``(procs, nbytes)``."""
        self.prefetch(procs, [nbytes])
        return {
            name: self.measure(procs, nbytes, name) for name in self.algorithms
        }

    def best(self, procs: int, nbytes: int) -> tuple[Selection, float]:
        """The empirically best algorithm and its measured time."""
        times = self.sweep(procs, nbytes)
        winner = min(times, key=times.get)
        return (
            Selection(winner, self.segment_size, operation=self.operation),
            times[winner],
        )

    def degradation(
        self, procs: int, nbytes: int, choice: Selection
    ) -> float:
        """Relative slowdown of ``choice`` versus the best, in percent.

        This is the figure Table 3 prints in braces.
        """
        _, best_time = self.best(procs, nbytes)
        chosen_time = self.measure_selection(procs, nbytes, choice)
        if best_time <= 0:
            raise SelectionError("best time measured as non-positive")
        return 100.0 * (chosen_time - best_time) / best_time

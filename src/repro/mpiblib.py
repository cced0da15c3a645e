"""An MPIBlib-style benchmarking front end for the simulated runtime.

The paper measures with MPIBlib [24] — Lastovetsky et al.'s library for
benchmarking MPI communications with statistically sound repetition.  This
module reproduces its user-facing shape on top of the simulator:

* benchmark any registered collective operation/algorithm pair by name;
* choose the timing scope: ``"global"`` (last rank's completion — MPIBlib's
  globally synchronised timing) or ``"root"`` (the root's clock);
* repetitions driven by the paper's §5.1 criterion (95% confidence
  interval within 2.5% of the mean) with a normality check attached;
* results as structured records that render as a table.

Example::

    from repro.mpiblib import CollectiveBenchmark
    from repro.clusters import GRISOU

    bench = CollectiveBenchmark(GRISOU)
    result = bench.run("bcast", "binomial", procs=32, nbytes=1 << 20)
    print(result.describe())
    table = bench.sweep("bcast", ["binary", "binomial"], procs=32,
                        sizes=[8192, 65536])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clusters.spec import ClusterSpec
from repro.collectives.registry import algorithm_names, get_algorithm
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.exec.job import SimJob
from repro.exec.runner import default_runner
from repro.selection.oracle import stable_key_hash
from repro.units import KiB, format_bytes, format_seconds


@dataclass(frozen=True)
class BenchmarkResult:
    """One benchmarked configuration with its statistics."""

    operation: str
    algorithm: str
    procs: int
    nbytes: int
    segment_size: int
    policy: str
    stats: SampleStats

    @property
    def mean(self) -> float:
        return self.stats.mean

    def describe(self) -> str:
        """One-line human-readable summary."""
        precision = 100 * self.stats.relative_precision
        normality = (
            f", Shapiro p={self.stats.normality_p:.2f}"
            if self.stats.normality_p is not None
            else ""
        )
        return (
            f"{self.operation}/{self.algorithm} P={self.procs} "
            f"m={format_bytes(self.nbytes)}: {format_seconds(self.mean)} "
            f"(n={self.stats.n}, ±{precision:.1f}%{normality})"
        )


class CollectiveBenchmark:
    """Benchmark registered collective algorithms on a simulated cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        precision: float = 0.025,
        confidence: float = 0.95,
        max_reps: int = 30,
        seed: int = 0,
    ):
        self.spec = spec
        self.precision = precision
        self.confidence = confidence
        self.max_reps = max_reps
        self.seed = seed

    def run(
        self,
        operation: str,
        algorithm: str,
        *,
        procs: int,
        nbytes: int = 0,
        segment_size: int = 8 * KiB,
        root: int = 0,
        policy: str = "global",
    ) -> BenchmarkResult:
        """Benchmark one configuration to the paper's precision target.

        Repetition seeds derive from the configuration alone, so a noisy
        run gives the same samples in every process.
        """
        get_algorithm(operation, algorithm)  # SelectionError when unknown
        runner = default_runner()

        def measure_once(rep_seed: int) -> float:
            return runner.run_one(
                SimJob(
                    spec=self.spec,
                    kind=operation,
                    procs=procs,
                    algorithm=algorithm,
                    nbytes=nbytes,
                    segment_size=segment_size,
                    root=root,
                    seed=rep_seed,
                    policy=policy,
                )
            )

        key = (operation, algorithm, procs, nbytes)
        stats = adaptive_measure(
            measure_once,
            precision=self.precision,
            confidence=self.confidence,
            max_reps=self.max_reps,
            seed=self.seed + stable_key_hash(key) % 1_000_000,
        )
        return BenchmarkResult(
            operation=operation,
            algorithm=algorithm,
            procs=procs,
            nbytes=nbytes,
            segment_size=segment_size,
            policy=policy,
            stats=stats,
        )

    def sweep(
        self,
        operation: str,
        algorithms: Sequence[str] | None = None,
        *,
        procs: int,
        sizes: Sequence[int],
        segment_size: int = 8 * KiB,
        root: int = 0,
        policy: str = "global",
    ) -> list[BenchmarkResult]:
        """Benchmark several algorithms over several sizes."""
        if algorithms is None:
            algorithms = algorithm_names(operation)
        return [
            self.run(
                operation,
                algorithm,
                procs=procs,
                nbytes=nbytes,
                segment_size=segment_size,
                root=root,
                policy=policy,
            )
            for algorithm in algorithms
            for nbytes in sizes
        ]


def render_results(results: Sequence[BenchmarkResult]) -> str:
    """Format a sweep as a size-by-algorithm table (seconds)."""
    if not results:
        return "(no results)"
    algorithms = sorted({r.algorithm for r in results})
    sizes = sorted({r.nbytes for r in results})
    by_key = {(r.algorithm, r.nbytes): r for r in results}
    header = ["m"] + algorithms
    rows = [header, ["-" * len(h) for h in header]]
    for nbytes in sizes:
        row = [format_bytes(nbytes)]
        for algorithm in algorithms:
            result = by_key.get((algorithm, nbytes))
            row.append(format_seconds(result.mean) if result else "-")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )

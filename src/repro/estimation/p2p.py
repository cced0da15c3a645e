"""Classical point-to-point parameter estimation (Hockney's method, §2.2).

The state of the art before the paper: measure ping-pong round trips over a
range of message sizes and fit ``T_p2p(m) = α + β·m``.  The paper argues
(and §5.2 shows) that parameters obtained this way miss the context the
point-to-point transfers run in inside a collective algorithm; we implement
the method both to parameterise the traditional models of Fig. 1 and as the
baseline of the estimation ablation
(``benchmarks/test_ablation_estimation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clusters.spec import ClusterSpec
from repro.errors import EstimationError
from repro.estimation.regression import FitResult, get_regressor
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.exec.job import SimJob
from repro.exec.runner import ParallelRunner, default_runner
from repro.models.hockney import HockneyParams
from repro.units import KiB, MiB, log_spaced_sizes

#: Default ping-pong sweep (same range as the broadcast experiments).
DEFAULT_P2P_SIZES = tuple(log_spaced_sizes(8 * KiB, 4 * MiB, 10))


def _p2p_job(spec: ClusterSpec, nbytes: int, rep_seed: int) -> SimJob:
    # Spread mapping: the measured link is a network link even on
    # clusters with several ranks per node.
    return SimJob(
        spec=spec,
        kind="p2p_roundtrip",
        procs=2,
        nbytes=nbytes,
        seed=rep_seed,
        mapping="spread",
    )


def p2p_prefetch_jobs(
    spec: ClusterSpec,
    *,
    sizes: Sequence[int] = DEFAULT_P2P_SIZES,
    seed: int = 0,
    reps: int = 2,
) -> list[SimJob]:
    """The first ``reps`` repetitions of the ping-pong sweep, as jobs."""
    batch: list[SimJob] = []
    for index, nbytes in enumerate(sizes):
        base = seed + 15_485_863 * (index + 1)
        for rep in range(reps):
            batch.append(_p2p_job(spec, nbytes, base + 7919 * rep))
    return batch


@dataclass(frozen=True)
class P2pEstimate:
    """Ping-pong derived Hockney parameters plus diagnostics."""

    params: HockneyParams
    fit: FitResult
    sizes: tuple[int, ...]
    stats: tuple[SampleStats, ...]

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.params.beta


def estimate_hockney_p2p(
    spec: ClusterSpec,
    *,
    sizes: Sequence[int] = DEFAULT_P2P_SIZES,
    regressor: str = "huber",
    precision: float = 0.025,
    max_reps: int = 30,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    prefetch: bool = True,
) -> P2pEstimate:
    """Fit Hockney α/β from ping-pong experiments between two ranks."""
    if len(sizes) < 2:
        raise EstimationError("need at least two message sizes to fit a line")
    fit_fn = get_regressor(regressor)
    runner = runner if runner is not None else default_runner()
    if prefetch:
        runner.prefetch(p2p_prefetch_jobs(spec, sizes=sizes, seed=seed))
    stats: list[SampleStats] = []
    for index, nbytes in enumerate(sizes):

        def measure_once(rep_seed: int, nbytes: int = nbytes) -> float:
            return runner.run_one(_p2p_job(spec, nbytes, rep_seed))

        stats.append(
            adaptive_measure(
                measure_once,
                precision=precision,
                max_reps=max_reps,
                seed=seed + 15_485_863 * (index + 1),
            )
        )
    fit = fit_fn(list(sizes), [s.mean for s in stats])
    params = HockneyParams(alpha=max(fit.intercept, 0.0), beta=max(fit.slope, 0.0))
    return P2pEstimate(
        params=params, fit=fit, sizes=tuple(sizes), stats=tuple(stats)
    )

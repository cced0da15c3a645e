"""Extension bench: the paper's method applied to MPI_Reduce (future work).

The paper's conclusion proposes extending the approach to the other
collectives.  This bench runs the full pipeline for the reduce family on
the simulated Gros cluster: γ, per-algorithm α/β from reduce+scatter
experiments, model-based selection — evaluated against the measured best
reduce algorithm at every size.
"""

import pytest

from repro.estimation.workflow import calibrate_platform
from repro.exec.job import SimJob, execute_job
from repro.models.reduce_models import DERIVED_REDUCE_MODELS
from repro.selection.model_based import ModelBasedSelector

from conftest import MAX_REPS, PAPER_SIZES

PROCS = 100


@pytest.fixture(scope="module")
def reduce_calibration(gros):
    return calibrate_platform(
        gros, operation="reduce", procs=62, sizes=PAPER_SIZES,
        max_reps=MAX_REPS,
    )


def test_extension_reduce_selection(benchmark, gros, reduce_calibration):
    platform = reduce_calibration.platform
    selector = ModelBasedSelector(platform)

    def select_all():
        return [selector.select(PROCS, nbytes) for nbytes in PAPER_SIZES]

    choices = benchmark.pedantic(select_all, rounds=3, iterations=2)

    print()
    print(f"Model-based MPI_Reduce selection (gros, P={PROCS}):")
    print(f"{'m':>10} {'best':>20} {'model pick':>20} {'deg%':>6}")
    degradations = []
    cache: dict = {}

    def measured(name, nbytes):
        key = (name, nbytes)
        if key not in cache:
            cache[key] = execute_job(SimJob(
                gros, "reduce", PROCS, name, nbytes=nbytes,
                segment_size=8 * 1024, policy="root",
            ))
        return cache[key]

    for choice, nbytes in zip(choices, PAPER_SIZES):
        times = {name: measured(name, nbytes) for name in DERIVED_REDUCE_MODELS}
        best = min(times, key=times.get)
        degradation = 100 * (times[choice.algorithm] - times[best]) / times[best]
        degradations.append(degradation)
        print(f"{nbytes:>10} {best:>20} {choice.algorithm:>20} {degradation:>6.1f}")

    # The method transfers: reduce selection is near-optimal across the
    # sweep and never picks the pathological linear algorithm at scale.
    assert max(degradations) < 35.0, degradations
    assert all(c.algorithm != "linear" for c in choices[-5:])
    # And every choice is a valid reduce selection.
    assert all(c.operation == "reduce" for c in choices)

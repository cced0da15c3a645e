"""Pinned calibration schedules and the calibration kwarg contract.

A calibration's *schedule* is the ordered list of simulation jobs it asks
the runner for: the up-front prefetch batch, then every job the adaptive
loops replay from the memo.  Jobs are keyed by seed, so any change to a
schedule silently breaks warm-cache replay and every artifact content
hash built on it.  Each collective's schedule, calibrated as an artifact
build calibrates it, is recorded here through a recording runner and
compared to a recorded digest; the specs are noise-free, so the digests
cover integer and string data only.

Every collective takes the same knobs, and a knob its profile does not
use must change neither its schedule nor its platform.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.clusters import MINICLUSTER
from repro.estimation.alphabeta import OPERATION_PROFILES
from repro.exec.runner import ParallelRunner
from repro.fabric import build_fabric
from repro.service.artifact import (
    calibrate_operation,
    fabric_calibration_overrides,
)
from repro.units import KiB

KNOBS = dict(
    procs=4,
    sizes=(8 * KiB, 32 * KiB, 128 * KiB),
    gamma_max_procs=3,
    max_reps=3,
    seed=0,
)

LEAF_SPINE = MINICLUSTER.with_fabric(
    build_fabric("leaf_spine_2to1", MINICLUSTER)
)
SPECS = {"minicluster": MINICLUSTER, "leaf_spine_2to1": LEAF_SPINE}

#: (spec, operation) -> (prefetched jobs, sha256 of the ordered
#: prefetch + replay fingerprint lists).
SCHEDULES = {
    ("minicluster", "bcast"): (
        40, "a7ae89efc1c6e5c5271e363188f752ef210dbd38e069ad2924a744c343ea79fb",
    ),
    ("minicluster", "reduce"): (
        34, "a10afa926ad6a31adc0715a6dbf4bb3b8bfb8ee512d6a5b35f7b5369f7a51e6a",
    ),
    ("minicluster", "gather"): (
        12, "d960528e4e0817029ea46a36cb64a5bfb1ed64469cff268987ac0af6c7493ed8",
    ),
    ("minicluster", "barrier"): (
        24, "71363f077e4ac6f93b77f596ef46defd51c184e090dc30b48e4ea39001af216d",
    ),
    ("minicluster", "allreduce"): (
        12, "67bfe8a371f875a2be4766e9f70af153a7f94f243ae3cd709a4bb28797d0c875",
    ),
    ("minicluster", "allgather"): (
        24, "544f9e40255170c1a580b09f9a2337ccd0931abb87ce20a0d58f605110b3ea9e",
    ),
    ("minicluster", "alltoall"): (
        18, "34bd85469a744553e5c48dad0f00f43cd8505bf6bdac1c27e27c6638125d4395",
    ),
    ("minicluster", "scatter"): (
        12, "16833c19fa9ab743802a6f7ee3d411880fe9930618b953ee2775072248324a7a",
    ),
    ("leaf_spine_2to1", "bcast"): (
        46, "7d56c674da85d603690ad41717b408a5252be1671a4252a43b7b3f31bf2bfd37",
    ),
    ("leaf_spine_2to1", "reduce"): (
        40, "3c0cdeda4e82d23f5a94397c593532e23abfc876ee16e75b98e99a80ecd19cb6",
    ),
}


class RecordingRunner(ParallelRunner):
    """A serial runner that records every job it is asked for."""

    def __init__(self):
        super().__init__(jobs=1)
        self.prefetched: list[str] = []
        self.replayed: list[str] = []

    def prefetch(self, batch):
        self.prefetched.extend(job.fingerprint() for job in batch)
        super().prefetch(batch)

    def run_one(self, job):
        self.replayed.append(job.fingerprint())
        return super().run_one(job)


def record_schedule(spec, operation: str, **extra_knobs):
    """Calibrate ``operation`` as an artifact build on ``spec`` would.

    Returns the recording runner and the calibration result.
    """
    _fabric, extra, per_op_algorithms = fabric_calibration_overrides(spec)
    kwargs = {**KNOBS, **extra, **extra_knobs}
    if operation in per_op_algorithms:
        kwargs["algorithms"] = per_op_algorithms[operation]
    runner = RecordingRunner()
    try:
        result = calibrate_operation(spec, operation, runner=runner, **kwargs)
    finally:
        runner.close()
    return runner, result


def assert_pinned(runner: RecordingRunner, spec_name: str, operation: str):
    jobs, digest = SCHEDULES[spec_name, operation]
    assert len(runner.prefetched) == jobs
    # Every prefetched job is replayed exactly once, nothing else is.
    assert sorted(runner.replayed) == sorted(runner.prefetched)
    schedule = json.dumps([runner.prefetched, runner.replayed])
    assert hashlib.sha256(schedule.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec_name,operation", sorted(SCHEDULES))
def test_schedule_is_pinned(spec_name, operation):
    runner, _result = record_schedule(SPECS[spec_name], operation)
    assert_pinned(runner, spec_name, operation)


@pytest.mark.parametrize("operation", sorted(OPERATION_PROFILES))
def test_kwarg_contract(operation):
    """A combined build hands every collective the same knobs.

    ``KNOBS`` already carries ``procs``/``sizes`` (unused by the
    barrier) and ``gamma_max_procs`` (unused where γ is not measured);
    this adds ``model_params``, which only the hierarchical models read.
    The flat schedule must stay the pinned one, and the platform must
    store the parameters only where its profile's models declare them.
    """
    params = {"group_ranks": 2}
    runner, result = record_schedule(
        MINICLUSTER, operation, model_params=params
    )
    assert_pinned(runner, "minicluster", operation)
    expected = params if OPERATION_PROFILES[operation].extra_params else {}
    assert result.platform.model_params == expected

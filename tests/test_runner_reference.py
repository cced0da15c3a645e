"""The runner against its reference: the same results, end to end and cell
by cell.

:class:`~repro.exec.runner.ParallelRunner` resolves every request through
memo → persistent cache → seed dedupe → the replay executor.  The
reference (``ReferenceRunner`` in ``conftest.py``) memoises by fingerprint
and runs every miss on the generator event loop of
:func:`~repro.exec.job.execute_job`.  Two kinds of checks hold them equal:

* **end to end** — the flat and the ``leaf_spine_2to1`` minicluster
  ``bcast,reduce`` artifact builds and the minicluster ``bcast`` chaos
  sweep (severities 0, 0.1, 0.3: every cell above 0 is faulted), run
  through the CLI on its default runner, must give the bytes the
  reference gives in process with the same knobs;
* **differential** — seeded random batches over noise-free, straggler,
  noisy and leaf-spine platforms, resolved through every call shape
  (``run``, ``prefetch`` then ``run_one``, ``run_one`` alone) on one and
  two workers, cold and then warm from one persistent cache, must return
  the reference's floats, with exactly the simulation and dedupe counts
  the resolve step promises.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bench.chaos import chaos_sweep
from repro.cli import main
from repro.clusters import GRISOU, MINICLUSTER
from repro.exec import (
    ParallelRunner, ResultCache, SimJob, reset_default_runner,
)
from repro.fabric import build_fabric
from repro.faults.plan import FaultPlan, StragglerFault
from repro.service.artifact import build_artifact
from repro.sim.batch import dedupe_key
from repro.units import KiB

#: The build knobs of the parity builds, as CLI flags and as
#: ``build_artifact`` keywords (``--min-procs``/``--procs-step`` keep
#: their defaults, 2 and 2).
BUILD_FLAGS = [
    "--collectives", "bcast,reduce", "--procs", "6",
    "--gamma-max-procs", "4", "--max-procs", "16", "--max-reps", "3",
]
BUILD_KWARGS = dict(
    collectives=("bcast", "reduce"), proc_points=range(2, 17, 2), procs=6,
    gamma_max_procs=4, max_reps=3,
)


def run_cli(argv: list[str]) -> None:
    """``repro <argv>`` in process, on a fresh default runner."""
    try:
        assert main(argv) == 0
    finally:
        reset_default_runner()


class TestEndToEndParity:
    @pytest.mark.parametrize("fabric", ["", "leaf_spine_2to1"],
                             ids=["flat", "leaf-spine"])
    def test_artifact_build_matches_reference(
        self, fabric, reference_runner, tmp_path, capsys
    ):
        spec = MINICLUSTER
        fabric_flags = []
        if fabric:
            spec = spec.with_fabric(build_fabric(fabric, spec))
            fabric_flags = ["--fabric", fabric]
        built = tmp_path / "default.json"
        run_cli([
            "artifact", "build", "--cluster", "minicluster",
            "--output", str(built), *BUILD_FLAGS, *fabric_flags, "--no-cache",
        ])
        capsys.readouterr()
        reference = build_artifact(
            spec, runner=reference_runner, **BUILD_KWARGS
        )
        assert reference.fabric == fabric
        assert reference_runner.stats.simulations > 0
        # Bytes, not just the content hash: the unhashed quality and
        # guideline sections must agree too.
        want = reference.save(tmp_path / "reference.json").read_text()
        assert built.read_text() == want

    def test_chaos_sweep_matches_reference(
        self, reference_runner, tmp_path, capsys
    ):
        swept = tmp_path / "default.json"
        run_cli([
            "chaos", "--cluster", "minicluster", "--operation", "bcast",
            "--severities", "0,0.1,0.3", "--max-reps", "3", "--no-cache",
            "--json", str(swept),
        ])
        capsys.readouterr()
        reports = chaos_sweep(
            MINICLUSTER, operation="bcast", severities=(0.0, 0.1, 0.3),
            max_reps=3, runner=reference_runner,
        )
        want = json.dumps([report.as_dict() for report in reports], indent=2)
        assert swept.read_text() == want


# -- differential ----------------------------------------------------------

SPECS = (
    MINICLUSTER,
    # Seed-free but faulted: its seed repetitions share one simulation.
    MINICLUSTER.with_faults(FaultPlan(stragglers=(
        StragglerFault(node=2, inject_factor=2.0, compute_factor=3.0),
    ))),
    GRISOU,  # default noise: every seed is its own simulation
    MINICLUSTER.with_fabric(build_fabric("leaf_spine_2to1", MINICLUSTER)),
)
ALGORITHMS = {
    "bcast": ("binomial", "chain", "linear", "binary"),
    "reduce": ("binomial", "chain", "linear"),
}
SEEDS = (0, 1, 2)


def random_batch(rng: random.Random) -> list[SimJob]:
    """1-40 jobs drawn from the seed variants of a few random cells, so
    batches repeat fingerprints and seed-free cells dedupe."""
    pool: list[SimJob] = []
    for _ in range(rng.randint(1, 10)):
        spec = rng.choice(SPECS)
        kind = rng.choice(("bcast", "reduce", "p2p_roundtrip"))
        if kind == "p2p_roundtrip":
            cell = dict(procs=2, mapping="spread")
        else:
            cell = dict(
                procs=rng.choice((2, 4, 8)),
                algorithm=rng.choice(ALGORITHMS[kind]),
                segment_size=rng.choice((0, 8 * KiB)),
            )
        nbytes = rng.choice((1 * KiB, 16 * KiB, 64 * KiB))
        pool += [
            SimJob(spec=spec, kind=kind, nbytes=nbytes, seed=seed, **cell)
            for seed in SEEDS
        ]
    return [rng.choice(pool) for _ in range(rng.randint(1, 40))]


def resolve(runner: ParallelRunner, batch: list[SimJob], shape: str):
    if shape == "run":
        return runner.run(batch)
    if shape == "prefetch":
        runner.prefetch(batch)
    return [runner.run_one(job) for job in batch]


@pytest.mark.parametrize("shape", ["run", "prefetch", "run_one"])
@pytest.mark.parametrize("jobs", [1, 2])
# Together these eight batches cover every (platform, kind) pair.
@pytest.mark.parametrize("seed", range(8))
def test_runner_matches_reference(seed, jobs, shape, reference_runner,
                                  tmp_path):
    batch = random_batch(random.Random(seed))
    want = [reference_runner.run_one(job) for job in batch]
    unique = {job.fingerprint(): job for job in batch}
    if shape == "run_one":
        # One call per job: nothing to dedupe against.
        cells = len(unique)
    else:
        cells = len({dedupe_key(job) for job in unique.values()})

    cold = ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path))
    try:
        assert resolve(cold, batch, shape) == want
    finally:
        cold.close()
    assert cold.stats.simulations == cells
    assert cold.stats.simulations + cold.stats.deduped_cells == len(unique)
    assert cold.stats.cache_hits == 0

    warm = ParallelRunner(jobs=jobs, cache=ResultCache(tmp_path))
    try:
        assert resolve(warm, batch, shape) == want
    finally:
        warm.close()
    assert warm.stats.simulations == 0
    assert warm.stats.cache_hits == len(unique)

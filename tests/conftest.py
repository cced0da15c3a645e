"""Shared fixtures for the test suite.

Expensive artefacts (a calibrated platform model for the small test
cluster) are session-scoped so the selection/estimation tests share them.
"""

from __future__ import annotations

import pytest

from repro.clusters import GRISOU, GROS, MINICLUSTER
from repro.estimation.workflow import CalibrationResult, calibrate_platform
from repro.exec import ParallelRunner, execute_job
from repro.units import KiB, MiB, log_spaced_sizes


class ReferenceRunner(ParallelRunner):
    """The reference a :class:`ParallelRunner` is compared against.

    Its resolve step memoises by fingerprint and runs every miss through
    :func:`~repro.exec.job.execute_job`, the generator event loop: no
    persistent cache, no seed dedupe, no pool, no replay executor.
    Everything else (``run``, ``run_one``, ``prefetch``, ``stats``) is
    the runner's own, so a caller sees the same interface.
    """

    def __init__(self):
        super().__init__(jobs=1)

    def _resolve(self, batch):
        for job in batch:
            key = job.fingerprint()
            if key not in self._memo:
                self.stats.simulations += 1
                self._memo[key] = execute_job(job)
        return [self._memo[job.fingerprint()] for job in batch]


@pytest.fixture
def reference_runner():
    """A fresh :class:`ReferenceRunner`, closed after the test."""
    runner = ReferenceRunner()
    yield runner
    runner.close()


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Keep CLI-enabled persistent caches out of the user's ~/.cache."""
    import os

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session")
def mini():
    """The deterministic 16-node test cluster."""
    return MINICLUSTER


@pytest.fixture(scope="session")
def grisou_nonoise():
    """Grisou preset with noise disabled (deterministic timings)."""
    return GRISOU.with_noise(0.0)


@pytest.fixture(scope="session")
def gros_nonoise():
    """Gros preset with noise disabled (deterministic timings)."""
    return GROS.with_noise(0.0)


@pytest.fixture(scope="session")
def mini_calibration() -> CalibrationResult:
    """A full §4 calibration of the test cluster (shared, ~seconds)."""
    return calibrate_platform(
        MINICLUSTER,
        procs=8,
        sizes=log_spaced_sizes(8 * KiB, 1 * MiB, 6),
        gamma_max_procs=5,
        max_reps=3,
    )


@pytest.fixture(scope="session")
def mini_platform(mini_calibration):
    """The platform model from the shared test-cluster calibration."""
    return mini_calibration.platform

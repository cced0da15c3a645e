"""Start-up guard: ``scipy.stats`` loads only when samples vary.

Importing ``scipy.stats`` costs about a CPU-second and half of a fresh
process's memory, and the statistics of §5.1 need it only for the
Student-t interval and the Shapiro-Wilk test of samples that differ.
Noise-free and seed-free runs (builds, serving, straggler drift) must
never pay for it.  Each case runs in a fresh interpreter, because this
one has long since imported it; nothing here times anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Printed last by a child script: the scipy modules it has loaded.
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after ``code``."""
    stdout = run_fresh(textwrap.dedent(code) + REPORT)
    return json.loads(stdout.splitlines()[-1])


class TestFreshProcessSkipsScipyStats:
    def test_importing_every_entry_point(self):
        loaded = scipy_modules_after("""
            import repro
            import repro.bench.chaos
            import repro.cli
            import repro.exec
            import repro.service
            import repro.service.shard
            import repro.tuning
        """)
        assert "scipy.stats" not in loaded

    def test_noise_free_build_serve_and_straggler_oracle(self):
        loaded = scipy_modules_after("""
            import json

            from repro.bench.chaos import drift_scenario
            from repro.clusters import MINICLUSTER
            from repro.exec import ParallelRunner
            from repro.service import (
                ArtifactRegistry, SelectionService, build_artifact,
            )
            from repro.units import KiB

            artifact = build_artifact(
                MINICLUSTER, collectives=("bcast", "reduce"),
                proc_points=(2, 4), size_points=(1 * KiB, 64 * KiB),
                procs=4, gamma_max_procs=4, sizes=(8 * KiB, 64 * KiB),
                max_reps=3, runner=ParallelRunner(jobs=1, cache=None),
            )
            registry = ArtifactRegistry()
            registry.add(artifact)
            answer = json.loads(SelectionService(registry).select_body(
                {"cluster": "minicluster", "procs": 4, "nbytes": 4096}, "t"
            ))
            assert answer["operation"] == "bcast", answer
            _drifted, oracle = drift_scenario(
                MINICLUSTER, procs=4, severity=0.3,
                runner=ParallelRunner(jobs=1, cache=None),
            )
            _choice, best = oracle.best(4, 64 * KiB)
            assert best > 0
        """)
        assert "scipy.stats" not in loaded

    def test_varying_samples_load_it_and_match_scipy_exactly(self):
        # Pins the lazily imported path: a substituted quantile or
        # normality test would not match scipy's to the last bit.
        run_fresh("""
            import math
            import sys

            from repro.estimation.statistics import adaptive_measure

            values = [1.0, 1.3, 0.9, 1.1, 1.2, 0.8, 1.05, 0.95]
            draws = iter(values)
            stats = adaptive_measure(
                lambda _seed: next(draws), precision=1e-9,
                min_reps=len(values), max_reps=len(values),
            )
            assert stats.samples == tuple(values)
            assert "scipy.stats" in sys.modules

            from scipy import stats as scipy_stats

            n = len(values)
            mean = sum(values) / n
            variance = sum((x - mean) ** 2 for x in values) / (n - 1)
            t = float(scipy_stats.t.ppf(0.5 + stats.confidence / 2, n - 1))
            assert stats.ci_halfwidth == t * math.sqrt(variance / n)
            assert stats.normality_p == float(
                scipy_stats.shapiro(values).pvalue
            )
        """)

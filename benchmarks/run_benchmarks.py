"""Append a run to BENCH_simulator.json: simulator/executor performance.

``BENCH_simulator.json`` holds a ``runs`` list (same convention as
``BENCH_service.json``); every invocation appends one timestamped entry.
Each entry has these measurement groups (see docs/PERFORMANCE.md):

1. **engine micro-benchmarks** — the two workloads of
   ``test_simulator_performance.py``, run through pytest-benchmark, plus
   the pre-optimization baselines recorded on the same workloads before
   the event-loop/network fast paths landed (so the JSON carries
   before/after evidence of the hot-path optimization);
2. **end-to-end selection comparison** — a Table-3-style
   ``selection_comparison`` wall-timed three ways: serial cold, parallel
   cold (``--jobs``, default all cores), and serial against a warm
   persistent cache (which must perform *zero* simulations);
3. **batched build** — one cold four-collective artifact build
   (``batched_cold_build_s``, ``batched_simulations``, ``content_hash``;
   the names continue the series of earlier runs);
4. **full-suite build** — the eight-collective artifact (bcast, reduce,
   gather, barrier, allreduce, allgather, alltoall, scatter) built cold
   against a fresh persistent cache and then rebuilt warm, asserting the
   warm replay performs zero simulations and reproduces the content hash;
5. **metadata** — CPU count, Python version, platform, timestamp — because
   the parallel speedup claim is only meaningful relative to the core
   count the run had.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py           # quick
    PYTHONPATH=src python benchmarks/run_benchmarks.py --full    # paper scale
    PYTHONPATH=src python benchmarks/run_benchmarks.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.clusters import GROS, MINICLUSTER  # noqa: E402
from repro.exec import ParallelRunner, ResultCache, cpu_count  # noqa: E402
from repro.units import KiB, MiB, log_spaced_sizes  # noqa: E402

#: Best-of-several wall times of the two micro workloads at commit 8631bad
#: (before the engine/network hot-path optimization), measured interleaved
#: with the optimized code on the same machine to cancel load drift.  The
#: optimized code measured 2.40 ms / 0.345 s in the same session (-16% /
#: -7%); the "after" numbers recorded below come from the pytest-benchmark
#: run of whatever machine regenerates this file.
BASELINE_BEFORE = {
    "small_bcast_16_ranks": 2.84e-3,
    "paper_scale_bcast_p100": 0.370,
}


def run_pytest_benchmarks() -> dict:
    """The two simulator micro-benchmarks, via pytest-benchmark."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "bench.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO / "benchmarks" / "test_simulator_performance.py"),
                "-q",
                f"--benchmark-json={report}",
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO / "src")
                + os.pathsep
                + os.environ.get("PYTHONPATH", ""),
            },
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"pytest-benchmark run failed:\n{proc.stdout}\n{proc.stderr}"
            )
        data = json.loads(report.read_text())
    out = {}
    for bench in data["benchmarks"]:
        name = bench["name"].removeprefix("test_")
        out[name] = {
            "min_s": bench["stats"]["min"],
            "mean_s": bench["stats"]["mean"],
            "rounds": bench["stats"]["rounds"],
        }
    return out


def selection_workload(full: bool):
    """(spec, procs, sizes, calibration kwargs) of the end-to-end workload."""
    if full:
        spec = GROS.with_noise(0.0)
        return spec, 100, log_spaced_sizes(8 * KiB, 4 * MiB, 10), dict(
            procs=62, gamma_max_procs=7, max_reps=8
        )
    spec = MINICLUSTER
    return spec, 16, log_spaced_sizes(8 * KiB, 1 * MiB, 6), dict(
        procs=8, gamma_max_procs=5, max_reps=3
    )


def timed_comparison(spec, platform_model, procs, sizes, runner) -> tuple:
    from repro.bench.runner import selection_comparison
    from repro.selection.oracle import MeasuredOracle

    oracle = MeasuredOracle(spec, max_reps=8, runner=runner)
    start = time.perf_counter()
    rows = selection_comparison(spec, platform_model, procs, sizes, oracle=oracle)
    return time.perf_counter() - start, rows


def run_selection_benchmark(full: bool, jobs: int) -> dict:
    from repro.estimation.workflow import calibrate_platform

    spec, procs, sizes, cal_kwargs = selection_workload(full)

    setup = ParallelRunner(jobs=jobs)
    platform_model = calibrate_platform(spec, runner=setup, **cal_kwargs).platform
    setup.close()

    serial = ParallelRunner(jobs=1)
    serial_s, rows_serial = timed_comparison(
        spec, platform_model, procs, sizes, serial
    )
    serial.close()

    parallel = ParallelRunner(jobs=jobs)
    parallel_s, rows_parallel = timed_comparison(
        spec, platform_model, procs, sizes, parallel
    )
    parallel.close()

    with tempfile.TemporaryDirectory() as tmp:
        seed_cache = ParallelRunner(jobs=jobs, cache=ResultCache(tmp))
        timed_comparison(spec, platform_model, procs, sizes, seed_cache)
        seed_cache.close()

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp))
        warm_s, rows_warm = timed_comparison(
            spec, platform_model, procs, sizes, warm
        )
        warm_stats = warm.stats.as_dict()
        warm.close()

    if rows_parallel != rows_serial or rows_warm != rows_serial:
        raise RuntimeError("parallel/warm results diverged from serial")
    if warm_stats["simulations"] != 0:
        raise RuntimeError(
            f"warm-cache rerun simulated {warm_stats['simulations']} jobs"
        )

    return {
        "workload": {
            "cluster": spec.name,
            "procs": procs,
            "sizes": list(sizes),
            "scale": "full" if full else "quick",
        },
        "serial_cold_s": serial_s,
        "parallel_cold_s": parallel_s,
        "parallel_jobs": jobs,
        "warm_cache_s": warm_s,
        "warm_cache_stats": warm_stats,
        "speedup_parallel_vs_serial": serial_s / parallel_s,
        "speedup_warm_vs_serial": serial_s / warm_s,
        "results_bit_identical": True,
    }


def build_workload(full: bool):
    """(spec, build_artifact kwargs) of the four-collective build."""
    collectives = ("bcast", "reduce", "gather", "barrier")
    if full:
        spec = GROS.with_noise(0.0)
        return spec, dict(
            collectives=collectives, procs=62, gamma_max_procs=7, max_reps=8
        )
    return MINICLUSTER, dict(
        collectives=collectives, procs=8, gamma_max_procs=5, max_reps=3
    )


def run_build_benchmark(full: bool, jobs: int) -> dict:
    """One cold four-collective artifact build."""
    from repro.service import build_artifact

    spec, kwargs = build_workload(full)
    runner = ParallelRunner(jobs=jobs)
    start = time.perf_counter()
    artifact = build_artifact(spec, runner=runner, seed=0, **kwargs)
    seconds = time.perf_counter() - start
    runner.close()
    return {
        "workload": {
            "cluster": spec.name,
            "collectives": list(kwargs["collectives"]),
            "procs": kwargs["procs"],
            "scale": "full" if full else "quick",
            "jobs": jobs,
        },
        "batched_cold_build_s": seconds,
        "batched_simulations": runner.stats.simulations,
        "content_hash": artifact.content_hash(),
    }


def run_fabric_benchmark(full: bool, jobs: int) -> dict:
    """Cold build times, flat vs a 2:1 oversubscribed leaf-spine fabric.

    The non-flat build pays for the hierarchical candidates joining the
    calibration sweep and for the shared-uplink reservations every
    cross-rack message makes — this entry keeps that overhead visible
    run over run.
    """
    from repro.fabric import build_fabric
    from repro.service import build_artifact

    spec, kwargs = build_workload(full)
    kwargs = dict(kwargs, collectives=("bcast", "reduce"))
    fabspec = spec.with_fabric(build_fabric("leaf_spine_2to1", spec))
    timings, fabrics = {}, {}
    for label, target in (("flat", spec), ("leaf_spine_2to1", fabspec)):
        runner = ParallelRunner(jobs=jobs)
        start = time.perf_counter()
        artifact = build_artifact(target, runner=runner, seed=0, **kwargs)
        timings[label] = time.perf_counter() - start
        fabrics[label] = artifact.fabric
        runner.close()
    if fabrics["flat"] != "" or fabrics["leaf_spine_2to1"] != "leaf_spine_2to1":
        raise RuntimeError(f"fabric tagging broken: {fabrics}")
    return {
        "workload": {
            "cluster": spec.name,
            "collectives": ["bcast", "reduce"],
            "procs": kwargs["procs"],
            "scale": "full" if full else "quick",
            "jobs": jobs,
        },
        "flat_cold_build_s": timings["flat"],
        "leaf_spine_2to1_cold_build_s": timings["leaf_spine_2to1"],
        "overhead_fabric_vs_flat": (
            timings["leaf_spine_2to1"] / timings["flat"]
        ),
    }


FULL_SUITE = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)


def run_full_suite_build_benchmark(full: bool, jobs: int) -> dict:
    """Cold vs warm-cache build of the eight-collective artifact.

    Cold: fresh persistent cache, every calibration simulated.  Warm: a
    second build against the same cache directory, which must replay
    entirely from disk (zero simulations) and reproduce the content hash
    bit for bit.
    """
    from repro.service import build_artifact

    spec, kwargs = build_workload(full)
    kwargs = dict(kwargs, collectives=FULL_SUITE)
    timings, hashes, sims = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for label in ("cold", "warm"):
            runner = ParallelRunner(jobs=jobs, cache=ResultCache(Path(tmp)))
            start = time.perf_counter()
            artifact = build_artifact(spec, runner=runner, seed=0, **kwargs)
            timings[label] = time.perf_counter() - start
            hashes[label] = artifact.content_hash()
            sims[label] = runner.stats.simulations
            runner.close()
    if sims["warm"] != 0:
        raise RuntimeError(
            f"warm full-suite rebuild simulated {sims['warm']} jobs"
        )
    if hashes["warm"] != hashes["cold"]:
        raise RuntimeError(
            "warm full-suite rebuild diverged from the cold build: "
            f"{hashes['warm']} != {hashes['cold']}"
        )
    return {
        "workload": {
            "cluster": spec.name,
            "collectives": list(FULL_SUITE),
            "procs": kwargs["procs"],
            "scale": "full" if full else "quick",
            "jobs": jobs,
        },
        "cold_build_s": timings["cold"],
        "warm_build_s": timings["warm"],
        "cold_simulations": sims["cold"],
        "warm_simulations": sims["warm"],
        "speedup_warm_vs_cold": timings["cold"] / timings["warm"],
        "content_hash": hashes["cold"],
        "content_hash_identical": True,
    }


def append_run(output: Path, run: dict) -> list:
    """Append ``run`` to the ``runs`` list of ``output``.

    Migrates the pre-runs-list layout (one flat report dict) by wrapping
    the existing document as the first run.
    """
    runs: list = []
    if output.exists():
        existing = json.loads(output.read_text())
        runs = existing["runs"] if "runs" in existing else [existing]
    runs.append(run)
    output.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(REPO / "BENCH_simulator.json")
    )
    parser.add_argument(
        "--jobs", type=int, default=0, help="parallel workers (0 = all cores)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale workload (Gros P=100, 10 sizes) instead of quick",
    )
    parser.add_argument(
        "--skip-micro",
        action="store_true",
        help="skip the pytest-benchmark micro workloads",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs else cpu_count()

    report = {
        "metadata": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": cpu_count(),
            "note": (
                "parallel speedup scales with cpu_count; on a single-core "
                "machine parallel_cold_s ~= serial_cold_s plus pool overhead"
            ),
        },
        "engine_microbenchmarks": {
            "before_optimization_min_s": BASELINE_BEFORE,
        },
    }
    if not args.skip_micro:
        print("running simulator micro-benchmarks (pytest-benchmark)...")
        after = run_pytest_benchmarks()
        report["engine_microbenchmarks"]["after_optimization"] = after
        for key, before in BASELINE_BEFORE.items():
            match = next(
                (v for k, v in after.items() if key.split("_")[0] in k), None
            )
            if match:
                report["engine_microbenchmarks"][f"speedup_{key}"] = (
                    before / match["min_s"]
                )

    print(f"running selection comparison (jobs={jobs})...")
    report["selection_comparison"] = run_selection_benchmark(args.full, jobs)

    print(f"running cold build (jobs={jobs})...")
    report["batched_build"] = run_build_benchmark(args.full, jobs)

    print(f"running flat-vs-fabric build (jobs={jobs})...")
    report["fabric_builds"] = run_fabric_benchmark(args.full, jobs)

    print(f"running full-suite cold/warm build (jobs={jobs})...")
    report["full_suite_build"] = run_full_suite_build_benchmark(
        args.full, jobs
    )

    runs = append_run(Path(args.output), report)
    print(f"appended run {len(runs)} to {args.output}")
    sel = report["selection_comparison"]
    print(
        f"serial {sel['serial_cold_s']:.2f}s | "
        f"parallel(x{jobs}) {sel['parallel_cold_s']:.2f}s | "
        f"warm cache {sel['warm_cache_s']:.2f}s "
        f"({sel['warm_cache_stats']['simulations']} simulations)"
    )
    build = report["batched_build"]
    print(
        f"cold build: {build['batched_cold_build_s']:.2f}s "
        f"({build['batched_simulations']} simulations)"
    )
    fabric = report["fabric_builds"]
    print(
        f"fabric build: flat {fabric['flat_cold_build_s']:.2f}s | "
        f"leaf-spine 2:1 {fabric['leaf_spine_2to1_cold_build_s']:.2f}s "
        f"({fabric['overhead_fabric_vs_flat']:.1f}x)"
    )
    suite = report["full_suite_build"]
    print(
        f"full suite ({len(suite['workload']['collectives'])} collectives): "
        f"cold {suite['cold_build_s']:.2f}s "
        f"({suite['cold_simulations']} simulations) | "
        f"warm {suite['warm_build_s']:.2f}s (0 simulations, hash identical)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

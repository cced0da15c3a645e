"""The ``build_flat`` and ``build_fabric`` workloads: cold build, warm rebuilds.

``build_flat`` is the eight-collective artifact for noise-free Gros at
paper scale; ``build_fabric`` the same suite for ``minicluster`` on the
2:1 oversubscribed leaf-spine fabric at 16 ranks, where every cell takes
the event loop's shared-uplink path.  A run makes one cold build in a
fresh process against an empty result cache, then a warm rebuild from
that cache in a fresh process of its own (as an operator reruns
``repro artifact build``), and repeats the pair until ``--seconds`` have
passed; every launch is a ``setup_s`` sample.  The gated timings are CPU
seconds of the process doing the work: a build is one single-threaded
process, so its CPU time is the work it did, whatever else the host ran
meanwhile.
"""

from __future__ import annotations

import time

from common import (
    COLLECTIVES, Checks, expected_hashes, median, peak_rss_mb, ready, run_child,
    summary, work_dir,
)
from layers import (
    SERVING_METRICS, TUNING_LOOP_METRICS, attribute, layer_metrics,
    load_records, tracing, unexercised,
)

#: Calibration knobs shared by both build workloads (``procs`` differs).
GAMMA_MAX_PROCS = 7
MAX_REPS = 8
PROCS = {"build_flat": 62, "build_fabric": 16}

#: Rounds per run at least.  A round is a cold build on its own empty
#: cache and a warm rebuild from it, each in a fresh process; rounds
#: repeat until ``--seconds`` have passed, so the cold and warm samples
#: spread over the whole run rather than one stretch of it.  A paper-scale
#: cold build takes 15-20 s, a fabric one 5-8 s.
MIN_ROUNDS = {"build_flat": 2, "build_fabric": 3}


def make_spec(workload: str):
    from repro.clusters import GROS, MINICLUSTER

    if workload == "build_flat":
        return GROS.with_noise(0.0)
    from repro.fabric import build_fabric

    return MINICLUSTER.with_fabric(
        build_fabric("leaf_spine_2to1", MINICLUSTER)
    )


def timed_build(spec, workload: str, seed: int, cache: str,
                trace=None) -> tuple:
    """``(artifact, wall seconds, CPU seconds, executor stats)`` of one
    build of ``workload`` through a fresh serial runner on the result
    cache at ``cache``."""
    from repro import obs
    from repro.exec import ParallelRunner, ResultCache
    from repro.service import build_artifact

    runner = ParallelRunner(jobs=1, cache=ResultCache(cache))
    try:
        with tracing(trace), obs.span("bench.build", workload=workload):
            start = time.perf_counter()
            cpu_start = time.process_time()
            artifact = build_artifact(
                spec,
                collectives=COLLECTIVES,
                procs=PROCS[workload],
                gamma_max_procs=GAMMA_MAX_PROCS,
                max_reps=MAX_REPS,
                seed=seed,
                runner=runner,
            )
            seconds = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
    finally:
        runner.close()
    return artifact, seconds, cpu_s, runner.stats.as_dict()


def once(args: dict) -> dict:
    """Worker: one build in this fresh process (cold or warm by cache).

    Everything the build imports is imported before :func:`ready`, so
    ``setup_s`` runs up to the build call.
    """
    from repro.errors import ReproError
    from repro.exec import ParallelRunner, ResultCache  # noqa: F401
    from repro.service import build_artifact  # noqa: F401

    spec = make_spec(args["workload"])
    ready()
    artifact, seconds, cpu_s, stats = timed_build(
        spec, args["workload"], args["seed"], args["cache"],
        args.get("trace"),
    )
    try:
        artifact.verify()
        verified = True
    except ReproError:
        verified = False
    return {
        "seconds": seconds,
        "cpu_s": cpu_s,
        "hash": artifact.content_hash(),
        "verified": verified,
        "violations": len(artifact.guidelines.get("violations", ())),
        "cells": sum(
            len(entry.table.proc_points) * len(entry.table.size_points)
            for entry in artifact.entries.values()
        ),
        "stats": stats,
        "rss_mb": peak_rss_mb(),
    }


# -- parent side ---------------------------------------------------------------

def _check(checks: Checks, workload: str, cold: dict, warms: list) -> None:
    expected = expected_hashes()[workload]
    checks.check(cold["verified"], "cold artifact fails verify()")
    checks.check(
        cold["hash"] == expected,
        f"cold content hash {cold['hash'][:12]} != recorded {expected[:12]}",
    )
    for index, rebuild in enumerate(warms):
        checks.check(rebuild["verified"], f"warm #{index} fails verify()")
        checks.check(
            rebuild["hash"] == cold["hash"],
            f"warm #{index} hash {rebuild['hash'][:12]} != cold",
        )
        checks.check(
            rebuild["stats"]["simulations"] == 0,
            f"warm #{index} ran {rebuild['stats']['simulations']} simulations",
        )


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()
    base = {"workload": workload, "seed": seed}
    if traced:
        return _run_traced(base)
    checks = Checks()
    launches, colds, warms = [], [], []
    while (
        len(colds) < MIN_ROUNDS[workload]
        or time.perf_counter() - started < seconds
    ):
        cache = str(work_dir(workload, f"cache{len(colds)}", fresh=True))
        child, cold = run_child("build.once", dict(base, cache=cache))
        launches.append(child)
        colds.append(cold)
        child, warm = run_child("build.once", dict(base, cache=cache))
        launches.append(child)
        warms.append(warm)
        _check(checks, workload, cold, [warm])
    setups = [child.setup_s for child in launches]
    setup_cpu = [child.setup_cpu_s for child in launches]
    cold_cpu = [cold["cpu_s"] for cold in colds]
    cells = colds[0]["cells"]
    metrics = {
        "setup_s": median(setup_cpu),
        "cold_s": median(cold_cpu),
        "ops_per_s": cells / median(cold_cpu),
        "peak_rss_mb": median([cold["rss_mb"] for cold in colds]),
    }
    return {
        "metrics": metrics,
        "samples": {
            "setup_s": len(setup_cpu), "cold_s": len(cold_cpu),
            "ops_per_s": len(cold_cpu), "peak_rss_mb": len(colds),
        },
        "checks": checks,
        "details": {
            "setup_s": summary(setup_cpu, "s"),
            "setup_wall_s": summary(setups, "s"),
            "build_s": summary(cold_cpu, "s"),
            "build_wall_s": summary([cold["seconds"] for cold in colds], "s"),
            "rebuild_s": summary([warm["cpu_s"] for warm in warms], "s"),
            "rebuild_wall_s": summary(
                [warm["seconds"] for warm in warms], "s"
            ),
            "content_hash": colds[0]["hash"],
            "cells": cells,
            "cold_simulations": colds[0]["stats"]["simulations"],
            "guideline_violations": colds[0]["violations"],
            "error_rate": checks.error_rate,
        },
    }


def _run_traced(base: dict) -> dict:
    """One untraced and one traced cold build + warm rebuild pair."""
    workload = base["workload"]
    base = dict(base, cache=str(work_dir(workload, "cache0", fresh=True)))
    _, plain_cold = run_child("build.once", base)
    _, plain_warm = run_child("build.once", base)
    traces = work_dir(workload, "traces", fresh=True)
    base = dict(base, cache=str(work_dir(workload, "cache1", fresh=True)))
    cold_trace, warm_trace = str(traces / "cold.jsonl"), str(traces / "warm.jsonl")
    _, cold_result = run_child("build.once", dict(base, trace=cold_trace))
    _, warm_result = run_child("build.once", dict(base, trace=warm_trace))
    checks = Checks()
    _check(checks, workload, cold_result, [warm_result])
    stats = {
        key: cold_result["stats"][key] + warm_result["stats"][key]
        for key in cold_result["stats"]
    }
    attribution = attribute(load_records([cold_trace, warm_trace]))
    metrics = layer_metrics(attribution, stats)
    plain = plain_cold["seconds"] + plain_warm["seconds"]
    traced = cold_result["seconds"] + warm_result["seconds"]
    metrics["obs.overhead"] = traced / plain - 1.0
    metrics.update(unexercised(SERVING_METRICS + TUNING_LOOP_METRICS))
    return {
        "metrics": metrics,
        "checks": checks,
        "details": {
            "layers_s": attribution["layers"],
            "end_to_end_s": attribution["end_to_end_s"],
            "untraced_s": plain,
        },
    }

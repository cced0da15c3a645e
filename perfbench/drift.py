"""The ``drift`` workload: a default ``SelfTuner`` after a platform drift.

An in-process ``SelectionService`` serves the eight-collective
``minicluster`` artifact built with the tuning tests' calibration knobs,
and a ``SelfTuner`` on its defaults (``DriftConfig()``,
``QuerySampler()``, ``strict=True``) watches it.  At onset, reality
becomes the standard severity-0.3 straggler drift.  A seeded random
query stream then runs with a tuner step after every
:data:`QUERIES_PER_STEP` queries, until every probe cell (each
collective at each grid size, at P = 8) is served within the detector's
allowance of the drifted oracle's best, or :data:`STEPS` steps have run.
Each repetition is a fresh process: no runner memo, tree cache or
compiled table carries over.  The gated timings are CPU seconds of that
process (it runs the service and the tuner on one thread), so they count
its work and not the time it waited for a CPU on a shared host.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from array import array
from pathlib import Path

from common import (
    COLLECTIVES, Checks, expected_hashes, median, peak_rss_mb, ready,
    run_child, summary, work_dir,
)
from layers import (
    SERVING_METRICS, attribute, layer_metrics, load_records, tracing,
    unexercised,
)
from traffic import drift_stream, sampled_per_collective

KiB = 1024
#: The calibration knobs of the tuning tests (``tests/test_tuning.py``).
SIZES = (256 * KiB, 512 * KiB, 1024 * KiB)
CAL = dict(procs=8, gamma_max_procs=3, sizes=SIZES, max_reps=3, seed=0)
PROC_POINTS = (4, 8)
CLUSTER = "minicluster"
ARTIFACT_FILE = "minicluster.json"
SEVERITY = 0.3
PROBE_PROCS = 8
STEPS = 40
QUERIES_PER_STEP = 256
#: Query-stream domain: the grid sizes plus the midpoints between, at
#: the grid's process counts and the one between.
STREAM_PROCS = (4, 6, 8)
STREAM_SIZES = (256 * KiB, 384 * KiB, 512 * KiB, 768 * KiB, 1024 * KiB)
#: Repetitions per run at least (each a fresh process, on a stream of
#: its own: the tuner's work depends on which collectives the stream
#: makes fire, and one stream's loop took up to 10 % longer than
#: another's).
MIN_REPS = 3


def stream(seed: int) -> list:
    return drift_stream(
        seed, CLUSTER, STREAM_PROCS, STREAM_SIZES, STEPS * QUERIES_PER_STEP
    )


def rep_seeds(seed: int):
    """Deterministic per-repetition stream seeds of one run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


# -- worker side ---------------------------------------------------------------

def prepare(args: dict) -> dict:
    """Build the served artifact and save it (from a result cache that
    persists across runs: cold the first time, warm after)."""
    from repro.clusters import MINICLUSTER
    from repro.exec import ParallelRunner, ResultCache
    from repro.service import build_artifact

    ready()
    runner = ParallelRunner(jobs=1, cache=ResultCache(args["cache"]))
    try:
        artifact = build_artifact(
            MINICLUSTER, collectives=COLLECTIVES, proc_points=PROC_POINTS,
            size_points=SIZES, runner=runner, **CAL,
        )
    finally:
        runner.close()
    artifact.save(args["path"])
    return {"hash": artifact.content_hash()}


class Probes:
    """Regret of the served decisions at the probe cells, on ``spec``.

    Uses the benchmark's own runner and oracles, filled before onset, so
    evaluating the probes later is memo lookups that do not help the
    tuner (which has its own runner).
    """

    def __init__(self, spec, allowance: float):
        from repro.exec import ParallelRunner
        from repro.selection.oracle import MeasuredOracle

        self.allowance = allowance
        runner = ParallelRunner(jobs=1)
        self.cells = []
        for operation in COLLECTIVES:
            oracle = MeasuredOracle(spec, operation=operation, runner=runner)
            sizes = (0,) if operation == "barrier" else SIZES
            for nbytes in sizes:
                _best, best_time = oracle.best(PROBE_PROCS, nbytes)
                self.cells.append((operation, nbytes, oracle, best_time))

    def regrets(self, artifact) -> list[float]:
        regrets = []
        for operation, nbytes, oracle, best_time in self.cells:
            choice = artifact.select(operation, PROBE_PROCS, nbytes)
            served = oracle.measure(
                PROBE_PROCS, nbytes, choice.algorithm, choice.segment_size
            )
            regrets.append((served - best_time) / best_time)
        return regrets

    def recovered(self, regrets) -> bool:
        return all(regret <= self.allowance for regret in regrets)


def rep(args: dict) -> dict:
    """One drift repetition: stand up, onset, tune until recovered.

    Each step's answers are checked against the artifact served while
    they were given once the step's time is taken, then dropped, so
    what the check holds does not grow with the run.
    """
    from repro import obs
    from repro.bench.chaos import drift_scenario
    from repro.clusters import MINICLUSTER
    from repro.exec import ParallelRunner, ResultCache
    from repro.service import ArtifactRegistry, SelectionService
    from repro.tuning import DriftConfig, QuerySampler, SelfTuner

    directory = Path(args["dir"])
    registry = directory / "artifacts"
    registry.mkdir(parents=True)
    shutil.copy(args["artifact"], registry / ARTIFACT_FILE)
    service = SelectionService(ArtifactRegistry(registry))
    artifact = service.registry.lookup(CLUSTER, "bcast", "")
    runner = ParallelRunner(jobs=1, cache=ResultCache(directory / "cache"))
    tuner = SelfTuner(
        service, artifact, MINICLUSTER, artifact_file=ARTIFACT_FILE,
        calib_kwargs=CAL, runner=runner, strict=True,
    ).attach()
    ready()

    checks = Checks()
    queries = stream(args["seed"])
    sampled = sampled_per_collective(queries, QuerySampler().every)
    checks.check(
        min(sampled.values()) >= DriftConfig().min_samples,
        f"query stream starves a collective of samples: {sampled}",
    )
    drifted, _oracle = drift_scenario(
        MINICLUSTER, procs=PROBE_PROCS, severity=SEVERITY
    )
    probes = Probes(drifted, tuner.drift_config.allowance)
    regrets = probes.regrets(artifact)
    onset_regret = sum(regrets) / len(regrets)

    served = artifact
    answered = 0
    latencies = array("q")
    clock = time.perf_counter_ns
    steps: list[float] = []
    loop_s = loop_cpu_s = 0.0
    recovered_s = recovered_cpu_s = (
        0.0 if probes.recovered(regrets) else None
    )
    queries_to_fire = None
    with tracing(args.get("trace")):
        tuner.set_reality(drifted)
        for step in range(STEPS if recovered_s is None else 0):
            chunk = queries[step * QUERIES_PER_STEP:(step + 1) * QUERIES_PER_STEP]
            bodies = []
            with obs.span("bench.step", step=step):
                started = time.perf_counter()
                cpu_started = time.process_time()
                for query in chunk:
                    before = clock()
                    bodies.append(service.select_body(query, "perfbench"))
                    latencies.append(clock() - before)
                failed_before = tuner.failed_recalibrations
                ok_before = tuner.recalibrations
                tuner.step()
                elapsed = time.perf_counter() - started
                loop_cpu_s += time.process_time() - cpu_started
            steps.append(elapsed)
            loop_s += elapsed
            _verify_answers(checks, served, chunk, bodies)
            answered += len(bodies)
            if queries_to_fire is None and any(
                detector.triggers for detector in tuner.detectors.values()
            ):
                queries_to_fire = (step + 1) * QUERIES_PER_STEP
            now_serving = service.registry.lookup(CLUSTER, "bcast", "")
            if tuner.failed_recalibrations > failed_before:
                checks.check(
                    now_serving.content_hash() == served.content_hash()
                    and service.degraded_reason is not None,
                    f"step {step}: refused rebuild did not leave the "
                    "last-known-good artifact serving, flagged degraded",
                )
            if tuner.recalibrations > ok_before:
                checks.check(
                    now_serving.content_hash()
                    == tuner.artifact.content_hash(),
                    f"step {step}: accepted rebuild is not being served",
                )
                served = now_serving
                regrets = probes.regrets(served)
                if probes.recovered(regrets):
                    recovered_s, recovered_cpu_s = loop_s, loop_cpu_s
                    break

    attempts = tuner.recalibrations + tuner.failed_recalibrations
    return {
        "recover_s": recovered_s if recovered_s is not None else loop_s,
        "recover_cpu_s": (
            recovered_cpu_s if recovered_cpu_s is not None else loop_cpu_s
        ),
        "recovered": recovered_s is not None,
        "loop_s": loop_s,
        "loop_cpu_s": loop_cpu_s,
        "steps_s": steps,
        "answer_ns": latencies.tolist(),
        "queries": answered,
        "onset_regret_pct": onset_regret * 100,
        "regret_pct": sum(regrets) / len(regrets) * 100,
        "recalibrations_ok": tuner.recalibrations,
        "recalibrations_failed": tuner.failed_recalibrations,
        "error_rate": (
            tuner.failed_recalibrations + (recovered_s is None)
        ) / (attempts + 1),
        "samples": tuner.sampler.sampled,
        "queries_to_fire": queries_to_fire or 0,
        "last_error": tuner.last_error,
        "stats": runner.stats.as_dict(),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "wrong": checks.wrong,
        "rss_mb": peak_rss_mb(),
    }


def _verify_answers(checks: Checks, artifact, queries: list,
                    bodies: list) -> None:
    """Every answer matches ``artifact``, served when it was given."""
    for query, body in zip(queries, bodies, strict=True):
        result = json.loads(body)
        selection, clamped = artifact.entries[query["operation"]].table.lookup(
            query["procs"], query["nbytes"]
        )
        checks.check(
            result["algorithm"] == selection.algorithm
            and result["segment_size"] == selection.segment_size
            and result.get("clamped", False) == clamped
            and result["artifact"] == artifact.artifact_id,
            f"answer {result} does not match served artifact "
            f"{artifact.artifact_id}",
        )


# -- parent side ---------------------------------------------------------------

def _merge(checks: Checks, result: dict) -> None:
    checks.attempted += result["attempted"]
    checks.failures += result["failures"]
    checks.wrong += result["wrong"]


def run(seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + seconds
    base = work_dir("drift", fresh=True)
    artifact_path = base / ARTIFACT_FILE
    # The served artifact is an input, not a measurement: its result
    # cache persists across runs like the serve workload's.
    _, prepared = run_child("drift.prepare", {
        "cache": str(work_dir("drift-build-cache")),
        "path": str(artifact_path),
    })
    checks = Checks()
    checks.check(
        prepared["hash"] == expected_hashes()["drift"],
        f"drift artifact {prepared['hash'][:12]} is not the recorded one",
    )
    seeds = rep_seeds(seed)

    def repetition(index: int, stream_seed: int, trace=None) -> tuple:
        child, result = run_child("drift.rep", {
            "seed": stream_seed,
            "artifact": str(artifact_path),
            "dir": str(base / f"rep{index}"),
            "trace": trace,
        })
        _merge(checks, result)
        return child, result

    if traced:
        return _run_traced(repetition, next(seeds), checks, base)
    children, results = [], []
    started = time.perf_counter()
    while len(results) < MIN_REPS or (
        time.perf_counter() - started
    ) / len(results) <= deadline - time.perf_counter():
        child, result = repetition(len(results), next(seeds))
        children.append(child)
        results.append(result)
    steps = [step for result in results for step in result["steps_s"]]
    answers = [ns / 1e6 for result in results for ns in result["answer_ns"]]
    setups = [child.setup_s for child in children]
    setup_cpu = [child.setup_cpu_s for child in children]
    recover = [result["recover_cpu_s"] for result in results]
    metrics = {
        "setup_s": median(setup_cpu),
        "cold_s": median(recover),
        "ops_per_s": median(
            [result["queries"] / result["loop_cpu_s"] for result in results]
        ),
        "peak_rss_mb": median([result["rss_mb"] for result in results]),
    }
    return {
        "metrics": metrics,
        "samples": {
            "setup_s": len(setup_cpu), "cold_s": len(recover),
            "ops_per_s": len(results), "peak_rss_mb": len(results),
        },
        "checks": checks,
        "details": {
            "setup_s": summary(setup_cpu, "s"),
            "setup_wall_s": summary(setups, "s"),
            "recover_s": summary(recover, "s"),
            "recover_wall_s": summary(
                [result["recover_s"] for result in results], "s"
            ),
            "answer_ms": summary(answers, "ms"),
            "step_ms": summary([step * 1e3 for step in steps], "ms"),
            "recovered": sum(result["recovered"] for result in results),
            "repetitions": len(results),
            "onset_regret_pct": median(
                [result["onset_regret_pct"] for result in results]
            ),
            "regret_pct": median([result["regret_pct"] for result in results]),
            "recalibrations_ok": sum(r["recalibrations_ok"] for r in results),
            "recalibrations_failed": sum(
                r["recalibrations_failed"] for r in results
            ),
            "error_rate": median([result["error_rate"] for result in results]),
            "last_error": (results[-1]["last_error"] or "")[:200],
        },
    }


def _run_traced(repetition, stream_seed: int, checks: Checks,
                base: Path) -> dict:
    """One untraced and one traced repetition on the same stream seed."""
    _, plain = repetition(0, stream_seed)
    trace_path = str(base / "drift.jsonl")
    _, result = repetition(1, stream_seed, trace=trace_path)
    attribution = attribute(load_records([trace_path]))
    metrics = layer_metrics(attribution, result["stats"])
    metrics.update({
        "obs.overhead": result["loop_s"] / plain["loop_s"] - 1.0,
        "tuning.recalibrations_ok": result["recalibrations_ok"],
        "tuning.recalibrations_failed": result["recalibrations_failed"],
        "tuning.samples": result["samples"],
        "tuning.queries_to_fire": result["queries_to_fire"],
        "tuning.served_regret_pct": result["regret_pct"],
        "tuning.error_rate": result["error_rate"],
    })
    metrics.update(unexercised(SERVING_METRICS))
    return {
        "metrics": metrics,
        "checks": checks,
        "details": {
            "layers_s": attribution["layers"],
            "end_to_end_s": attribution["end_to_end_s"],
            "untraced_loop_s": plain["loop_s"],
        },
    }

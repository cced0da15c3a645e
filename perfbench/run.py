"""Run one workload of the benchmark, or all of them, and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build_flat --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Workloads: ``build_flat``, ``build_fabric``, ``serve`` and ``drift`` (see
``perfbench/README.md``); ``all`` runs them one after the other.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes the separate traced run and reports the
per-layer metrics.  Either way it checks the program's outputs, prints
one line per metric with its unit and sample count, writes the full
result (with machine metadata) under ``.perfbench-work/results/`` and
ends each workload with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, SRC, metadata, program_present, work_dir

WORKLOADS = ("build_flat", "build_fabric", "serve", "drift")


def _run_workload(workload: str, seed: int, seconds: float, traced: bool):
    if workload in ("build_flat", "build_fabric"):
        import build

        return build.run(workload, seed, seconds, traced)
    if workload == "serve":
        import serve

        return serve.run(seed, seconds, traced)
    import drift

    return drift.run(seed, seconds, traced)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Run ``workload``, print its lines and end with its JSON line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    meta = metadata(seed)
    outcome = _run_workload(workload, seed, seconds, bool(trace))
    meta["loadavg_after"] = list(os.getloadavg())

    measured = outcome["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    checks = outcome["checks"]
    result = {
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }

    print(f"# {workload} seed={seed} trace={trace} "
          f"commit={meta['git_commit'][:12]} nproc={meta['nproc']} "
          f"python={meta['python']} cpu={meta['cpu_model']!r} "
          f"load={meta['loadavg_before'][0]:.2f}->"
          f"{meta['loadavg_after'][0]:.2f}")
    for name, detail in outcome["details"].items():
        print(f"  {name}: {json.dumps(detail) if isinstance(detail, dict) else _format(detail)}")
    samples = outcome.get("samples", {})
    for name, metric in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {_format(metric['value'])} {metric['unit']}{count}")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")

    results = work_dir("results")
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "metadata": meta,
        "workload": workload,
        "result": result,
        "details": outcome["details"],
        "failures": checks.failures,
    }, indent=1) + "\n")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(
            f"error: no program to benchmark: {SRC / 'repro'} is missing "
            "(run from the root of a checkout)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_one(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

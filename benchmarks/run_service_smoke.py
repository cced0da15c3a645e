"""Multi-collective service smoke: build, verify, serve, cross-check.

The end-to-end drill for multi-collective builds: build
one artifact carrying the full collective suite (default all eight —
bcast, reduce, gather, barrier, allreduce, allgather, alltoall and
scatter — on the MINICLUSTER small grid), run the packaged
verification (schema, content hash, codegen/table bit-identity), start
the HTTP server over it, then query every operation through ``POST
/select`` at on-grid, off-grid and degenerate points and assert each
served answer is bit-identical to the offline ``DecisionTable`` lookup.

Exits non-zero on the first divergence.  Usage::

    PYTHONPATH=src python benchmarks/run_service_smoke.py
    PYTHONPATH=src python benchmarks/run_service_smoke.py \
        --collectives bcast,reduce,barrier --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.clusters import MINICLUSTER  # noqa: E402
from repro.exec import ParallelRunner, cpu_count  # noqa: E402
from repro.service import (  # noqa: E402
    ArtifactRegistry,
    SelectionService,
    ServiceThread,
    build_artifact,
)
from repro.units import KiB, MiB, log_spaced_sizes  # noqa: E402

GRID_PROCS = tuple(range(2, 17, 2))
GRID_SIZES = tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6))

#: Query sweep per operation: on-grid, off-grid and degenerate corners.
QUERY_POINTS = (
    (2, 8 * KiB),
    (8, 64 * KiB),
    (16, 1 * MiB),
    (1, 0),
    (3, 100),
    (7, 300 * KiB),
    (500, 16 * MiB),
)


def post_select(port: int, operation: str, procs: int, nbytes: int):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST",
            "/select",
            json.dumps(
                {
                    "cluster": "minicluster",
                    "operation": operation,
                    "procs": procs,
                    "nbytes": nbytes,
                }
            ),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--collectives",
        default="bcast,reduce,gather,barrier,"
                "allreduce,allgather,alltoall,scatter",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="workers for the artifact build (0 = all cores)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    collectives = [c.strip() for c in args.collectives.split(",") if c.strip()]

    print(f"building {'+'.join(collectives)} artifact on minicluster...")
    started = time.perf_counter()
    runner = ParallelRunner(jobs=args.jobs or cpu_count())
    try:
        artifact = build_artifact(
            MINICLUSTER,
            collectives=collectives,
            proc_points=GRID_PROCS,
            size_points=GRID_SIZES,
            procs=6,
            gamma_max_procs=4,
            sizes=(8 * KiB, 64 * KiB, 512 * KiB),
            max_reps=3,
            seed=args.seed,
            runner=runner,
        )
    finally:
        runner.close()
    print(f"  built {artifact.artifact_id} in "
          f"{time.perf_counter() - started:.1f}s")

    artifact.verify()
    print("  verify: schema, hash and codegen/table agreement OK")

    registry = ArtifactRegistry()
    registry.add(artifact)
    queries = 0
    with ServiceThread(SelectionService(registry)) as handle:
        print(f"server on port {handle.port}; querying every operation...")
        for operation in collectives:
            table = artifact.entries[operation].table
            for procs, nbytes in QUERY_POINTS:
                status, data = post_select(
                    handle.port, operation, procs, nbytes
                )
                if status != 200:
                    print(f"FAIL: HTTP {status} for {operation} "
                          f"P={procs} m={nbytes}: {data}")
                    return 1
                expected = table.select(procs, nbytes)
                got = (data["algorithm"], data["segment_size"])
                if got != (expected.algorithm, expected.segment_size):
                    print(
                        f"FAIL: served {operation} selection diverged at "
                        f"P={procs} m={nbytes}: {got} != "
                        f"{(expected.algorithm, expected.segment_size)}"
                    )
                    return 1
                queries += 1
            grid = f"{len(table.proc_points)}x{len(table.size_points)}"
            print(f"  {operation}: {len(QUERY_POINTS)} queries "
                  f"bit-identical to the offline {grid} table")

    print(f"OK: {queries} served selections across "
          f"{len(collectives)} collectives, all bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

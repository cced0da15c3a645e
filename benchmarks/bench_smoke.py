"""CI smoke gate for the batched grid simulator.

Runs the four-collective calibration grid (a small smoke-sized version)
twice — once through the per-job event-loop engine, once through
:class:`repro.sim.batch.BatchSimulator` — and enforces the two contracts
the batched engine ships under:

* **parity**: the batched results are bit-for-bit identical to the
  event-loop results, cell for cell;
* **speed**: the batched pass takes at most 0.9x the event-loop wall
  time (in practice it is far below that: seed-dedupe alone halves the
  seed-free work, and the replay executor runs every cell without the
  event loop's futures and callbacks).

It also fails when no cell took the executor (``columnar == 0``).  The
grid is noise-free; noisy and faulted cells, which the executor replays
too, are gated by ``tests/test_runner_reference.py``, which compares the
runner with an event-loop reference on a ``repro chaos`` sweep byte for
byte and on random noisy and faulted batches.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py
    PYTHONPATH=src python benchmarks/bench_smoke.py --procs 12 --ratio 0.9
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.clusters import MINICLUSTER  # noqa: E402
from repro.collectives import BARRIER_ALGORITHMS, GATHER_ALGORITHMS  # noqa: E402
from repro.collectives.bcast import PAPER_BCAST_ALGORITHMS  # noqa: E402
from repro.collectives.reduce import REDUCE_ALGORITHMS  # noqa: E402
from repro.estimation.alphabeta import alphabeta_prefetch_jobs  # noqa: E402
from repro.exec import execute_job  # noqa: E402
from repro.sim.batch import BatchSimulator  # noqa: E402
from repro.units import KiB, MiB  # noqa: E402


def smoke_grid(procs: int) -> list:
    sizes = (1 * KiB, 64 * KiB, 1 * MiB)
    jobs = []
    for algorithm in PAPER_BCAST_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            MINICLUSTER, algorithm, procs=procs, sizes=sizes
        )
    for algorithm in REDUCE_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            MINICLUSTER, algorithm, operation="reduce", procs=procs,
            sizes=sizes,
        )
    for algorithm in GATHER_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            MINICLUSTER, algorithm, operation="gather", procs=procs,
            sizes=sizes,
        )
    for algorithm in BARRIER_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            MINICLUSTER, algorithm, operation="barrier",
            proc_counts=(4, procs),
        )
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=12)
    parser.add_argument(
        "--ratio",
        type=float,
        default=0.9,
        help="maximum allowed batched/event-loop wall-time ratio",
    )
    args = parser.parse_args(argv)

    jobs = smoke_grid(args.procs)
    print(f"smoke grid: {len(jobs)} cells (procs={args.procs})")

    start = time.perf_counter()
    want = [execute_job(job) for job in jobs]
    event_loop_s = time.perf_counter() - start

    sim = BatchSimulator()
    start = time.perf_counter()
    got = sim.run(jobs)
    batched_s = time.perf_counter() - start

    mismatches = sum(1 for a, b in zip(got, want) if a != b)
    ratio = batched_s / event_loop_s
    print(
        f"event loop {event_loop_s:.3f}s | batched {batched_s:.3f}s "
        f"(ratio {ratio:.3f}, {event_loop_s / batched_s:.1f}x) | "
        f"stats {sim.stats.as_dict()}"
    )
    if mismatches:
        print(f"FAIL: {mismatches}/{len(jobs)} cells diverged from event loop")
        return 1
    if sim.stats.columnar == 0:
        print("FAIL: no cell took the columnar path")
        return 1
    if ratio > args.ratio:
        print(f"FAIL: batched/event-loop ratio {ratio:.3f} > {args.ratio}")
        return 1
    print(f"OK: bit-identical, ratio {ratio:.3f} <= {args.ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

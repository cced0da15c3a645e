"""Seeded inputs: the ``serve`` traffic and the ``drift`` query stream.

Both are pure functions of the seed and the grid they target, so the
same seed always gives the same inputs and the program only ever sees
the generated requests.
"""

from __future__ import annotations

import json
import math
import random

from common import COLLECTIVES

#: Every :data:`BATCH_EVERY`-th ``serve`` request is a batch of
#: :data:`BATCH_SIZE` queries.  One batch per 16 single requests puts as
#: many queries on the vectorized batch path as on the single-query LRU
#: path, so ``ops_per_s`` weighs the two answer paths equally.  This is a
#: choice, not measured traffic: the repo's service bench
#: (``benchmarks/run_service_bench.py``) sends every 5th request as a
#: batch, which would put 80 % of the queries on the batch path.
BATCH_SIZE = 16
BATCH_EVERY = BATCH_SIZE + 1
#: Half the single queries repeat from a fixed hot set of on-grid
#: points, half are fresh off-grid points: the 50/50 on-/off-grid mix of
#: that service bench, whose on-grid points repeat and whose off-grid
#: points almost never do.
FRESH_SHARE = 0.5
#: Distinct hot queries: half the server's 4096-entry LRU, so the hot
#: head fits in it while a traffic cycle's distinct single queries (the
#: hot set plus every fresh point) exceed it.
HOT_QUERIES = 2048
#: Share of the fresh points drawn below the grid (clamped answers).  A
#: choice: enough that every collective's clamped path is answered
#: dozens of times per traffic cycle.
BELOW_GRID_SHARE = 0.1


def _body(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _query(rng: random.Random, cluster: str, grid: dict, below: bool) -> dict:
    operation = rng.choice(COLLECTIVES)
    procs_points, size_points = grid[operation]
    procs = rng.randint(1, procs_points[0] - 1) if below and procs_points[0] > 1 \
        else rng.randint(procs_points[0], procs_points[-1])
    if size_points == (0,):
        nbytes = 0
    elif below:
        nbytes = rng.randint(0, size_points[0] - 1)
    else:
        low, high = math.log(size_points[0]), math.log(size_points[-1])
        nbytes = int(math.exp(rng.uniform(low, high)))
    return {
        "cluster": cluster, "operation": operation,
        "procs": procs, "nbytes": nbytes,
    }


def serve_traffic(seed: int, cluster: str, grid: dict, requests: int) -> list:
    """``requests`` request payloads for ``POST /select``.

    ``grid`` maps each collective to its ``(proc_points, size_points)``.
    Single queries come from the hot set of on-grid points or are fresh
    points, a :data:`BELOW_GRID_SHARE` of them below the grid; every
    :data:`BATCH_EVERY`-th request is a batch of :data:`BATCH_SIZE`
    queries drawn from the same mix.
    """
    rng = random.Random(seed)
    cells = [
        {"cluster": cluster, "operation": operation,
         "procs": procs, "nbytes": nbytes}
        for operation in COLLECTIVES
        for procs in grid[operation][0]
        for nbytes in grid[operation][1]
    ]
    hot = rng.sample(cells, min(HOT_QUERIES, len(cells)))

    def single() -> dict:
        if rng.random() >= FRESH_SHARE:
            return rng.choice(hot)
        below = rng.random() < BELOW_GRID_SHARE
        return _query(rng, cluster, grid, below=below)

    return [
        {"queries": [single() for _ in range(BATCH_SIZE)]}
        if index % BATCH_EVERY == BATCH_EVERY - 1 else single()
        for index in range(requests)
    ]


def request_bytes(payload) -> bytes:
    body = _body(payload)
    return (
        b"POST /select HTTP/1.1\r\nHost: perfbench\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
        % len(body)
    ) + body


def drift_stream(seed: int, cluster: str, procs: tuple, sizes: tuple,
                 count: int) -> list:
    """``count`` single queries drawn independently at random.

    Independent draws cannot alias the service's every-N-th sampler the
    way a periodic cycle can (a cycle whose period shares a factor with
    the sampling period starves some collectives of samples).
    """
    rng = random.Random(seed)
    return [
        {
            "cluster": cluster,
            "operation": operation,
            "procs": rng.choice(procs),
            "nbytes": 0 if operation == "barrier" else rng.choice(sizes),
        }
        for operation in (rng.choice(COLLECTIVES) for _ in range(count))
    ]


def sampled_per_collective(stream: list, every: int) -> dict:
    """How many queries of each collective an every-``every``-th sampler
    keeps from ``stream`` (the first query is always kept)."""
    counts = {operation: 0 for operation in COLLECTIVES}
    for query in stream[::every]:
        counts[query["operation"]] += 1
    return counts

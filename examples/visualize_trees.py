"""Visualise the virtual topologies behind the six broadcast algorithms.

Renders the trees of the paper's Figs. 2-3 (binomial, binary, chains) for a
small communicator and then replays a segmented binomial broadcast in the
simulator, printing the per-stage message timeline — the execution-stage
structure the analytical models are derived from.

Run:  python examples/visualize_trees.py
"""

from repro.clusters import MINICLUSTER
from repro.measure import experiment, run_experiment
from repro.sim.trace import Tracer
from repro.topology import (
    build_binary_tree,
    build_binomial_tree,
    build_chain_tree,
)
from repro.units import KiB, format_seconds

SIZE = 8  # the paper's Fig. 3 uses P = 8


def show_topologies() -> None:
    trees = {
        "Binomial tree (Fig. 2): root fans out to log2(P) subtrees": (
            build_binomial_tree(SIZE)
        ),
        "Balanced binary tree: heap-shaped, every interior node 2 children": (
            build_binary_tree(SIZE)
        ),
        "Chain (pipeline): one hop per rank": build_chain_tree(SIZE, chains=1),
        "K-chain (K=4): four parallel pipelines": build_chain_tree(SIZE, chains=4),
    }
    for title, tree in trees.items():
        print(f"\n{title}")
        print(tree.render())
        print(
            f"  height={tree.height}, max fanout={tree.max_fanout()}, "
            f"leaves={len(tree.leaves())}"
        )


def replay_binomial_broadcast() -> None:
    nbytes, segment = 24 * KiB, 8 * KiB  # 3 segments, like the paper's Fig. 3
    print(
        f"\nExecution stages of the binomial broadcast "
        f"(P={SIZE}, {nbytes // 1024} KB in 3 segments of 8 KB):"
    )
    tracer = Tracer()
    elapsed = run_experiment(
        MINICLUSTER,
        experiment(
            "bcast", SIZE, "binomial", nbytes=nbytes, segment_size=segment
        ),
        tracer=tracer,
    )
    for event in tracer.of_kind("send_post"):
        segment_index = event.tag - 1000
        print(
            f"  t={format_seconds(event.time):>10}  rank {event.rank} -> "
            f"rank {event.peer}  segment #{segment_index}"
        )
    print(f"  total: {format_seconds(elapsed)}")
    print(
        "\nNote how each node pushes segment i to all its children "
        "(the non-blocking linear broadcast, cost gamma(k+1) per stage)\n"
        "while segment i+1 is already arriving — the pipelining that the\n"
        "paper's Eq. 6 counts stage by stage."
    )


def main() -> None:
    show_topologies()
    replay_binomial_broadcast()


if __name__ == "__main__":
    main()

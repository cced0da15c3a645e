"""Scenario: why traditional analytical models fail (the paper's Fig. 1).

Builds both model families for the binary and binomial broadcasts —

* traditional: textbook equations + ping-pong-measured Hockney parameters;
* derived: implementation-derived equations + gamma(P) + per-algorithm
  in-context parameters (the paper's method) —

and prints predictions next to simulator measurements, showing that only
the derived models track reality well enough to rank algorithms.

Run:  python examples/compare_models.py
"""

from repro import GRISOU
from repro.estimation.alphabeta import estimate_alpha_beta
from repro.estimation.gamma import estimate_gamma
from repro.estimation.p2p import estimate_hockney_p2p
from repro.exec import SimJob, default_runner
from repro.models.derived import DERIVED_BCAST_MODELS
from repro.models.traditional import TRADITIONAL_BCAST_MODELS
from repro.units import KiB, MiB, format_bytes, format_seconds, log_spaced_sizes

PROCS = 40
SEGMENT = 8 * KiB
ALGORITHMS = ("binary", "binomial")
SIZES = log_spaced_sizes(8 * KiB, 4 * MiB, 6)


def main() -> None:
    cluster = GRISOU.with_noise(0.0)
    print(f"Platform: {cluster.describe()}  (P={PROCS})")

    print("\nEstimating parameters both ways...")
    p2p = estimate_hockney_p2p(cluster)
    print(f"  ping-pong fit:      {p2p.params}")
    gamma = estimate_gamma(cluster).function()
    print(
        "  gamma(P):           "
        + ", ".join(f"g({p})={gamma(p):.2f}" for p in range(2, 8))
    )

    for name in ALGORITHMS:
        traditional = TRADITIONAL_BCAST_MODELS[name](None)
        derived = DERIVED_BCAST_MODELS[name](gamma)
        fitted = estimate_alpha_beta(cluster, derived, procs=PROCS)
        print(f"\n=== {name} broadcast ===")
        print(f"  in-context fit:     {fitted.params}")
        print(
            f"{'message':>9} {'measured':>12} {'derived model':>14} "
            f"{'traditional':>12}"
        )
        for nbytes in SIZES:
            measured = default_runner().run_one(SimJob(
                cluster, "bcast", PROCS, name, nbytes=nbytes,
                segment_size=SEGMENT,
            ))
            with_derived = derived.predict(PROCS, nbytes, SEGMENT, fitted.params)
            with_traditional = traditional.predict(
                PROCS, nbytes, SEGMENT, p2p.params
            )
            print(
                f"{format_bytes(nbytes):>9} {format_seconds(measured):>12} "
                f"{format_seconds(with_derived):>14} "
                f"{format_seconds(with_traditional):>12}"
            )

    print(
        "\nThe traditional binomial column is the whole-message log2(P) "
        "formula of Thakur et al.;\nit misses the segmentation/pipelining "
        "of the real implementation entirely — the gap\nthe paper's Fig. 1 "
        "plots, and the reason the derived models exist."
    )


if __name__ == "__main__":
    main()

"""Robustness tests: extreme parameters, heavy noise, adversarial inputs.

The simulator and estimation pipeline must stay correct (not merely
accurate) under ugly conditions: heavy measurement noise, extreme fabric
parameters, degenerate communicator shapes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters import MINICLUSTER, ClusterSpec
from repro.collectives.bcast import BCAST_ALGORITHMS
from repro.exec.job import SimJob, execute_job
from repro.selection.ompi_fixed import ompi_bcast_decision, ompi_reduce_decision
from repro.sim.network import NetworkParams
from repro.units import KiB


def make_extreme_cluster(**overrides) -> ClusterSpec:
    params = dict(
        latency=1e-3,  # a WAN-grade millisecond
        byte_time_out=1e-7,  # ~80 Mbit/s
        byte_time_in=1e-7,
        per_message_overhead=1e-4,
        send_overhead=1e-5,
        recv_overhead=1e-5,
        eager_limit=0,  # everything rendezvous
        control_latency=1e-3,
        shm_latency=1e-6,
        shm_byte_time=1e-9,
    )
    params.update(overrides)
    return ClusterSpec(
        name="extreme", nodes=8, procs_per_node=1,
        network=NetworkParams(**params),
    )


class TestExtremeFabrics:
    @pytest.mark.parametrize("algorithm", sorted(BCAST_ALGORITHMS))
    def test_all_algorithms_complete_on_all_rendezvous_fabric(self, algorithm):
        """eager_limit=0: every message handshakes; nothing deadlocks."""
        spec = make_extreme_cluster()
        elapsed = execute_job(SimJob(
            spec, "bcast", 8, algorithm, nbytes=64 * KiB, segment_size=8 * KiB
        ))
        assert elapsed > 0

    def test_zero_byte_broadcast(self):
        for algorithm in ("linear", "binomial", "chain"):
            elapsed = execute_job(SimJob(
                MINICLUSTER, "bcast", 6, algorithm, segment_size=8 * KiB
            ))
            assert elapsed >= 0

    def test_one_byte_broadcast(self):
        for algorithm in sorted(BCAST_ALGORITHMS):
            elapsed = execute_job(SimJob(
                MINICLUSTER, "bcast", 5, algorithm, nbytes=1,
                segment_size=8 * KiB,
            ))
            assert elapsed > 0

    def test_latency_free_fabric(self):
        spec = make_extreme_cluster(
            latency=0.0, control_latency=0.0, per_message_overhead=0.0,
            send_overhead=0.0, recv_overhead=0.0, shm_latency=0.0,
            eager_limit=1 << 30,
        )
        elapsed = execute_job(SimJob(
            spec, "bcast", 8, "binomial", nbytes=64 * KiB, segment_size=8 * KiB
        ))
        # Pure bandwidth: still positive and finite.
        assert 0 < elapsed < 1.0


class TestHeavyNoise:
    def test_estimation_survives_20_percent_jitter(self):
        from repro.estimation.gamma import estimate_gamma

        noisy = MINICLUSTER.with_noise(0.20)
        estimate = estimate_gamma(noisy, max_procs=4, max_reps=30, seed=7)
        assert estimate.table[2] == 1.0
        for value in estimate.table.values():
            assert 0.3 < value < 10.0

    def test_adaptive_measure_reports_non_convergence(self):
        from repro.estimation.statistics import adaptive_measure

        noisy = MINICLUSTER.with_noise(0.5)

        def measure(seed):
            return execute_job(SimJob(
                noisy, "bcast", 6, "binomial", nbytes=64 * KiB,
                segment_size=8 * KiB, seed=seed,
            ))

        stats = adaptive_measure(measure, precision=1e-4, max_reps=5, seed=3)
        assert stats.n == 5
        assert not stats.converged
        assert stats.std > 0

    def test_huber_calibration_under_noise_still_ranks_sanely(self):
        """With 10% jitter the fitted platform still refuses linear at scale."""
        from repro.estimation.workflow import calibrate_platform
        from repro.selection.model_based import ModelBasedSelector
        from repro.units import MiB, log_spaced_sizes

        noisy = MINICLUSTER.with_noise(0.10)
        calibration = calibrate_platform(
            noisy,
            procs=8,
            sizes=log_spaced_sizes(8 * KiB, 1 * MiB, 4),
            gamma_max_procs=4,
            max_reps=10,
            seed=5,
        )
        selector = ModelBasedSelector(calibration.platform)
        assert selector.select(16, 1 * MiB).algorithm != "linear"


class TestDecisionFunctionTotality:
    """The ported decision functions are total over their whole domain."""

    @given(procs=st.integers(1, 10_000), nbytes=st.integers(0, 1 << 32))
    @settings(max_examples=200)
    def test_bcast_decision_always_valid(self, procs, nbytes):
        choice = ompi_bcast_decision(procs, nbytes)
        assert choice.algorithm in BCAST_ALGORITHMS
        assert choice.segment_size >= 0

    @given(procs=st.integers(1, 10_000), nbytes=st.integers(0, 1 << 32))
    @settings(max_examples=200)
    def test_reduce_decision_always_valid(self, procs, nbytes):
        choice = ompi_reduce_decision(procs, nbytes)
        assert choice.operation == "reduce"
        assert choice.segment_size >= 0

    @given(nbytes=st.integers(0, 1 << 30))
    @settings(max_examples=100)
    def test_bcast_decision_monotone_regions(self, nbytes):
        """Small messages always binomial; intermediate always split-binary."""
        choice = ompi_bcast_decision(64, nbytes)
        if nbytes < 2048:
            assert choice.algorithm == "binomial"
        elif nbytes < 370728:
            assert choice.algorithm == "split_binary"


class TestPlatformModelRoundTripProperty:
    @given(
        alpha=st.floats(0, 1e-3, allow_nan=False),
        beta=st.floats(0, 1e-6, allow_nan=False),
        segment=st.integers(1024, 1 << 20),
    )
    @settings(max_examples=50)
    def test_json_round_trip_exact(self, alpha, beta, segment, tmp_path_factory):
        from repro.estimation.workflow import PlatformModel
        from repro.models.gamma import GammaFunction
        from repro.models.hockney import HockneyParams

        platform = PlatformModel(
            cluster="prop",
            segment_size=segment,
            gamma=GammaFunction({3: 1.25}),
            parameters={"binomial": HockneyParams(alpha, beta)},
        )
        restored = PlatformModel.from_dict(platform.to_dict())
        assert restored.parameters == platform.parameters
        assert restored.segment_size == segment

"""Tests for the classical point-to-point estimation (ablation baseline)."""

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import EstimationError
from repro.estimation.p2p import estimate_hockney_p2p
from repro.exec.job import SimJob, execute_job
from repro.units import KiB


@pytest.fixture(scope="module")
def p2p_estimate():
    return estimate_hockney_p2p(
        MINICLUSTER, sizes=[1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB]
    )


class TestP2pEstimation:
    def test_beta_matches_link_byte_time(self, p2p_estimate):
        """The round-trip slope recovers the physical per-byte cost."""
        physical = (
            MINICLUSTER.network.byte_time_out + MINICLUSTER.network.byte_time_in
        )
        assert p2p_estimate.beta == pytest.approx(physical, rel=0.15)

    def test_alpha_close_to_physical_latency(self, p2p_estimate):
        net = MINICLUSTER.network
        expected = (
            net.latency
            + net.send_overhead
            + net.recv_overhead
            + net.per_message_overhead
        )
        assert p2p_estimate.alpha == pytest.approx(expected, rel=0.5)

    def test_prediction_matches_measured_roundtrip_within_regime(self):
        """Within one protocol regime (all rendezvous here) the ping-pong
        fit interpolates almost exactly; across the eager/rendezvous
        threshold a single Hockney line cannot capture the jump — one of
        the structural reasons the paper abandons p2p-derived parameters."""
        estimate = estimate_hockney_p2p(
            MINICLUSTER, sizes=[64 * KiB, 128 * KiB, 512 * KiB, 1024 * KiB]
        )
        nbytes = 256 * KiB  # rendezvous, like every fitted size
        predicted = estimate.params.p2p_time(nbytes)
        measured = execute_job(SimJob(
            MINICLUSTER, "p2p_roundtrip", 2, nbytes=nbytes, mapping="spread"
        ))
        assert predicted == pytest.approx(measured, rel=0.05)

    def test_single_line_misses_protocol_switch(self, p2p_estimate):
        """The mixed-regime fit mispredicts just above the eager limit."""
        nbytes = 32 * KiB  # first rendezvous size on the test cluster
        predicted = p2p_estimate.params.p2p_time(nbytes)
        measured = execute_job(SimJob(
            MINICLUSTER, "p2p_roundtrip", 2, nbytes=nbytes, mapping="spread"
        ))
        assert abs(predicted - measured) / measured > 0.10

    def test_diagnostics_recorded(self, p2p_estimate):
        assert len(p2p_estimate.sizes) == len(p2p_estimate.stats) == 4
        assert all(s.mean > 0 for s in p2p_estimate.stats)

    def test_needs_two_sizes(self):
        with pytest.raises(EstimationError):
            estimate_hockney_p2p(MINICLUSTER, sizes=[8 * KiB])


class TestRoundtripMeasurement:
    def test_halves_the_round_trip(self):
        one_way = execute_job(SimJob(
            MINICLUSTER, "p2p_roundtrip", 2, nbytes=8 * KiB, mapping="spread"
        ))
        assert one_way > 0

    def test_monotone_in_size(self):
        times = [
            execute_job(SimJob(
                MINICLUSTER, "p2p_roundtrip", 2, nbytes=nbytes,
                mapping="spread",
            ))
            for nbytes in (1 * KiB, 32 * KiB, 512 * KiB)
        ]
        assert times == sorted(times)

    def test_same_rank_pair_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            execute_job(SimJob(
                MINICLUSTER, "p2p_roundtrip", 2, nbytes=1024, ranks=(2, 2),
                mapping="spread",
            ))

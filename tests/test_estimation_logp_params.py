"""Tests for the LogP-family measurement procedures."""

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import EstimationError
from repro.estimation.logp_params import measure_loggp, measure_logp, measure_plogp
from repro.units import KiB

NET = MINICLUSTER.network


@pytest.fixture(scope="module")
def logp():
    return measure_logp(MINICLUSTER, nbytes=1)


class TestLogPMeasurement:
    def test_send_overhead_matches_platform(self, logp):
        assert logp.send_overhead == pytest.approx(NET.send_overhead, rel=0.05)

    def test_gap_reflects_per_message_injection(self, logp):
        """For 1-byte messages the gap is the fixed per-message NIC cost
        plus the pacing of the sender's overhead."""
        minimum = max(NET.per_message_overhead, NET.send_overhead)
        assert logp.gap >= 0.9 * minimum
        assert logp.gap < 10 * minimum

    def test_latency_close_to_wire_latency(self, logp):
        assert logp.latency == pytest.approx(NET.latency, rel=0.35)

    def test_p2p_prediction_close_to_simulated(self, logp):
        from repro.exec.job import SimJob, execute_job

        measured = execute_job(SimJob(
            MINICLUSTER, "p2p_roundtrip", 2, nbytes=1, mapping="spread"
        ))
        assert logp.p2p_time() == pytest.approx(measured, rel=0.25)

    def test_burst_validation(self):
        with pytest.raises(EstimationError):
            measure_logp(MINICLUSTER, burst=1)


class TestLogGPMeasurement:
    def test_gap_per_byte_matches_link(self):
        loggp = measure_loggp(MINICLUSTER)
        assert loggp.gap_per_byte == pytest.approx(NET.byte_time_out, rel=0.1)

    def test_requires_increasing_sizes(self):
        with pytest.raises(EstimationError):
            measure_loggp(MINICLUSTER, small=1024, large=1024)


class TestPLogPMeasurement:
    @pytest.fixture(scope="class")
    def plogp(self):
        return measure_plogp(
            MINICLUSTER, sizes=(1, 1 * KiB, 8 * KiB, 64 * KiB)
        )

    def test_gap_grows_with_size(self, plogp):
        assert plogp.g_fn(64 * KiB) > plogp.g_fn(1)

    def test_interpolation_between_measured_sizes(self, plogp):
        middle = plogp.g_fn(4 * KiB)
        assert plogp.g_fn(1 * KiB) < middle < plogp.g_fn(8 * KiB)

    def test_extrapolation_beyond_table(self, plogp):
        assert plogp.g_fn(256 * KiB) > plogp.g_fn(64 * KiB)

    def test_needs_two_sizes(self):
        with pytest.raises(EstimationError):
            measure_plogp(MINICLUSTER, sizes=(1,))

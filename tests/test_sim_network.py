"""Tests for the fabric model: NIC serialisation, latency, timings."""

import pytest

from repro.errors import SimulationError
from repro.sim.network import Fabric, Host, NetworkParams, TransferTiming

PARAMS = NetworkParams(
    latency=40e-6,
    byte_time_out=1e-9,
    byte_time_in=1e-9,
    per_message_overhead=2e-6,
    send_overhead=1e-6,
    recv_overhead=1e-6,
    eager_limit=32 * 1024,
    control_latency=30e-6,
    shm_latency=1e-6,
    shm_byte_time=0.1e-9,
)


def make_fabric(nodes=4, ports=1):
    return Fabric(params=PARAMS, num_nodes=nodes, ports_per_node=ports)


class TestNetworkParams:
    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams(
                latency=-1.0,
                byte_time_out=1e-9,
                byte_time_in=1e-9,
                per_message_overhead=0,
                send_overhead=0,
                recv_overhead=0,
                eager_limit=0,
                control_latency=0,
                shm_latency=0,
                shm_byte_time=0,
            )

    def test_negative_eager_limit_rejected(self):
        with pytest.raises(ValueError):
            NetworkParams(
                latency=1e-6,
                byte_time_out=1e-9,
                byte_time_in=1e-9,
                per_message_overhead=0,
                send_overhead=0,
                recv_overhead=0,
                eager_limit=-1,
                control_latency=0,
                shm_latency=0,
                shm_byte_time=0,
            )


class TestSingleTransfer:
    def test_timing_decomposition(self):
        fabric = make_fabric()
        timing = fabric.transfer(0, 1, 1000, ready=0.0)
        inject = PARAMS.per_message_overhead + 1000 * PARAMS.byte_time_out
        assert timing.inject_start == 0.0
        assert timing.inject_end == pytest.approx(inject)
        assert timing.deliver == pytest.approx(
            inject + PARAMS.latency + 1000 * PARAMS.byte_time_in
        )

    def test_zero_byte_message_costs_overhead_and_latency(self):
        fabric = make_fabric()
        timing = fabric.transfer(0, 1, 0, ready=0.0)
        assert timing.inject_end == pytest.approx(PARAMS.per_message_overhead)
        assert timing.deliver == pytest.approx(
            PARAMS.per_message_overhead + PARAMS.latency
        )

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            make_fabric().transfer(0, 1, -1, ready=0.0)

    def test_ready_time_offsets_everything(self):
        fabric = make_fabric()
        base = fabric.transfer(0, 1, 500, ready=0.0)
        fabric.reset()
        later = fabric.transfer(0, 1, 500, ready=7.0)
        assert later.deliver == pytest.approx(base.deliver + 7.0)


class TestEgressSerialisation:
    """The mechanism behind the paper's gamma(P) > 1."""

    def test_concurrent_sends_serialise_injection(self):
        fabric = make_fabric()
        first = fabric.transfer(0, 1, 8192, ready=0.0)
        second = fabric.transfer(0, 2, 8192, ready=0.0)
        assert second.inject_start == pytest.approx(first.inject_end)

    def test_latency_overlaps_across_destinations(self):
        fabric = make_fabric()
        first = fabric.transfer(0, 1, 8192, ready=0.0)
        second = fabric.transfer(0, 2, 8192, ready=0.0)
        inject = PARAMS.per_message_overhead + 8192 * PARAMS.byte_time_out
        # Delivery gap is one injection time, not one full p2p time.
        assert second.deliver - first.deliver == pytest.approx(inject)

    def test_linear_broadcast_delivery_schedule(self):
        fabric = make_fabric(nodes=8)
        deliveries = [
            fabric.transfer(0, peer, 8192, ready=0.0).deliver
            for peer in range(1, 8)
        ]
        inject = PARAMS.per_message_overhead + 8192 * PARAMS.byte_time_out
        for k, deliver in enumerate(deliveries, start=1):
            assert deliver == pytest.approx(
                k * inject + PARAMS.latency + 8192 * PARAMS.byte_time_in
            )


class TestIngressSerialisation:
    """The mechanism behind the linear gather model (paper Eq. 8)."""

    def test_simultaneous_arrivals_drain_serially(self):
        fabric = make_fabric(nodes=8)
        deliveries = sorted(
            fabric.transfer(src, 0, 8192, ready=0.0).deliver
            for src in range(1, 8)
        )
        drain = 8192 * PARAMS.byte_time_in
        for earlier, later in zip(deliveries, deliveries[1:]):
            assert later - earlier == pytest.approx(drain)


class TestMultiPort:
    def test_distinct_ports_do_not_contend(self):
        fabric = make_fabric(ports=2)
        first = fabric.transfer(0, 1, 8192, ready=0.0, src_port=0)
        second = fabric.transfer(0, 2, 8192, ready=0.0, src_port=1)
        assert first.inject_start == second.inject_start == 0.0

    def test_same_port_still_serialises(self):
        fabric = make_fabric(ports=2)
        first = fabric.transfer(0, 1, 8192, ready=0.0, src_port=1)
        second = fabric.transfer(0, 2, 8192, ready=0.0, src_port=1)
        assert second.inject_start == pytest.approx(first.inject_end)

    def test_host_rejects_zero_ports(self):
        with pytest.raises(SimulationError):
            Host(0, ports=0)


class TestIntraNode:
    def test_shared_memory_path_bypasses_nic(self):
        fabric = make_fabric()
        timing = fabric.transfer(2, 2, 10_000, ready=0.0)
        assert timing.deliver == pytest.approx(
            10_000 * PARAMS.shm_byte_time + PARAMS.shm_latency
        )
        # NIC clocks untouched.
        assert fabric.hosts[2].egress[0].free_at == 0.0

    def test_shm_much_faster_than_network(self):
        fabric = make_fabric()
        shm = fabric.transfer(1, 1, 8192, ready=0.0).deliver
        net = fabric.transfer(0, 1, 8192, ready=0.0).deliver
        assert shm < net / 10


class TestControlMessages:
    def test_control_pays_latency_only(self):
        fabric = make_fabric()
        arrival = fabric.control_transfer(0, 1, ready=5.0)
        assert arrival == pytest.approx(5.0 + PARAMS.control_latency)

    def test_intra_node_control_uses_shm_latency(self):
        fabric = make_fabric()
        arrival = fabric.control_transfer(3, 3, ready=0.0)
        assert arrival == pytest.approx(PARAMS.shm_latency)


class TestAccounting:
    def test_counters_and_reset(self):
        fabric = make_fabric()
        fabric.transfer(0, 1, 100, ready=0.0)
        fabric.transfer(1, 2, 200, ready=0.0)
        assert fabric.bytes_transferred == 300
        assert fabric.messages_transferred == 2
        fabric.reset()
        assert fabric.bytes_transferred == 0
        assert fabric.hosts[0].egress[0].free_at == 0.0

    def test_transfer_timing_monotonicity_enforced(self):
        with pytest.raises(SimulationError):
            TransferTiming(inject_start=2.0, inject_end=1.0, deliver=3.0)


class TestDegradation:
    def test_egress_slowdown_scales_injection(self):
        slow = Fabric(params=PARAMS, num_nodes=3, degradation={0: 4.0})
        fast = Fabric(params=PARAMS, num_nodes=3)
        slow_t = slow.transfer(0, 1, 8192, ready=0.0)
        fast_t = fast.transfer(0, 1, 8192, ready=0.0)
        assert slow_t.inject_end == pytest.approx(4.0 * fast_t.inject_end)

    def test_ingress_unaffected_by_degradation(self):
        """Degradation is egress-only: receiving at a sick node is normal."""
        slow = Fabric(params=PARAMS, num_nodes=3, degradation={1: 4.0})
        fast = Fabric(params=PARAMS, num_nodes=3)
        assert slow.transfer(0, 1, 8192, ready=0.0).deliver == pytest.approx(
            fast.transfer(0, 1, 8192, ready=0.0).deliver
        )

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            Fabric(params=PARAMS, num_nodes=2, degradation={5: 2.0})

    def test_speedup_factor_rejected(self):
        with pytest.raises(SimulationError):
            Fabric(params=PARAMS, num_nodes=2, degradation={0: 0.5})

    def test_cluster_spec_plumbs_slow_nodes(self):
        from repro.clusters import MINICLUSTER

        sick = MINICLUSTER.with_slow_nodes({3: 8.0})
        world = sick.make_world(8)
        assert world.fabric.degradation == {3: 8.0}
        # The base preset is untouched.
        assert MINICLUSTER.slow_nodes == {}

    def test_straggler_hurts_chain_more_than_binary(self):
        from repro.clusters import MINICLUSTER
        from repro.exec.job import SimJob, execute_job
        from repro.topology import build_binary_tree
        from repro.units import KiB

        procs = 16
        leaf = build_binary_tree(procs).leaves()[3]
        sick = MINICLUSTER.with_slow_nodes({leaf: 20.0})
        chain_ratio = execute_job(SimJob(
            sick, "bcast", procs, "chain", nbytes=512 * KiB,
            segment_size=8 * KiB,
        )) / execute_job(SimJob(
            MINICLUSTER, "bcast", procs, "chain", nbytes=512 * KiB,
            segment_size=8 * KiB,
        ))
        binary_ratio = execute_job(SimJob(
            sick, "bcast", procs, "binary", nbytes=512 * KiB,
            segment_size=8 * KiB,
        )) / execute_job(SimJob(
            MINICLUSTER, "bcast", procs, "binary", nbytes=512 * KiB,
            segment_size=8 * KiB,
        ))
        assert binary_ratio < 1.05  # leaf sends nothing
        assert chain_ratio > 1.5  # every byte passes the sick egress

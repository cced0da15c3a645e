"""Tests for cluster specs and the paper-platform presets."""

import pytest

from repro.clusters import GRISOU, GROS, MINICLUSTER, PRESETS, ClusterSpec, get_preset
from repro.errors import SimulationError
from repro.sim.network import NetworkParams


class TestPresets:
    def test_lookup(self):
        assert get_preset("grisou") is GRISOU
        assert get_preset("gros") is GROS

    def test_unknown_preset(self):
        with pytest.raises(SimulationError, match="unknown cluster"):
            get_preset("frontier")

    def test_registry_complete(self):
        assert set(PRESETS) >= {"grisou", "gros", "minicluster"}

    def test_grisou_matches_paper_inventory(self):
        """§5.1: 51 nodes, 2 CPUs/node, 10 GbE; up to 90 processes used."""
        assert GRISOU.nodes == 51
        assert GRISOU.procs_per_node == 2
        assert GRISOU.max_procs >= 90
        assert GRISOU.network.byte_time_out == pytest.approx(0.8e-9)

    def test_gros_matches_paper_inventory(self):
        """§5.1: 124 nodes, 1 CPU/node, 25 GbE; up to 124 processes used."""
        assert GROS.nodes == 124
        assert GROS.procs_per_node == 1
        assert GROS.max_procs == 124
        assert GROS.network.byte_time_out == pytest.approx(0.32e-9)

    def test_gros_is_faster_fabric_than_grisou(self):
        assert GROS.network.latency < GRISOU.network.latency
        assert GROS.network.byte_time_out < GRISOU.network.byte_time_out

    def test_describe_mentions_link_speed(self):
        assert "10 Gbit/s" in GRISOU.describe()
        assert "25 Gbit/s" in GROS.describe()


class TestMapping:
    def test_block_mapping_fills_slots(self):
        assert GRISOU.rank_to_node(5) == [0, 0, 1, 1, 2]

    def test_spread_mapping_round_robins(self):
        assert GRISOU.rank_to_node(5, mapping="spread") == [0, 1, 2, 3, 4]

    def test_single_proc_per_node_cluster_mappings_agree(self):
        assert GROS.rank_to_node(6) == GROS.rank_to_node(6, mapping="spread")

    def test_too_many_procs_rejected(self):
        with pytest.raises(SimulationError):
            GROS.rank_to_node(GROS.max_procs + 1)

    def test_unknown_mapping_rejected(self):
        with pytest.raises(SimulationError, match="unknown mapping"):
            GRISOU.rank_to_node(4, mapping="diagonal")


class TestWorldConstruction:
    def test_world_has_requested_ranks(self):
        world = MINICLUSTER.make_world(6)
        assert world.size == 6

    def test_grisou_ranks_on_shared_node_use_distinct_ports(self):
        world = GRISOU.make_world(4)
        assert world.rank_to_node[0] == world.rank_to_node[1]
        assert world.rank_to_port[0] != world.rank_to_port[1]

    def test_noise_override(self):
        noisy = GRISOU.make_world(2, seed=1, noise_sigma=0.1)
        clean = GRISOU.make_world(2, seed=1, noise_sigma=0.0)
        assert noisy.fabric.noise.factor() != 1.0
        assert clean.fabric.noise.factor() == 1.0

    def test_with_noise_copies(self):
        quiet = GRISOU.with_noise(0.0)
        assert quiet.noise_sigma == 0.0
        assert GRISOU.noise_sigma != 0.0
        assert quiet.network is GRISOU.network

    def test_invalid_spec_fields_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSpec(
                name="bad",
                nodes=0,
                procs_per_node=1,
                network=MINICLUSTER.network,
            )
        with pytest.raises(SimulationError):
            ClusterSpec(
                name="bad",
                nodes=2,
                procs_per_node=1,
                network=MINICLUSTER.network,
                nics_per_node=0,
            )


class TestDeterminism:
    def test_same_seed_same_measurement(self):
        from repro.exec.job import SimJob, execute_job
        from repro.units import KiB

        a = execute_job(SimJob(GRISOU, "bcast", 8, "binomial", nbytes=64 * KiB,
                               segment_size=8 * KiB, seed=3))
        b = execute_job(SimJob(GRISOU, "bcast", 8, "binomial", nbytes=64 * KiB,
                               segment_size=8 * KiB, seed=3))
        assert a == b

    def test_different_seed_different_measurement_with_noise(self):
        from repro.exec.job import SimJob, execute_job
        from repro.units import KiB

        a = execute_job(SimJob(GRISOU, "bcast", 8, "binomial", nbytes=64 * KiB,
                               segment_size=8 * KiB, seed=3))
        b = execute_job(SimJob(GRISOU, "bcast", 8, "binomial", nbytes=64 * KiB,
                               segment_size=8 * KiB, seed=4))
        assert a != b

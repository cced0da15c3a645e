"""The ``repro.fabric`` subsystem: multi-level topologies end to end.

Covers the fabric description layer (specs, builders, validation), the
contract that a *flat* fabric is bit-identical to no fabric at every
layer (fingerprints, simulated times, artifact content hashes, warm
caches), the simulator's uplink routing (inter-rack transfers pay the
extra switch tier and serialise on the rack uplink), the hierarchical
rack-leader collectives, and the acceptance scenario of the topology
extension: on a two-rack cluster with heavily oversubscribed uplinks the
conditioned artifact's decision table picks the hierarchical broadcast
where the flat table does not — and the measured oracle agrees.
"""

from __future__ import annotations

import json
from dataclasses import replace
from http.client import HTTPConnection

import pytest

from repro.clusters import MINICLUSTER, get_preset
from repro.errors import ArtifactError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.job import SimJob, execute_job
from repro.exec.runner import ParallelRunner
from repro.fabric import (
    FLAT_FABRIC,
    FabricSpec,
    Uplink,
    available_fabrics,
    build_fabric,
    fat_tree,
    flat_fabric,
    heterogeneous_spine,
    leaf_spine,
)
from repro.selection.oracle import MeasuredOracle
from repro.service import ArtifactRegistry, SelectionService, ServiceThread
from repro.service.artifact import build_artifact
from repro.topology.trees import build_hierarchy_tree

#: The acceptance platform: ten nodes split 5+5 across two racks whose
#: uplinks are oversubscribed hard enough that crossing them repeatedly
#: (as the flat algorithms do) loses to a single rack-leader transfer.
TWO_RACK = replace(MINICLUSTER, name="tworack", nodes=10)
ACCEPTANCE_SIZES = (16384, 32768, 65536, 131072)


def acceptance_fabric() -> FabricSpec:
    return leaf_spine(
        TWO_RACK, nodes_per_rack=5, oversubscription=32,
        name="acceptance_32to1",
    )


def build_acceptance_artifact(spec, **overrides):
    kwargs = dict(
        collectives=("bcast",),
        proc_points=[10],
        size_points=ACCEPTANCE_SIZES,
        procs=10,
        sizes=ACCEPTANCE_SIZES,
        max_reps=4,
        seed=0,
    )
    kwargs.update(overrides)
    return build_artifact(spec, **kwargs)


class TestFabricSpec:
    def test_flat_sentinel(self):
        assert FLAT_FABRIC.is_flat()
        assert flat_fabric(MINICLUSTER).is_flat()
        assert not acceptance_fabric().is_flat()

    def test_rack_assignment_is_block(self):
        fabric = acceptance_fabric()
        assert [fabric.rack_of(n) for n in range(10)] == [0] * 5 + [1] * 5

    def test_uplink_validation(self):
        with pytest.raises(SimulationError):
            Uplink(latency=-1e-6, byte_time=1e-9)
        with pytest.raises(SimulationError):
            Uplink(latency=1e-6, byte_time=1e-9, count=0)

    def test_payload_is_canonical(self):
        fabric = acceptance_fabric()
        payload = fabric.payload()
        assert payload["name"] == "acceptance_32to1"
        assert payload["nodes_per_rack"] == 5
        # Round-trippable through JSON with stable key order.
        assert json.loads(json.dumps(payload, sort_keys=True)) == json.loads(
            json.dumps(payload, sort_keys=True)
        )

    def test_heterogeneous_override(self):
        fabric = heterogeneous_spine(
            MINICLUSTER, nodes_per_rack=8, oversubscription=2.0,
            slow_racks={1: 2.0},
        )
        assert fabric.uplink_of(1).byte_time == pytest.approx(
            2.0 * fabric.uplink_of(0).byte_time
        )

    def test_fat_tree_compounds_ratios(self):
        fabric = fat_tree(
            MINICLUSTER, nodes_per_rack=4, pod_racks=2,
            rack_oversubscription=2.0, pod_oversubscription=2.0,
        )
        assert fabric.pod_racks == 2
        # Per-flow wire speed matches the rack uplink, but the pod link
        # is shared by twice the hosts: aggregate per-host bandwidth
        # through the pod tier is half that of the rack tier.
        rack_aggregate = fabric.uplink.byte_time * 4
        pod_aggregate = fabric.pod_uplink.byte_time * 8
        assert pod_aggregate == pytest.approx(2.0 * rack_aggregate)

    def test_build_fabric_rejects_unknown_name_listing_alternatives(self):
        with pytest.raises(ArtifactError) as excinfo:
            build_fabric("nonsense", MINICLUSTER)
        message = str(excinfo.value)
        for name in available_fabrics():
            assert name in message

    def test_named_builders_produce_fabrics(self):
        for name in available_fabrics():
            fabric = build_fabric(name, MINICLUSTER)
            assert fabric.is_flat() == (name == "flat")


class TestFingerprintFolding:
    def test_flat_fabric_fingerprint_is_bit_identical_to_none(self):
        with_flat = MINICLUSTER.with_fabric(flat_fabric(MINICLUSTER))
        assert with_flat.fingerprint() == MINICLUSTER.fingerprint()

    def test_non_flat_fabric_changes_the_fingerprint(self):
        conditioned = TWO_RACK.with_fabric(acceptance_fabric())
        assert conditioned.fingerprint() != TWO_RACK.fingerprint()

    def test_distinct_fabrics_fingerprint_differently(self):
        spec = get_preset("minicluster")
        prints = {
            spec.with_fabric(build_fabric(name, spec)).fingerprint()
            for name in available_fabrics()
            if name != "flat"
        }
        assert len(prints) == len(available_fabrics()) - 1

    def test_describe_mentions_the_fabric_only_when_non_flat(self):
        assert "fabric" not in MINICLUSTER.describe()
        flat = MINICLUSTER.with_fabric(flat_fabric(MINICLUSTER))
        assert "fabric" not in flat.describe()
        conditioned = TWO_RACK.with_fabric(acceptance_fabric())
        assert "acceptance_32to1" in conditioned.describe()


class TestFlatBitIdentity:
    def test_flat_fabric_simulates_bit_identically(self):
        flat = MINICLUSTER.with_fabric(flat_fabric(MINICLUSTER))
        for algorithm in ("binomial", "chain", "hierarchical"):
            assert execute_job(SimJob(
                flat, "bcast", 10, algorithm, nbytes=65536, segment_size=8192
            )) == execute_job(SimJob(
                MINICLUSTER, "bcast", 10, algorithm, nbytes=65536,
                segment_size=8192,
            ))

    def test_flat_artifact_content_hash_is_unchanged(self):
        bare = build_acceptance_artifact(TWO_RACK)
        flat = build_acceptance_artifact(
            TWO_RACK.with_fabric(flat_fabric(TWO_RACK))
        )
        assert flat.content_hash() == bare.content_hash()
        assert flat.fabric == "" and bare.fabric == ""
        assert "fabric" not in flat.payload()

    def test_flat_rebuild_replays_warm_cache_with_zero_simulations(
        self, tmp_path
    ):
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        build_acceptance_artifact(TWO_RACK, runner=cold)
        assert cold.stats.simulations > 0
        cold.close()
        # Attaching the *flat* fabric must hit every cached result: the
        # fingerprint, and therefore every cache key, is unchanged.
        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        build_acceptance_artifact(
            TWO_RACK.with_fabric(flat_fabric(TWO_RACK)), runner=warm
        )
        assert warm.stats.simulations == 0
        warm.close()


class TestUplinkRouting:
    def test_inter_rack_transfer_pays_the_switch_tiers(self):
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        # P=2 stays inside rack 0; P=6 forces rank 5 into rack 1 and a
        # two-rank chain 0->5 would cross — use linear bcast at P=6 vs
        # the same ranks flat.
        flat = execute_job(SimJob(TWO_RACK, "bcast", 6, "linear", nbytes=32768))
        routed = execute_job(SimJob(fabspec, "bcast", 6, "linear", nbytes=32768))
        assert routed > flat
        # Purely intra-rack traffic is untouched.
        assert execute_job(
            SimJob(fabspec, "bcast", 5, "linear", nbytes=32768)
        ) == execute_job(SimJob(TWO_RACK, "bcast", 5, "linear", nbytes=32768))

    def test_oversubscription_ratio_orders_completion_times(self):
        mild = TWO_RACK.with_fabric(
            leaf_spine(TWO_RACK, nodes_per_rack=5, oversubscription=2)
        )
        harsh = TWO_RACK.with_fabric(
            leaf_spine(TWO_RACK, nodes_per_rack=5, oversubscription=32)
        )
        assert execute_job(SimJob(
            harsh, "bcast", 10, "binomial", nbytes=262144, segment_size=8192
        )) > execute_job(SimJob(
            mild, "bcast", 10, "binomial", nbytes=262144, segment_size=8192
        ))

    def test_parallel_uplinks_relieve_serialisation(self):
        single = TWO_RACK.with_fabric(
            leaf_spine(TWO_RACK, nodes_per_rack=5, oversubscription=32,
                       uplinks=1)
        )
        double = TWO_RACK.with_fabric(
            leaf_spine(TWO_RACK, nodes_per_rack=5, oversubscription=16,
                       uplinks=2)
        )
        # Same aggregate ratio per uplink count doubled: two parallel
        # links strictly help concurrent crossings (the linear root
        # sprays into the far rack).
        assert execute_job(
            SimJob(double, "bcast", 10, "linear", nbytes=262144)
        ) < execute_job(SimJob(single, "bcast", 10, "linear", nbytes=262144))

    def test_pod_tier_costs_more_than_rack_tier(self):
        spec = replace(MINICLUSTER, name="podded", nodes=16)
        fabric = fat_tree(
            spec, nodes_per_rack=4, pod_racks=2,
            rack_oversubscription=2.0, pod_oversubscription=4.0,
        )
        fabspec = spec.with_fabric(fabric)
        # 0->4 crosses racks inside one pod; 0->8 also crosses pods.
        intra_pod = execute_job(
            SimJob(fabspec, "bcast", 5, "linear", nbytes=65536)
        )
        del intra_pod  # smoke: runs and is quiescent
        assert execute_job(SimJob(
            fabspec, "bcast", 16, "binomial", nbytes=262144, segment_size=8192
        )) > execute_job(SimJob(
            spec, "bcast", 16, "binomial", nbytes=262144, segment_size=8192
        ))


class TestHierarchicalCollectives:
    def test_hierarchy_tree_is_valid_and_leader_first(self):
        group_of = [0, 0, 0, 1, 1, 1]
        tree = build_hierarchy_tree(group_of, root=0)
        tree.validate()
        assert tree.root == 0
        assert tree.size == 6
        # The inter-group edge to rank 3 (leader of group 1) is listed
        # before 0's intra-group children: uplink traffic starts first.
        assert tree.children[0][0] == 3

    def test_root_leads_its_own_group(self):
        tree = build_hierarchy_tree([0, 0, 1, 1], root=3)
        tree.validate()
        assert tree.root == 3
        assert 2 in tree.children[3]

    def test_hierarchical_bcast_runs_quiescent_on_all_shapes(self):
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        for procs in (2, 5, 7, 10):
            elapsed = execute_job(SimJob(
                fabspec, "bcast", procs, "hierarchical", nbytes=32768,
                segment_size=8192,
            ))
            assert elapsed > 0
        # Degenerate corners.
        assert execute_job(SimJob(
            fabspec, "bcast", 1, "hierarchical", nbytes=32768,
            segment_size=8192,
        )) == 0.0
        assert execute_job(SimJob(
            fabspec, "bcast", 4, "hierarchical", segment_size=8192
        )) == 0.0

    def test_hierarchical_reduce_runs_quiescent(self):
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        assert execute_job(SimJob(
            fabspec, "reduce", 10, "hierarchical", nbytes=32768,
            segment_size=8192, policy="root",
        )) > 0

    def test_hierarchical_crosses_each_uplink_once(self):
        # At P=10 on the harsh two-rack fabric the rack-leader broadcast
        # beats every flat algorithm that crosses the uplink repeatedly.
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        hier = execute_job(SimJob(
            fabspec, "bcast", 10, "hierarchical", nbytes=32768,
            segment_size=8192,
        ))
        for algorithm in ("binomial", "binary", "linear"):
            assert hier < execute_job(SimJob(
                fabspec, "bcast", 10, algorithm, nbytes=32768,
                segment_size=8192,
            ))

    def test_hierarchical_excluded_from_flat_defaults(self):
        from repro.collectives.bcast import PAPER_BCAST_ALGORITHMS
        from repro.collectives.reduce import DEFAULT_REDUCE_ALGORITHMS

        assert "hierarchical" not in PAPER_BCAST_ALGORITHMS
        assert "hierarchical" not in DEFAULT_REDUCE_ALGORITHMS


class TestBatchedEngineFallback:
    def test_batched_runner_matches_serial_on_fabric_specs(
        self, reference_runner
    ):
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        serial = build_acceptance_artifact(fabspec, runner=reference_runner)
        runner = ParallelRunner(jobs=1)
        try:
            batched = build_acceptance_artifact(fabspec, runner=runner)
        finally:
            runner.close()
        assert serial.content_hash() == batched.content_hash()


@pytest.fixture(scope="module")
def flat_artifact():
    return build_acceptance_artifact(TWO_RACK)


@pytest.fixture(scope="module")
def fabric_artifact():
    return build_acceptance_artifact(TWO_RACK.with_fabric(acceptance_fabric()))


class TestTopologyConditionedSelection:
    """The PR's acceptance scenario, end to end."""

    def test_fabric_table_differs_from_flat_and_hierarchical_wins(
        self, flat_artifact, fabric_artifact
    ):
        differing = [
            nbytes
            for nbytes in ACCEPTANCE_SIZES
            if fabric_artifact.select("bcast", 10, nbytes).algorithm
            != flat_artifact.select("bcast", 10, nbytes).algorithm
        ]
        assert differing, "conditioned table must differ from flat"
        hier_cells = [
            nbytes
            for nbytes in ACCEPTANCE_SIZES
            if fabric_artifact.select("bcast", 10, nbytes).algorithm
            == "hierarchical"
        ]
        assert hier_cells, "hierarchical must win at least one cell"

    def test_measured_oracle_agrees_at_the_hierarchical_cell(
        self, fabric_artifact
    ):
        fabspec = TWO_RACK.with_fabric(acceptance_fabric())
        algorithms = sorted(fabric_artifact.entries["bcast"].platform.algorithms)
        oracle = MeasuredOracle(fabspec, algorithms=algorithms, max_reps=4)
        cells = [
            nbytes
            for nbytes in ACCEPTANCE_SIZES
            if fabric_artifact.select("bcast", 10, nbytes).algorithm
            == "hierarchical"
        ]
        for nbytes in cells:
            best, _ = oracle.best(10, nbytes)
            assert best.algorithm == "hierarchical"

    def test_flat_artifact_never_picks_hierarchical(self, flat_artifact):
        algorithms = flat_artifact.entries["bcast"].platform.algorithms
        assert "hierarchical" not in algorithms

    def test_artifact_carries_the_fabric_name(
        self, flat_artifact, fabric_artifact
    ):
        assert fabric_artifact.fabric == "acceptance_32to1"
        assert fabric_artifact.payload()["fabric"] == "acceptance_32to1"
        assert "fabric" not in flat_artifact.payload()

    def test_artifact_round_trips_with_fabric(self, fabric_artifact, tmp_path):
        from repro.service.artifact import load_artifact

        path = fabric_artifact.save(tmp_path / "fabric.json")
        loaded = load_artifact(path)
        assert loaded.fabric == "acceptance_32to1"
        assert loaded.content_hash() == fabric_artifact.content_hash()
        loaded.verify()


class TestRegistryAndServerRouting:
    def test_registry_routes_by_fabric(self, flat_artifact, fabric_artifact):
        registry = ArtifactRegistry()
        registry.add(flat_artifact, "flat.json")
        registry.add(fabric_artifact, "fabric.json")
        assert registry.lookup("tworack", "bcast") is flat_artifact
        assert (
            registry.lookup("tworack", "bcast", "acceptance_32to1")
            is fabric_artifact
        )
        with pytest.raises(ArtifactError) as excinfo:
            registry.lookup("tworack", "bcast", "unknown_fabric")
        assert "acceptance_32to1" in str(excinfo.value)

    def test_server_routes_fabric_queries(
        self, flat_artifact, fabric_artifact, tmp_path
    ):
        flat_artifact.save(tmp_path / "flat.json")
        fabric_artifact.save(tmp_path / "fabric.json")
        service = SelectionService(ArtifactRegistry(tmp_path), cache_size=16)
        with ServiceThread(service) as handle:
            flat_answer = self._post(handle.port, {})
            fabric_answer = self._post(
                handle.port, {"fabric": "acceptance_32to1"}
            )
        assert flat_answer["artifact"] == flat_artifact.artifact_id
        assert "fabric" not in flat_answer
        assert fabric_answer["artifact"] == fabric_artifact.artifact_id
        assert fabric_answer["fabric"] == "acceptance_32to1"
        assert fabric_answer["algorithm"] == "hierarchical"

    @staticmethod
    def _post(port, extra):
        query = {
            "cluster": "tworack",
            "operation": "bcast",
            "procs": 10,
            "nbytes": 16384,
        }
        query.update(extra)
        conn = HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/select", json.dumps(query))
            response = conn.getresponse()
            assert response.status == 200
            return json.loads(response.read())
        finally:
            conn.close()


class TestCliFabricFlags:
    def test_artifact_build_rejects_unknown_fabric_with_listing(self, capsys):
        from repro.cli import main

        code = main([
            "artifact", "build", "--cluster", "minicluster",
            "--output", "/tmp/nonexistent-artifact.json",
            "--fabric", "bogus",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in available_fabrics():
            assert name in err

    def test_chaos_rejects_unknown_fabric(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "--cluster", "minicluster", "--fabric", "bogus",
        ])
        assert code == 1
        assert "available fabrics" in capsys.readouterr().err

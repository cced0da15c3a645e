"""Tests for the three selectors and the decision table."""

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import SelectionError
from repro.selection import (
    DecisionTable,
    MeasuredOracle,
    ModelBasedSelector,
    OmpiFixedSelector,
    Selection,
    build_decision_table,
    ompi_bcast_decision,
)
from repro.units import KiB, MiB


class TestSelection:
    def test_describe(self):
        assert "8 KB segments" in Selection("binary", 8 * KiB).describe()
        assert "no segmentation" in Selection("linear", 0).describe()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SelectionError):
            Selection("quantum_tree", 0)

    def test_negative_segment_rejected(self):
        with pytest.raises(SelectionError):
            Selection("binary", -1)


class TestOmpiFixedDecision:
    """Branch-by-branch checks against coll_tuned_decision_fixed.c."""

    def test_small_messages_use_binomial_unsegmented(self):
        for nbytes in (0, 1, 1024, 2047):
            assert ompi_bcast_decision(64, nbytes) == Selection("binomial", 0)

    def test_intermediate_messages_use_split_binary_1kb(self):
        for nbytes in (2048, 8 * KiB, 256 * KiB, 370727):
            choice = ompi_bcast_decision(90, nbytes)
            assert choice == Selection("split_binary", 1 * KiB)

    def test_paper_table3_boundary_512kb_is_chain_8kb(self):
        """At P=90/100 and m >= 512 KB the paper reports chain picks."""
        for procs in (90, 100):
            for nbytes in (512 * KiB, 1 * MiB, 4 * MiB):
                assert ompi_bcast_decision(procs, nbytes) == Selection(
                    "chain", 8 * KiB
                )

    def test_small_comm_large_message_uses_pipeline_128kb(self):
        # communicator_size < a_p128 * m + b_p128 for tiny communicators.
        choice = ompi_bcast_decision(2, 4 * MiB)
        assert choice == Selection("chain", 128 * KiB)

    def test_comm_below_13_uses_split_binary_8kb(self):
        # Pick m so that the p128 bound fails but size < 13.
        choice = ompi_bcast_decision(12, 400_000)
        assert choice == Selection("split_binary", 8 * KiB)

    def test_pipeline_64kb_band(self):
        # size 13..: between p128 and p64 boundaries.
        nbytes = 6_000_000
        procs = 13
        assert ompi_bcast_decision(procs, nbytes) == Selection("chain", 64 * KiB)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SelectionError):
            ompi_bcast_decision(0, 100)
        with pytest.raises(SelectionError):
            ompi_bcast_decision(4, -1)

    def test_selector_interface(self):
        selector = OmpiFixedSelector()
        assert selector.select(90, 8 * KiB) == Selection("split_binary", 1 * KiB)


class TestModelBasedSelector:
    def test_selects_minimum_prediction(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        procs, nbytes = 12, 128 * KiB
        choice = selector.select(procs, nbytes)
        predictions = selector.predictions(procs, nbytes)
        assert predictions[choice.algorithm] == min(predictions.values())

    def test_segmented_choice_carries_segment_size(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        choice, predicted = selector.select_with_prediction(12, 512 * KiB)
        if choice.algorithm == "linear":
            assert choice.segment_size == 0
        else:
            assert choice.segment_size == mini_platform.segment_size
        assert predicted > 0

    def test_never_selects_linear_at_scale(self, mini_platform):
        """Linear is dominated for large P and m on any sane platform."""
        selector = ModelBasedSelector(mini_platform)
        assert selector.select(16, 1 * MiB).algorithm != "linear"

    def test_empty_platform_rejected(self):
        from repro.estimation.workflow import PlatformModel
        from repro.models.gamma import GammaFunction

        empty = PlatformModel(
            cluster="x", segment_size=8 * KiB,
            gamma=GammaFunction.ideal(), parameters={},
        )
        with pytest.raises(SelectionError):
            ModelBasedSelector(empty)


class TestMeasuredOracle:
    def test_best_is_minimum_of_sweep(self):
        oracle = MeasuredOracle(MINICLUSTER, max_reps=3)
        procs, nbytes = 8, 64 * KiB
        sweep = oracle.sweep(procs, nbytes)
        choice, best_time = oracle.best(procs, nbytes)
        assert best_time == min(sweep.values())
        assert sweep[choice.algorithm] == best_time

    def test_measurements_memoised(self):
        oracle = MeasuredOracle(MINICLUSTER, max_reps=3)
        first = oracle.measure(6, 32 * KiB, "binary")
        assert oracle.measure(6, 32 * KiB, "binary") == first
        assert (6, 32 * KiB, "binary", oracle.segment_size) in oracle._cache

    def test_degradation_of_best_is_zero(self):
        oracle = MeasuredOracle(MINICLUSTER, max_reps=3)
        choice, _ = oracle.best(8, 64 * KiB)
        assert oracle.degradation(8, 64 * KiB, choice) == pytest.approx(0.0)

    def test_degradation_positive_for_bad_choice(self):
        oracle = MeasuredOracle(MINICLUSTER, max_reps=3)
        bad = Selection("linear", 0)
        if oracle.best(16, 1 * MiB)[0] != bad:
            assert oracle.degradation(16, 1 * MiB, bad) > 0

    def test_custom_segment_size_measured(self):
        oracle = MeasuredOracle(MINICLUSTER, max_reps=3)
        coarse = oracle.measure_selection(8, 1 * MiB, Selection("chain", 64 * KiB))
        fine = oracle.measure_selection(8, 1 * MiB, Selection("chain", 8 * KiB))
        assert coarse != fine

    #: Each operation's default candidates and segment size.
    DEFAULTS = {
        "bcast": (["binary", "binomial", "chain", "k_chain", "linear",
                   "split_binary"], 8 * KiB),
        "reduce": (["binary", "binomial", "chain", "in_order_binomial",
                    "linear"], 8 * KiB),
        "gather": (["binomial", "linear"], 0),
        "barrier": (["bruck", "double_ring", "linear", "recursive_doubling"],
                    0),
        "allreduce": (["recursive_doubling", "ring"], 0),
        "allgather": (["bruck", "neighbor_exchange", "recursive_doubling",
                       "ring"], 0),
        "alltoall": (["bruck", "linear", "pairwise"], 0),
        "scatter": (["binomial", "linear"], 0),
    }

    @pytest.mark.parametrize("operation", sorted(DEFAULTS))
    def test_default_candidates_and_segmentation(self, operation):
        """Pinned per operation: extension algorithms (hierarchical,
        scatter_allgather) stay opt-in, unsegmented operations force 0."""
        oracle = MeasuredOracle(MINICLUSTER, operation=operation)
        assert (oracle.algorithms, oracle.segment_size) == (
            self.DEFAULTS[operation]
        )

    def test_unknown_operation_refused(self):
        with pytest.raises(SelectionError, match="no measured oracle"):
            MeasuredOracle(MINICLUSTER, operation="scan")


class TestDecisionTable:
    def test_build_and_lookup(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        table = build_decision_table(
            selector, [2, 4, 8, 16], [8 * KiB, 64 * KiB, 1 * MiB]
        )
        direct = selector.select(8, 64 * KiB)
        assert table.select(8, 64 * KiB) == direct

    def test_floor_lookup_semantics(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        table = build_decision_table(selector, [4, 8], [8 * KiB, 1 * MiB])
        # Off-grid points floor to the nearest grid point below.
        assert table.select(11, 100 * KiB) == table.select(8, 8 * KiB)
        # Below the grid clamps to the first point.
        assert table.select(2, 1024) == table.select(4, 8 * KiB)

    def test_json_round_trip(self, mini_platform, tmp_path):
        selector = ModelBasedSelector(mini_platform)
        table = build_decision_table(selector, [2, 8], [8 * KiB, 1 * MiB])
        path = tmp_path / "table.json"
        table.save(path)
        loaded = DecisionTable.load(path)
        assert loaded == table

    def test_empty_grid_rejected(self):
        with pytest.raises(SelectionError):
            DecisionTable(proc_points=(), size_points=(1,), choices=())

    def test_unsorted_grid_rejected(self):
        with pytest.raises(SelectionError):
            DecisionTable(
                proc_points=(4, 2),
                size_points=(1,),
                choices=((Selection("binary", 0),), (Selection("binary", 0),)),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SelectionError):
            DecisionTable(
                proc_points=(2, 4),
                size_points=(1,),
                choices=((Selection("binary", 0),),),
            )


class TestOmpiReduceDecision:
    """Port checks for ompi_coll_tuned_reduce_intra_dec_fixed."""

    def test_small_comm_tiny_message_is_binomial_1k(self):
        from repro.selection.ompi_fixed import ompi_reduce_decision

        choice = ompi_reduce_decision(4, 1024)
        assert choice == Selection("binomial", 1 * KiB, operation="reduce")

    def test_linear_region_grows_with_message_size(self):
        """The (in)famous property of the fixed reduce decision: the linear
        boundary a1*m + b1 overtakes any fixed communicator size, so large
        messages fall back to linear reduce."""
        from repro.selection.ompi_fixed import ompi_reduce_decision

        assert ompi_reduce_decision(100, 4 * MiB).algorithm == "linear"
        assert ompi_reduce_decision(100, 8 * KiB).algorithm == "chain"

    def test_pipeline_band_for_large_comms_small_messages(self):
        from repro.selection.ompi_fixed import ompi_reduce_decision

        choice = ompi_reduce_decision(100, 16 * KiB)
        assert choice.algorithm == "chain"
        assert choice.operation == "reduce"

    def test_selector_interface_operations(self):
        selector = OmpiFixedSelector(operation="reduce")
        assert selector.select(100, 8 * KiB).operation == "reduce"
        with pytest.raises(SelectionError):
            OmpiFixedSelector(operation="reduce_scatter")

    def test_invalid_inputs_rejected(self):
        from repro.selection.ompi_fixed import ompi_reduce_decision

        with pytest.raises(SelectionError):
            ompi_reduce_decision(0, 100)
        with pytest.raises(SelectionError):
            ompi_reduce_decision(4, -1)


class TestSelectWithSegments:
    def test_joint_selection_at_least_as_good_as_fixed(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        procs, nbytes = 12, 512 * KiB
        _fixed = selector.select(procs, nbytes)
        _, fixed_predicted = selector.select_with_prediction(procs, nbytes)
        joint, joint_predicted = selector.select_with_segments(
            procs, nbytes, (1 * KiB, 8 * KiB, 64 * KiB)
        )
        assert joint_predicted <= fixed_predicted + 1e-15
        assert joint.segment_size in (0, 1 * KiB, 8 * KiB, 64 * KiB)

    def test_unsegmented_algorithms_participate_with_zero(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        joint, _ = selector.select_with_segments(2, 1 * KiB, (8 * KiB,))
        if joint.algorithm == "linear":
            assert joint.segment_size == 0

    def test_prediction_matches_platform(self, mini_platform):
        selector = ModelBasedSelector(mini_platform)
        joint, predicted = selector.select_with_segments(
            10, 256 * KiB, (4 * KiB, 8 * KiB)
        )
        direct = mini_platform.predict(
            joint.algorithm, 10, 256 * KiB, segment_size=joint.segment_size
        )
        assert predicted == pytest.approx(direct)

"""Tests for the paper's two estimation procedures (§4.1, §4.2)."""

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import EstimationError
from repro.estimation.alphabeta import estimate_alpha_beta
from repro.estimation.gamma import estimate_gamma
from repro.models.derived import (
    BinomialTreeModel,
    ChainTreeModel,
    LinearTreeModel,
)
from repro.models.gamma import GammaFunction
from repro.units import KiB


@pytest.fixture(scope="module")
def mini_gamma():
    return estimate_gamma(MINICLUSTER, max_procs=6)


class TestGammaEstimation:
    def test_gamma_2_is_exactly_one(self, mini_gamma):
        assert mini_gamma.table[2] == 1.0

    def test_gamma_increases_with_procs(self, mini_gamma):
        values = [mini_gamma.table[p] for p in sorted(mini_gamma.table)]
        assert values == sorted(values)
        assert values[-1] > 1.0

    def test_gamma_bounded_by_p_minus_1(self, mini_gamma):
        """Paper Eq. 1: the linear bcast is at most (P-1) p2p times."""
        for procs, value in mini_gamma.table.items():
            assert 1.0 <= value <= procs - 1 + 1e-9

    def test_function_returns_gamma_function(self, mini_gamma):
        gamma = mini_gamma.function()
        assert isinstance(gamma, GammaFunction)
        assert gamma(4) == pytest.approx(mini_gamma.table[4])

    def test_near_linear_in_procs(self, mini_gamma):
        """The paper's observation enabling linear extrapolation."""
        gamma = mini_gamma.function()
        intercept, slope = gamma.regression_line()
        for procs, value in mini_gamma.table.items():
            assert intercept + slope * procs == pytest.approx(value, abs=0.08)

    def test_paper_method_also_monotone(self):
        estimate = estimate_gamma(
            MINICLUSTER, max_procs=4, method="paper", calls=4
        )
        values = [estimate.table[p] for p in sorted(estimate.table)]
        assert values == sorted(values)

    def test_unknown_method_rejected(self):
        with pytest.raises(EstimationError):
            estimate_gamma(MINICLUSTER, method="psychic")

    def test_too_many_procs_rejected(self):
        with pytest.raises(EstimationError):
            estimate_gamma(MINICLUSTER, max_procs=MINICLUSTER.max_procs + 1)

    def test_deterministic_given_seed(self):
        a = estimate_gamma(MINICLUSTER, max_procs=4, seed=5)
        b = estimate_gamma(MINICLUSTER, max_procs=4, seed=5)
        assert a.table == b.table


class TestAlphaBetaEstimation:
    @pytest.fixture(scope="class")
    def gamma_fn(self):
        return estimate_gamma(MINICLUSTER, max_procs=6).function()

    def test_fit_produces_positive_stage_cost(self, gamma_fn):
        """Only tau = alpha + beta*m_s is identifiable for segmented
        algorithms (the paper's own Table 2 shows near-zero alphas with
        beta carrying the stage cost); the fit must produce a positive,
        sane per-stage time."""
        estimate = estimate_alpha_beta(
            MINICLUSTER,
            ChainTreeModel(gamma_fn),
            procs=8,
            sizes=[8 * KiB, 32 * KiB, 128 * KiB, 512 * KiB],
        )
        stage_cost = estimate.params.p2p_time(8 * KiB)
        assert 0 < stage_cost < 1e-3
        assert estimate.alpha >= 0 and estimate.beta >= 0

    def test_prediction_tracks_measurement_for_own_algorithm(self, gamma_fn):
        """In-context parameters make each model track the measured time of
        its own algorithm to within a small factor at interpolated sizes.

        The chain model is the structurally weakest (its single per-stage
        cost must cover both the hop latency and the pipeline rate — a
        limitation the paper's Eq.-style models share), so it only gets a
        conservative upper-bound check.
        """
        from repro.exec.job import SimJob, execute_job
        from repro.models.derived import BinaryTreeModel

        sizes = [8 * KiB, 32 * KiB, 128 * KiB, 512 * KiB, 1024 * KiB]
        binary = BinaryTreeModel(gamma_fn)
        estimate = estimate_alpha_beta(MINICLUSTER, binary, procs=8, sizes=sizes)
        for nbytes in (64 * KiB, 256 * KiB):  # sizes not used in the fit
            predicted = binary.predict(8, nbytes, 8 * KiB, estimate.params)
            measured = execute_job(SimJob(
                MINICLUSTER, "bcast", 8, "binary", nbytes=nbytes,
                segment_size=8 * KiB,
            ))
            assert 0.4 < predicted / measured < 1.8

        chain = ChainTreeModel(gamma_fn)
        estimate = estimate_alpha_beta(MINICLUSTER, chain, procs=8, sizes=sizes)
        for nbytes in (64 * KiB, 1024 * KiB):
            predicted = chain.predict(8, nbytes, 8 * KiB, estimate.params)
            measured = execute_job(SimJob(
                MINICLUSTER, "bcast", 8, "chain", nbytes=nbytes,
                segment_size=8 * KiB,
            ))
            # The latency-split pipeline model tracks within a factor ~2 at
            # every scale (the textbook single-tau form drifted to 4x).
            assert 0.5 < predicted / measured < 2.0

    def test_different_algorithms_get_different_parameters(self, gamma_fn):
        """Paper §5.2: the fitted point-to-point cost depends on the
        algorithm's context; compare the effective stage cost at m_s."""
        sizes = [8 * KiB, 64 * KiB, 512 * KiB]
        linear = estimate_alpha_beta(
            MINICLUSTER, LinearTreeModel(gamma_fn), procs=8, sizes=sizes
        )
        binomial = estimate_alpha_beta(
            MINICLUSTER, BinomialTreeModel(gamma_fn), procs=8, sizes=sizes
        )
        assert linear.params.p2p_time(8 * KiB) != pytest.approx(
            binomial.params.p2p_time(8 * KiB), rel=0.05
        )

    def test_canonical_points_recorded(self, gamma_fn):
        sizes = [8 * KiB, 64 * KiB, 256 * KiB]
        estimate = estimate_alpha_beta(
            MINICLUSTER, ChainTreeModel(gamma_fn), procs=6, sizes=sizes
        )
        assert len(estimate.points) == 3
        xs = [x for x, _ in estimate.points]
        assert xs == sorted(xs)  # larger m -> larger canonical x

    def test_gather_bytes_callable(self, gamma_fn):
        estimate = estimate_alpha_beta(
            MINICLUSTER,
            ChainTreeModel(gamma_fn),
            procs=6,
            sizes=[8 * KiB, 64 * KiB, 256 * KiB],
            gather_bytes=lambda m: max(1024, m // 128),
        )
        assert estimate.params.p2p_time(8 * KiB) > 0

    def test_needs_two_sizes(self, gamma_fn):
        with pytest.raises(EstimationError):
            estimate_alpha_beta(
                MINICLUSTER, ChainTreeModel(gamma_fn), procs=6, sizes=[8 * KiB]
            )

    def test_procs_default_is_half_cluster(self, gamma_fn):
        estimate = estimate_alpha_beta(
            MINICLUSTER,
            ChainTreeModel(gamma_fn),
            sizes=[8 * KiB, 64 * KiB],
        )
        assert estimate.beta >= 0  # ran without an explicit procs

    def test_invalid_procs_rejected(self, gamma_fn):
        with pytest.raises(EstimationError):
            estimate_alpha_beta(
                MINICLUSTER,
                ChainTreeModel(gamma_fn),
                procs=1,
                sizes=[8 * KiB, 64 * KiB],
            )

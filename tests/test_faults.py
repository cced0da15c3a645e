"""Tests for the deterministic fault-injection layer (repro.faults).

Load-bearing properties:

* a disabled plan is *exactly* the no-fault path: same spec fingerprint,
  same timings, bit for bit;
* an enabled plan changes the fingerprint, so faulty results get their
  own cache keys;
* every fault kind has the advertised effect (stragglers/links slow the
  right transfers, loss costs timeouts, heavy tails jitter) and all of it
  is deterministic: same ``(cluster, plan, seed)`` → identical floats,
  serial or in a worker pool.
"""

from __future__ import annotations

import math

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import FaultError
from repro.exec import ParallelRunner, SimJob, execute_job
from repro.faults import (
    CompositeNoise,
    FaultPlan,
    HeavyTailSpec,
    LinkFault,
    MessageLoss,
    MixtureNoise,
    ParetoNoise,
    StragglerFault,
    compose_noise,
    make_fault_noise,
)
from repro.sim.noise import LognormalNoise, NoNoise
from repro.units import KiB


def bcast_time(spec, *, algorithm="binomial", procs=8, nbytes=64 * KiB, seed=0):
    return execute_job(SimJob(
        spec, "bcast", procs, algorithm, nbytes=nbytes, segment_size=8 * KiB,
        seed=seed,
    ))


STRAGGLER_PLAN = FaultPlan(
    stragglers=(StragglerFault(node=2, inject_factor=2.0, compute_factor=1.5),),
)


class TestPlanValidation:
    def test_duplicate_straggler_nodes_rejected(self):
        with pytest.raises(FaultError, match="duplicate straggler"):
            FaultPlan(stragglers=(
                StragglerFault(node=1, inject_factor=2.0),
                StragglerFault(node=1, compute_factor=2.0),
            ))

    @pytest.mark.parametrize("kwargs", [
        dict(node=-1), dict(node=0, inject_factor=0.5),
        dict(node=0, compute_factor=0.9),
    ])
    def test_bad_straggler_rejected(self, kwargs):
        with pytest.raises(FaultError):
            StragglerFault(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(src=-1, dst=0), dict(src=0, dst=1, latency_factor=0.5),
        dict(src=0, dst=1, start=5.0, end=1.0),
        dict(src=0, dst=1, on_fraction=1.5), dict(src=0, dst=1, period=-1),
    ])
    def test_bad_link_rejected(self, kwargs):
        with pytest.raises(FaultError):
            LinkFault(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(rate=1.0, timeout=1e-3), dict(rate=-0.1, timeout=1e-3),
        dict(rate=0.1, timeout=-1.0), dict(rate=0.1, timeout=1e-3, max_retries=-1),
    ])
    def test_bad_loss_rejected(self, kwargs):
        with pytest.raises(FaultError):
            MessageLoss(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="gaussian"), dict(tail_index=1.0), dict(sigma=-0.1),
        dict(spike_probability=2.0), dict(spike_scale=0.5),
    ])
    def test_bad_heavy_tail_rejected(self, kwargs):
        with pytest.raises(FaultError):
            HeavyTailSpec(**kwargs)


class TestPlanSerialization:
    FULL = FaultPlan(
        stragglers=(StragglerFault(node=3, inject_factor=1.5),),
        links=(LinkFault(src=0, dst=3, latency_factor=2.0, byte_factor=1.5,
                         start=1e-3, period=2e-3, on_fraction=0.5),),
        loss=MessageLoss(rate=0.05, timeout=2e-3, max_retries=3),
        noise=HeavyTailSpec(kind="mixture", sigma=0.01),
        salt=7,
    )

    def test_payload_roundtrip_exact(self):
        assert FaultPlan.from_payload(self.FULL.payload()) == self.FULL

    def test_infinite_window_survives_json(self):
        restored = FaultPlan.from_payload(self.FULL.payload())
        assert math.isinf(restored.links[0].end)

    def test_fingerprint_stable_and_sensitive(self):
        assert self.FULL.fingerprint() == self.FULL.fingerprint()
        assert STRAGGLER_PLAN.fingerprint() != self.FULL.fingerprint()
        salted = FaultPlan(stragglers=self.FULL.stragglers, salt=8)
        base = FaultPlan(stragglers=self.FULL.stragglers, salt=7)
        assert salted.fingerprint() != base.fingerprint()

    def test_enabled(self):
        assert not FaultPlan().enabled()
        assert FaultPlan(salt=9).enabled() is False  # salt alone is inert
        assert STRAGGLER_PLAN.enabled()


class TestDisabledPlanIsNoFaultPath:
    def test_fingerprint_unchanged(self):
        assert (MINICLUSTER.with_faults(FaultPlan()).fingerprint()
                == MINICLUSTER.fingerprint())

    def test_timings_bit_identical(self):
        inert = MINICLUSTER.with_faults(FaultPlan())
        for algorithm in ("binomial", "chain", "linear"):
            assert (bcast_time(inert, algorithm=algorithm)
                    == bcast_time(MINICLUSTER, algorithm=algorithm))

    def test_enabled_plan_changes_fingerprint(self):
        faulted = MINICLUSTER.with_faults(STRAGGLER_PLAN)
        assert faulted.fingerprint() != MINICLUSTER.fingerprint()
        # ...and SimJob fingerprints follow, so caches never mix results.
        job = dict(kind="bcast", procs=8, algorithm="binomial",
                   nbytes=8 * KiB, segment_size=0, seed=0)
        assert (SimJob(spec=faulted, **job).fingerprint()
                != SimJob(spec=MINICLUSTER, **job).fingerprint())


class TestStragglers:
    # One straggler node per algorithm, chosen on that tree's critical
    # path at P=8: the chain pipelines through every rank, the binomial
    # critical path runs 0 -> 4 -> 6 -> 7, the binary one 0 -> 1 -> 3 -> 7.
    @pytest.mark.parametrize("algorithm, node", [
        ("chain", 2), ("binomial", 4), ("binary", 1),
    ])
    def test_critical_path_straggler_slows_broadcast(self, algorithm, node):
        plan = FaultPlan(stragglers=(
            StragglerFault(node=node, inject_factor=2.0, compute_factor=1.5),
        ))
        faulted = MINICLUSTER.with_faults(plan)
        assert (bcast_time(faulted, algorithm=algorithm)
                > bcast_time(MINICLUSTER, algorithm=algorithm))

    def test_leaf_straggler_invisible_to_linear(self):
        # In the linear tree only the root sends; a non-root straggler's
        # injection slowdown cannot surface.
        faulted = MINICLUSTER.with_faults(STRAGGLER_PLAN)
        assert (bcast_time(faulted, algorithm="linear")
                == bcast_time(MINICLUSTER, algorithm="linear"))

    def test_straggler_on_unused_node_is_inert(self):
        plan = FaultPlan(stragglers=(
            StragglerFault(node=15, inject_factor=3.0, compute_factor=3.0),
        ))
        faulted = MINICLUSTER.with_faults(plan)
        assert bcast_time(faulted, procs=8) == bcast_time(MINICLUSTER, procs=8)


class TestLinks:
    def test_degraded_link_slows_crossing_messages(self):
        plan = FaultPlan(links=(
            LinkFault(src=0, dst=1, latency_factor=4.0, byte_factor=2.0),
        ))
        faulted = MINICLUSTER.with_faults(plan)
        assert bcast_time(faulted, algorithm="linear") > bcast_time(
            MINICLUSTER, algorithm="linear")

    def test_unused_link_is_inert(self):
        plan = FaultPlan(links=(
            LinkFault(src=14, dst=15, latency_factor=4.0),
        ))
        faulted = MINICLUSTER.with_faults(plan)
        assert (bcast_time(faulted, procs=8)
                == bcast_time(MINICLUSTER, procs=8))

    def test_flapping_windows(self):
        fault = LinkFault(src=0, dst=1, latency_factor=2.0,
                          start=1.0, end=5.0, period=1.0, on_fraction=0.25)
        assert not fault.active(0.5)       # before the window
        assert fault.active(1.1)           # first quarter of a period: on
        assert not fault.active(1.9)       # rest of the period: off
        assert fault.active(3.2)
        assert not fault.active(6.0)       # after the window
        always = LinkFault(src=0, dst=1, latency_factor=2.0)
        assert always.active(0.0) and always.active(1e9)


class TestMessageLoss:
    PLAN = FaultPlan(loss=MessageLoss(rate=0.2, timeout=1e-3, max_retries=4))

    def test_loss_costs_time_and_is_deterministic(self):
        faulted = MINICLUSTER.with_faults(self.PLAN)
        lossy = bcast_time(faulted, seed=3)
        assert lossy > bcast_time(MINICLUSTER, seed=3)
        assert lossy == bcast_time(faulted, seed=3)  # replays exactly

    def test_loss_realisation_depends_on_seed_and_salt(self):
        faulted = MINICLUSTER.with_faults(self.PLAN)
        assert bcast_time(faulted, seed=3) != bcast_time(faulted, seed=4)
        salted = MINICLUSTER.with_faults(
            FaultPlan(loss=self.PLAN.loss, salt=1))
        assert bcast_time(salted, seed=3) != bcast_time(faulted, seed=3)

    def test_world_counts_lost_messages(self):
        from repro.collectives.bcast import BCAST_ALGORITHMS

        faulted = MINICLUSTER.with_faults(self.PLAN)
        world = faulted.make_world(8, seed=3)
        algorithm = BCAST_ALGORITHMS["binomial"]

        def body(comm):
            yield from algorithm(comm, 0, 64 * KiB, 8 * KiB)

        world.run(body)
        assert world.fabric.messages_lost > 0


class TestHeavyTailNoise:
    def test_pareto_factors_unit_mean(self):
        noise = ParetoNoise(tail_index=2.5, seed=1)
        mean = sum(noise.factor() for _ in range(20000)) / 20000
        assert mean == pytest.approx(1.0, rel=0.05)
        assert all(noise.factor() > 0 for _ in range(100))

    def test_mixture_factors_unit_mean_with_spikes(self):
        noise = MixtureNoise(sigma=0.02, spike_probability=0.05,
                             spike_scale=5.0, tail_index=2.5, seed=1)
        samples = [noise.factor() for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.05)
        assert max(samples) > 2.0  # the spikes are really there

    def test_reseed_replays_stream(self):
        noise = ParetoNoise(tail_index=2.0, seed=9)
        first = [noise.factor() for _ in range(5)]
        noise.reseed(9)
        assert [noise.factor() for _ in range(5)] == first

    def test_compose_noise_shapes(self):
        assert isinstance(compose_noise(0.0, None, seed=0), NoNoise)
        assert isinstance(compose_noise(0.02, None, seed=0), LognormalNoise)
        assert isinstance(
            compose_noise(0.0, HeavyTailSpec(kind="pareto"), seed=0),
            ParetoNoise,
        )
        both = compose_noise(0.02, HeavyTailSpec(kind="pareto"), seed=0)
        assert isinstance(both, CompositeNoise)

    def test_make_fault_noise_dispatch(self):
        assert isinstance(
            make_fault_noise(HeavyTailSpec(kind="pareto"), seed=0), ParetoNoise)
        assert isinstance(
            make_fault_noise(HeavyTailSpec(kind="mixture"), seed=0), MixtureNoise)

    def test_heavy_tail_run_varies_by_seed_not_by_repeat(self):
        faulted = MINICLUSTER.with_faults(
            FaultPlan(noise=HeavyTailSpec(kind="mixture", sigma=0.05)))
        a, b = bcast_time(faulted, seed=1), bcast_time(faulted, seed=2)
        assert a != b
        assert bcast_time(faulted, seed=1) == a


class TestDeterminismAcrossWorkers:
    """Same (cluster, FaultPlan, seed): serial == parallel, bit for bit."""

    PLAN = FaultPlan(
        stragglers=(StragglerFault(node=4, inject_factor=1.3),),
        links=(LinkFault(src=0, dst=2, latency_factor=1.5),),
        loss=MessageLoss(rate=0.1, timeout=5e-4),
        noise=HeavyTailSpec(kind="mixture", sigma=0.02),
    )

    def test_serial_vs_pool_bit_identical(self):
        faulted = MINICLUSTER.with_faults(self.PLAN)
        batch = [
            SimJob(spec=faulted, kind="bcast", procs=8, algorithm=algorithm,
                   nbytes=64 * KiB, segment_size=8 * KiB, seed=seed)
            for algorithm in ("binomial", "chain", "split_binary")
            for seed in (0, 1)
        ]
        serial = ParallelRunner(jobs=1)
        parallel = ParallelRunner(jobs=2)
        try:
            assert serial.run(batch) == parallel.run(batch)
        finally:
            serial.close()
            parallel.close()


class TestChaosHelpers:
    def test_severity_zero_plan_is_disabled(self):
        from repro.bench.chaos import severity_plan

        assert not severity_plan(MINICLUSTER, 8, 0.0).enabled()

    def test_severity_scales_straggler(self):
        from repro.bench.chaos import severity_plan, straggler_node

        plan = severity_plan(MINICLUSTER, 8, 0.02)
        (straggler,) = plan.stragglers
        assert straggler.node == straggler_node(MINICLUSTER, 8)
        assert straggler.inject_factor == pytest.approx(1.2)
        assert straggler.compute_factor == pytest.approx(1.1)

    def test_negative_severity_rejected(self):
        from repro.bench.chaos import severity_plan
        from repro.errors import EstimationError

        with pytest.raises(EstimationError):
            severity_plan(MINICLUSTER, 8, -0.1)

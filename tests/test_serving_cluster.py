"""Integration tests for the multi-replica cluster simulator."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.analysis.perf import cluster_fingerprint, run_snapshot
from repro.hardware.platform import paper_platforms
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, ReplicaCrash
from repro.serving.routing import (
    REASON_EXCEEDS_CAPACITY,
    REASON_SATURATED,
    ReplicaView,
    Router,
    RoutingDecision,
    create_router,
)
from repro.serving.server import ServingSimulator
from repro.serving.sla import SLASpec
from repro.serving.throttle import OverloadThrottle
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.interactions import generate_interactions
from repro.workloads.sharegpt import generate_sharegpt_workload
from repro.workloads.spec import RequestSpec, Workload
from repro.workloads.tenants import assign_tenants, generate_tenant_population
from tests.conftest import make_workload
from tests.helpers import assert_conservation, assert_rng_stream_identity

SLA = SLASpec(ttft_limit=10.0, mtpot_limit=1.5)


def make_cluster(
    platform_7b,
    router: Router | str = "round-robin",
    num_replicas: int = 4,
    capacity: int = 2048,
    **kwargs,
) -> ClusterSimulator:
    return ClusterSimulator(
        platform=platform_7b,
        num_replicas=num_replicas,
        router=router,
        scheduler_name=kwargs.pop("scheduler_name", "conservative"),
        token_capacity_override=capacity,
        **kwargs,
    )


def rejecting_router(name: str = "round-robin") -> Router:
    """A router that turns arrivals away while every replica is saturated."""
    return create_router(name, reject_when_saturated=True)


def stamped_workload(num_requests: int = 24, prompt: int = 48, output: int = 4) -> Workload:
    """Workload whose requests all arrive at t=0 (maximum routing pressure)."""
    specs = [
        RequestSpec(
            request_id=f"c-{i}",
            input_length=prompt,
            output_length=output,
            max_new_tokens=output,
            arrival_time=0.0,
        )
        for i in range(num_requests)
    ]
    return Workload(name="cluster-test", requests=specs)


class TestClusterRuns:
    def test_closed_loop_serves_every_request(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        assert result.completed
        assert result.submitted_requests == 32
        assert len(result.finished_requests) == 32
        assert not result.rejected

    def test_round_robin_spreads_requests_evenly(self, platform_7b):
        cluster = make_cluster(platform_7b, router="round-robin")
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=4)
        assert [len(r.requests) for r in result.replicas] == [8, 8, 8, 8]

    def test_open_loop_with_recorded_arrivals(self, platform_7b):
        cluster = make_cluster(platform_7b, router="least-outstanding")
        result = cluster.run_open_loop(stamped_workload())
        assert result.completed
        assert len(result.finished_requests) == 24

    def test_memory_aware_cluster_run(self, platform_7b):
        workload = assign_bursty_arrivals(
            make_workload(num_requests=40), base_rate=2.0, burst_rate=50.0, seed=3
        )
        cluster = make_cluster(platform_7b, router="memory-aware")
        result = cluster.run_open_loop(workload)
        assert result.completed
        assert len(result.finished_requests) == 40

    def test_single_replica_matches_single_engine_simulator(self, platform_7b):
        # ServingSimulator is a one-replica cluster that places arrivals
        # directly; a routed one-replica cluster must produce exactly the
        # same run, so direct placement is a pure shortcut.
        population = generate_tenant_population(2, abusive_users=1, abusive_share=0.9)
        workload = assign_tenants(make_workload(num_requests=30), population, seed=7)
        interactions = generate_interactions(
            10, seed=3, mean_prompt_tokens=64, mean_output_tokens=24, max_turns=4, num_users=2
        )
        runs = {
            "closed": lambda sim: sim.run_closed_loop(workload, num_clients=4),
            "open": lambda sim: sim.run_open_loop(workload, request_rate=20.0, seed=5),
            "sessions": lambda sim: sim.run_sessions(interactions),
        }
        for (mode, run), throttled, prefix, fast in itertools.product(
            runs.items(), (False, True), (False, True), (False, True)
        ):
            case = (mode, throttled, prefix, fast)
            options = dict(
                token_capacity_override=1024,
                fast_path=fast,
                prefix_cache_tokens=256 if prefix else None,
            )
            single = run(
                ServingSimulator(
                    platform_7b,
                    create_scheduler("past-future", seed=1),
                    throttle=OverloadThrottle(user_rpm=5) if throttled else None,
                    **options,
                )
            )
            fleet = run(
                ClusterSimulator(
                    platform=platform_7b,
                    num_replicas=1,
                    router="round-robin",
                    scheduler_kwargs={"seed": 1},
                    throttle=OverloadThrottle(user_rpm=5) if throttled else None,
                    **options,
                )
            )
            replica = dataclasses.replace(
                fleet.replicas[0], rejected=fleet.rejected, reject_reasons=fleet.reject_reasons
            )
            assert single.completed, case
            assert bool(single.rejected) == throttled, case
            assert run_snapshot(single) == run_snapshot(replica), case

    def test_replica_clocks_resume_at_arrival_time(self, platform_7b):
        # A lone late request must not be served in the past.
        spec = RequestSpec(
            request_id="late", input_length=8, output_length=4, max_new_tokens=8, arrival_time=5.0
        )
        cluster = make_cluster(platform_7b, num_replicas=2)
        result = cluster.run_open_loop(Workload(name="late", requests=[spec]))
        (request,) = result.finished_requests
        assert request.first_token_time is not None
        assert request.first_token_time >= 5.0
        assert result.duration >= 5.0


class TestConservation:
    def test_requests_conserved_without_rejection(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_open_loop(stamped_workload())
        assert result.routed_requests + len(result.rejected) == result.submitted_requests == 24

    def test_requests_conserved_with_rejection(self, platform_7b):
        # Capacity 64 and 48-token prompts: one admitted plus one queued
        # request saturates a replica, so most of a 24-request instant burst
        # must be rejected — and every request is still accounted for.
        cluster = make_cluster(platform_7b, router=rejecting_router(), capacity=64)
        result = cluster.run_open_loop(stamped_workload())
        assert result.rejected
        assert result.routed_requests + len(result.rejected) == result.submitted_requests == 24
        assert len(result.finished_requests) == result.routed_requests
        summary = result.fleet_summary(SLA)
        assert summary.submitted_requests == 24
        assert summary.rejected_requests == len(result.rejected)

    def test_closed_loop_rejection_does_not_deadlock(self, platform_7b):
        cluster = make_cluster(platform_7b, router=rejecting_router(), capacity=64)
        result = cluster.run_closed_loop(
            make_workload(num_requests=32, input_length=48, output_length=4, max_new_tokens=8),
            num_clients=16,
        )
        assert result.submitted_requests == 32
        # Load shedding must not cascade: rejected clients retry only once the
        # fleet can route again, so a solid share of the workload is served
        # even though 16 concurrent clients genuinely oversubscribe the pools.
        assert len(result.finished_requests) >= 16

    def test_closed_loop_rejection_off_at_feasible_load(self, platform_7b):
        # The same fleet serves everything once concurrency fits capacity.
        cluster = make_cluster(platform_7b, router=rejecting_router(), capacity=64)
        result = cluster.run_closed_loop(
            make_workload(num_requests=32, input_length=48, output_length=4, max_new_tokens=8),
            num_clients=4,
        )
        assert len(result.finished_requests) == 32
        assert not result.rejected


class TestFleetAggregates:
    def test_fleet_goodput_at_least_worst_replica(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=48), num_clients=8)
        per_replica = result.per_replica_goodput(SLA)
        assert result.goodput(SLA) >= min(per_replica)

    def test_fleet_tokens_sum_over_replicas(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        assert result.total_output_tokens == sum(r.total_output_tokens for r in result.replicas)
        assert result.duration == pytest.approx(max(r.duration for r in result.replicas))

    def test_fleet_summary_consistency(self, platform_7b):
        cluster = make_cluster(platform_7b)
        result = cluster.run_closed_loop(make_workload(num_requests=32), num_clients=8)
        summary = result.fleet_summary(SLA)
        assert summary.num_replicas == 4
        assert summary.finished_requests == len(result.finished_requests)
        assert summary.total_output_tokens == result.total_output_tokens
        assert 0.0 <= summary.sla_attainment <= 1.0
        assert summary.load_imbalance == pytest.approx(result.load_imbalance)
        assert summary.goodput == pytest.approx(result.goodput(SLA))

    def test_describe_mentions_router_and_replicas(self, platform_7b):
        cluster = make_cluster(platform_7b, router="least-kv-load", num_replicas=2)
        result = cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)
        text = result.describe()
        assert "least-kv-load" in text
        assert "2 replicas" in text


class TestRejectDeferBookkeeping:
    def test_reject_reasons_counted(self, platform_7b):
        cluster = make_cluster(platform_7b, router=rejecting_router(), capacity=64)
        result = cluster.run_open_loop(stamped_workload())
        assert result.rejected
        assert sum(result.reject_reasons.values()) == len(result.rejected)
        assert result.reject_reasons == {REASON_SATURATED: len(result.rejected)}
        assert result.deferrals == 0

    def test_defer_parks_and_retries_requests(self, platform_7b):
        # A saturated fleet defers instead of queueing; once capacity frees
        # the parked requests are routed and everything finishes.
        cluster = make_cluster(
            platform_7b,
            router="least-kv-load",
            capacity=64,
            num_replicas=2,
        )
        cluster.router.defer_when_saturated = 0.5
        result = cluster.run_open_loop(stamped_workload(num_requests=8))
        assert result.completed
        assert len(result.finished_requests) == 8
        assert result.deferrals > 0
        assert not result.rejected
        assert "deferred" in result.describe()

    def test_deferred_requests_keep_original_arrival_time(self, platform_7b):
        cluster = make_cluster(platform_7b, router="least-kv-load", capacity=64, num_replicas=2)
        cluster.router.defer_when_saturated = 0.5
        result = cluster.run_open_loop(stamped_workload(num_requests=8))
        assert result.deferrals > 0
        # All requests arrived at t=0; deferral must not launder TTFT.
        assert all(r.arrival_time == 0.0 for r in result.requests)

    def test_non_advancing_defer_raises(self, platform_7b):
        class BadDeferRouter(Router):
            name = "bad-defer"

            def decide(self, spec, views, now=0.0):
                return RoutingDecision.defer(until=now)

        cluster = make_cluster(platform_7b, router=BadDeferRouter())
        with pytest.raises(RuntimeError, match="strictly later"):
            cluster.run_open_loop(stamped_workload(num_requests=1))

    def test_router_level_rejection_without_cluster_knob(self, platform_7b):
        # Rejection is a router policy: arming the simulator's router after
        # construction takes effect, with no cluster-level flag involved.
        cluster = make_cluster(platform_7b, router="least-kv-load", capacity=64)
        cluster.router.reject_when_saturated = True
        result = cluster.run_open_loop(stamped_workload())
        assert result.rejected
        assert result.routed_requests + len(result.rejected) == 24


class TestSaturationAdmissionDigests:
    """Saturated ShareGPT fleets whose rejects come from the router alone.

    The digests were recorded when ``ClusterSimulator`` still carried its
    own ``reject_when_saturated`` check in front of the router; arming the
    router instead must reproduce them bit for bit, under both loops.
    Sizes are chosen so every run completes and rejects ``saturated``.
    """

    DIGESTS = {
        ("round-robin", "open"): "4adfad7cfff6c74dc667506891a702864c988e8d45108ac545b3c53363c0811c",
        ("round-robin", "closed"): "6ef06dc7447884daea66ef85a19c1b27b1a3ca4295c1b8eda9dcf09ce35de54e",
        ("memory-aware", "open"): "52d98c3baa73a179ef6bf770e34e6db569eafdfae652591765fbd4d48ee7e744",
        ("memory-aware", "closed"): "db5002416418bd8de858734e13e0c04bd07c968e6ddc458d9bc1aea4ce08f2d7",
    }

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("router, loop", sorted(DIGESTS))
    def test_router_admission_reproduces_recorded_digest(self, platform_7b, router, loop, fast_path):
        cluster = ClusterSimulator(
            platform=platform_7b,
            num_replicas=4,
            router=rejecting_router(router),
            scheduler_name="aggressive",
            token_capacity_override=platform_7b.token_capacity // 48,
            fast_path=fast_path,
        )
        if loop == "open":
            workload = assign_bursty_arrivals(
                generate_sharegpt_workload(140, seed=3),
                base_rate=0.2,
                burst_rate=8.0,
                burst_length=80,
                cycle_length=100,
                seed=4,
            )
            result = cluster.run_open_loop(workload)
        else:
            result = cluster.run_closed_loop(generate_sharegpt_workload(150, seed=5), num_clients=48)
        assert result.completed
        assert result.reject_reasons[REASON_SATURATED] > 0
        assert cluster_fingerprint(result) == self.DIGESTS[(router, loop)]


def with_oversized(workload: Workload, index: int, capacity: int) -> Workload:
    """``workload`` with request ``index``'s prompt grown past ``capacity``."""
    specs = list(workload.requests)
    specs[index] = dataclasses.replace(specs[index], input_length=capacity + 10)
    return Workload(name=f"{workload.name}-oversized", requests=specs)


class TestOversizedPrompt:
    """A prompt no replica can hold is rejected typed; the run goes on."""

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_closed_loop_run_completes(self, platform_7b, fast_path):
        workload = with_oversized(make_workload(num_requests=60), 7, capacity=2048)
        cluster = make_cluster(platform_7b, router="memory-aware", fast_path=fast_path)
        result = cluster.run_closed_loop(workload, num_clients=8)
        assert result.completed
        assert len(result.finished_requests) == 59
        assert result.reject_reasons == {REASON_EXCEEDS_CAPACITY: 1}
        assert [r.request_id for r in result.rejected] == [workload.requests[7].request_id]
        assert_conservation(result, 60)

    def test_fast_path_matches_reference(self, platform_7b):
        workload = with_oversized(make_workload(num_requests=40), 3, capacity=2048)

        def run(fast_path):
            cluster = make_cluster(platform_7b, router="memory-aware", fast_path=fast_path)
            return cluster.run_closed_loop(workload, num_clients=6)

        assert_rng_stream_identity(lambda: run(True), lambda: run(False))

    def test_single_client_is_released_at_once(self, platform_7b):
        # With one client and an idle fleet, a slot released only after the
        # next iteration would never come back: the run would end early.
        workload = with_oversized(make_workload(num_requests=5), 0, capacity=2048)
        result = make_cluster(platform_7b, num_replicas=2).run_closed_loop(workload, num_clients=1)
        assert result.completed
        assert len(result.finished_requests) == 4
        assert result.reject_reasons == {REASON_EXCEEDS_CAPACITY: 1}

    def test_open_loop_run_completes(self, platform_7b):
        workload = with_oversized(stamped_workload(num_requests=12), 5, capacity=2048)
        result = make_cluster(platform_7b).run_open_loop(workload)
        assert result.completed
        assert len(result.finished_requests) == 11
        assert result.reject_reasons == {REASON_EXCEEDS_CAPACITY: 1}
        assert_conservation(result, 12)


    @pytest.mark.parametrize("replace_crashed", [True, False])
    def test_waits_for_a_warming_replica_that_can_hold_it(self, replace_crashed):
        # A100 + RTX-4090 fleet: the A100 crashes, and a prompt only an A100
        # pool can hold arrives while its replacement warms up.  It waits for
        # the replacement; with no replacement coming it is rejected.
        plan = FaultPlan(
            crashes=(ReplicaCrash(time=0.1, replica=0),),
            replace_crashed=replace_crashed,
            replacement_warmup=2.0,
        )
        cluster = ClusterSimulator(
            platforms=paper_platforms("7b-a100", "7b-4090"),
            num_replicas=2,
            router="memory-aware",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
            faults=plan,
        )
        a100_pool, rtx_pool = (v.token_capacity for v in cluster.snapshots())
        assert rtx_pool < a100_pool
        big = RequestSpec(
            request_id="big",
            input_length=rtx_pool + 10,
            output_length=4,
            max_new_tokens=4,
            arrival_time=0.5,
        )
        workload = Workload(name="warming", requests=[*stamped_workload(6).requests, big])
        result = cluster.run_open_loop(workload)
        assert result.completed
        assert_conservation(result, 7)
        if replace_crashed:
            assert REASON_EXCEEDS_CAPACITY not in result.reject_reasons
            (served,) = [r for r in result.finished_requests if r.request_id == "big"]
            assert served.first_token_time >= 2.1
        else:
            assert result.reject_reasons[REASON_EXCEEDS_CAPACITY] == 1


class TestHeterogeneousFleet:
    def test_platforms_cycle_and_capacities_differ(self):
        a100, a100b, rtx = paper_platforms("7b-a100", "7b-a100", "7b-4090")
        cluster = ClusterSimulator(
            platforms=[a100, a100b, rtx],
            num_replicas=3,
            router="least-kv-load",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
        )
        views = cluster.snapshots()
        assert [v.platform.gpu.name for v in views] == ["A100-80G", "A100-80G", "RTX-4090"]
        assert views[0].token_capacity == views[1].token_capacity
        assert views[2].token_capacity < views[0].token_capacity
        # The 4090 decodes slower than the A100; the fastest platform is 1.0.
        assert views[0].speed_factor == 1.0
        assert 0.0 < views[2].speed_factor < 1.0

    def test_heterogeneous_run_end_to_end(self):
        platforms = paper_platforms("7b-a100", "7b-a100", "7b-4090")
        cluster = ClusterSimulator(
            platforms=platforms,
            num_replicas=3,
            router="memory-aware",
            scheduler_name="conservative",
            capacity_scale=1.0 / 32.0,
        )
        result = cluster.run_closed_loop(make_workload(num_requests=24), num_clients=6)
        assert result.completed
        assert len(result.finished_requests) == 24
        assert "A100-80G" in result.platform and "RTX-4090" in result.platform
        assert {r.platform for r in result.replicas} == {
            p.describe() for p in platforms
        }

    def test_homogeneous_platform_string_unchanged(self, platform_7b):
        cluster = make_cluster(platform_7b, num_replicas=2)
        result = cluster.run_closed_loop(make_workload(num_requests=4), num_clients=2)
        assert result.platform == platform_7b.describe()

    def test_mixed_models_rejected(self):
        from repro.hardware.platform import paper_platform

        with pytest.raises(Exception, match="one model"):
            ClusterSimulator(
                platforms=[paper_platform("7b-a100"), paper_platform("13b-a100")],
                num_replicas=2,
                router="round-robin",
            )

    def test_platform_and_platforms_mutually_exclusive(self, platform_7b):
        with pytest.raises(ValueError, match="exactly one"):
            ClusterSimulator(
                platform=platform_7b, platforms=[platform_7b], num_replicas=1, router="round-robin"
            )
        with pytest.raises(ValueError, match="exactly one"):
            ClusterSimulator(num_replicas=1, router="round-robin")

    def test_capacity_scale_and_override_mutually_exclusive(self, platform_7b):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ClusterSimulator(
                platform=platform_7b,
                num_replicas=1,
                router="round-robin",
                token_capacity_override=100,
                capacity_scale=0.5,
            )

    def test_explicit_cost_model_requires_homogeneous_fleet(self):
        from repro.engine.cost_model import CostModel

        platforms = paper_platforms("7b-a100", "7b-4090")
        with pytest.raises(ValueError, match="homogeneous"):
            ClusterSimulator(
                platforms=platforms,
                num_replicas=2,
                router="round-robin",
                cost_model=CostModel(platforms[0]),
            )


class TestValidation:
    def test_zero_replicas_rejected(self, platform_7b):
        with pytest.raises(ValueError, match="num_replicas"):
            make_cluster(platform_7b, num_replicas=0)

    def test_invalid_router_name_rejected(self, platform_7b):
        with pytest.raises(KeyError, match="unknown router"):
            make_cluster(platform_7b, router="random")

    def test_router_returning_bad_replica_raises(self, platform_7b):
        class BrokenRouter(Router):
            name = "broken"

            def decide(self, spec, views, now=0.0):
                return RoutingDecision.route(99)

        cluster = make_cluster(platform_7b, router=BrokenRouter())
        with pytest.raises(RuntimeError, match="invalid replica"):
            cluster.run_open_loop(stamped_workload(num_requests=1))

    def test_simulator_is_single_use(self, platform_7b):
        cluster = make_cluster(platform_7b)
        cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)
        with pytest.raises(RuntimeError, match="single-use"):
            cluster.run_closed_loop(make_workload(num_requests=8), num_clients=2)

    def test_per_replica_schedulers_are_independent(self, platform_7b):
        cluster = make_cluster(platform_7b, scheduler_name="past-future")
        schedulers = {id(replica.engine.scheduler) for replica in cluster.replicas}
        assert len(schedulers) == 4

    def test_snapshot_reflects_engine_state(self, platform_7b):
        cluster = make_cluster(platform_7b, num_replicas=2)
        snapshots = cluster.snapshots()
        assert [s.replica_id for s in snapshots] == [0, 1]
        assert all(isinstance(s, ReplicaView) for s in snapshots)
        assert all(s.used_tokens == 0 and s.outstanding == 0 for s in snapshots)

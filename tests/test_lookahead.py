"""Lookahead horizons for closed-loop fleets.

A replica's event jump in a closed-loop fleet is bounded by every other busy
replica's *earliest possible spawn*: its earliest possible completion
(:meth:`InferenceEngine.earliest_finish_time`) plus the load generator's
``min_reaction_delay``.  These tests pin the two terms and show the fused
runs stay bit-identical to the reference loop.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.cost_model import CostModel
from repro.engine.engine import InferenceEngine
from repro.engine.request import Request
from repro.hardware.platform import paper_platform
from repro.schedulers.aggressive import AggressiveScheduler
from repro.serving.clients import ClosedLoopClientPool
from repro.serving.cluster import ClusterSimulator
from repro.serving.faults import FaultPlan, SlowdownCostModel, Straggler
from repro.workloads.interactions import (
    Interaction,
    InteractionLoadGenerator,
    InteractionStage,
)
from repro.workloads.sharegpt import generate_sharegpt_workload
from tests.conftest import make_spec, make_workload
from tests.helpers import assert_conservation, assert_rng_stream_identity


def decoding_engine(platform_7b, outputs=(6, 9, 12), prompt=16, **kwargs) -> InferenceEngine:
    """An engine whose residents have all finished prefill and are decoding."""
    engine = InferenceEngine(platform_7b, AggressiveScheduler(), token_capacity_override=4096, **kwargs)
    for index, output in enumerate(outputs):
        spec = make_spec(f"r{index}", input_length=prompt, output_length=output)
        engine.submit(Request(spec=spec, arrival_time=0.0), 0.0)
    engine.step(0.0)  # admits and prefills everyone; first tokens delivered
    return engine


class TestEarliestFinishTime:
    def test_waiting_request_falls_back_to_the_clock(self, platform_7b):
        engine = decoding_engine(platform_7b)
        engine.submit(Request(spec=make_spec("late"), arrival_time=1.0), 1.0)
        assert engine.earliest_finish_time(1.0) == 1.0

    def test_prefilling_resident_falls_back_to_the_clock(self, platform_7b):
        engine = InferenceEngine(
            platform_7b,
            AggressiveScheduler(),
            token_capacity_override=4096,
            chunked_prefill_tokens=8,
        )
        spec = make_spec("long-prompt", input_length=64, output_length=20)
        engine.submit(Request(spec=spec, arrival_time=0.0), 0.0)
        end = engine.step(0.0).end_time  # admitted, 8 of 64 prompt tokens done
        assert engine.batch.prefilling
        assert engine.earliest_finish_time(end) == end

    def test_window_end_is_the_jump_end_bit_for_bit(self, platform_7b):
        engine = decoding_engine(platform_7b)
        clock = 0.0123
        window = engine._uniform_decode_bound()
        assert window == 6 - 1 - 1  # shortest output 6, one token already out
        bound = engine.earliest_finish_time(clock)
        jump = engine.try_jump(clock)
        assert jump is not None and jump.steps == window
        assert bound == jump.end_time

    def test_bound_never_exceeds_the_reference_completion(self, platform_7b):
        engine = decoding_engine(platform_7b, fast_path=True)
        clock = 0.0
        bound = engine.earliest_finish_time(clock)
        reference = decoding_engine(platform_7b, fast_path=False)
        while True:
            result = reference.step(clock)
            clock = result.end_time
            if result.finished:
                break
        assert bound <= clock
        assert bound > 0.0

    def test_bound_survives_silent_steps_and_jumps(self, platform_7b):
        engine = decoding_engine(platform_7b)
        bound = engine.earliest_finish_time(0.0)
        clock = engine.step(0.0).end_time  # silent: nobody is at a last token
        assert engine.earliest_finish_time(clock) == bound
        jump = engine.try_jump(clock)
        assert jump is not None
        assert engine.earliest_finish_time(jump.end_time) == bound

    def test_submit_invalidates_the_memo(self, platform_7b):
        engine = decoding_engine(platform_7b)
        engine.earliest_finish_time(0.0)
        assert engine._finish_bound is not None
        engine.submit(Request(spec=make_spec("late"), arrival_time=0.0), 0.0)
        assert engine._finish_bound is None

    def test_cost_model_swap_invalidates_the_memo(self, platform_7b):
        engine = decoding_engine(platform_7b)
        fast = engine.earliest_finish_time(0.0)
        engine.cost_model = SlowdownCostModel(CostModel(platform_7b), 0.5)
        assert engine.earliest_finish_time(0.0) < fast

    def test_passed_bound_is_recomputed_after_the_next_step(self, platform_7b):
        # Once the window is exhausted the next step finishes a request (a
        # new epoch) — the bound must move forward, never stay in the past.
        engine = decoding_engine(platform_7b)
        bound = engine.earliest_finish_time(0.0)
        jump = engine.try_jump(0.0)
        assert jump is not None and jump.end_time == bound
        result = engine.step(jump.end_time)
        assert result.finished
        assert engine.earliest_finish_time(result.end_time) > result.end_time

    def test_disabled_fast_path_reports_the_clock(self, platform_7b):
        engine = decoding_engine(platform_7b, fast_path=False)
        assert engine.earliest_finish_time(0.5) == 0.5


class TestMinReactionDelay:
    def test_client_pool_reacts_after_its_think_time(self):
        workload = make_workload(num_requests=4)
        assert ClosedLoopClientPool(workload, 2, think_time=0.7).min_reaction_delay == 0.7
        assert ClosedLoopClientPool(workload, 2).min_reaction_delay == 0.0

    def test_interactions_use_the_smallest_think_time_that_can_spawn(self):
        stages = (InteractionStage(8, 4), InteractionStage(8, 4))
        sessions = [
            Interaction("a", stages, think_time=3.0),
            Interaction("b", stages, think_time=1.5),
            # A single-turn session never spawns, so its think time is moot.
            Interaction("c", stages[:1], think_time=0.1),
        ]
        assert InteractionLoadGenerator(sessions).min_reaction_delay == 1.5

    def test_sessions_without_follow_ups_never_react(self):
        sessions = [Interaction("solo", (InteractionStage(8, 4),), think_time=0.0)]
        assert InteractionLoadGenerator(sessions).min_reaction_delay == math.inf


class _NoDelayAttribute:
    """Delegates to a client pool but hides its ``min_reaction_delay``."""

    def __init__(self, pool: ClosedLoopClientPool) -> None:
        self._pool = pool

    def start(self, time: float = 0.0) -> None:
        self._pool.start(time)

    def on_request_finished(self, time: float) -> None:
        self._pool.on_request_finished(time)

    def pop_arrivals(self, now: float) -> list:
        return self._pool.pop_arrivals(now)

    def next_arrival_time(self) -> float | None:
        return self._pool.next_arrival_time()

    @property
    def drained(self) -> bool:
        return self._pool.drained


def fleet(num_replicas: int, fast_path: bool = True) -> ClusterSimulator:
    return ClusterSimulator(
        paper_platform("7b-a100"),
        num_replicas=num_replicas,
        router="memory-aware",
        scheduler_name="aggressive",
        capacity_scale=0.125,
        fast_path=fast_path,
    )


class TestClosedLoopFleetFusion:
    def test_generator_without_attribute_behaves_as_zero_delay(self):
        workload = generate_sharegpt_workload(120, seed=3)

        def run(wrap: bool):
            pool = ClosedLoopClientPool(workload, num_clients=24, think_time=0.0)
            generator = _NoDelayAttribute(pool) if wrap else pool
            assert not wrap or not hasattr(generator, "min_reaction_delay")
            return fleet(3)._run(generator, workload.name, 24, arrivals_from_finishes=True)

        bare, zero = run(True), run(False)
        assert_rng_stream_identity(bare, zero)
        assert bare.jump_stats.summary() == zero.jump_stats.summary()

    def test_missing_attribute_is_safe_with_real_think_times(self):
        # The pool really waits 0.5 s; hiding that only costs fusion.
        workload = generate_sharegpt_workload(120, seed=3)

        def run(wrap: bool, fast_path: bool = True):
            pool = ClosedLoopClientPool(workload, num_clients=24, think_time=0.5)
            generator = _NoDelayAttribute(pool) if wrap else pool
            cluster = fleet(3, fast_path=fast_path)
            return cluster._run(generator, workload.name, 24, arrivals_from_finishes=True)

        bare, informed, reference = run(True), run(False), run(False, fast_path=False)
        assert_rng_stream_identity(bare, reference)
        assert_rng_stream_identity(informed, reference)
        assert informed.jump_stats.fused_fraction >= bare.jump_stats.fused_fraction

    def test_zero_think_fleet_fuses_and_matches_reference(self):
        # Reacting instantly, the lookahead comes from the engines alone:
        # each other replica's proven event-free decode window.  Bounding
        # jumps by the other replicas' clocks fused 0.044 of this run.
        workload = generate_sharegpt_workload(400, seed=3)
        fast = fleet(4).run_closed_loop(workload, num_clients=64, think_time=0.0)
        reference = fleet(4, fast_path=False).run_closed_loop(workload, num_clients=64, think_time=0.0)
        assert fast.completed
        assert_conservation(fast, 400)
        assert_rng_stream_identity(fast, reference)
        assert fast.jump_stats.fused_fraction >= 0.7

    @pytest.mark.parametrize("think_time", [0.0, 0.25])
    def test_straggler_edges_keep_identity(self, think_time):
        # A straggler swaps a replica's cost model in and out mid-run: a
        # window end memoized under the slow model must not survive the
        # swap back, or it would overstate the replica's earliest finish.
        workload = generate_sharegpt_workload(160, seed=5)
        plan = FaultPlan(
            stragglers=(
                Straggler(start=1.0, duration=2.0, replica=0, slowdown=3.0),
                Straggler(start=2.5, duration=1.5, replica=1, slowdown=2.0),
            )
        )

        def run(fast_path: bool):
            simulator = ClusterSimulator(
                paper_platform("7b-a100"),
                num_replicas=3,
                router="memory-aware",
                scheduler_name="aggressive",
                capacity_scale=0.125,
                fast_path=fast_path,
                faults=plan,
            )
            return simulator.run_closed_loop(workload, num_clients=36, think_time=think_time)

        assert_rng_stream_identity(run(True), run(False))


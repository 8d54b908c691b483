"""The single-engine serving simulator: a one-replica cluster.

:class:`ServingSimulator` answers the paper's question — one engine, one
admission scheduler, one client population — by running a one-replica
:class:`~repro.serving.cluster.ClusterSimulator`, so the single engine and
the fleet share one event loop (arrivals <= the replica clock join the next
iteration; an idle engine jumps to the next arrival; the fast path fuses
event-free iterations up to it).

The one replica uses *direct placement*: every admitted arrival goes
straight to its engine.  No router is consulted, no
:class:`~repro.serving.routing.ReplicaView` is built, no ``request.routed``
event is emitted, and there is no ``exceeds-capacity`` check — a prompt
larger than the pool stalls the engine and the stall guard ends the run
with ``completed=False``.

The single engine is perfectly reliable: fault injection (crashes,
preemptions, stragglers — :mod:`repro.serving.faults`) is a fleet-level
concern, attached to :class:`~repro.serving.cluster.ClusterSimulator` via its
``faults=`` keyword, because recovery is meaningless without other replicas
to absorb the displaced work.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.cost_model import CostModel
from repro.engine.eviction import EvictionPolicy
from repro.hardware.platform import Platform
from repro.obs.tracer import Tracer
from repro.schedulers.base import Scheduler
from repro.serving.cluster import ClusterSimulator, SimulationLimits
from repro.serving.results import ClusterResult, RunResult
from repro.serving.throttle import OverloadThrottle
from repro.workloads.interactions import Interaction
from repro.workloads.spec import RequestSpec, Workload


class _DirectPlacementCluster(ClusterSimulator):
    """A one-replica cluster whose admitted arrivals skip routing."""

    def _place(self, spec: RequestSpec, now: float, arrived_at: float, first_attempt: bool) -> None:
        self._enqueue(self.replicas[0], spec, now, arrived_at)


class ServingSimulator:
    """Drives one :class:`InferenceEngine` against a load generator.

    A façade over a one-replica :class:`ClusterSimulator` with direct
    placement (see the module docstring); ``engine`` is that replica's
    engine, built from ``scheduler`` and ``eviction_policy``.  Each
    ``run_*`` method returns the replica's :class:`RunResult`, carrying the
    throttle's ``rejected`` requests and ``reject_reasons``.  A simulator
    drives exactly one run.

    With ``fast_path`` (the default) the loop asks the engine to fuse
    provably event-free decode iterations into vectorized macro-steps,
    bounded by the next scheduled arrival (:meth:`InferenceEngine.try_jump`)
    — including saturated phases, where the admission scheduler itself
    proves its next decisions admit nothing;
    ``fast_path=False`` forces the reference one-iteration-at-a-time loop.
    Results are bit-identical, so the flag is purely a bisection escape
    hatch.

    ``tracer`` attaches an observer (see :mod:`repro.obs`): the simulator
    emits ``replica.launch``, ``request.submit`` and ``request.throttled``
    events and shares the tracer with the engine, which emits the
    queue/admission/token lifecycle and the ``engine.step`` /
    ``engine.jump`` spans.  The default
    :class:`~repro.obs.tracer.NullTracer` keeps every run byte-identical to
    an untraced one.
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: Scheduler,
        cost_model: CostModel | None = None,
        eviction_policy: EvictionPolicy | None = None,
        block_size: int = 1,
        chunked_prefill_tokens: int | None = None,
        token_capacity_override: int | None = None,
        limits: SimulationLimits | None = None,
        fast_path: bool = True,
        throttle: OverloadThrottle | None = None,
        tracer: Tracer | None = None,
        prefix_cache_tokens: int | None = None,
    ) -> None:
        self.platform = platform
        self.scheduler = scheduler
        self.fast_path = fast_path
        self.throttle = throttle
        self.limits = limits or SimulationLimits()
        # One-shot factories: the one replica is the only launch.
        self._cluster: ClusterSimulator | None = _DirectPlacementCluster(
            platform=platform,
            scheduler_factory=iter([scheduler]).__next__,
            eviction_policy_factory=(
                iter([eviction_policy]).__next__ if eviction_policy is not None else None
            ),
            cost_model=cost_model,
            block_size=block_size,
            chunked_prefill_tokens=chunked_prefill_tokens,
            token_capacity_override=token_capacity_override,
            limits=self.limits,
            fast_path=fast_path,
            throttle=throttle,
            tracer=tracer,
            prefix_cache_tokens=prefix_cache_tokens,
        )
        self.tracer = self._cluster.tracer
        self.engine = self._cluster.replicas[0].engine

    def _take_cluster(self) -> ClusterSimulator:
        """The cluster for this simulator's only run, released from ``self``.

        Dropping the reference lets the fleet's bookkeeping (its request
        lists) go with the run; only ``engine`` stays reachable.
        """
        cluster, self._cluster = self._cluster, None
        if cluster is None:
            raise RuntimeError("ServingSimulator instances are single-use; build a new one per run")
        return cluster

    @staticmethod
    def _engine_result(fleet: ClusterResult) -> RunResult:
        result = fleet.replicas[0]
        result.rejected = fleet.rejected
        result.reject_reasons = fleet.reject_reasons
        return result

    def run_closed_loop(
        self,
        workload: Workload,
        num_clients: int,
        think_time: float = 0.0,
    ) -> RunResult:
        """Serve a workload with a fixed-size closed-loop client pool."""
        return self._engine_result(self._take_cluster().run_closed_loop(workload, num_clients, think_time))

    def run_open_loop(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> RunResult:
        """Serve a workload with open-loop (Poisson or recorded) arrivals."""
        return self._engine_result(self._take_cluster().run_open_loop(workload, request_rate, seed))

    def run_sessions(
        self,
        interactions: Sequence[Interaction],
        name: str = "interactions",
    ) -> RunResult:
        """Serve multi-turn sessions closed-loop.

        Each interaction's opening turn arrives at its start time; every
        later turn is spawned by its predecessor's completion (plus the
        interaction's think time), so stage *n + 1* always carries the
        accumulated conversation prefix stage *n* just finished.  Pair with
        ``prefix_cache_tokens`` to model KV prefix reuse across turns.
        """
        return self._engine_result(self._take_cluster().run_sessions(interactions, name))

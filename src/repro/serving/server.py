"""The serving simulator: clients + admission scheduler + engine event loop.

:class:`ServingSimulator` owns the simulation clock.  Each tick it

1. injects every client arrival whose timestamp has passed into the engine's
   waiting queue,
2. runs one continuous-batching iteration of the engine, which advances the
   clock by the iteration's modelled latency, and
3. reports completions back to the client pool so closed-loop clients can
   submit their next request.

When the engine is idle but future arrivals exist, the clock jumps forward to
the next arrival, so lightly loaded simulations do not burn iterations doing
nothing.

The single engine here is perfectly reliable: fault injection (crashes,
preemptions, stragglers — :mod:`repro.serving.faults`) is a fleet-level
concern, attached to :class:`~repro.serving.cluster.ClusterSimulator` via its
``faults=`` keyword, because recovery is meaningless without other replicas
to absorb the displaced work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.engine.cost_model import CostModel
from repro.engine.engine import InferenceEngine
from repro.engine.eviction import EvictionPolicy
from repro.engine.request import Request
from repro.hardware.platform import Platform
from repro.obs import events as obs
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer
from repro.schedulers.base import Scheduler
from repro.serving.clients import ClosedLoopClientPool, OpenLoopArrivals
from repro.serving.results import RunResult
from repro.serving.throttle import OverloadThrottle
from repro.workloads.interactions import Interaction, InteractionLoadGenerator
from repro.workloads.spec import Workload


class LoadGenerator(Protocol):
    """The interface both client models implement.

    A generator whose completions cause arrivals may also expose a
    ``min_reaction_delay`` attribute: a lower bound, in seconds, on the gap
    between a completion (or any ``on_request_finished`` call) and the
    earliest arrival it can cause.  Closed-loop fleets add it to each
    replica's earliest possible completion to bound the other replicas'
    event jumps.  It is a property of the workload (the think times), not a
    tuning knob; a generator without it is treated as reacting instantly
    (``0.0``), which is always safe.
    """

    def start(self, time: float = 0.0) -> None:
        """Begin generating arrivals at simulation time ``time``."""
        ...

    def on_request_finished(self, time: float) -> None:
        """Observe a completion (closed-loop clients schedule their next request)."""
        ...

    def pop_arrivals(self, now: float) -> list:
        """Return (and consume) every arrival with timestamp <= ``now``."""
        ...

    def next_arrival_time(self) -> float | None:
        """Timestamp of the next scheduled arrival, or ``None`` if exhausted."""
        ...

    @property
    def drained(self) -> bool:
        """Whether no further arrivals can ever be produced."""
        ...


def _submit_attrs(spec) -> dict:
    """``request.submit`` payload: prompt size plus any tenant identity."""
    attrs: dict = {"prompt_tokens": spec.prompt_tokens}
    if spec.user_id is not None:
        attrs["user_id"] = spec.user_id
    if spec.app_id is not None:
        attrs["app_id"] = spec.app_id
    if spec.sla_class:
        attrs["sla_class"] = spec.sla_class
    return attrs


def emit_session_submit(tracer: Tracer, spec, time: float) -> None:
    """Emit ``session.start`` when a session's opening turn is submitted."""
    if spec.session_id is None or spec.session_stage != 0:
        return
    tracer.emit(
        TraceEvent(
            obs.SESSION_START,
            time,
            request_id=spec.request_id,
            attrs={"session_id": spec.session_id, "stages": spec.session_stages},
        )
    )


def emit_session_completion(tracer: Tracer, request: Request, time: float) -> None:
    """Emit ``session.stage`` / ``session.end`` for one finished session turn."""
    spec = request.spec
    if spec.session_id is None or spec.session_stage is None:
        return
    if spec.is_final_stage:
        tracer.emit(
            TraceEvent(
                obs.SESSION_END,
                time,
                request_id=spec.request_id,
                attrs={
                    "session_id": spec.session_id,
                    "turns_completed": spec.session_stage + 1,
                    "abandoned": False,
                },
            )
        )
    else:
        tracer.emit(
            TraceEvent(
                obs.SESSION_STAGE,
                time,
                request_id=spec.request_id,
                attrs={"session_id": spec.session_id, "stage": spec.session_stage},
            )
        )


def emit_session_abandoned(tracer: Tracer, spec, time: float) -> None:
    """Emit an abandoned ``session.end`` for a turned-away session turn."""
    if spec.session_id is None or spec.session_stage is None:
        return
    tracer.emit(
        TraceEvent(
            obs.SESSION_END,
            time,
            request_id=spec.request_id,
            attrs={
                "session_id": spec.session_id,
                "turns_completed": spec.session_stage,
                "abandoned": True,
            },
        )
    )


@dataclass
class SimulationLimits:
    """Safety bounds so misconfigured runs terminate."""

    max_steps: int = 2_000_000
    max_time: float = 1_000_000.0


class ServingSimulator:
    """Drives an :class:`InferenceEngine` against a load generator.

    With ``fast_path`` (the default) the loop asks the engine to fuse
    provably event-free decode iterations into vectorized macro-steps,
    bounded by the next scheduled arrival — including saturated phases,
    where the admission scheduler itself proves its next decisions admit
    nothing (:meth:`InferenceEngine.try_jump_saturated`);
    ``fast_path=False`` forces the reference one-iteration-at-a-time loop.
    Results are bit-identical, so the flag is purely a bisection escape
    hatch.

    ``tracer`` attaches an observer (see :mod:`repro.obs`): the simulator
    emits ``request.submit`` / ``request.throttled`` events and shares the
    tracer with the engine, which emits the queue/admission/token lifecycle
    and the ``engine.step`` / ``engine.jump`` spans.  The default
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
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = InferenceEngine(
            platform=platform,
            scheduler=scheduler,
            cost_model=cost_model,
            eviction_policy=eviction_policy,
            block_size=block_size,
            chunked_prefill_tokens=chunked_prefill_tokens,
            token_capacity_override=token_capacity_override,
            fast_path=fast_path,
            tracer=self.tracer,
            prefix_cache_tokens=prefix_cache_tokens,
        )
        self.limits = limits or SimulationLimits()

    # ---------------------------------------------------------------- running
    def _run(self, generator: LoadGenerator, workload_name: str, num_clients: int) -> RunResult:
        engine = self.engine
        time = 0.0
        generator.start(time)
        if self.throttle is not None:
            self.throttle.on_run_start()
        all_requests: list[Request] = []
        rejected: list[Request] = []
        reject_reasons: dict[str, int] = {}
        completed = True

        tracing = self.tracer.enabled
        notify = getattr(generator, "on_request_completed", None)
        step = 0
        idle_streak = 0
        while True:
            for spec in generator.pop_arrivals(time):
                arrival = spec.arrival_time if spec.arrival_time is not None else time
                if tracing:
                    emit_session_submit(self.tracer, spec, time)
                    self.tracer.emit(
                        TraceEvent(
                            obs.REQUEST_SUBMIT,
                            time,
                            request_id=spec.request_id,
                            attrs=_submit_attrs(spec),
                        )
                    )
                if self.throttle is not None:
                    reason = self.throttle.check(spec, time)
                    if reason is not None:
                        # Turned away before touching the engine.  The client
                        # slot is released immediately — a closed-loop client
                        # whose request is throttled issues its next one after
                        # its think time, exactly like a completion would.
                        rejected.append(Request(spec=spec, arrival_time=arrival))
                        reject_reasons[reason] = reject_reasons.get(reason, 0) + 1
                        if tracing:
                            self.tracer.emit(
                                TraceEvent(
                                    obs.REQUEST_THROTTLED,
                                    time,
                                    request_id=spec.request_id,
                                    attrs={
                                        "reason": reason,
                                        **self.throttle.window_usage(spec, time),
                                    },
                                )
                            )
                            # A throttled turn never finishes, so its session
                            # cannot spawn a follow-up: the session ends here.
                            emit_session_abandoned(self.tracer, spec, time)
                        generator.on_request_finished(time)
                        continue
                request = Request(spec=spec, arrival_time=arrival)
                all_requests.append(request)
                engine.submit(request, time)

            if not engine.has_work():
                if generator.drained:
                    break
                next_arrival = generator.next_arrival_time()
                if next_arrival is None:
                    break
                time = max(time, next_arrival)
                continue

            if self.fast_path:
                # Event-jump: fuse decode iterations up to the next arrival.
                # No request finishes inside a jump, so closed-loop clients
                # cannot schedule new arrivals mid-macro-step and the horizon
                # is complete knowledge of future events.  With an empty
                # waiting queue the silent jump applies; with a non-empty one
                # the saturated jump asks the scheduler to prove its next
                # admission decisions are all "admit nothing" (consuming its
                # RNG bookkeeping exactly as the reference loop would).
                jump = engine.try_jump_any(
                    time,
                    horizon=generator.next_arrival_time(),
                    max_steps=self.limits.max_steps - step,
                    max_time=self.limits.max_time,
                )
                if jump is not None:
                    time = jump.end_time
                    step += jump.steps
                    idle_streak = 0
                    if step >= self.limits.max_steps or time >= self.limits.max_time:
                        completed = False
                        break
                    continue

            result = engine.step(time)
            time = result.end_time if result.duration > 0 else time
            for request in result.finished:
                generator.on_request_finished(time)
                if notify is not None:
                    # Identity-aware completion hook: session generators
                    # spawn the follow-up turn here (never inside a jump,
                    # so the arrival horizon stays complete).
                    notify(request, time)
                if tracing:
                    emit_session_completion(self.tracer, request, time)

            # Stall guard: an idle iteration while requests are waiting means no
            # admission is possible (e.g. a prompt larger than the capacity).
            # A real server would reject such requests; the simulation stops
            # instead of spinning forever.
            if result.was_idle:
                idle_streak += 1
                if idle_streak >= 3:
                    completed = False
                    break
            else:
                idle_streak = 0

            step += 1
            if step >= self.limits.max_steps or time >= self.limits.max_time:
                completed = False
                break

        return RunResult(
            scheduler=self.scheduler.describe(),
            workload=workload_name,
            platform=self.platform.describe(),
            num_clients=num_clients,
            duration=time,
            requests=all_requests,
            engine_stats=engine.stats,
            memory_timeline=engine.memory_timeline,
            token_capacity=engine.token_capacity,
            completed=completed,
            rejected=rejected,
            reject_reasons=reject_reasons,
            jump_stats=engine.jump_stats,
            prefix_stats=engine.prefix_cache.stats if engine.prefix_cache is not None else None,
        )

    def run_closed_loop(
        self,
        workload: Workload,
        num_clients: int,
        think_time: float = 0.0,
    ) -> RunResult:
        """Serve a workload with a fixed-size closed-loop client pool."""
        pool = ClosedLoopClientPool(workload, num_clients=num_clients, think_time=think_time)
        return self._run(pool, workload.name, num_clients)

    def run_open_loop(
        self,
        workload: Workload,
        request_rate: float | None = None,
        seed: int = 0,
    ) -> RunResult:
        """Serve a workload with open-loop (Poisson or recorded) arrivals."""
        arrivals = OpenLoopArrivals(workload, request_rate=request_rate, seed=seed)
        return self._run(arrivals, workload.name, num_clients=0)

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
        generator = InteractionLoadGenerator(interactions)
        return self._run(generator, name, num_clients=len(interactions))

"""End-to-end and simulated per-layer metrics, and the checks that a result is sound.

A finished ``RunResult`` / ``ClusterResult`` is reduced right away by
:func:`observe` to the few numbers and arrays the metrics need, so the
measuring process does not keep whole results alive.  Observations of a
workload's shards are then pooled.  Nothing here is timed; simulated-time
metrics are deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from repro.engine.request import RequestState
from repro.serving.sla import SLA_SMALL_MODEL
from repro.workloads.spec import Workload

#: Tail percentiles the benchmark may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: Samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with >= 10 samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    for q in TAIL_PERCENTILES:
        # (100 - q) is inexact in binary (100 - 99.9 < 0.1); allow for it.
        if count * (100.0 - q) >= 100.0 * MIN_TAIL_SAMPLES - 1e-6:
            return q
    return None


def percentile(values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of ``values``; raises if the sample cannot support it."""
    supported = tail_percentile(values.size)
    if supported is None or q > supported:
        raise ValueError(f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; have {values.size} in total")
    return float(np.percentile(values, q))


def _replica_results(result) -> list:
    """Per-engine results: the replicas of a fleet run, or the run itself."""
    return list(getattr(result, "replicas", [result]))


def request_counts(result) -> dict[str, int]:
    """Submitted requests split by outcome.

    Every request a replica received is classified by its state; rejected
    requests come from the result's reject list.  ``submitted`` is the
    generator-side count (routed plus rejected), so the split conserves only
    when no request was lost or double-counted.
    """
    routed = [r for replica in _replica_results(result) for r in replica.requests]
    finished = sum(1 for r in routed if r.state is RequestState.FINISHED)
    failed = sum(1 for r in routed if r.state is RequestState.ABORTED)
    rejected = len(result.rejected)
    return {
        "submitted": getattr(result, "submitted_requests", len(routed) + rejected),
        "finished": finished,
        "rejected": rejected,
        "failed": failed,
        "unfinished": len(routed) - finished - failed,
    }


def expected_submissions(inputs) -> int:
    """Requests the inputs can submit: every request, or every session turn."""
    if isinstance(inputs, Workload):
        return len(inputs)
    return sum(interaction.num_stages for interaction in inputs)


def check_result(result, inputs) -> list[str]:
    """Conservation and ``completed``-flag checks; returns the violations.

    * submitted == finished + rejected + failed + unfinished;
    * a completed run that turned nothing away submitted every input request;
    * ``completed`` is set exactly when nothing was left unfinished or unsubmitted.
    """
    counts = request_counts(result)
    problems = []
    parts = counts["finished"] + counts["rejected"] + counts["failed"] + counts["unfinished"]
    if counts["submitted"] != parts:
        problems.append(f"conservation: submitted {counts['submitted']} != outcomes {parts} ({counts})")
    expected = expected_submissions(inputs)
    turned_away = counts["rejected"] + counts["failed"]
    if counts["submitted"] > expected or (
        turned_away == 0 and result.completed and counts["submitted"] != expected
    ):
        problems.append(f"conservation: submitted {counts['submitted']} of {expected} input requests")
    stranded = counts["unfinished"] > 0 or (turned_away == 0 and counts["submitted"] < expected)
    if result.completed == stranded:
        problems.append(f"completed={result.completed} with {counts}")
    return problems


def outcome_shares(counts: dict[str, int]) -> tuple[float, float]:
    """``(finished_share, failed_share)`` of submitted requests.

    The base is every submitted request, so rejected, aborted and stranded
    requests (those a halted run never finished) all count as failed.
    """
    submitted = counts["submitted"]
    return counts["finished"] / submitted, (submitted - counts["finished"]) / submitted


def observe(result) -> dict:
    """What the metrics need from one result, in simulated time."""
    sla = SLA_SMALL_MODEL
    replicas = _replica_results(result)
    requests = [r for replica in replicas for r in replica.requests]
    done = [r for r in requests if r.is_finished]
    compliant = [r for r in done if sla.request_compliant(r)]
    samples = [
        (s.used_tokens / replica.token_capacity, s.running_requests)
        for replica in replicas
        for s in replica.memory_timeline.samples
    ]
    jumps = result.jump_stats
    prefix = result.prefix_stats
    return {
        "counts": request_counts(result),
        "duration": result.duration,
        "compliant": len(compliant),
        "compliant_tokens": sum(r.generated_tokens for r in compliant),
        "ttft": np.array([r.ttft for r in done if r.ttft is not None]),
        "mtpot": np.array([r.max_tpot for r in done if r.max_tpot is not None]),
        "queue_wait": np.array([r.admission_times[0] - r.arrival_time for r in requests if r.admission_times]),
        "util": np.array([u for u, _ in samples]),
        "batch": np.array([b for _, b in samples], dtype=float),
        "admissions": sum(replica.engine_stats.total_admissions for replica in replicas),
        "evictions": sum(replica.engine_stats.total_evictions for replica in replicas),
        "jump_attempts": jumps.silent_attempts + jumps.saturated_attempts,
        "jumps": jumps.jumps,
        "steps_fused": jumps.steps_fused,
        "total_steps": jumps.total_steps,
        "deferred": getattr(result, "deferrals", 0),
        "prefix": None if prefix is None else (prefix.hits, prefix.lookups, prefix.evictions, prefix.reused_tokens),
    }


def _sum(observations: list[dict], key: str):
    return sum(o[key] for o in observations)


def _concat(observations: list[dict], key: str) -> np.ndarray:
    return np.concatenate([o[key] for o in observations])


def pooled_counts(observations: list[dict]) -> dict[str, int]:
    """Request outcome counts summed over shards."""
    return {key: sum(o["counts"][key] for o in observations) for key in observations[0]["counts"]}


def end_to_end(observations: list[dict]) -> dict[str, dict]:
    """The simulated-time end-to-end metrics of a workload, with sample counts.

    Goodput is output tokens of SLA-compliant requests per simulated second
    under the paper's small-model SLA (TTFT 10 s, MTPOT 1.5 s), pooled over
    shards as total tokens over total simulated time.  Attainment divides
    compliant requests by *submitted* ones, so rejected, failed and
    unfinished requests all count as misses.
    """
    counts = pooled_counts(observations)
    ttft = _concat(observations, "ttft")
    mtpot = _concat(observations, "mtpot")
    submitted = counts["submitted"]
    finished_share, failed_share = outcome_shares(counts)
    return {
        "goodput_tok_s": {
            "value": _sum(observations, "compliant_tokens") / _sum(observations, "duration"),
            "unit": "tok/s",
        },
        "sla_attainment": {"value": _sum(observations, "compliant") / submitted, "unit": "ratio", "n": submitted},
        "ttft_p50_s": {"value": percentile(ttft, 50.0), "unit": "s", "n": int(ttft.size)},
        "ttft_p99_s": {"value": percentile(ttft, 99.0), "unit": "s", "n": int(ttft.size)},
        "mtpot_p99_s": {"value": percentile(mtpot, 99.0), "unit": "s", "n": int(mtpot.size)},
        "finished_share": {"value": finished_share, "unit": "ratio", "n": submitted},
        "failed_share": {"value": failed_share, "unit": "ratio", "n": submitted},
    }


def simulated_layers(observations: list[dict]) -> dict[str, float]:
    """Per-layer metrics read from simulated state, pooled over shards.

    Layers a workload does not have (routing on one engine, the prefix
    cache without sessions) report 0.
    """
    counts = pooled_counts(observations)
    waits = _concat(observations, "queue_wait")
    attempts = _sum(observations, "jump_attempts")
    steps = _sum(observations, "total_steps")
    prefixes = [o["prefix"] for o in observations if o["prefix"] is not None]
    hits, lookups, prefix_evictions, reused = (sum(column) for column in zip(*prefixes)) if prefixes else (0, 0, 0, 0)
    return {
        "routing.deferred": float(_sum(observations, "deferred")),
        "routing.rejected": float(counts["rejected"]),
        # Divided by the traced schedule() calls into admitted_per_consult.
        "scheduler.admissions": float(_sum(observations, "admissions")),
        "scheduler.queue_wait_p50_s": percentile(waits, 50.0),
        "scheduler.queue_wait_p99_s": percentile(waits, 99.0),
        "engine.jump_success": _sum(observations, "jumps") / attempts if attempts else 0.0,
        "engine.fused_fraction": _sum(observations, "steps_fused") / steps if steps else 0.0,
        "engine.evictions_per_request": _sum(observations, "evictions") / counts["submitted"],
        "engine.batch_size_mean": float(_concat(observations, "batch").mean()),
        "memory.util_mean": float(_concat(observations, "util").mean()),
        "memory.prefix_hit_rate": hits / lookups if lookups else 0.0,
        "memory.prefix_evictions": float(prefix_evictions),
        "memory.prefix_reused_tokens": float(reused),
    }

"""The benchmark's three workloads, built from a seed through the public API.

A :class:`Workload` is a parameter table (digested into the run manifest)
plus four steps: ``generate`` turns a shard seed into inputs, ``build``
constructs a fresh simulator, ``run`` calls its public ``run_*`` entry point,
and ``fingerprint`` is the repo's own digest of the result.  The simulator
only ever sees the generated inputs; the seed reaches it through them and
through the admission scheduler's sampling seed.

A workload runs as one or more *shards*: independent inputs of the same
shape, each with its own seed derived from the command-line seed.  Their
results are pooled into one set of metrics.  Sharding is how a workload whose
figures swing with the seed (the knee) gets enough independent samples.

Why each workload exists, and which layer it is meant to load, is recorded
in ``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Any, Callable

import numpy as np

from repro.analysis.perf import cluster_fingerprint, run_fingerprint
from repro.hardware.platform import paper_platform
from repro.schedulers.registry import create_scheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.server import ServingSimulator
from repro.workloads.arrivals import assign_bursty_arrivals
from repro.workloads.interactions import generate_interactions
from repro.workloads.sharegpt import generate_sharegpt_o1_workload, generate_sharegpt_workload
from repro.workloads.spec import Workload as RequestList

#: The fast-versus-reference check replays the first 1/CHECK_SHARE of shard 0.
CHECK_SHARE = 8


def stream_seeds(seed: int) -> list[int]:
    """Two independent 32-bit seeds for one shard's stochastic stages."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(2)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: ``shards`` independent inputs of one shape."""

    name: str
    params: dict[str, Any]
    generate: Callable[[int], Any] = field(repr=False)
    build: Callable[..., Any] = field(repr=False)
    run: Callable[[Any, Any], Any] = field(repr=False)
    fingerprint: Callable[[Any], str] = field(repr=False)

    def shard_seeds(self, seed: int) -> list[int]:
        """One seed per shard, derived from the command-line seed."""
        return [
            int(np.random.SeedSequence([seed, shard]).generate_state(1)[0])
            for shard in range(self.params["shards"])
        ]

    def check_inputs(self, inputs):
        """The first 1/:data:`CHECK_SHARE` of one shard's inputs."""
        if isinstance(inputs, RequestList):
            head = inputs.requests[: max(1, len(inputs) // CHECK_SHARE)]
            return RequestList(name=inputs.name, requests=head, description=inputs.description)
        return inputs[: max(1, len(inputs) // CHECK_SHARE)]

    def params_digest(self) -> str:
        """sha256 of the parameter table (canonical JSON)."""
        blob = json.dumps({"name": self.name, **self.params}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------- single_knee
#: One engine at the knee of the paper's Fig. 7, where the Past-Future
#: admission trade-off (queueing against harmful evictions) decides goodput.
#: 52 clients put SLA attainment near 0.5 with occasional evictions; the
#: saturated-phase horizon proof is about half the host time.  Attainment
#: and latency swing with each shard's dynamics, so eight shards are pooled.
SINGLE_KNEE = {
    "shards": 8,
    "platform": "7b-a100",
    "scheduler": "past-future",
    "reserved_fraction": 0.03,
    "num_samples": 4,
    "chunked_prefill_tokens": 2048,
    "num_requests": 1000,
    "num_clients": 52,
    # generate_sharegpt_o1_workload's length laws: (mean, sigma, low, high).
    "input_law": (381.0, 0.9, 8, 4096),
    "output_law": (2160.0, 0.7, 64, 8192),
}


def stratified_lognormal(
    rng: np.random.Generator, mean: float, sigma: float, size: int, low: int, high: int
) -> np.ndarray:
    """Clipped log-normal lengths drawn by Latin-hypercube sampling.

    The law of the repo's ShareGPT generators (``mu = log(mean) - sigma**2 /
    2``, rounded and clipped to ``[low, high]``), but each of the ``size``
    equal-probability strata gets exactly one draw, in a seeded order.  At
    the knee, goodput swings by tens of percent with the few percent of
    total load by which plain draws differ between seeds; stratified draws
    keep the offered load fixed so the metrics measure the system.
    """
    mu = np.log(mean) - sigma**2 / 2.0
    u = (rng.permutation(size) + rng.uniform(1e-9, 1.0 - 1e-9, size)) / size
    z = np.array([NormalDist().inv_cdf(float(x)) for x in u])
    return np.clip(np.round(np.exp(mu + sigma * z)), low, high).astype(int)


def _single_knee_generate(seed: int) -> RequestList:
    params = SINGLE_KNEE
    size = params["num_requests"]
    rng = np.random.default_rng(stream_seeds(seed)[0])
    (in_mean, in_sigma, in_low, in_high), (out_mean, out_sigma, out_low, out_high) = (
        params["input_law"],
        params["output_law"],
    )
    inputs = stratified_lognormal(rng, in_mean, in_sigma, size, in_low, in_high)
    outputs = stratified_lognormal(rng, out_mean, out_sigma, size, out_low, out_high)
    base = generate_sharegpt_o1_workload(size, seed=stream_seeds(seed)[0], max_new_tokens=out_high)
    requests = [
        replace(spec, input_length=int(i), output_length=int(o))
        for spec, i, o in zip(base.requests, inputs, outputs)
    ]
    return RequestList(name="sharegpt-o1-stratified", requests=requests, description=base.description)


def _single_knee_build(seed: int, fast_path: bool = True) -> ServingSimulator:
    params = SINGLE_KNEE
    platform = paper_platform(params["platform"])
    scheduler = create_scheduler(
        params["scheduler"],
        reserved_fraction=params["reserved_fraction"],
        seed=stream_seeds(seed)[1],
        num_samples=params["num_samples"],
    )
    return ServingSimulator(
        platform,
        scheduler,
        token_capacity_override=platform.token_capacity,
        chunked_prefill_tokens=params["chunked_prefill_tokens"],
        fast_path=fast_path,
    )


def _single_knee_run(simulator: ServingSimulator, workload: RequestList):
    return simulator.run_closed_loop(workload, num_clients=SINGLE_KNEE["num_clients"])


# -------------------------------------------------------------- fleet32_burst
#: A 32-replica fleet under bursty open-loop traffic: the O(R) costs of
#: routing (views built and scored per arrival) dominate, the per-replica
#: scheduler is cheap.  Arrivals are stamped in simulated time, so the
#: generator can never run late.  64 replicas took too long to repeat.
FLEET32_BURST = {
    "shards": 3,
    "platform": "7b-a100",
    "num_replicas": 32,
    "capacity_divisor": 16,
    "router": "memory-aware",
    "scheduler": "aggressive",
    "watermark": 0.95,
    "chunked_prefill_tokens": 2048,
    "requests_per_replica": 50,
    # The fig10 arrival shape (4 replicas: 0.2 / 8.0 req/s, bursts of 80 in
    # cycles of 100) scaled by replicas / 4, so each replica sees the same
    # load as one of fig10's.
    "base_rate": 0.2 * 32 / 4,
    "burst_rate": 8.0 * 32 / 4,
    "burst_length": 80 * 32 // 4,
    "cycle_length": 100 * 32 // 4,
}


def _fleet32_generate(seed: int) -> RequestList:
    params = FLEET32_BURST
    lengths_seed, arrivals_seed = stream_seeds(seed)
    workload = generate_sharegpt_workload(
        params["num_replicas"] * params["requests_per_replica"], seed=lengths_seed
    )
    return assign_bursty_arrivals(
        workload,
        base_rate=params["base_rate"],
        burst_rate=params["burst_rate"],
        burst_length=params["burst_length"],
        cycle_length=params["cycle_length"],
        seed=arrivals_seed,
    )


def _fleet32_build(seed: int, fast_path: bool = True) -> ClusterSimulator:
    params = FLEET32_BURST
    platform = paper_platform(params["platform"])
    return ClusterSimulator(
        platform=platform,
        num_replicas=params["num_replicas"],
        router=params["router"],
        scheduler_name=params["scheduler"],
        scheduler_kwargs={"watermark": params["watermark"]},
        token_capacity_override=platform.token_capacity // params["capacity_divisor"],
        chunked_prefill_tokens=params["chunked_prefill_tokens"],
        fast_path=fast_path,
    )


def _fleet32_run(simulator: ClusterSimulator, workload: RequestList):
    return simulator.run_open_loop(workload)


# ------------------------------------------------------------ sessions_prefix
#: Four replicas serving closed-loop multi-turn sessions with the prefix
#: cache at half of each pool: reuse (pin/rename/claim) under eviction
#: pressure, and spawned turns clipping jump horizons, so the engine and
#: cost model carry the host time while routing costs little.
SESSIONS_PREFIX = {
    "shards": 3,
    "platform": "7b-a100",
    "num_replicas": 4,
    "capacity_divisor": 8,
    "prefix_cache_divisor": 16,
    "router": "session-affinity",
    "scheduler": "aggressive",
    "watermark": 0.95,
    "chunked_prefill_tokens": 8192,
    "num_sessions": 450,
    "mean_prompt_tokens": 256.0,
    "mean_output_tokens": 128.0,
    "min_turns": 2,
    "max_turns": 8,
    "think_time": 20.0,
    "start_spacing": 2.5,
}


def _sessions_generate(seed: int):
    params = SESSIONS_PREFIX
    return generate_interactions(
        params["num_sessions"],
        seed=stream_seeds(seed)[0],
        mean_prompt_tokens=params["mean_prompt_tokens"],
        mean_output_tokens=params["mean_output_tokens"],
        min_turns=params["min_turns"],
        max_turns=params["max_turns"],
        think_time=params["think_time"],
        start_spacing=params["start_spacing"],
    )


def _sessions_build(seed: int, fast_path: bool = True) -> ClusterSimulator:
    params = SESSIONS_PREFIX
    platform = paper_platform(params["platform"])
    return ClusterSimulator(
        platform=platform,
        num_replicas=params["num_replicas"],
        router=params["router"],
        scheduler_name=params["scheduler"],
        scheduler_kwargs={"watermark": params["watermark"]},
        token_capacity_override=platform.token_capacity // params["capacity_divisor"],
        prefix_cache_tokens=platform.token_capacity // params["prefix_cache_divisor"],
        chunked_prefill_tokens=params["chunked_prefill_tokens"],
        fast_path=fast_path,
    )


def _sessions_run(simulator: ClusterSimulator, interactions):
    return simulator.run_sessions(interactions)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "single_knee", SINGLE_KNEE, _single_knee_generate, _single_knee_build, _single_knee_run, run_fingerprint
        ),
        Workload(
            "fleet32_burst", FLEET32_BURST, _fleet32_generate, _fleet32_build, _fleet32_run, cluster_fingerprint
        ),
        Workload(
            "sessions_prefix",
            SESSIONS_PREFIX,
            _sessions_generate,
            _sessions_build,
            _sessions_run,
            cluster_fingerprint,
        ),
    )
}

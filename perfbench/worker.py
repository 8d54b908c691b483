"""One measurement in a fresh process: ``python -m perfbench.worker '<json request>'``.

The request names the workload, the seed and a mode:

``setup``
    Import ``repro``, generate every shard's inputs and construct the first
    simulator, then report how long that took (``setup_s``) and stop.
``measure``
    Set up, run a warm-up that is not counted, then time passes over all
    shards, each ``run_*`` call on a fresh simulator, until the timed calls
    add up to ``seconds``.  Reports the end-to-end metrics.
``trace``
    Warm up, time one untraced pass, then one pass with the layer wrappers
    of :mod:`perfbench.layers` installed; shard 0's traced digest must equal
    its untraced one.  Reports the per-layer metrics and writes the spans.

The warm-up is the first 1/CHECK_SHARE of shard 0 (the *check share*) on the
fast path.  Outside timing, the check share is also replayed through the
reference loop (``fast_path=False``), and in ``measure`` mode once more on
the fast path after the timed passes; every digest must equal the warm-up's.

The last line of standard output is one JSON object.  Nothing from
``repro`` is imported before the clock for ``setup_s`` starts.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

#: Fewest timed passes per measurement.
MIN_PASSES = 1

#: Per-layer metric names of each span's (call count, self seconds).
SPAN_METRICS = {
    "routing.decide": ("routing.decide_calls", "routing.decide_s"),
    "routing.view": ("routing.views_built", "routing.view_s"),
    "scheduler.schedule": ("scheduler.schedule_calls", "scheduler.schedule_s"),
    "scheduler.horizon": ("scheduler.horizon_calls", "scheduler.horizon_s"),
    "core.predictor": ("core.predictor_calls", "core.predictor_s"),
    "engine.step": ("engine.step_calls", "engine.step_s"),
    "engine.jump": ("engine.jump_calls", "engine.jump_s"),
    "cost_model": ("cost_model.calls", "cost_model.s"),
    "memory.pool": ("memory.pool_calls", "memory.pool_s"),
    "memory.prefix": (None, "memory.prefix_s"),
}


def _timed_run(workload, simulator, inputs):
    gc.collect()
    start = time.perf_counter()
    result = workload.run(simulator, inputs)
    return result, time.perf_counter() - start


def _check_share(workload, shards, fast_path: bool = True) -> tuple[list[str], str]:
    """Run the first 1/CHECK_SHARE of shard 0, not timed; returns (problems, digest)."""
    from perfbench.summary import check_result

    seed, inputs = shards[0]
    check = workload.check_inputs(inputs)
    result = workload.run(workload.build(seed, fast_path=fast_path), check)
    return check_result(result, check), workload.fingerprint(result)


#: Replays of the check share after the warm-up: (fast_path, what a digest
#: different from the warm-up's would mean).
REPLAYS = (
    (True, "result digest changed between runs of one input"),
    (False, "fast-path digest differs from the fast_path=False digest"),
)


def _replay_problems(workload, shards, warm_digest: str, replays=REPLAYS) -> list[str]:
    """Replay the check share; each digest must equal the warm-up's."""
    problems = []
    for fast_path, what in replays:
        check_problems, digest = _check_share(workload, shards, fast_path)
        problems += check_problems
        if digest != warm_digest:
            problems.append(f"check share: {what}")
    return problems


def measure(workload, shards, simulator, seconds: float) -> dict:
    """Timed passes plus the end-to-end metrics of the first pass."""
    from perfbench.summary import check_result, end_to_end, observe, pooled_counts

    problems, warm_digest = _check_share(workload, shards)
    times: list[list[float]] = [[] for _ in shards]
    observations = []
    summarize_s = 0.0
    passes = 0
    measured = 0.0
    while passes < MIN_PASSES or measured < seconds:
        for shard, (seed, inputs) in enumerate(shards):
            result, elapsed = _timed_run(workload, simulator or workload.build(seed), inputs)
            simulator = None
            measured += elapsed
            times[shard].append(elapsed)
            problems += check_result(result, inputs)
            if passes == 0:
                started = time.perf_counter()
                observations.append(observe(result))
                summarize_s += time.perf_counter() - started
            del result
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    started = time.perf_counter()
    metrics = end_to_end(observations)
    summarize_s += time.perf_counter() - started
    problems += _replay_problems(workload, shards, warm_digest)
    return {
        # Host seconds to run the whole workload once: per shard, the
        # median over passes.
        "run_s": sum(statistics.median(samples) for samples in times),
        "run_samples": times,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "counts": pooled_counts(observations),
        "summarize_s": summarize_s,
        "problems": problems,
    }


def trace(workload, shards, simulator, out: Path) -> dict:
    """One untraced and one traced pass, and the per-layer metrics."""
    from perfbench.layers import LOOP, SpanRecorder, installed
    from perfbench.summary import check_result, observe, pooled_counts, simulated_layers

    problems, warm_digest = _check_share(workload, shards)
    problems += _replay_problems(workload, shards, warm_digest, REPLAYS[1:])
    untraced_s = 0.0
    for shard, (seed, inputs) in enumerate(shards):
        result, elapsed = _timed_run(workload, simulator or workload.build(seed), inputs)
        simulator = None
        untraced_s += elapsed
        if shard == 0:
            digest = workload.fingerprint(result)
        problems += check_result(result, inputs)
        del result

    recorder = SpanRecorder()
    simulators = [workload.build(seed) for seed, _ in shards]
    observations = []
    summarize_s = 0.0
    gc.collect()
    with installed(recorder):
        for shard, ((_, inputs), simulator) in enumerate(zip(shards, simulators)):
            with recorder.span(LOOP):
                result = workload.run(simulator, inputs)
            problems += check_result(result, inputs)
            if shard == 0 and workload.fingerprint(result) != digest:
                problems.append("shard 0: traced digest differs from the untraced digest")
            started = time.perf_counter()
            observations.append(observe(result))
            summarize_s += time.perf_counter() - started
            del result

    started = time.perf_counter()
    layers = simulated_layers(observations)
    summarize_s += time.perf_counter() - started
    totals = recorder.totals()
    for span, (calls_name, seconds_name) in SPAN_METRICS.items():
        calls, _, self_s = totals.get(span, (0, 0.0, 0.0))
        if calls_name is not None:
            layers[calls_name] = float(calls)
        layers[seconds_name] = self_s
    _, traced_s, layers["loop.self_s"] = totals[LOOP]
    consults = layers["scheduler.schedule_calls"]
    admitted = layers.pop("scheduler.admissions")
    layers["scheduler.admitted_per_consult"] = admitted / consults if consults else 0.0
    layers["metrics.summarize_s"] = summarize_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    recorder.write(out)
    return {
        "layers": layers,
        "counts": pooled_counts(observations),
        "passes": 2,
        "spans": len(recorder),
        "untraced_run_s": untraced_s,
        "traced_run_s": traced_s,
        "problems": problems,
    }


def main(argv: list[str]) -> int:
    """Run the measurement ``argv[1]`` describes and print its JSON result."""
    started = time.perf_counter()
    request = json.loads(argv[1])
    # Imported inside the timed set-up on purpose: importing repro is part
    # of what setup_s measures.
    from perfbench.scenarios import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    generate_started = time.perf_counter()
    shards = [(seed, workload.generate(seed)) for seed in workload.shard_seeds(request["seed"])]
    generate_s = time.perf_counter() - generate_started
    simulator = workload.build(shards[0][0])
    report = {"setup_s": time.perf_counter() - started, "generate_s": generate_s}
    if request["mode"] == "measure":
        report.update(measure(workload, shards, simulator, request["seconds"]))
    elif request["mode"] == "trace":
        report.update(trace(workload, shards, simulator, Path(request["spans"])))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Tests of the benchmark itself: names, percentile rule, failure base, wrapper neutrality."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from perfbench import run
from perfbench.layers import LOOP, SpanRecorder, installed, layer_targets
from perfbench.scenarios import WORKLOADS
from perfbench.summary import (
    check_result,
    outcome_shares,
    percentile,
    request_counts,
    tail_percentile,
)
from repro.hardware.platform import paper_platform
from repro.schedulers.registry import create_scheduler
from repro.serving.server import ServingSimulator
from repro.workloads.spec import RequestSpec, Workload


#: Metric names must survive every consumer (JSON keys, file names, shells).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _benchmark_json()
    for name in [*run.END_TO_END, *run.PER_LAYER, *WORKLOADS]:
        assert METRIC_NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    ("count", "expected"),
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_refuses_an_unsupported_tail():
    assert percentile(np.arange(1000.0), 99.0) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="p99 needs 10 samples"):
        percentile(np.arange(999.0), 99.0)


def test_failed_share_counts_stranded_requests_of_a_halted_run():
    # One prompt larger than the pool halts the run with requests stranded.
    requests = [RequestSpec(f"r{i}", input_length=32, output_length=8, max_new_tokens=16) for i in range(4)]
    requests.insert(2, RequestSpec("huge", input_length=4096, output_length=8, max_new_tokens=16))
    workload = Workload(name="halting", requests=requests)
    simulator = ServingSimulator(
        paper_platform("7b-a100"), create_scheduler("aggressive"), token_capacity_override=1024
    )
    result = simulator.run_closed_loop(workload, num_clients=1)
    counts = request_counts(result)
    assert not result.completed
    assert counts["submitted"] == 3 and counts["finished"] == 2 and counts["unfinished"] == 1
    assert outcome_shares(counts) == (2 / 3, 1 / 3)
    assert check_result(result, workload) == []


def test_check_result_catches_a_dropped_request():
    workload = WORKLOADS["fleet32_burst"]
    inputs = workload.check_inputs(workload.generate(0))
    result = workload.run(workload.build(0), inputs)
    assert check_result(result, inputs) == []
    result.replicas[0].requests.pop()
    assert any("conservation" in problem for problem in check_result(result, inputs))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_leave_the_digest_unchanged_and_are_removed(name):
    workload = WORKLOADS[name]
    inputs = workload.check_inputs(workload.generate(0))
    untraced = workload.fingerprint(workload.run(workload.build(0), inputs))
    originals = {(cls, method): vars(cls)[method] for targets in layer_targets().values() for cls, method in targets}

    recorder = SpanRecorder()
    simulator = workload.build(0)
    with installed(recorder):
        with recorder.span(LOOP):
            traced = workload.fingerprint(workload.run(simulator, inputs))

    assert traced == untraced
    assert all(vars(cls)[method] is original for (cls, method), original in originals.items())
    totals = recorder.totals()
    assert totals[LOOP][0] == 1
    assert totals["engine.step"][0] > 0 and totals["cost_model"][0] > 0
    inclusive_run = totals[LOOP][1]
    assert sum(self_s for _, _, self_s in totals.values()) == pytest.approx(inclusive_run)


def test_reentrant_calls_record_one_span():
    recorder = SpanRecorder()

    class Layer:
        def outer(self, request_id):
            return self.inner(request_id)

        def inner(self, request_id):
            return request_id

    Layer.outer = recorder.wrap("layer", Layer.outer)
    Layer.inner = recorder.wrap("layer", Layer.inner)
    assert Layer().outer("req-7") == "req-7"
    assert recorder.totals()["layer"][0] == 1
    assert recorder.request_ids == {0: "req-7"}

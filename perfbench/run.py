"""Goodput-under-SLA and host-cost benchmark of the serving simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload single_knee --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
measurement and prints the per-layer metrics.  Every measurement runs in a
fresh single-threaded worker process (:mod:`perfbench.worker`), one at a
time.  Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A copy of
the result with its manifest (commit, seed, parameter digest, Python and
numpy versions) is written to ``.perfbench_out/``.

The exit code is 0 when every correctness check passed, 1 when one failed
(the JSON line then says ``"correct": false``), and 2 when the checkout has
no simulator source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh set-up-only workers per run; ``setup_s`` is the median over them and
#: the measuring worker's own set-up.
SETUP_SAMPLES = 4

#: Whole-command budget; workers are killed if they would overrun it.
DEADLINE_S = 170.0

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_tok_s": "tok/s",
    "sla_attainment": "ratio",
    "ttft_p50_s": "s",
    "ttft_p99_s": "s",
    "mtpot_p99_s": "s",
    "finished_share": "ratio",
}

#: Per-layer metrics (``--trace 1``) and their units.  ``*_s`` timings are
#: self times of the traced run, so they add up to it.
PER_LAYER = {
    "loop.self_s": "s",
    "routing.decide_calls": "count",
    "routing.decide_s": "s",
    "routing.views_built": "count",
    "routing.view_s": "s",
    "routing.deferred": "count",
    "routing.rejected": "count",
    "scheduler.schedule_calls": "count",
    "scheduler.schedule_s": "s",
    "scheduler.horizon_calls": "count",
    "scheduler.horizon_s": "s",
    "scheduler.admitted_per_consult": "req/call",
    "scheduler.queue_wait_p50_s": "s",
    "scheduler.queue_wait_p99_s": "s",
    "core.predictor_calls": "count",
    "core.predictor_s": "s",
    "engine.step_calls": "count",
    "engine.step_s": "s",
    "engine.jump_calls": "count",
    "engine.jump_s": "s",
    "engine.jump_success": "ratio",
    "engine.fused_fraction": "ratio",
    "engine.evictions_per_request": "1/req",
    "engine.batch_size_mean": "req",
    "cost_model.calls": "count",
    "cost_model.s": "s",
    "memory.pool_calls": "count",
    "memory.pool_s": "s",
    "memory.util_mean": "ratio",
    "memory.prefix_hit_rate": "ratio",
    "memory.prefix_evictions": "count",
    "memory.prefix_reused_tokens": "tokens",
    "memory.prefix_s": "s",
    "workloads.generate_s": "s",
    "metrics.summarize_s": "s",
    "trace.overhead_s": "s",
}


def worker_env() -> dict[str, str]:
    """Environment of a worker: the checkout's sources, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(request: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline reached before a worker could start")
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", json.dumps(request)],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head_file = ROOT / ".git" / "HEAD"
    if not head_file.is_file():
        return "unknown"
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the simulator's source files, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(workload, seed: int) -> dict:
    """What a later run needs to reproduce this one."""
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "params_sha256": workload.params_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end_run(workload, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Set-up samples plus one measuring worker; returns (metrics, report)."""
    request = {"workload": workload.name, "seed": seed}
    setups = [run_worker({**request, "mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    report = run_worker({**request, "mode": "measure", "seconds": seconds}, deadline)
    setups.append(report["setup_s"])
    values = {
        "run_s": report["run_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    values.update({name: entry["value"] for name, entry in report["metrics"].items()})
    samples = [["%.3f" % s for s in shard] for shard in report["run_samples"]]
    print(f"{workload.name}: {report['passes']} timed passes, per shard {samples} s; "
          f"set-up samples {['%.3f' % s for s in setups]} s")
    for name, unit in END_TO_END.items():
        sample = report["metrics"].get(name, {}).get("n")
        count = f"  (n={sample})" if sample is not None else ""
        print(f"  {name:<16} {values[name]:>14.6g} {unit}{count}")
    failed = report["metrics"]["failed_share"]
    print(f"  {'failed_share':<16} {failed['value']:>14.6g} ratio  (n={failed['n']})")
    report["setup_samples"] = setups
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, report


def per_layer_run(workload, seed: int, deadline: float) -> tuple[dict, dict]:
    """One tracing worker; returns (metrics, report)."""
    spans = OUT_DIR / f"{workload.name}-seed{seed}.spans.npz"
    request = {"workload": workload.name, "seed": seed, "mode": "trace", "spans": str(spans)}
    report = run_worker(request, deadline)
    layers = report["layers"]
    layers["workloads.generate_s"] = report["generate_s"]
    if set(layers) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics differ from the declared set: {sorted(set(layers) ^ set(PER_LAYER))}")
    print(f"{workload.name}: traced pass {report['traced_run_s']:.3f} s over {report['spans']} spans "
          f"(untraced {report['untraced_run_s']:.3f} s); spans in {spans.relative_to(ROOT)}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<32} {layers[name]:>14.6g} {unit}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}, report


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the workers, print and record the result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, report = per_layer_run(workload, args.seed, deadline)
    else:
        metrics, report = end_to_end_run(workload, args.seed, args.seconds, deadline)
    problems = report["problems"]
    counts = report["counts"]
    attempted = counts["submitted"] * report["passes"]
    failed = (counts["submitted"] - counts["finished"]) * report["passes"]
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {"manifest": manifest(workload, args.seed), "result": result, "report": report}
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

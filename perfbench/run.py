"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in fresh single-threaded worker processes
(``perfbench/worker.py``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``setup_s`` is the median of several fresh-process
set-ups.  ``--trace 1`` runs the workload once traced, for the per-layer
metrics, and once untraced, and prints the tracing overhead as the difference
between the two.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("serve-uniform", "ingest-mixed", "train-darec")
SERVING = ("serve-uniform", "ingest-mixed")
#: Fresh-process set-ups per untraced run (the worker's own counts as one).
SETUP_SAMPLES = 5
#: Wall-clock budget of one invocation for one workload.
BUDGET_S = 170.0
#: One process, one thread: no BLAS or OpenMP pools.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """A worker failed or ran out of time; no result is printed."""


def _worker(mode: str, workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """Start one worker; return ``(seconds to READY, parsed result or None)``."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work", str(WORK),
    ]
    env = dict(os.environ, **THREAD_ENV)
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    # A worker that overruns the budget is killed, which ends the read loop.
    watchdog = threading.Timer(max(deadline - started, 0.0), process.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in process.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if time.perf_counter() >= deadline:
        raise BenchError(f"{workload} {mode} worker exceeded the time budget")
    if code != 0:
        raise BenchError(f"{workload} {mode} worker exited with code {code}")
    if mode == "run":
        if not lines:
            raise BenchError(f"{workload} worker printed no result")
        return ready, json.loads(lines[-1])
    return ready, None


def ensure_corpus(seed: int, deadline: float) -> None:
    """Build the seeded serving corpus once per checkout (outside all timing)."""
    from worker import corpus_path

    path = corpus_path(WORK, seed)
    if not (path.exists() and path.with_name(path.name + ".manifest.json").exists()):
        _worker("corpus", "serve-uniform", seed, 0, 0, deadline)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    WORK.mkdir(exist_ok=True)
    if workload in SERVING:
        ensure_corpus(seed, deadline)
    if trace:
        _, traced = _worker("run", workload, seed, seconds, 1, deadline)
        ready, untraced = _worker("run", workload, seed, seconds, 0, deadline)
        traced["setup_s"] = untraced["setup_s"] = ready
        return {"traced": traced, "untraced": untraced}
    ready, result = _worker("run", workload, seed, seconds, 0, deadline)
    samples = [ready]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(_worker("setup", workload, seed, seconds, 0, deadline)[0])
    result["setup_s"] = statistics.median(samples)
    result["setup_samples"] = samples
    return {"untraced": result}


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def end_to_end_values(result: dict) -> dict[str, float]:
    values = dict(result["end_to_end"])
    values["setup_s"] = result["setup_s"]
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, outcome: dict, spec: dict, catalogue: dict) -> dict:
    """Print the human-readable report; return the contract's result object."""
    untraced = outcome["untraced"]
    traced = outcome.get("traced")
    print(f"== {workload}  seed={seed}  trace={int(traced is not None)} ==")
    print(f"why: {catalogue['workloads'][workload]['why']}")

    print("end-to-end (untraced run):")
    values = end_to_end_values(untraced)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        meaning = catalogue["end_to_end"][name]["per_workload"][workload]
        print(f"  {name:<24} {_fmt(values[name]):>14} {metric['unit']:<6} = {meaning}")
    if "setup_samples" in untraced:
        samples = ", ".join(_fmt(x) for x in untraced["setup_samples"])
        print(f"  (setup_s is the median of {len(untraced['setup_samples'])} fresh processes: {samples})")
    for name, row in untraced["detail"].items():
        unit = catalogue["detail"][name]["unit"]
        pct = f", p{row['pct']:g}" if row.get("pct") is not None else ""
        print(f"  {name:<24} {_fmt(row['value']):>14} {unit:<6} (n={row['n']}{pct})")
    attempted, failed = untraced["attempted"], untraced["failed"]
    print(f"  {'fail_frac':<24} {_fmt(failed / attempted):>14} {'frac':<6} ({failed} failed / {attempted} attempted)")
    for phase, counts in untraced["phases"].items():
        print(
            f"  phase {phase:<7} sent={counts['sent']} ok={counts['ok']} "
            f"failed={counts['failed']} wall={_fmt(counts['wall_s'])} s"
        )
    if untraced.get("lag", {}).get("n"):
        lag = untraced["lag"]
        print(
            f"  generator lag (open loop): p50={_fmt(lag['p50'])} ms "
            f"p{lag['tail_pct']:g}={_fmt(lag['tail'])} ms (n={lag['n']})"
        )
    for note in untraced.get("notes", []):
        print(f"  note: {note}")

    metrics: dict[str, dict] = {}
    if traced is None:
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    else:
        print("per-layer (traced run):")
        layers = catalogue["per_layer"]
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = traced["per_layer"][name]
            metrics[name] = {"value": value, "unit": metric["unit"]}
            print(f"  {name:<32} {_fmt(value):>14} {metric['unit']:<6} [{layers[name]['layer']}]")
        if traced.get("flush_breakdown_ms"):
            block = traced["flush_block_ms"]
            print(f"closed-loop flush wall time {_fmt(block)} ms, by layer self time:")
            for name, value in sorted(traced["flush_breakdown_ms"].items(), key=lambda kv: -kv[1]):
                print(f"  {name:<24} {_fmt(value):>12} ms  {value / block:7.2%}")
            rest = block - sum(traced["flush_breakdown_ms"].values())
            print(f"  {'(unattributed)':<24} {_fmt(rest):>12} ms  {rest / block:7.2%}")
        if traced.get("missing_targets"):
            print(f"  trace targets not found: {', '.join(traced['missing_targets'])}")
        print("tracing overhead (traced - untraced):")
        traced_values = end_to_end_values(traced)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name == "setup_s":
                continue
            delta = traced_values[name] - values[name]
            print(f"  {name:<24} {_fmt(delta):>14} {metric['unit']:<6} ({_fmt(traced_values[name])} vs {_fmt(values[name])})")
        attempted += traced["attempted"]
        failed += traced["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program's sources (src/repro) are not in this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "metrics.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.workload != "all":
            outcome = run_workload(args.workload, args.seed, seconds, args.trace)
            result = report(args.workload, args.seed, outcome, spec, catalogue)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    outcome = run_workload(workload, args.seed, seconds, trace)
                    part = report(workload, args.seed, outcome, spec, catalogue)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, value in part["metrics"].items():
                        result["metrics"][f"{workload}/{name}"] = value
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

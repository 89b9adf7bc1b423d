"""Benchmark entry point.

One workload per run, in a fresh process:

    python3 perfbench/run.py --workload week_batch --seed 1 --seconds 18 --trace 0

prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). With
``--workload all`` it runs every workload, each in its own process,
and prints one result line per workload. Inputs are generated from
``--seed`` by the program's own generators; all scratch files live
under ``.perfbench/`` at the root of the checkout and are removed
before the run ends. Exits 2, printing no result, when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
NAMES = ("week_batch", "online_week", "daily_shards", "mechanistic_gen")


def declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def plain_run(workload, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Set up several times, replay whole rounds for up to ``seconds``
    (at least one), check."""
    setups = []
    for _ in range(workload.size.setups):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    workload.warm_up()

    latencies: list[float] = []
    sessions = attempted = failed = 0
    first = None
    errors: list[str] = []
    digests = set()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        attempted += workload.ops_per_round
        try:
            round_ = workload.run_round()
        except Exception:
            traceback.print_exc()
            failed += workload.ops_per_round
        else:
            latencies += round_.latencies
            sessions += round_.sessions
            digests.add(workload.digest(round_.outputs))
            if first is None:
                first = round_.outputs
        now = time.perf_counter()
        # Stop unless another round as long as this one still fits.
        if (now - start) + (now - round_start) > seconds:
            break

    if first is None:
        errors.append(f"{workload.name}: no round completed")
    else:
        if len(digests) > 1:
            errors.append(f"{workload.name}: rounds over the same inputs disagree")
        try:
            errors += workload.check(first)
        except Exception as exc:
            traceback.print_exc()
            errors.append(f"{workload.name}: check raised {exc!r}")
    metrics = {
        "setup_s": statistics.median(setups),
        # Per second spent inside the workload's operations: round
        # bookkeeping (fresh directories, output digests) is left out.
        "sessions_per_s": sessions / sum(latencies) if latencies else math.nan,
        "op_latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, attempted, failed, errors


def traced_run(name: str, workloads: dict, seed: int, size, work: Path,
               spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics: every workload's round with spans around its
    layers; the chosen workload also runs one round untraced, which
    gives the benchmark's own tracing overhead and the outputs the
    traced round must reproduce."""
    from spans import SpanRecorder

    rec = SpanRecorder()
    metrics: dict[str, float] = {}
    errors: list[str] = []
    attempted = 0
    for wname, cls in workloads.items():
        wl = cls(seed, size, work / wname)
        try:
            wl.setup()
            wl.warm_up()
            plain = wl.run_round() if wname == name else None
            with rec.span("bench", f"{wname}.traced_round"):
                traced, layer_metrics = wl.traced_round(rec)
            attempted += wl.ops_per_round * (2 if plain else 1)
            metrics.update(layer_metrics)
            if plain is not None:
                if wl.digest(plain.outputs) != wl.digest(traced.outputs):
                    errors.append(f"{wname}: traced round disagrees with the untraced round")
                # sessions_per_s untraced over traced: 1.05 is 5% overhead.
                metrics["bench.traced_time_ratio"] = (
                    (plain.sessions / plain.busy_s) / (traced.sessions / traced.busy_s)
                )
        except Exception as exc:
            # The missing metrics then fail the run's name check too.
            traceback.print_exc()
            errors.append(f"{wname}: traced round raised {exc!r}")
        finally:
            wl.close()
    rec.write(spans_path, workload=name, seed=seed)
    return metrics, attempted, 0, errors


def run_one(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro  # the program under test, from this checkout only
        from workloads import SIZES, WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    size = SIZES[args.size]
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, errors = traced_run(
                args.workload, WORKLOADS, args.seed, size, work, spans_path
            )
            units = declared_metrics("per_layer")
        else:
            wl = WORKLOADS[args.workload](args.seed, size, work)
            try:
                metrics, attempted, failed, errors = plain_run(wl, args.seconds)
            finally:
                wl.close()
            units = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if work.exists():
        errors.append(f"scratch directory {work} was not removed")
    if set(metrics) != set(units):
        errors.append(
            f"metrics measured {sorted(metrics)} differ from those declared {sorted(units)}"
        )
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one result line each."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
        print(json.dumps({"workload": name, **results[name]}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def stop_helper_processes() -> None:
    """Stop the helpers multiprocessing starts on demand and wait for
    each to end: the resource tracker that shared-memory segments start,
    a fork server, and any worker not yet joined. Left alone, the
    tracker outlives this process until it reads end-of-file."""
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="input make-up; 'quick' is for the output self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        stop_helper_processes()


if __name__ == "__main__":
    sys.exit(main())

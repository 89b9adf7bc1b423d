"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads week_batch,online_week] [--first-seed 100]

runs the benchmark ``--runs`` times per workload, each run a fresh
process with its own seed, and prints per metric the median and the
interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the bound
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        walls = []
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.first_seed + i),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed |= not result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: correct={not failed} failed-share={sorted(shares)} "
              f"run wall time mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:20s} median {med:12.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  (spread/bound {spread / bounds[name]:.2f})  "
                  f"values {' '.join(f'{v:.4g}' for v in vals)}")
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

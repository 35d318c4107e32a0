#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and its
quartile spread, (Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives
the quartiles.

    python3 bench/spread.py --workload dense-series --seeds 1-10
    python3 bench/spread.py --workload all --seeds 1-10 --record

``--record`` stores the figures under the workload in ``BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, spec

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "BASELINE.json"


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def measure(workload, seed_list, seconds):
    values, failed, attempted, incorrect = {}, 0, 0, 0
    for seed in seed_list:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
            check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v["value"], 5)
                               for k, v in result["metrics"].items()}, flush=True)
    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "spread": (q3 - q1) / median,
                         "runs": len(series)}
    return summary, failed, attempted, incorrect


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    for workload in workloads:
        summary, failed, attempted, incorrect = measure(workload, args.seeds,
                                                        args.seconds)
        print(f"{workload}: {failed} of {attempted} documents failed,"
              f" {incorrect} runs not correct")
        for name, row in summary.items():
            print(f"  {name:14s} median {row['median']:.6g}  spread {row['spread']:.4f}")
        baseline[workload] = {"seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
                              "seconds": args.seconds, "failed": failed,
                              "attempted": attempted, "metrics": summary}
    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()

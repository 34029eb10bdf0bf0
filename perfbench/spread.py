"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads upload_stream mixed_dedup --seeds 1-10

Runs run.py (untraced) once per (workload, seed), one at a time, and prints
for each end-to-end metric the median and the interquartile distance
(Python's ``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  A spread under a third of
the bound is the target.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["stdout"] = lines[:-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            began = perf_counter()
            result = run_once(workload, seed, seconds, 0)
            wall = perf_counter() - began
            values = " ".join(f"{name}={m['value']:.4g}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall_s={wall:.1f} {values}", flush=True)
            runs.append(result)
        print(f"\n{workload} ({len(runs)} runs, {seconds} s each)")
        print(f"  {'metric':34s} {'median':>14s} {'iqr/median':>11s} {'bound':>7s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "" if share < bound / 3 else "  <-- above bound/3"
            print(f"  {name:34s} {med:14.4f} {share:11.4f} {bound:>7}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

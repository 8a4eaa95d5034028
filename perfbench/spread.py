#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload predict-complete --seeds 1-10 [--trace 1] [--json FILE]

Runs perfbench/run.py once per seed, one after another, with the run
length of BENCHMARK.json, and prints per metric the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, plus the same for the control loop and the failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2].removeprefix("# info "))
    info["process_s"] = time.perf_counter() - start
    return result, info


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run and the summary here")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        result, info = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "result": result, "info": info})
        vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: ok={result['correct']} {result['failed']}/{result['attempted']} "
              f"{json.dumps(vals) if len(vals) < 8 else ''} {json.dumps(info)}", flush=True)

    table = {}
    for name in runs[0]["result"]["metrics"]:
        table[name] = summary([r["result"]["metrics"][name]["value"] for r in runs])
    for name in ("control_loop_s", "process_s", "op_p90_ms"):
        if all(name in r["info"] for r in runs):
            table["info." + name] = summary([r["info"][name] for r in runs])
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"{args.workload}: failed shares {sorted(shares)}")
    for name, s in table.items():
        print(f"  {name:38s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": table}, indent=1))


if __name__ == "__main__":
    main()

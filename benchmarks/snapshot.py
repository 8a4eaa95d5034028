#!/usr/bin/env python3
"""Write BENCH_<n>.json: the benchmark's end-to-end medians for this checkout.

Runs the benchmark (`perfbench/run.py --trace 0`) once for every workload
of BENCHMARK.json and each of the fixed seeds 1-3, one process after
another, with the run length of BENCHMARK.json, so that any two snapshots
compare like with like.  The file holds, per workload, the median of
each end-to-end metric over the seeds, the per-seed values and the failed
and attempted operation counts, and, for the whole snapshot, the git
commit (and whether src/ differs from it), the Python and numpy versions
and the CPU model read from /proc/cpuinfo.

Usage, from the repository root:
    python3 benchmarks/snapshot.py 15
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or None


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )  # fmt: skip
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json written at the root")
    args = parser.parse_args(argv)

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds)
            runs.append(result)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        names = list(runs[0]["metrics"])
        results[workload] = {
            "median": {n: statistics.median(r["metrics"][n]["value"] for r in runs) for n in names},
            "units": {n: runs[0]["metrics"][n]["unit"] for n in names},
            "per_seed": {str(s): {n: r["metrics"][n]["value"] for n in names} for s, r in zip(SEEDS, runs)},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
    status = git("status", "--porcelain", "--", "src")
    snapshot = {
        "commit": git("rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "cpus": len(os.sched_getaffinity(0)),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(out)


if __name__ == "__main__":
    main()

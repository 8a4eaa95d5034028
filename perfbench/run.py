#!/usr/bin/env python3
"""hornforge's end-to-end benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload mine-topdown --seed 1 --seconds 25 --trace 0

The run writes the workload's seeded inputs under perfbench/work/, times a
fixed pure-Python control loop, sets the program up from the inputs
several times (timing each) and then repeats whole rounds of the
workload's operations for --seconds.  The first round's outputs are
checked against the reference computations of workloads.py and every
later round's must equal them; an operation whose output is wrong counts
as failed.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json declares, the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1.  A traced run wraps the program's
public functions (spans.py) and writes its spans under perfbench/work/;
its timings are not end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS, SETUP_SECONDS = 5, 1.0  # set-ups per run: at least 5, and 1 s in all


def control_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def import_hornforge():
    src = ROOT / "src"
    if not (src / "hornforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hornforge sources under {src}")
    sys.path.insert(0, str(src))
    import hornforge
    import hornforge.cli  # noqa: F401  (verify-routes calls hornforge.cli.run)

    return hornforge


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(hf, workload, inputs, seconds, tracer):
    """Set-up and timed phase; the program's outputs and timings."""
    setup_times = []
    state = None
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
        state = None  # drop the previous graph before loading the next
        start = time.perf_counter()
        state = workload.setup(hf, inputs)
        setup_times.append(time.perf_counter() - start)
    run = {"setup_times": setup_times, "state": state}
    if tracer is not None:
        # load_triples(path) calls itself on the open file: the self times of
        # the two spans add up to the outer call's duration
        run["load_s"] = tracer.totals["kg.load_triples.self_s"] / len(setup_times)
        tracer.reset_totals()
    ops = workload.round(hf, state)
    op_times, round_times, outputs = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            t = time.perf_counter()
            out = op()
            op_times.append(time.perf_counter() - t)
            outputs.append((i, out))
        round_times.append(time.perf_counter() - round_start)
        # no round is started that would likely end after the deadline
        if time.perf_counter() - start + statistics.median(round_times) > seconds:
            break
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.update(outputs=outputs, op_times=op_times, round_times=round_times, n_ops=len(ops))
    return run


def count_failed(hf, workload, inputs, run):
    """Operations whose output is wrong: each operation of the first round
    is checked against the reference, every later repeat must equal it."""
    outputs = run["outputs"]
    first = [out for _, out in outputs[: run["n_ops"]]]
    good = [workload.check(hf, inputs, run["state"], i, out) for i, out in enumerate(first)]
    return sum(1 for i, out in outputs if not (good[i] and out == first[i]))


def end_to_end(run):
    return {
        "setup_s": statistics.median(run["setup_times"]),
        "wall_s": statistics.median(run["round_times"]),
        "op_p50_ms": statistics.median(run["op_times"]) * 1000,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run, tracer, names):
    """Per-layer totals of the timed phase divided by its operation count;
    the load time is that of one set-up's load_triples."""
    n_ops = len(run["op_times"])
    values = {name: tracer.totals[name] / n_ops for name in names}
    values["kg.load_triples.s"] = run["load_s"]
    values["kg.facts"] = len(run["state"]["kg"].facts)
    values["traced.wall_s"] = statistics.median(run["round_times"])
    return values


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    hf = import_hornforge()
    workload = WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.generate(args.seed, workdir)
    control_s = statistics.median(control_loop() for _ in range(3))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = measure(hf, workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = count_failed(hf, workload, inputs, run)
    attempted = len(run["outputs"])

    declared = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    if tracer is not None:
        values = per_layer(run, tracer, [m["name"] for m in declared])
        tracer.write(workdir / "spans.tsv")
    else:
        values = end_to_end(run)
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json")

    op_times = run["op_times"]
    info = {
        "control_loop_s": control_s,
        "rounds": len(run["round_times"]),
        "ops_timed": len(op_times),
    }
    if len(op_times) >= 100:
        info["op_p90_ms"] = statistics.quantiles(op_times, n=10)[-1] * 1000
    print("# info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the top-down miner's witness sweep over every parent of one mine run.

For each of three seeded graphs, runs `mine` once, records every rule it
sweeps (each call of `amie._viable_refinements`), and then times the
sweep over all of those parents, best of --repeat passes.  Prints, per
graph: the number of parents, how many of them the sweep read off the
column join (`KnowledgeGraph.index_join`) and how many through
`projections`, how many overran the witness limit, how many closing
entries the sweeps found and how many of those reach head coverage (the
only ones `mine` builds), a digest of the (closing, dangling) results,
and the seconds of the best pass.  The digest depends only on the
results, so two trees whose sweeps agree print the same digest.

- mine-topdown: the benchmark's mine-topdown graph for seed 1 (1,000
  entities, 20 relations, 10,000 facts, r01 . r02 => r00 planted),
  default `MinerConfig`;
- criterion-7: the same shape on 10,000 entities and 100,000 facts, as in
  the acceptance test, default `MinerConfig`;
- uniform-max4: 2,000 uniform facts over 300 entities and 8 relations,
  `MinerConfig(max_len=4)`.

Usage, from the repository root without installing the package:
    PYTHONPATH=src python benchmarks/bench_sweep.py [--repeat N] [--graph NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import random
import time

import hornforge as hf
from hornforge import amie


def planted(rng, entities, facts):
    """r01(x, z) and r02(z, y) for random x, z, y with r00(x, y) added at
    rate 0.9 until they make 30% of the facts, then uniform noise over 20
    relations."""
    out = set()
    while len(out) < int(facts * 0.3):
        x, z, y = rng.randrange(entities), rng.randrange(entities), rng.randrange(entities)
        out.add((x, 1, z))
        out.add((z, 2, y))
        if rng.random() < 0.9:
            out.add((x, 0, y))
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(20), rng.randrange(entities)))
    return out


def uniform(rng, entities, relations, facts):
    out = set()
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(relations), rng.randrange(entities)))
    return out


def graph(facts):
    return hf.KnowledgeGraph.from_label_triples(
        sorted((f"e{s:05d}", f"r{r:02d}", f"e{o:05d}") for s, r, o in facts)
    )


GRAPHS = {
    "mine-topdown": lambda: (
        graph(planted(random.Random("mine-topdown/1"), 1_000, 10_000)),
        hf.MinerConfig(),
    ),
    "criterion-7": lambda: (graph(planted(random.Random(0), 10_000, 100_000)), hf.MinerConfig()),
    "uniform-max4": lambda: (
        graph(uniform(random.Random(2000), 300, 8, 2_000)),
        hf.MinerConfig(max_len=4),
    ),
}


def swept_parents(kg, config):
    """The rules one `mine` run sweeps, in sweep order, and how many of
    them the sweep read through `projections`."""
    parents, generic = [], set()
    sweep, project = amie._viable_refinements, amie.projections

    def record(kg_, rule, config_):
        parents.append(rule)
        return sweep(kg_, rule, config_)

    def counted(kg_, atoms, *args):
        generic.update(parents[-1:])
        return project(kg_, atoms, *args)

    amie._viable_refinements, amie.projections = record, counted
    try:
        hf.mine(kg, config)
    finally:
        amie._viable_refinements, amie.projections = sweep, project
    return parents, len(generic)


def digest(results):
    h = hashlib.sha256()
    for closing, dangling in results:
        if closing is None:
            h.update(b"overrun\n")
        else:
            h.update(repr((sorted(closing.items()), sorted(dangling))).encode() + b"\n")
    return h.hexdigest()[:16]


def reaching_coverage(kg, config, parents, results):
    """The number of closing entries whose count reaches
    `min_head_coverage` times the parent's head facts."""
    return sum(
        n >= config.min_head_coverage * kg.fact_count(rule.head.relation)
        for rule, (closing, _) in zip(parents, results)
        for n in (closing or {}).values()
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="passes per graph, best kept")
    parser.add_argument("--graph", nargs="+", choices=sorted(GRAPHS), default=list(GRAPHS))
    args = parser.parse_args()
    for name in args.graph:
        kg, config = GRAPHS[name]()
        parents, generic = swept_parents(kg, config)
        best = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            results = [amie._viable_refinements(kg, rule, config) for rule in parents]
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        overruns = sum(closing is None for closing, _ in results)
        found = sum(len(closing or {}) for closing, _ in results)
        print(
            f"{name:<13} parents {len(parents):>5}  columns {len(parents) - generic:>5}  "
            f"projections {generic:>5}  overruns {overruns:>3}  "
            f"closing {found:>6}  covered {reaching_coverage(kg, config, parents, results):>5}  "
            f"digest {digest(results)}  {best:8.3f} s"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the top-down miner's witness sweep over every parent of one mine run.

For each of three seeded graphs, runs `mine` once, records every rule it
sweeps (each call of `amie._viable_refinements`), and then times the
sweep over all of those parents, best of --repeat passes.  Prints, per
graph: the number of parents, how many of them the sweep read off the
column join (`KnowledgeGraph.index_join`) and how many through
`projections`, how many overran the witness limit, how many closing
atoms reach head coverage and carry their child's support (the only
closing children `mine` builds), a digest of the results, and the
seconds of the best pass.  The digest is taken over one normal form per
parent, {atom: its child's support or None} for the atoms at or above
head coverage, which both the sweep's `{atom: support or None}` dict and
its older `(closing, dangling)` pair map to; so two trees whose sweeps
agree print the same digest, whichever of the two they return.

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


def normal_form(kg, config, rule, result):
    """{atom: count or None} at or above head coverage, sorted by atom, or
    None on an overrun, from either return form of the sweep."""
    if not isinstance(result, tuple):
        entries = result
    elif result[0] is None:
        entries = None
    else:
        closing, dangling = result
        fresh = hf.var(max(rule.variables()) + 1)
        entries = {hf.Atom(r, hf.var(a), hf.var(b)): n for (r, a, b), n in closing.items()}
        for r, v, subject_side in dangling:
            entries[hf.Atom(r, hf.var(v), fresh) if subject_side else hf.Atom(r, fresh, hf.var(v))] = None
    if entries is None:
        return None
    floor = config.min_head_coverage * kg.fact_count(rule.head.relation)
    return sorted(
        ((atom, n) for atom, n in entries.items() if n is None or n >= floor), key=lambda e: e[0].key()
    )


def digest(forms):
    h = hashlib.sha256()
    for form in forms:
        h.update(b"overrun\n" if form is None else repr(form).encode() + b"\n")
    return h.hexdigest()[:16]


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
        forms = [normal_form(kg, config, rule, result) for rule, result in zip(parents, results)]
        overruns = sum(form is None for form in forms)
        counted = sum(n is not None for form in forms for _, n in form or ())
        print(
            f"{name:<13} parents {len(parents):>5}  columns {len(parents) - generic:>5}  "
            f"projections {generic:>5}  overruns {overruns:>3}  counted {counted:>5}  "
            f"digest {digest(forms)}  {best:8.3f} s"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure the memory a KnowledgeGraph holds, by tracemalloc.

Builds a seeded random graph of 100,000 distinct facts over 10,000
entities and 20 relations (random.Random(5)) and prints the traced MB and
bytes per fact twice: right after construction, and again once a first
column join (`index_join` of one atom) has built the int64 fact arrays
that the column joins read, which are made on first use.  The interners and the input fact set exist
before tracing starts, so only the graph's own structures count.  Under
each reading go the six lines of `hornforge/kg.py` that hold the most of
it, with their MB: which index the memory sits in.

Usage, from the repository root without installing the package:
    PYTHONPATH=src python benchmarks/kg_memory.py
"""

from __future__ import annotations

import linecache
import random
import tracemalloc

from hornforge import Atom, Interner, KnowledgeGraph, var

TOP_LINES = 6


def random_facts(n_facts, n_entities, n_relations, seed):
    rng = random.Random(seed)
    facts = set()
    while len(facts) < n_facts:
        facts.add((rng.randrange(n_entities), rng.randrange(n_relations), rng.randrange(n_entities)))
    return facts


def kg_lines(top_lines):
    """(bytes, file name, line number) of the top_lines lines of kg.py that
    hold the most traced memory now, most first; no snapshot when
    top_lines is 0, since one takes seconds on a large graph."""
    if not top_lines:
        return []
    snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, "*/hornforge/kg.py")])
    stats = snapshot.statistics("lineno")[:top_lines]
    return [(stat.size, stat.traceback[0].filename, stat.traceback[0].lineno) for stat in stats]


def traced_graph(n_facts, n_entities, n_relations, seed=5, top_lines=0):
    """[(traced bytes, kg_lines(top_lines))] held by the graph after
    construction, and after a first column join.  Each snapshot is
    dropped before the next reading, so it does not count in it."""
    entities, relations = Interner(), Interner()
    for i in range(n_entities):
        entities.intern(f"e{i}")
    for i in range(n_relations):
        relations.intern(f"r{i}")
    facts = random_facts(n_facts, n_entities, n_relations, seed)
    tracemalloc.start()
    try:
        kg = KnowledgeGraph(entities, relations, facts)
        readings = [(tracemalloc.get_traced_memory()[0], kg_lines(top_lines))]
        kg.index_join([Atom(0, var(0), var(1))])
        readings.append((tracemalloc.get_traced_memory()[0], kg_lines(top_lines)))
    finally:
        tracemalloc.stop()
    return readings


def graph_memory(n_facts, n_entities, n_relations, seed=5):
    """Traced bytes held by the graph after construction, and after a
    first column join."""
    return tuple(size for size, _ in traced_graph(n_facts, n_entities, n_relations, seed))


def main():
    n_facts = 100_000
    readings = traced_graph(n_facts, 10_000, 20, top_lines=TOP_LINES)
    for name, (size, lines) in zip(("built", "with lazy indexes"), readings):
        print(f"{name:<18} {size / 1e6:7.1f} MB  {size / n_facts:6.0f} B/fact")
        for line_size, filename, lineno in lines:
            text = linecache.getline(filename, lineno).strip()
            print(f"    kg.py:{lineno:<4} {line_size / 1e6:6.1f} MB  {text}")


if __name__ == "__main__":
    main()

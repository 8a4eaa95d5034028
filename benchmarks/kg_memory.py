#!/usr/bin/env python3
"""Measure the memory a KnowledgeGraph holds, by tracemalloc.

Builds a seeded random graph of 100,000 distinct facts over 10,000
entities and 20 relations (random.Random(5)) and prints the traced MB and
bytes per fact twice: right after construction, and again once a first
column join (`index_join` of one atom) has built the int64 fact arrays
that the column joins read, which are made on first use.  The interners and the input fact set exist
before tracing starts, so only the graph's own structures count.

Usage, from the repository root without installing the package:
    PYTHONPATH=src python benchmarks/kg_memory.py
"""

from __future__ import annotations

import random
import tracemalloc

from hornforge import Atom, Interner, KnowledgeGraph, var


def random_facts(n_facts, n_entities, n_relations, seed):
    rng = random.Random(seed)
    facts = set()
    while len(facts) < n_facts:
        facts.add((rng.randrange(n_entities), rng.randrange(n_relations), rng.randrange(n_entities)))
    return facts


def graph_memory(n_facts, n_entities, n_relations, seed=5):
    """Traced bytes held by the graph after construction, and after a
    first column join."""
    entities, relations = Interner(), Interner()
    for i in range(n_entities):
        entities.intern(f"e{i}")
    for i in range(n_relations):
        relations.intern(f"r{i}")
    facts = random_facts(n_facts, n_entities, n_relations, seed)
    tracemalloc.start()
    try:
        kg = KnowledgeGraph(entities, relations, facts)
        built = tracemalloc.get_traced_memory()[0]
        kg.index_join([Atom(0, var(0), var(1))])
        with_lazy = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return built, with_lazy


def main():
    n_facts = 100_000
    built, with_lazy = graph_memory(n_facts, 10_000, 20)
    for name, size in (("built", built), ("with lazy indexes", with_lazy)):
        print(f"{name:<18} {size / 1e6:7.1f} MB  {size / n_facts:6.0f} B/fact")


if __name__ == "__main__":
    main()

"""Knowledge graph store: interning, fact indexes, atom matching, subgraphs.

Facts are (subject, relation, object) triples of interned ids.  All
indexes are built once at construction from the sorted fact list, so
iteration order is deterministic for a given label input set.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from fractions import Fraction

from .rules import Atom


class GraphParseError(ValueError):
    pass


class Interner:
    """Bijection between string labels and dense ids, first-come order."""

    __slots__ = ("_ids", "_labels")

    def __init__(self):
        self._ids = {}
        self._labels = []

    def intern(self, label: str) -> int:
        i = self._ids.get(label)
        if i is None:
            i = len(self._labels)
            self._ids[label] = i
            self._labels.append(label)
        return i

    def get(self, label: str):
        return self._ids.get(label)

    def id(self, label: str) -> int:
        return self._ids[label]

    def label(self, i: int) -> str:
        return self._labels[i]

    def labels(self):
        return tuple(self._labels)

    def __len__(self):
        return len(self._labels)

    def __contains__(self, label):
        return label in self._ids


@dataclass(frozen=True)
class RelationStats:
    relation: int
    fact_count: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def functionality(self) -> Fraction:
        if self.fact_count == 0:
            raise ValueError("undefined functionality: relation has no facts")
        return Fraction(self.distinct_subjects, self.fact_count)

    @property
    def inverse_functionality(self) -> Fraction:
        if self.fact_count == 0:
            raise ValueError("undefined functionality: relation has no facts")
        return Fraction(self.distinct_objects, self.fact_count)


class KnowledgeGraph:
    """Immutable fact store with per-relation and per-entity indexes."""

    def __init__(self, entities: Interner, relations: Interner, facts):
        self.entities = entities
        self.relations = relations
        self.facts = frozenset(facts)
        n_rel = len(relations)
        self._pairs = [[] for _ in range(n_rel)]
        self._pair_sets = [set() for _ in range(n_rel)]
        self._sub_to_obj = [dict() for _ in range(n_rel)]
        self._obj_to_sub = [dict() for _ in range(n_rel)]
        self._out_edges = {}
        self._in_edges = {}
        for s, r, o in sorted(self.facts):
            self._pairs[r].append((s, o))
            self._pair_sets[r].add((s, o))
            self._sub_to_obj[r].setdefault(s, []).append(o)
            self._obj_to_sub[r].setdefault(o, []).append(s)
            self._out_edges.setdefault(s, []).append((r, o))
            self._in_edges.setdefault(o, []).append((r, s))
        # relation sets incident to each entity, used for refinement pruning
        self._out_rels = {e: frozenset(r for r, _ in es) for e, es in self._out_edges.items()}
        self._in_rels = {e: frozenset(r for r, _ in es) for e, es in self._in_edges.items()}
        self._pair_rels = None
        self._fact_list = None

    @classmethod
    def from_label_triples(cls, triples):
        entities = Interner()
        relations = Interner()
        facts = set()
        for s, r, o in triples:
            facts.add((entities.intern(s), relations.intern(r), entities.intern(o)))
        return cls(entities, relations, facts)

    # --- fact access -------------------------------------------------

    def fact_count(self, r: int) -> int:
        return len(self._pairs[r])

    def pairs(self, r: int):
        return self._pairs[r]

    def has_pair(self, r: int, s: int, o: int) -> bool:
        return (s, o) in self._pair_sets[r]

    def objects_of(self, r: int, s: int):
        return self._sub_to_obj[r].get(s, ())

    def subjects_of(self, r: int, o: int):
        return self._obj_to_sub[r].get(o, ())

    def has_subject(self, r: int, s: int) -> bool:
        return s in self._sub_to_obj[r]

    def has_object(self, r: int, o: int) -> bool:
        return o in self._obj_to_sub[r]

    def subjects(self, r: int):
        return sorted(self._sub_to_obj[r])

    def objects(self, r: int):
        return sorted(self._obj_to_sub[r])

    def out_edges(self, e: int):
        return self._out_edges.get(e, ())

    def in_edges(self, e: int):
        return self._in_edges.get(e, ())

    def out_relations(self, e: int):
        return self._out_rels.get(e, frozenset())

    def in_relations(self, e: int):
        return self._in_rels.get(e, frozenset())

    def relations_linking(self, s: int, o: int):
        """Relations r with (s, r, o) a fact; index built on first use."""
        if self._pair_rels is None:
            idx = {}
            for fs, fr, fo in sorted(self.facts):
                idx.setdefault((fs, fo), []).append(fr)
            self._pair_rels = {k: tuple(v) for k, v in idx.items()}
        return self._pair_rels.get((s, o), ())

    def fact_list(self):
        """All facts as a sorted tuple; stable sampling base."""
        if self._fact_list is None:
            self._fact_list = tuple(sorted(self.facts))
        return self._fact_list

    def iter_label_triples(self):
        for s, r, o in sorted(self.facts):
            yield self.entities.label(s), self.relations.label(r), self.entities.label(o)

    # --- operations ----------------------------------------------------

    def relation_stats(self, r) -> RelationStats:
        if isinstance(r, str):
            rid = self.relations.get(r)
            if rid is None:
                raise ValueError(f"unknown relation: {r!r}")
            r = rid
        if not self._pairs[r]:
            raise ValueError("undefined functionality: relation has no facts")
        return RelationStats(
            relation=r,
            fact_count=len(self._pairs[r]),
            distinct_subjects=len(self._sub_to_obj[r]),
            distinct_objects=len(self._obj_to_sub[r]),
        )

    def match_atom(self, atom: Atom, bindings=None):
        """Yield every extension of `bindings` under which the atom is a fact.

        Extensions are fresh dicts; an atom whose relation has no facts or
        whose constants never occur yields nothing.
        """
        base = {} if bindings is None else bindings
        if atom.relation >= len(self.relations):
            return
        for ext in _ext_candidates(self, _compile(atom), base):
            merged = dict(base)
            merged.update(ext)
            yield merged

    def select_relevant_subgraph(self, head_relation, depth: int) -> "KnowledgeGraph":
        """Facts induced by entities within depth-1 relation hops of the
        head relation's endpoints.  Layer 0 holds the endpoints themselves;
        interners are shared with the parent graph."""
        if depth < 2:
            raise ValueError("subgraph depth must be at least 2")
        if isinstance(head_relation, str):
            rid = self.relations.get(head_relation)
            if rid is None:
                raise ValueError(f"unknown relation: {head_relation!r}")
            head_relation = rid
        layer = set()
        for s, o in self._pairs[head_relation]:
            layer.add(s)
            layer.add(o)
        keep = set(layer)
        for _ in range(depth - 2):
            nxt = set()
            for e in layer:
                for _, o in self.out_edges(e):
                    if o not in keep:
                        nxt.add(o)
                for _, s in self.in_edges(e):
                    if s not in keep:
                        nxt.add(s)
            keep |= nxt
            layer = nxt
        facts = {(s, r, o) for (s, r, o) in self.facts if s in keep and o in keep}
        return KnowledgeGraph(self.entities, self.relations, facts)


def load_triples(source, fmt: str = "tsv") -> KnowledgeGraph:
    """Read a graph from a path, file object, or string of TSV lines.

    Each non-empty, non-comment line must be subject<TAB>relation<TAB>object.
    Malformed lines raise GraphParseError with a 1-based line number.
    """
    if fmt != "tsv":
        raise ValueError(f"unsupported format: {fmt!r}")
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if isinstance(source, str) and source and "\n" not in source and "\t" not in source:
        with open(source, "r", encoding="utf-8") as fh:
            return load_triples(fh)
    if isinstance(source, str):
        source = io.StringIO(source)
    entities = Interner()
    relations = Interner()
    facts = set()
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        s, r, o = (p.strip() for p in parts)
        if not s or not r or not o:
            raise GraphParseError(f"line {lineno}: empty field")
        facts.add((entities.intern(s), relations.intern(r), entities.intern(o)))
    return KnowledgeGraph(entities, relations, facts)


def dump_triples(kg: KnowledgeGraph, stream) -> None:
    for s, r, o in kg.iter_label_triples():
        stream.write(f"{s}\t{r}\t{o}\n")


# --- atom matching machinery (shared with metrics) -----------------------


def _compile(atom: Atom):
    """(relation, s_is_var, s_key, o_is_var, o_key) tuple for the hot loops."""
    return (
        atom.relation,
        atom.subject.is_var,
        atom.subject.index,
        atom.object.is_var,
        atom.object.index,
    )


def _ext_candidates(kg: KnowledgeGraph, catom, binding: dict):
    """Yield tuples of (var, value) additions satisfying catom under binding."""
    r, s_var, s_key, o_var, o_key = catom
    s_val = binding.get(s_key) if s_var else s_key
    o_val = binding.get(o_key) if o_var else o_key
    if s_val is not None and o_val is not None:
        if kg.has_pair(r, s_val, o_val):
            yield ()
        return
    if s_val is not None:
        for o in kg.objects_of(r, s_val):
            yield ((o_key, o),)
        return
    if o_val is not None:
        for s in kg.subjects_of(r, o_val):
            yield ((s_key, s),)
        return
    if s_key == o_key:
        for s, o in kg.pairs(r):
            if s == o:
                yield ((s_key, s),)
        return
    for s, o in kg.pairs(r):
        yield ((s_key, s), (o_key, o))

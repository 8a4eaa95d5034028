"""Knowledge graph store: interning, fact indexes, atom matching, subgraphs.

Facts are (subject, relation, object) triples of interned ids.  They are
sorted once at construction, and every index is built from that sorted
list, so iteration order is deterministic for a given label input set.
Only this module reads the index layout.

`__init__` builds the dict and list indexes: per relation a fact count
and subject -> objects and object -> subjects lists, per entity its out-
and in-edge lists; `pairs` and `has_pair` read those and `facts`.  The
public accessors reject an unknown relation id; the generic join's
per-node reads (`_estimate`, `_ext_candidates`) take atoms `_compile`
has already checked and read the dicts directly.  The
column join `index_join`, the two vectorized lookups of the top-down
miner's witness sweep (`linked_head_counts`, `incident_relations`),
support's head-fact count `count_facts_among` and the PCA filter's
`has_endpoints` read compact int64 arrays instead (`_FactArrays`): each
relation's facts sorted by subject and by object, and every fact's
subject * n + object key, sorted, with its relation.  They are built on
the first call that needs them, never at load time, so a graph that is
only loaded or only queried through the dicts never pays for them.

`index_join`, `count_facts_among` and `linked_head_counts` run once per
rule, often on a few dozen facts, so they call ndarray methods
(`a.searchsorted`, `a.repeat`, `a.take`) rather than the `np.`
functions, which add about a microsecond of dispatch each: that is most
of a call on a small graph.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from ._kernels import sorted_unique, take_ranges
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, for multiplicative hashing


def _read_only(a):
    a.flags.writeable = False
    return a


def _in_sorted(haystack, needles):
    """Whether each of the needles occurs in the sorted array haystack."""
    if not haystack.size:
        return np.zeros(needles.shape, bool)
    return haystack[np.minimum(haystack.searchsorted(needles), haystack.size - 1)] == needles


class _FactArrays:
    """Read-only int64 arrays over a graph's facts, for the column joins.

    `by_subject` is (subjects, objects) of every fact in (relation,
    subject, object) order and `by_object` the same two columns in
    (relation, object, subject) order; relation r's facts sit at
    start[r]:start[r + 1] in both.  `pair_keys` holds subject * n + object
    of every fact, sorted, and `pair_relations` the fact's relation at the
    same position, ascending among equal keys.  `pair_filter` marks the
    hash slots of the pair keys, at least eight slots per fact, so that
    most keys that are no fact's skip the binary search.
    """

    __slots__ = (
        "n", "start", "by_subject", "by_object", "pair_keys", "pair_relations", "shift", "pair_filter"
    )

    def __init__(self, fact_list, n_relations, n_entities):
        """From the graph's fact list, sorted in (subject, relation, object) order."""
        n = self.n = n_entities
        total = len(fact_list)
        facts = np.fromiter(chain.from_iterable(fact_list), np.int64, 3 * total).reshape(total, 3)
        order = facts[:, 1].argsort(kind="stable")  # each relation's facts stay by subject
        s, r, o = (facts[:, i][order] for i in range(3))
        del facts
        counts = np.bincount(r, minlength=n_relations)
        self.start = _read_only(np.concatenate(([0], np.cumsum(counts))))
        self.by_subject = (_read_only(s), _read_only(o))
        keys = s * n + o
        order = np.argsort(keys, kind="stable")  # equal keys keep relation order
        self.pair_keys = _read_only(keys[order])
        self.pair_relations = _read_only(r[order])
        del keys, order
        bits = max(10, (8 * total).bit_length())
        self.shift = np.uint64(64 - bits)
        self.pair_filter = np.zeros(1 << bits, bool)
        self.pair_filter[self.pair_hash(self.pair_keys)] = True
        _read_only(self.pair_filter)
        order = np.argsort(r * n + o, kind="stable")
        self.by_object = (_read_only(s[order]), _read_only(o[order]))

    def pair_hash(self, keys):
        """The `pair_filter` slot of each int64 pair key."""
        return (keys.view(np.uint64) * _GOLDEN) >> self.shift

    def walk(self, r, slot):
        """(subjects, objects) of relation r's facts, sorted by subject
        when slot is 0 and by object when it is 1."""
        lo, hi = self.start[r], self.start[r + 1]
        s, o = self.by_object if slot else self.by_subject
        return s[lo:hi], o[lo:hi]


class KnowledgeGraph:
    """Immutable fact store with per-relation and per-entity indexes."""

    def __init__(self, entities: Interner, relations: Interner, facts):
        self.entities = entities
        self.relations = relations
        self.facts = frozenset(facts)
        self._fact_list = tuple(sorted(self.facts))
        n_rel = len(relations)
        self._sub_to_obj = [dict() for _ in range(n_rel)]
        self._obj_to_sub = [dict() for _ in range(n_rel)]
        self._out_edges = {}
        self._in_edges = {}
        for s, r, o in self._fact_list:
            self._sub_to_obj[r].setdefault(s, []).append(o)
            self._obj_to_sub[r].setdefault(o, []).append(s)
            self._out_edges.setdefault(s, []).append((r, o))
            self._in_edges.setdefault(o, []).append((r, s))
        self._counts = [sum(map(len, objects.values())) for objects in self._sub_to_obj]
        self._arrays = None

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
        return self._counts[self.relation_id(r)]

    def pairs(self, r: int):
        """Relation r's (subject, object) pairs as a new sorted list."""
        by_subject = self._sub_to_obj[self.relation_id(r)]
        return [(s, o) for s, objects in by_subject.items() for o in objects]

    def has_pair(self, r: int, s: int, o: int) -> bool:
        return (s, r, o) in self.facts

    def objects_of(self, r: int, s: int):
        return self._sub_to_obj[self.relation_id(r)].get(s, ())

    def subjects_of(self, r: int, o: int):
        return self._obj_to_sub[self.relation_id(r)].get(o, ())

    def has_subject(self, r: int, s: int) -> bool:
        return s in self._sub_to_obj[self.relation_id(r)]

    def has_object(self, r: int, o: int) -> bool:
        return o in self._obj_to_sub[self.relation_id(r)]

    def subjects(self, r: int):
        return sorted(self._sub_to_obj[self.relation_id(r)])

    def objects(self, r: int):
        return sorted(self._obj_to_sub[self.relation_id(r)])

    def out_edges(self, e: int):
        return self._out_edges.get(e, ())

    def in_edges(self, e: int):
        return self._in_edges.get(e, ())

    def fact_list(self):
        """All facts as a sorted tuple; stable sampling base."""
        return self._fact_list

    def iter_label_triples(self):
        for s, r, o in self._fact_list:
            yield self.entities.label(s), self.relations.label(r), self.entities.label(o)

    # --- operations ----------------------------------------------------

    def relation_id(self, relation) -> int:
        """Id of a relation given by label or by id; ValueError when the
        label is unknown or the id is not one of the relations the graph was
        built with."""
        rid = self.relations.get(relation) if isinstance(relation, str) else relation
        if rid is None or not 0 <= rid < len(self._counts):
            raise ValueError(f"unknown relation: {relation!r}")
        return rid

    def entity_id(self, entity) -> int:
        """Id of an entity given by label or by id; ValueError when the
        label is unknown or the id lies outside [0, len(entities))."""
        eid = self.entities.get(entity) if isinstance(entity, str) else entity
        if eid is None or not 0 <= eid < len(self.entities):
            raise ValueError(f"unknown entity: {entity!r}")
        return eid

    def relation_stats(self, r) -> RelationStats:
        r = self.relation_id(r)
        if not self._counts[r]:
            raise ValueError("undefined functionality: relation has no facts")
        return RelationStats(
            relation=r,
            fact_count=self._counts[r],
            distinct_subjects=len(self._sub_to_obj[r]),
            distinct_objects=len(self._obj_to_sub[r]),
        )

    def match_atom(self, atom: Atom, bindings=None):
        """Yield every extension of `bindings` under which the atom is a fact.

        Extensions are fresh dicts; an atom whose relation has no facts or
        whose constants never occur yields nothing.
        """
        base = {} if bindings is None else bindings
        if not 0 <= atom.relation < len(self._counts):
            return
        for ext in _ext_candidates(self, _compile(self, atom), base):
            merged = dict(base)
            merged.update(ext)
            yield merged

    def _fact_arrays(self) -> _FactArrays:
        if self._arrays is None:
            self._arrays = _FactArrays(self._fact_list, len(self._counts), len(self.entities))
        return self._arrays

    def index_join(self, atoms, cutoff=None):
        """(variables, columns) of a non-empty connected conjunction of
        atoms, each over two distinct variables: every solution once, as
        one int64 array of values per variable in `variables` order; None
        for any other shape.  Given cutoff, columns is None when the
        solutions, or the rows of a partial join (the solutions of the
        atoms joined so far), number more than cutoff, decided before each
        step allocates; for one or two atoms, exactly when the solutions do.

        The atom with the fewest facts is walked first, sorted by the slot
        the next atom reads it by.  Then the pending atom with the fewest
        facts that shares a bound variable (ties in input order) keeps the
        rows whose subject * n + object key is one of its facts, or with
        one variable bound expands each row by its matches."""
        pending = []
        for k, a in enumerate(atoms):
            s, o = a.subject, a.object
            if not (s.is_var and o.is_var) or s.index == o.index:
                return None
            r = self.relation_id(a.relation)
            pending.append((self._counts[r], k, r, s.index, o.index))
        if not pending:
            return None
        pending.sort()  # fewest facts first, ties in input order
        count, _, first, s, o = pending.pop(0)
        variables, steps = [s, o], []  # steps: (relation, s, o, the slot it is read by or None)
        while pending:
            for atom in pending:
                _, _, r, s, o = atom
                if s in variables or o in variables:
                    break
            else:
                return None  # disconnected
            pending.remove(atom)
            slot = None if s in variables and o in variables else int(s not in variables)
            steps.append((r, s, o, slot))
            if slot is not None:
                variables.append((o, s)[slot])
        variables = tuple(variables)
        if cutoff is not None and not steps and count > cutoff:
            return variables, None
        arrays = self._fact_arrays()
        s, o = steps[0][1:3] if steps else variables
        slot = variables.index(s if s in variables[:2] else o)  # the slot the next atom reads
        columns = arrays.walk(first, slot)
        for r, s, o, slot in steps:
            walked = arrays.walk(r, slot or 0)
            if slot is None:  # both variables bound: keep the rows that are its facts
                keys = columns[variables.index(s)] * arrays.n + columns[variables.index(o)]
                hit = _in_sorted(walked[0] * arrays.n + walked[1], keys)
                if cutoff is not None and hit.size > cutoff and np.count_nonzero(hit) > cutoff:
                    return variables, None
                columns = [c[hit] for c in columns]
                continue
            needles = columns[variables.index((s, o)[slot])]
            lo = walked[slot].searchsorted(needles, "left")
            lengths = walked[slot].searchsorted(needles, "right") - lo
            # each row expands to at most the walked facts: most small joins skip the sum
            bound = cutoff is not None and needles.size * walked[slot].size > cutoff
            if bound and int(lengths.sum()) > cutoff:
                return variables, None
            columns = [c.repeat(lengths) for c in columns]
            columns.append(take_ranges(walked[1 - slot], lo, lengths))
        return variables, tuple(columns)

    def linked_head_counts(self, a, b, heads):
        """{(i, r): the number of distinct heads[j] over the j at which
        (a[i, j], r, b[i, j]) is a fact}, for every row i of a and b and
        every relation r with at least one such j.  a and b are k x m int64
        arrays, heads a non-negative int64 array of length m."""
        arrays = self._fact_arrays()
        facts, n_rel = arrays.pair_keys, arrays.start.size - 1
        keys = (a * arrays.n + b).ravel()
        at = np.flatnonzero(arrays.pair_filter[arrays.pair_hash(keys)])
        keys = keys[at]
        lo = facts.searchsorted(keys)
        # when facts is empty the filter marks no slot, so keys is empty too
        hit = facts.take(lo, mode="clip") == keys
        at, keys, lo = at[hit], keys[hit], lo[hit]
        if not at.size:
            return {}
        lengths = facts.searchsorted(keys, "right") - lo
        row, j = np.divmod(at, heads.size)
        linked = (row * n_rel).repeat(lengths) + take_ranges(arrays.pair_relations, lo, lengths)
        span = int(heads.max()) + 1
        if a.shape[0] * n_rel * span >= 2**63:
            raise OverflowError("linked_head_counts: (row, relation, head) keys overflow int64")
        counts = np.bincount(sorted_unique(linked * span + heads[j].repeat(lengths)) // span)
        linked = np.flatnonzero(counts)
        return {divmod(i, n_rel): c for i, c in zip(linked.tolist(), counts[linked].tolist())}

    def incident_relations(self, values):
        """(relations with a fact whose subject is among `values`, relations
        with a fact whose object is), each ascending; `values` is an int64
        array of entity ids."""
        arrays = self._fact_arrays()
        present = np.zeros(arrays.n, bool)
        present[values] = True
        out = []
        for column in arrays.by_subject:
            hits = np.zeros(column.size + 1, np.int64)
            np.cumsum(present[column], out=hits[1:])
            out.append(np.flatnonzero(hits[arrays.start[1:]] > hits[arrays.start[:-1]]).tolist())
        return tuple(out)

    def count_facts_among(self, r: int, subjects=None, objects=None) -> int:
        """The number of facts of r whose subject is among the int64 array
        `subjects` and whose object is among `objects`; None leaves that
        side free.  Given both, the arrays are read row by row: a fact
        (s, o) counts when (s, o) is (subjects[i], objects[i]) for some i.
        The facts are the needles, so each counts once however often its
        values repeat."""
        r = self.relation_id(r)
        if subjects is None and objects is None:
            return self._counts[r]
        arrays = self._fact_arrays()
        if objects is None:
            values, needles = subjects.copy(), arrays.walk(r, 0)[0]
        elif subjects is None:
            values, needles = objects.copy(), arrays.walk(r, 1)[1]
        else:
            s, o = arrays.walk(r, 0)
            values, needles = subjects * arrays.n + objects, s * arrays.n + o
        values.sort()
        return int(np.count_nonzero(_in_sorted(values, needles)))

    def has_endpoints(self, r: int, values, side: str):
        """Boolean array: whether each of the int64 `values` is the subject
        (side "subject") or the object (side "object") of a fact of r."""
        slot = side != "subject"
        return _in_sorted(self._fact_arrays().walk(self.relation_id(r), slot)[slot], values)

    def select_relevant_subgraph(self, head_relation, depth: int) -> "KnowledgeGraph":
        """Facts induced by entities within depth-1 relation hops of the
        head relation's endpoints.  Layer 0 holds the endpoints themselves;
        interners are shared with the parent graph."""
        if depth < 2:
            raise ValueError("subgraph depth must be at least 2")
        head_relation = self.relation_id(head_relation)
        layer = set(self._sub_to_obj[head_relation]).union(self._obj_to_sub[head_relation])
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


def load_triples(source) -> KnowledgeGraph:
    """Read a graph from a path, file object, or string of TSV lines.

    Each non-empty, non-comment line must be subject<TAB>relation<TAB>object.
    Malformed lines raise GraphParseError with a 1-based line number.
    """
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


def _compile(kg: KnowledgeGraph, atom: Atom):
    """(relation, s_is_var, s_key, o_is_var, o_key) tuple for the hot loops;
    ValueError when the relation is not one of kg's."""
    return (
        kg.relation_id(atom.relation),
        atom.subject.is_var,
        atom.subject.index,
        atom.object.is_var,
        atom.object.index,
    )


def _estimate(kg: KnowledgeGraph, catom, binding: dict) -> int:
    """The joins' cost of catom under binding: its candidate count with one
    argument bound, 0 with both, one more than its fact count with neither."""
    r, s_var, s_key, o_var, o_key = catom
    s_val = binding.get(s_key) if s_var else s_key
    o_val = binding.get(o_key) if o_var else o_key
    if s_val is not None and o_val is not None:
        return 0
    if s_val is not None:
        return len(kg._sub_to_obj[r].get(s_val, ()))
    if o_val is not None:
        return len(kg._obj_to_sub[r].get(o_val, ()))
    return 1 + kg._counts[r]


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
        for o in kg._sub_to_obj[r].get(s_val, ()):
            yield ((o_key, o),)
        return
    if o_val is not None:
        for s in kg._obj_to_sub[r].get(o_val, ()):
            yield ((s_key, s),)
        return
    if s_key == o_key:
        for s, objects in kg._sub_to_obj[r].items():
            if s in objects:
                yield ((s_key, s),)
        return
    for s, objects in kg._sub_to_obj[r].items():
        for o in objects:
            yield ((s_key, s), (o_key, o))

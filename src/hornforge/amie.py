"""Top-down rule mining by operator refinement.

Level-synchronous search: level 0 is the seed head atoms, and each level
is one loop over its candidates in canonical order.  A candidate takes
the support its parent's witness sweep counted, or counts it with
`metrics.support`, and is dropped below `min_head_coverage`.  A closed
candidate is then scored, its confidence gated with lazy denominator
counting, and emitted unless it fails to strictly improve on the
confidence of an emitted ancestor (skyline): the canonical forms
`_ancestors` lists are looked up among the rules of earlier levels.
Unless it is at `max_len` or a perfect rule under the skyline, it is
then swept and refined into the next level.  All candidate ordering is
canonical so results are byte-identical across runs.

`_slots` is the one closability rule: the closing pairs, dangling and
instantiable variables of a parent whose child can still close within
`max_len`.  The operators build children only there and the sweep below
reads only there.  `_children` is the one builder: in the level loop and
in the public operators, each child is the canonical form of its parent
plus one atom, mapped to the support the sweep counted for it, or None.

Before a parent is refined, one witness sweep reads its full solutions
and keeps only the dangling and closing atoms some solution realizes, so
children without support are never built.  The solutions are int64
columns, one per variable: from the column join
`KnowledgeGraph.index_join` for rules whose atoms are each over two
distinct variables, without object identity, and from
`metrics.projections` onto all of the rule's variables otherwise.  The
sweep is a few array calls per parent with no per-row Python loop, and
it also counts the support of each closing child (AMIE's count
projection): the distinct head keys of the rows that realize its atom.
It keeps only the closing atoms whose count reaches `min_head_coverage`
of the head's facts (a child below it would be neither emitted nor
refined, so children below head coverage are never built), and the
level loop carries that count to the child; dangling and instantiated
children get their support from `metrics.support`.  The sweep overruns
past `metrics.ROW_LIMIT` rows, of the solutions or of one of the column
join's partial joins: that parent then builds every closing and dangling
child with no count, which only adds children the level loop drops, so
the mined rules do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from . import metrics
from .kg import KnowledgeGraph
from .metrics import (
    RuleMetrics,
    as_fraction,
    gated_metrics,
    projections,
    support,
)
from .rules import (
    MAX_BODY_ATOMS,
    Atom,
    Rule,
    canonicalize,
    const,
    is_closed,
    open_variables,
    render_rule,
    sort_key,
    var,
)


@dataclass
class MinerConfig:
    max_len: int = 3
    min_head_coverage: Fraction = Fraction(1, 100)
    min_confidence: Fraction = Fraction(1, 10)
    confidence_kind: str = "pca"
    enable_instantiation: bool = False
    enable_skyline: bool = True
    object_identity: bool = False

    def __post_init__(self):
        self.min_head_coverage = as_fraction(self.min_head_coverage)
        self.min_confidence = as_fraction(self.min_confidence)
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")
        if self.max_len > MAX_BODY_ATOMS + 1:
            raise ValueError(f"max_len must be at most {MAX_BODY_ATOMS + 1}")
        if not 0 < self.min_head_coverage <= 1:
            raise ValueError("min_head_coverage must lie in (0, 1]")
        if not 0 < self.min_confidence <= 1:
            raise ValueError("min_confidence must lie in (0, 1]")
        if self.confidence_kind not in ("std", "pca"):
            raise ValueError(f"unknown confidence kind: {self.confidence_kind!r}")


@dataclass(frozen=True)
class MinedRule:
    rule: Rule
    metrics: RuleMetrics


def sort_mined(kg: KnowledgeGraph, mined, kind: str):
    """MinedRule entries in the output order of both miners: head relation
    label, then descending `kind` confidence, head coverage, and rule text."""

    def key(m):
        return (
            kg.relations.label(m.rule.head.relation),
            -m.metrics.confidence(kind),
            -m.metrics.head_coverage,
            render_rule(m.rule, kg),
        )

    return sorted(mined, key=key)


def seed_rules(kg: KnowledgeGraph):
    """One empty-bodied two-variable head rule per non-empty relation."""
    out = []
    for r in range(len(kg.relations)):
        if kg.fact_count(r) == 0:
            continue
        out.append(Rule(Atom(r, var(0), var(1))))
    return out


def _slots(rule: Rule, max_len: int):
    """(closing pairs, dangling variables, instantiable variables) of the
    rule whose child can still close: one added atom binds at most two open
    variables, so the child's open variables may number at most twice its
    remaining atom budget."""
    opens = frozenset(open_variables(rule))
    budget = 2 * (max_len - len(rule) - 1)
    vs = rule.variables()
    pairs = [(a, b) for a in vs for b in vs if a != b and len(opens - {a, b}) <= budget]
    dangling = [v for v in vs if len(opens - {v}) + 1 <= budget]
    instantiable = [v for v in vs if len(opens - {v}) <= budget]
    return pairs, dangling, instantiable


def _children(rule: Rule, counted):
    """{canonical child: its support or None}: for each atom that `counted`
    maps to its child's support or None, the child adding it, unless the
    rule already holds that atom."""
    return {
        canonicalize(Rule(rule.head, rule.body + (atom,))): n
        for atom, n in counted.items()
        if atom not in rule.atoms
    }


def _slot_atoms(kg, rule: Rule, config: MinerConfig):
    """(closing, dangling): every atom over two existing variables, and every
    atom joining an existing variable to a fresh one, in the slots of _slots."""
    pairs, dangling, _ = _slots(rule, config.max_len)
    fresh = var(max(rule.variables(), default=-1) + 1)
    rels = range(len(kg.relations))
    closing = [Atom(r, var(a), var(b)) for a, b in pairs for r in rels]
    ends = [(var(v), fresh) for v in dangling] + [(fresh, var(v)) for v in dangling]
    return closing, [Atom(r, s, o) for s, o in ends for r in rels]


def _instantiated_atoms(kg, rule: Rule, config: MinerConfig):
    """The atoms joining an instantiable variable to a constant.

    Constants are drawn from the rule's own support witnesses, so every
    child has support at least one.  Each variable's witness values are
    listed on their own, so memory stays bounded by the distinct values
    rather than by the number of witnesses.
    """
    atoms = set()
    if not config.enable_instantiation:
        return atoms
    for v in _slots(rule, config.max_len)[2]:
        for (val,) in projections(kg, rule.atoms, (v,), None, config.object_identity):
            for r, o in kg.out_edges(val):
                atoms.add(Atom(r, var(v), const(o)))
            for r, s in kg.in_edges(val):
                atoms.add(Atom(r, const(s), var(v)))
    return atoms


def refine_dangling(kg, rule: Rule, config: MinerConfig):
    """Children extending the body with one fresh-variable atom."""
    return sorted(_children(rule, dict.fromkeys(_slot_atoms(kg, rule, config)[1])), key=sort_key)


def refine_closing(kg, rule: Rule, config: MinerConfig):
    """Children extending the body with one atom over two existing variables."""
    return sorted(_children(rule, dict.fromkeys(_slot_atoms(kg, rule, config)[0])), key=sort_key)


def refine_instantiated(kg, rule: Rule, config: MinerConfig):
    """Children adding one atom that joins an existing variable to a
    constant of the rule's support witnesses (see _instantiated_atoms)."""
    atoms = _instantiated_atoms(kg, rule, config)
    return sorted(_children(rule, dict.fromkeys(atoms)), key=sort_key)


def refine(kg, rule: Rule, config: MinerConfig):
    """All refinements of a rule, canonical and deduplicated."""
    children = (
        refine_dangling(kg, rule, config)
        + refine_closing(kg, rule, config)
        + refine_instantiated(kg, rule, config)
    )
    return sorted(set(children), key=sort_key)


def _viable_refinements(kg, rule: Rule, config: MinerConfig):
    """{atom: its child's support or None} for the closing and dangling
    atoms worth building, read off the rule's solution witnesses.

    A closing atom r(a, b) or dangling atom on variable v can only yield a
    child with support > 0 if some witness already realizes it, so blind
    children outside these are skipped without evaluation.  Only the
    slots of _slots are collected.  The witness rows are the rule's full
    solutions, one int64 column per variable: from `kg.index_join` when
    each atom is over two distinct variables and object identity is off,
    and otherwise from `projections` onto all of the rule's variables,
    converted once.
    A closing atom adds no variable, so it maps to its child's support:
    the distinct head keys of the rows that realize r(a, b), all closing
    pairs counted in one `kg.linked_head_counts` call.  Only the closing
    atoms whose count reaches `min_head_coverage` of the head's facts are
    kept.  Each dangling variable is one `kg.incident_relations` call, and
    its atoms map to None.  Returns None when the rows, or those of a
    partial column join, overrun `metrics.ROW_LIMIT`.
    """
    pairs, dangling_vars, _ = _slots(rule, config.max_len)
    joined = None if config.object_identity else kg.index_join(rule.atoms, metrics.ROW_LIMIT)
    if joined is None:
        cols = rule.variables()
        rows = projections(kg, rule.atoms, cols, None, config.object_identity, metrics.ROW_LIMIT)
        columns = None
        if rows is not None:
            flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * len(cols))
            columns = flat.reshape(-1, len(cols)).T
    else:
        cols, columns = joined
        columns = None if columns is None else np.stack(columns)
    if columns is None:
        return None  # witness overrun
    at = {v: i for i, v in enumerate(cols)}
    hvars = rule.head_variables()
    heads = columns[at[hvars[0]]] * len(kg.entities) + columns[at[hvars[-1]]]
    counted = {}
    if pairs:
        floor = config.min_head_coverage * kg.fact_count(rule.head.relation)
        a, b = ([at[v] for v in side] for side in zip(*pairs))
        for (i, r), n in kg.linked_head_counts(columns[a], columns[b], heads).items():
            if n >= floor:  # a child below head coverage is neither emitted nor refined
                counted[Atom(r, var(pairs[i][0]), var(pairs[i][1]))] = n
    fresh = var(max(cols) + 1)
    for v in dangling_vars:
        out_rels, in_rels = kg.incident_relations(columns[at[v]])
        counted.update((Atom(r, var(v), fresh), None) for r in out_rels)
        counted.update((Atom(r, fresh, var(v)), None) for r in in_rels)
    return counted


def _ancestors(rule: Rule):
    """Canonical forms of the rule's head with each proper, non-empty part of
    its body.  An injective renaming sends an ancestor's distinct body atoms
    onto distinct atoms of the rule, so a canonical rule is an ancestor
    exactly when it is among these."""
    body = rule.body
    return [
        canonicalize(Rule(rule.head, part))
        for k in range(1, len(body))
        for part in combinations(body, k)
    ]


def mine(kg: KnowledgeGraph, config: MinerConfig = None):
    """Run the refinement search; returns MinedRule entries sorted by head
    relation label, then descending chosen confidence, head coverage, and
    rule text."""
    if config is None:
        config = MinerConfig()
    kind, oi = config.confidence_kind, config.object_identity
    emitted = {}  # rule -> (metrics, confidence), in emission order
    # candidate -> the support its parent's sweep counted, or None
    level = dict.fromkeys(seed_rules(kg))
    while level:
        children = {}  # all of one length, so no earlier level built them
        for rule in sorted(level, key=sort_key):
            supp = level[rule]
            if supp is None:
                supp = support(kg, rule, oi)
            if supp < config.min_head_coverage * kg.fact_count(rule.head.relation):
                continue
            confidence = None
            if is_closed(rule):
                scored = gated_metrics(kg, rule, kind, config.min_confidence, supp, oi)
                if scored is not None:
                    confidence = scored.confidence(kind)
                    # ancestors are shorter, so they were emitted at earlier levels
                    ancestors = _ancestors(rule) if config.enable_skyline else ()
                    if not any(a in emitted and confidence <= emitted[a][1] for a in ancestors):
                        emitted[rule] = (scored, confidence)
            if len(rule) >= config.max_len or (config.enable_skyline and confidence == 1):
                continue
            atoms = _viable_refinements(kg, rule, config)
            if atoms is None:  # witness overrun: every closing and dangling atom, no count
                atoms = dict.fromkeys(chain(*_slot_atoms(kg, rule, config)))
            atoms.update(dict.fromkeys(_instantiated_atoms(kg, rule, config)))
            for child, n in _children(rule, atoms).items():
                if children.get(child) is None:  # a count another parent carried stays
                    children[child] = n
        level = children
    mined = [MinedRule(rule, scored) for rule, (scored, _) in emitted.items()]
    return sort_mined(kg, mined, kind)

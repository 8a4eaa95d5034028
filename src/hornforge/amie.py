"""Top-down rule mining by operator refinement.

Level-synchronous search: level 0 is the seed head atoms; each level is
evaluated, emitted and refined with dangling / closing / instantiated
atoms.  Expansion is gated on head coverage, output on confidence with
lazy denominator counting, and a rule that fails to strictly improve
on the confidence of an emitted ancestor is dropped (skyline): the
canonical forms `_ancestors` lists are looked up among the emitted
rules.  All candidate ordering is canonical so results are
byte-identical across runs.

`_slots` is the one closability rule: the closing pairs, dangling and
instantiable variables of a parent whose child can still close within
`max_len`.  The operators build children only there and the sweep below
reads only there.

Before a parent is refined, one witness sweep reads its full solutions
and keeps only the dangling and closing atoms some solution realizes, so
children without support are never built.  The solutions are int64
columns, one per variable: from the column join
`KnowledgeGraph.index_join` for rules whose atoms are each over two
distinct variables, without object identity, and from
`metrics.projections` onto all of the rule's variables otherwise.  The sweep is a few array calls per parent
with no per-row Python loop, and it also counts the support of each
closing child (AMIE's count projection): the distinct head keys of the
rows that realize its atom.  The level loop builds only the closing
children whose count reaches `min_head_coverage` of the head's facts (a
child below it would be neither emitted nor refined, so children below
head coverage are never built) and carries that count to the child's
evaluation; dangling and instantiated children get their support from
`metrics.support`.  The sweep overruns past _WITNESS_LIMIT rows, of
the solutions or of one of the column join's partial joins: it then
prunes nothing and counts nothing for that parent, which only lets
zero-support children through, so the mined rules do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

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

_WITNESS_LIMIT = 200_000


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


def _children(rule: Rule, atoms):
    """The children adding one of `atoms` (those not already in the rule):
    canonical, deduplicated, in canonical order."""
    children = {
        canonicalize(Rule(rule.head, rule.body + (atom,))) for atom in atoms if atom not in rule.atoms
    }
    return sorted(children, key=sort_key)


def refine_dangling(kg, rule: Rule, config: MinerConfig, viable=None):
    """Children extending the body with one fresh-variable atom.  `viable`
    is None (every dangling slot) or the witness sweep's set of the
    (r, v, subject side) slots worth building."""
    if viable is None:
        viable = [
            (r, v, subject_side)
            for v in _slots(rule, config.max_len)[1]
            for r in range(len(kg.relations))
            for subject_side in (True, False)
        ]
    fresh = var(max(rule.variables(), default=-1) + 1)
    atoms = [Atom(r, var(v), fresh) if side else Atom(r, fresh, var(v)) for r, v, side in viable]
    return _children(rule, atoms)


def _closing_children(kg, rule: Rule, config: MinerConfig, closing=None):
    """{canonical child: its support or None} for the children adding one
    atom over two existing variables.  `closing` is None (build them all,
    supports unknown) or the witness sweep's dict from each (r, a, b) worth
    building to the support of the child adding r(a, b)."""
    if closing is None:
        slots = _slots(rule, config.max_len)[0]
        closing = dict.fromkeys((r, a, b) for a, b in slots for r in range(len(kg.relations)))
    children = {}
    for (r, a, b), n in closing.items():
        atom = Atom(r, var(a), var(b))
        if atom not in rule.atoms:
            children[canonicalize(Rule(rule.head, rule.body + (atom,)))] = n
    return children


def refine_closing(kg, rule: Rule, config: MinerConfig):
    """Children extending the body with one atom over two existing variables."""
    return sorted(_closing_children(kg, rule, config), key=sort_key)


def refine_instantiated(kg, rule: Rule, config: MinerConfig):
    """Children adding one atom that joins an existing variable to a constant.

    Constants are drawn from the rule's own support witnesses, so every
    child has support at least one.  Each variable's witness values are
    listed on their own, so memory stays bounded by the distinct values
    rather than by the number of witnesses.
    """
    if not config.enable_instantiation:
        return []
    atoms = set()
    for v in _slots(rule, config.max_len)[2]:
        for (val,) in projections(kg, rule.atoms, (v,), None, config.object_identity):
            for r, o in kg.out_edges(val):
                atoms.add(Atom(r, var(v), const(o)))
            for r, s in kg.in_edges(val):
                atoms.add(Atom(r, const(s), var(v)))
    return _children(rule, atoms)


def refine(kg, rule: Rule, config: MinerConfig):
    """All refinements of a rule, canonical and deduplicated."""
    children = (
        refine_dangling(kg, rule, config)
        + refine_closing(kg, rule, config)
        + refine_instantiated(kg, rule, config)
    )
    return sorted(set(children), key=sort_key)


def _viable_refinements(kg, rule: Rule, config: MinerConfig):
    """(closing, dangling) viability from the rule's solution witnesses.

    A closing atom r(a, b) or dangling atom on variable v can only yield a
    child with support > 0 if some witness already realizes it, so blind
    children outside these are skipped without evaluation.  Only the
    slots of _slots are collected.  The witness rows are the rule's full
    solutions, one int64 column per variable: from `kg.index_join` when
    each atom is over two distinct variables and object identity is off,
    and otherwise from `projections` onto all of the rule's variables,
    converted once.
    A closing atom adds no variable, so `closing` maps each (r, a, b) to
    its child's support: the distinct head keys of the rows that realize
    r(a, b), all closing pairs counted in one `kg.linked_head_counts`
    call.  Each dangling variable is one `kg.incident_relations` call.
    Returns (None, None) when the rows, or those of a partial column
    join, overrun _WITNESS_LIMIT.
    """
    pairs_needed, dangling_vars, _ = _slots(rule, config.max_len)
    joined = None if config.object_identity else kg.index_join(rule.atoms, _WITNESS_LIMIT)
    if joined is None:
        cols = rule.variables()
        rows = projections(kg, rule.atoms, cols, None, config.object_identity, _WITNESS_LIMIT)
        columns = None
        if rows is not None:
            flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * len(cols))
            columns = flat.reshape(-1, len(cols)).T
    else:
        cols, columns = joined
        columns = None if columns is None else np.stack(columns)
    if columns is None:
        return None, None  # witness overrun: prune nothing, count nothing
    at = {v: i for i, v in enumerate(cols)}
    hvars = rule.head_variables()
    heads = columns[at[hvars[0]]] * len(kg.entities) + columns[at[hvars[-1]]]
    closing = {}
    if pairs_needed:
        a, b = ([at[v] for v in side] for side in zip(*pairs_needed))
        counts = kg.linked_head_counts(columns[a], columns[b], heads)
        closing = {(r, *pairs_needed[i]): count for (i, r), count in counts.items()}
    dangling = set()
    for v in dangling_vars:
        out_rels, in_rels = kg.incident_relations(columns[at[v]])
        dangling.update((r, v, True) for r in out_rels)
        dangling.update((r, v, False) for r in in_rels)
    return closing, dangling


@dataclass
class _Record:
    rule: Rule
    support: int
    head_fact_count: int
    closed: bool
    confidence: Fraction | None = None
    metrics: RuleMetrics | None = None

    @property
    def head_coverage(self) -> Fraction:
        return Fraction(self.support, self.head_fact_count)


def _evaluate_candidate(kg, rule: Rule, config: MinerConfig, supp=None) -> _Record:
    """The rule's record; `supp` is its support when a witness sweep
    already counted it."""
    if supp is None:
        supp = support(kg, rule, config.object_identity)
    rec = _Record(
        rule=rule,
        support=supp,
        head_fact_count=kg.fact_count(rule.head.relation),
        closed=is_closed(rule),
    )
    if rec.head_coverage < config.min_head_coverage or not rec.closed or supp == 0:
        return rec
    rec.metrics = gated_metrics(
        kg, rule, config.confidence_kind, config.min_confidence, supp, config.object_identity
    )
    if rec.metrics is not None:
        rec.confidence = rec.metrics.confidence(config.confidence_kind)
    return rec


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
    emitted = {}  # rule -> (metrics, confidence), in emission order
    children = seed_rules(kg)
    carried = {}  # child -> support counted by its parent's witness sweep
    while children:
        records = [_evaluate_candidate(kg, r, config, carried.get(r)) for r in children]
        for rec in records:
            if rec.metrics is None:
                continue
            # ancestors are shorter, so they were emitted at earlier levels
            ancestors = _ancestors(rec.rule) if config.enable_skyline else ()
            if not any(anc in emitted and rec.confidence <= emitted[anc][1] for anc in ancestors):
                emitted[rec.rule] = (rec.metrics, rec.confidence)
        children = set()  # all of one length, so no earlier level built them
        carried = {}
        for rec in records:
            if (
                rec.head_coverage < config.min_head_coverage
                or len(rec.rule) >= config.max_len
                or (config.enable_skyline and rec.closed and rec.confidence == 1)
            ):
                continue
            closing_viable, dangling_viable = _viable_refinements(kg, rec.rule, config)
            if closing_viable is not None:
                # a child below head coverage is neither emitted nor refined
                floor = config.min_head_coverage * rec.head_fact_count
                closing_viable = {k: n for k, n in closing_viable.items() if n >= floor}
            closing = _closing_children(kg, rec.rule, config, closing_viable)
            carried.update((child, n) for child, n in closing.items() if n is not None)
            children.update(refine_dangling(kg, rec.rule, config, viable=dangling_viable))
            children.update(closing)
            children.update(refine_instantiated(kg, rec.rule, config))
        children = sorted(children, key=sort_key)
    mined = [MinedRule(rule, metrics) for rule, (metrics, _) in emitted.items()]
    return sort_mined(kg, mined, config.confidence_kind)

"""Top-down rule mining by operator refinement.

Level-synchronous search: seed head atoms, refine with dangling /
closing / instantiated atoms, gate expansion on head coverage, gate
output on confidence with lazy denominator counting, and prune
refinements of output ancestors that fail to strictly improve
confidence (skyline).  All candidate ordering is canonical so results
are byte-identical across runs.

Before a parent is refined, one witness sweep reads its solutions and
keeps only the dangling and closing atoms some solution realizes, so
children without support are never built.  The rows come from
`KnowledgeGraph.index_join` for rules of one or two all-variable atoms
without object identity, and from `metrics.projections` onto the
variables the sweep reads otherwise.  Its one overrun point is past
_WITNESS_LIMIT rows: the sweep then prunes nothing for that parent,
which only lets zero-support children through, so the mined rules do
not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _closable(rule: Rule, max_len: int) -> bool:
    """A single added atom can bind at most two open variables, so a child
    whose open variables outnumber twice its remaining atom budget can never
    reach a closed rule."""
    return len(open_variables(rule)) <= 2 * (max_len - len(rule))


def _children(rule: Rule, atoms, max_len: int):
    """The children adding one of `atoms` (those not already in the rule):
    canonical, deduplicated, cut by _closable, in canonical order."""
    children = {
        canonicalize(Rule(rule.head, rule.body + (atom,))) for atom in atoms if atom not in rule.atoms
    }
    return sorted((c for c in children if _closable(c, max_len)), key=sort_key)


def refine_dangling(kg, rule: Rule, config: MinerConfig, viable=None):
    """Children extending the body with one fresh-variable atom."""
    if len(rule) >= config.max_len:
        return []
    fresh = var(max(rule.variables(), default=-1) + 1)
    atoms = [
        Atom(r, var(v), fresh) if subject_side else Atom(r, fresh, var(v))
        for v in rule.variables()
        for r in range(len(kg.relations))
        for subject_side in (True, False)
        if viable is None or (r, v, subject_side) in viable
    ]
    return _children(rule, atoms, config.max_len)


def refine_closing(kg, rule: Rule, config: MinerConfig, viable=None):
    """Children extending the body with one atom over two existing variables."""
    if len(rule) >= config.max_len:
        return []
    vs = rule.variables()
    atoms = [
        Atom(r, var(a), var(b))
        for a in vs
        for b in vs
        if a != b
        for r in range(len(kg.relations))
        if viable is None or (r, a, b) in viable
    ]
    return _children(rule, atoms, config.max_len)


def refine_instantiated(kg, rule: Rule, config: MinerConfig):
    """Children adding one atom that joins an existing variable to a constant.

    Constants are drawn from the rule's own support witnesses, so every
    child has support at least one.  Each variable's witness values are
    listed on their own, so memory stays bounded by the distinct values
    rather than by the number of witnesses.
    """
    if not config.enable_instantiation or len(rule) >= config.max_len:
        return []
    atoms = set()
    for v in rule.variables():
        for (val,) in projections(kg, rule.atoms, (v,), None, config.object_identity):
            for r, o in kg.out_edges(val):
                atoms.add(Atom(r, var(v), const(o)))
            for r, s in kg.in_edges(val):
                atoms.add(Atom(r, const(s), var(v)))
    return _children(rule, atoms, config.max_len)


def refine(kg, rule: Rule, config: MinerConfig):
    """All refinements of a rule, canonical and deduplicated."""
    children = (
        refine_dangling(kg, rule, config)
        + refine_closing(kg, rule, config)
        + refine_instantiated(kg, rule, config)
    )
    return sorted(set(children), key=sort_key)


def _viable_refinements(kg, rule: Rule, config: MinerConfig):
    """(closing, dangling) viability sets from the rule's solution witnesses.

    A closing atom r(a, b) or dangling atom on variable v can only yield a
    child with support > 0 if some witness already realizes it, so blind
    children outside these sets are skipped without evaluation.  Atoms whose
    child could never reach a closed rule are not collected either, mirroring
    the _closable cut the refinement operators apply.  The witness rows come
    from `kg.index_join` when the rule's shape allows it and object identity
    is off, and otherwise from `projections` onto the variables the sweep
    reads.
    Returns (None, None) when the rows overrun _WITNESS_LIMIT.
    """
    vs = rule.variables()
    opens = frozenset(open_variables(rule))
    budget = 2 * (config.max_len - len(rule) - 1)
    pairs_needed = [(a, b) for a in vs for b in vs if a != b and len(opens - {a, b}) <= budget]
    dangling_vars = [v for v in vs if len(opens - {v}) + 1 <= budget]
    if not pairs_needed and not dangling_vars:
        return frozenset(), frozenset()
    joined = None if config.object_identity else kg.index_join(rule.atoms)
    if joined is None:
        cols = sorted({v for pair in pairs_needed for v in pair}.union(dangling_vars))
        rows = projections(kg, rule.atoms, cols, None, config.object_identity, _WITNESS_LIMIT)
    else:
        cols, rows = joined
    probe_pairs = [(a, b, cols.index(a), cols.index(b)) for a, b in pairs_needed]
    dang_slots = [(v, cols.index(v)) for v in dangling_vars]
    relations_linking = kg.relations_linking
    closing = set()
    val_sets = {v: set() for v in dangling_vars}
    n = 0
    for row in () if rows is None else rows:
        n += 1
        if n > _WITNESS_LIMIT:
            break
        for a, b, ia, ib in probe_pairs:
            for r in relations_linking(row[ia], row[ib]):
                closing.add((r, a, b))
        for v, iv in dang_slots:
            val_sets[v].add(row[iv])
    if rows is None or n > _WITNESS_LIMIT:
        return None, None  # witness overrun: prune nothing
    dangling = set()
    for v, vals in val_sets.items():
        out_rels = {r for val in vals for r, _ in kg.out_edges(val)}
        in_rels = {r for val in vals for r, _ in kg.in_edges(val)}
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


def _evaluate_candidate(kg, rule: Rule, config: MinerConfig) -> _Record:
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


def _unify_atom(a, c, mapping):
    """Extend an injective var->var mapping so atom a becomes atom c."""
    if a.relation != c.relation:
        return None
    mapping = dict(mapping)
    for ta, tc in ((a.subject, c.subject), (a.object, c.object)):
        if ta.is_var != tc.is_var:
            return None
        if not ta.is_var:
            if ta.index != tc.index:
                return None
            continue
        if ta.index in mapping:
            if mapping[ta.index] != tc.index:
                return None
            continue
        if tc.index in mapping.values():
            return None
        mapping[ta.index] = tc.index
    return mapping


def _embeds(anc: Rule, cand: Rule) -> bool:
    """True when anc's body maps into cand's body under an injective variable
    renaming that identifies the heads (anc is a mining ancestor of cand)."""
    if anc.head.relation != cand.head.relation or len(anc.body) >= len(cand.body):
        return False

    def match(i, mapping):
        if i == len(anc.body):
            return True
        for c in cand.body:
            m2 = _unify_atom(anc.body[i], c, mapping)
            if m2 is not None and match(i + 1, m2):
                return True
        return False

    start = _unify_atom(anc.head, cand.head, {})
    return start is not None and match(0, start)


def mine(kg: KnowledgeGraph, config: MinerConfig = None):
    """Run the refinement search; returns MinedRule entries sorted by head
    relation label, then descending chosen confidence, head coverage, and
    rule text."""
    if config is None:
        config = MinerConfig()
    seen = set()
    output = []  # (rule, metrics, confidence)
    seeds = seed_rules(kg)
    seen.update(seeds)
    frontier = [_evaluate_candidate(kg, s, config) for s in seeds]
    frontier = [r for r in frontier if r.head_coverage >= config.min_head_coverage]
    while frontier:
        parents = [
            rec
            for rec in frontier
            if len(rec.rule) < config.max_len
            and not (config.enable_skyline and rec.closed and rec.confidence == Fraction(1))
        ]
        children = []
        for rec in parents:
            closing_viable, dangling_viable = _viable_refinements(kg, rec.rule, config)
            kids = (
                refine_dangling(kg, rec.rule, config, viable=dangling_viable)
                + refine_closing(kg, rec.rule, config, viable=closing_viable)
                + refine_instantiated(kg, rec.rule, config)
            )
            for child in kids:
                if child not in seen:
                    seen.add(child)
                    children.append(child)
        children.sort(key=sort_key)
        records = [_evaluate_candidate(kg, r, config) for r in children]
        for rec in records:
            if rec.metrics is None:
                continue
            blocked = config.enable_skyline and any(
                rec.confidence <= anc_conf and _embeds(anc_rule, rec.rule)
                for anc_rule, _m, anc_conf in output
            )
            if not blocked:
                output.append((rec.rule, rec.metrics, rec.confidence))
        frontier = [r for r in records if r.head_coverage >= config.min_head_coverage]
    mined = [MinedRule(rule, metrics) for rule, metrics, _ in output]
    return sort_mined(kg, mined, config.confidence_kind)

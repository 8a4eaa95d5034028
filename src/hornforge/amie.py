"""Top-down rule mining by operator refinement.

Level-synchronous search: seed head atoms, refine with dangling /
closing / instantiated atoms, gate expansion on head coverage, gate
output on confidence with lazy denominator counting, and prune
refinements of output ancestors that fail to strictly improve
confidence (skyline).  All candidate ordering is canonical so results
are byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kg import KnowledgeGraph
from .metrics import (
    RuleMetrics,
    as_fraction,
    cwa_body_size,
    enumerate_solutions,
    lazy_denominator,
    pca_body_size,
    pca_direction,
    support,
)
from .rules import (
    MAX_BODY_ATOMS,
    Atom,
    Rule,
    atom_count_by_variable,
    canonicalize,
    const,
    is_closed,
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


def seed_rules(kg: KnowledgeGraph, config: MinerConfig = None):
    """One empty-bodied two-variable head rule per non-empty relation."""
    out = []
    for r in range(len(kg.relations)):
        if kg.fact_count(r) == 0:
            continue
        out.append(Rule(Atom(r, var(0), var(1))))
    return out


def _open_var_count(rule: Rule) -> int:
    return sum(1 for c in atom_count_by_variable(rule).values() if c == 1)


def _closable(rule: Rule, max_len: int) -> bool:
    """A single added atom can bind at most two open variables, so a child
    whose open variables outnumber twice its remaining atom budget can never
    reach a closed rule."""
    return _open_var_count(rule) <= 2 * (max_len - len(rule))


def refine_dangling(kg, rule: Rule, config: MinerConfig, viable=None):
    """Children extending the body with one fresh-variable atom."""
    if len(rule) >= config.max_len:
        return []
    fresh = max(rule.variables(), default=-1) + 1
    out = []
    seen = set()
    for v in rule.variables():
        for r in range(len(kg.relations)):
            for subject_side in (True, False):
                if viable is not None and (r, v, subject_side) not in viable:
                    continue
                atom = Atom(r, var(v), var(fresh)) if subject_side else Atom(r, var(fresh), var(v))
                child = canonicalize(Rule(rule.head, rule.body + (atom,)))
                if child in seen:
                    continue
                seen.add(child)
                if _closable(child, config.max_len):
                    out.append(child)
    out.sort(key=sort_key)
    return out


def refine_closing(kg, rule: Rule, config: MinerConfig, viable=None):
    """Children extending the body with one atom over two existing variables."""
    if len(rule) >= config.max_len:
        return []
    vs = rule.variables()
    out = []
    seen = set()
    existing = set(rule.atoms)
    for a in vs:
        for b in vs:
            if a == b:
                continue
            for r in range(len(kg.relations)):
                if viable is not None and (r, a, b) not in viable:
                    continue
                atom = Atom(r, var(a), var(b))
                if atom in existing:
                    continue
                child = canonicalize(Rule(rule.head, rule.body + (atom,)))
                if child in seen:
                    continue
                seen.add(child)
                if _closable(child, config.max_len):
                    out.append(child)
    out.sort(key=sort_key)
    return out


def refine_instantiated(kg, rule: Rule, config: MinerConfig):
    """Children adding one atom that joins an existing variable to a constant.

    Constants are drawn from the rule's own support witnesses, so every
    child has support at least one.
    """
    if not config.enable_instantiation or len(rule) >= config.max_len:
        return []
    sols = enumerate_solutions(
        kg, rule.body + (rule.head,), config.object_identity, limit=_WITNESS_LIMIT
    )
    if sols is None:
        return []
    values = {}
    for sol in sols:
        for v, val in sol.items():
            values.setdefault(v, set()).add(val)
    out = []
    seen = set()
    existing = set(rule.atoms)
    for v in rule.variables():
        atoms = set()
        for val in values.get(v, ()):
            for r, o in kg.out_edges(val):
                atoms.add(Atom(r, var(v), const(o)))
            for r, s in kg.in_edges(val):
                atoms.add(Atom(r, const(s), var(v)))
        for atom in sorted(atoms, key=lambda a: a.key()):
            if atom in existing:
                continue
            child = canonicalize(Rule(rule.head, rule.body + (atom,)))
            if child in seen:
                continue
            seen.add(child)
            if _closable(child, config.max_len):
                out.append(child)
    out.sort(key=sort_key)
    return out


def refine(kg, rule: Rule, config: MinerConfig):
    """All refinements of a rule, canonical and deduplicated."""
    seen = set()
    out = []
    for child in (
        refine_dangling(kg, rule, config)
        + refine_closing(kg, rule, config)
        + refine_instantiated(kg, rule, config)
    ):
        if child not in seen:
            seen.add(child)
            out.append(child)
    out.sort(key=sort_key)
    return out


def _viable_refinements(kg, rule: Rule, config: MinerConfig):
    """(closing, dangling) viability sets from the rule's solution witnesses.

    A closing atom r(a, b) or dangling atom on variable v can only yield a
    child with support > 0 if some witness already realizes it, so blind
    children outside these sets are skipped without evaluation.  Atoms whose
    child could never reach a closed rule are not collected either, mirroring
    the _closable cut the refinement operators apply.  Returns (None, None)
    when witness enumeration overruns its bound.
    """
    vs = rule.variables()
    opens = frozenset(v for v, c in atom_count_by_variable(rule).items() if c == 1)
    budget = 2 * (config.max_len - len(rule) - 1)
    pairs_needed = [(a, b) for a in vs for b in vs if a != b and len(opens - {a, b}) <= budget]
    dangling_vars = [v for v in vs if len(opens - {v}) + 1 <= budget]
    if not pairs_needed and not dangling_vars:
        return frozenset(), frozenset()
    result = None
    if not config.object_identity:
        result = _collect_viable_fast(kg, rule, pairs_needed, dangling_vars)
    if result is None:
        result = _collect_viable_generic(kg, rule, config, pairs_needed, dangling_vars)
    return result


def _dangling_from_vals(kg, val_sets):
    dangling = set()
    for v, vals in val_sets.items():
        for val in vals:
            for r in kg.out_relations(val):
                dangling.add((r, v, True))
            for r in kg.in_relations(val):
                dangling.add((r, v, False))
    return dangling


def _collect_viable_generic(kg, rule, config, pairs_needed, dangling_vars):
    sols = enumerate_solutions(
        kg, rule.body + (rule.head,), config.object_identity, limit=_WITNESS_LIMIT
    )
    if sols is None:
        return None, None
    closing = set()
    val_sets = {v: set() for v in dangling_vars}
    for sol in sols:
        for v in dangling_vars:
            val_sets[v].add(sol[v])
        for a, b in pairs_needed:
            for r in kg.relations_linking(sol[a], sol[b]):
                closing.add((r, a, b))
    return closing, _dangling_from_vals(kg, val_sets)


def _collect_viable_fast(kg, rule, pairs_needed, dangling_vars):
    """Witness sweep by direct index joins for one- and two-atom rules with
    all-variable, two-distinct-variable atoms.  None for uncovered shapes,
    (None, None) on witness overrun."""
    atoms = rule.body + (rule.head,)
    if len(atoms) > 2:
        return None
    for a in atoms:
        if not (a.subject.is_var and a.object.is_var) or a.subject.index == a.object.index:
            return None
    relations_linking = kg.relations_linking
    closing = set()
    val_sets = {v: set() for v in dangling_vars}

    if len(atoms) == 1:
        a0 = atoms[0]
        pos = {a0.subject.index: 0, a0.object.index: 1}
        rows = kg.pairs(a0.relation)
        if len(rows) > _WITNESS_LIMIT:
            return None, None
        probe_pairs = [(a, b, pos[a], pos[b]) for a, b in pairs_needed]
        dang_slots = [(v, pos[v]) for v in dangling_vars]
        for row in rows:
            for a, b, ia, ib in probe_pairs:
                for r in relations_linking(row[ia], row[ib]):
                    closing.add((r, a, b))
            for v, iv in dang_slots:
                val_sets[v].add(row[iv])
        return closing, _dangling_from_vals(kg, val_sets)

    a0, a1 = atoms
    if kg.fact_count(a1.relation) < kg.fact_count(a0.relation):
        a0, a1 = a1, a0  # iterate the smaller fact list
    ov0, ov1 = a0.subject.index, a0.object.index
    iv0, iv1 = a1.subject.index, a1.object.index
    shared = {ov0, ov1} & {iv0, iv1}
    if not shared:
        return None
    pos = {ov0: 0, ov1: 1}
    n = 0
    if len(shared) == 2:
        # inner atom adds no variable: filter outer facts by a pair probe
        ips = kg._pair_sets[a1.relation]
        s_slot, o_slot = pos[iv0], pos[iv1]
        probe_pairs = [(a, b, pos[a], pos[b]) for a, b in pairs_needed]
        dang_slots = [(v, pos[v]) for v in dangling_vars]
        for row in kg.pairs(a0.relation):
            if (row[s_slot], row[o_slot]) not in ips:
                continue
            n += 1
            if n > _WITNESS_LIMIT:
                return None, None
            for a, b, ia, ib in probe_pairs:
                for r in relations_linking(row[ia], row[ib]):
                    closing.add((r, a, b))
            for v, iv in dang_slots:
                val_sets[v].add(row[iv])
        return closing, _dangling_from_vals(kg, val_sets)

    m = next(iter(shared))
    w = iv1 if iv0 == m else iv0
    pos[w] = 2
    m_slot = pos[m]
    cidx = kg._sub_to_obj[a1.relation] if iv0 == m else kg._obj_to_sub[a1.relation]
    probe_pairs = [(a, b, pos[a], pos[b]) for a, b in pairs_needed]
    dang_slots = [(v, pos[v]) for v in dangling_vars]
    for fs, fo in kg.pairs(a0.relation):
        cands = cidx.get(fs if m_slot == 0 else fo)
        if cands is None:
            continue
        n += len(cands)
        if n > _WITNESS_LIMIT:
            return None, None
        for wv in cands:
            row = (fs, fo, wv)
            for a, b, ia, ib in probe_pairs:
                for r in relations_linking(row[ia], row[ib]):
                    closing.add((r, a, b))
            for v, iv in dang_slots:
                val_sets[v].add(row[iv])
    return closing, _dangling_from_vals(kg, val_sets)


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
    outcome = lazy_denominator(
        kg,
        rule,
        config.confidence_kind,
        config.min_confidence,
        object_identity=config.object_identity,
        support_value=supp,
    )
    if not outcome.passed:
        return rec
    denom = outcome.denominator
    conf = Fraction(supp, denom) if denom else Fraction(0)
    rec.confidence = conf
    if conf < config.min_confidence:
        return rec
    direction = pca_direction(kg, rule)
    if config.confidence_kind == "pca":
        cwa = cwa_body_size(kg, rule, config.object_identity)
        pca = denom
    else:
        cwa = denom
        pca = pca_body_size(kg, rule, direction, config.object_identity)
    rec.metrics = RuleMetrics(
        support=supp,
        head_fact_count=rec.head_fact_count,
        cwa_body_size=cwa,
        pca_body_size=pca,
        pca_direction=direction,
    )
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
    seeds = seed_rules(kg, config)
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

    def final_key(item):
        rule, metrics, conf = item
        return (
            kg.relations.label(rule.head.relation),
            -conf,
            -metrics.head_coverage,
            render_rule(rule, kg),
        )

    return [MinedRule(rule, metrics) for rule, metrics, _ in sorted(output, key=final_key)]

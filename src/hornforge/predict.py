"""Rule execution: fact prediction, negative examples, greedy selection,
inconsistency detection.

Rules fire under metrics.py's substitution semantics and structural check
(`projections`, `check_fires`); a prediction is a head fact whose body is
satisfiable, whether or not the fact is already known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kg import KnowledgeGraph
from .metrics import as_fraction, check_fires, covered, pca_confidence, projections
from .rules import Rule, sort_key


@dataclass(frozen=True)
class Prediction:
    fact: tuple
    in_kg: bool
    rules: tuple  # (rule, confidence) pairs, descending confidence

    def __post_init__(self):
        if not self.rules:
            raise ValueError("prediction must name at least one generating rule")


@dataclass(frozen=True)
class NegativeRule:
    """A rule whose head is asserted NOT to hold when the body fires."""

    rule: Rule


def _head_pair(head, hv, proj):
    """The head's (subject, object) under the head-variable values proj."""
    binding = dict(zip(hv, proj))
    s = binding[head.subject.index] if head.subject.is_var else head.subject.index
    o = binding[head.object.index] if head.object.is_var else head.object.index
    return s, o


def apply_rule(kg: KnowledgeGraph, rule: Rule, confidence=None, object_identity=False):
    """All head facts derivable from the body, known and novel alike."""
    check_fires(rule)
    if confidence is None:
        conf = pca_confidence(kg, rule, object_identity=object_identity)
    else:
        conf = as_fraction(confidence)
    head = rule.head
    relation = kg.relation_id(head.relation)
    hv = rule.head_variables()
    out = []
    for proj in projections(kg, rule.body, hv, None, object_identity):
        s, o = _head_pair(head, hv, proj)
        fact = (s, relation, o)
        out.append(Prediction(fact, kg.has_pair(relation, s, o), ((rule, conf),)))
    out.sort(key=lambda p: p.fact)
    return out


def complete(kg: KnowledgeGraph, scored_rules, relation, subject=None, object=None, top_k=None):
    """Rank completions of r(subject, ?) or r(?, object).

    scored_rules: (Rule, confidence) pairs.  Each candidate entity gets the
    descending vector of confidences of the rules that predict it; vectors
    compare lexicographically with missing entries as minus infinity.
    Returns (entity id, vector) pairs, best first, at most top_k of them.
    A disconnected or unsafe rule of the relation raises ValueError.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    if (subject is None) == (object is None):
        raise ValueError("exactly one of subject and object must be given")
    relation = kg.relation_id(relation)
    known_val = kg.entity_id(subject if subject is not None else object)
    candidates = {}
    for rule, conf in scored_rules:
        if rule.head.relation != relation:
            continue
        check_fires(rule)
        head = rule.head
        known_term, free_term = (
            (head.subject, head.object) if subject is not None else (head.object, head.subject)
        )
        binding = {}
        if known_term.is_var:
            binding[known_term.index] = known_val
        elif known_term.index != known_val:
            continue
        conf = as_fraction(conf)
        if free_term.is_var:
            for (val,) in projections(kg, rule.body, (free_term.index,), binding):
                candidates.setdefault(val, []).append(conf)
        elif projections(kg, rule.body, (), binding):
            candidates.setdefault(free_term.index, []).append(conf)
    ranked = []
    for ent, confs in candidates.items():
        ranked.append((ent, tuple(sorted(confs, reverse=True))))
    ranked.sort(key=lambda item: kg.entities.label(item[0]))
    ranked.sort(key=lambda item: item[1], reverse=True)
    if top_k is not None:
        ranked = ranked[:top_k]
    return ranked


def generate_negatives(kg: KnowledgeGraph, relation) -> frozenset:
    """Local closed-world negatives: for each subject with at least one fact
    of the relation, pair it with every other object the relation takes."""
    relation = kg.relation_id(relation)
    all_objects = kg.objects(relation)
    out = set()
    for s in kg.subjects(relation):
        existing = set(kg.objects_of(relation, s))
        for o in all_objects:
            if o not in existing:
                out.add((s, relation, o))
    return frozenset(out)


def select_rules_greedy(kg: KnowledgeGraph, candidates, examples, alpha) -> list:
    """Greedy weight minimization: repeatedly add the rule with the most
    negative marginal weight; stop when no candidate improves (marginal ≥ 0)."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    gen, val = examples.generation, examples.validation
    if not gen or not val:
        raise ValueError("degenerate example set")
    cov_gen = {rule: covered(kg, [rule], gen) for rule in candidates}
    cov_val = {rule: covered(kg, [rule], val) for rule in candidates}
    remaining = list(candidates)
    selected = []
    got_gen = set()
    got_val = set()
    while remaining:
        best = None
        best_key = None
        for rule in remaining:
            new_gen = cov_gen[rule] - got_gen
            new_val = cov_val[rule] - got_val
            marginal = a * Fraction(-len(new_gen), len(gen)) + (1 - a) * Fraction(
                len(new_val), len(val)
            )
            key = (marginal, sort_key(rule))
            if best_key is None or key < best_key:
                best_key = key
                best = rule
        if best_key[0] >= 0:
            break
        selected.append(best)
        got_gen |= cov_gen[best]
        got_val |= cov_val[best]
        remaining.remove(best)
    return selected


def find_inconsistencies(kg: KnowledgeGraph, negative_rules) -> list:
    """Known facts contradicting a negative rule: the body fires on a
    substitution whose (negated) head is present in the graph."""
    out = set()
    for nrule in negative_rules:
        rule = nrule.rule if isinstance(nrule, NegativeRule) else nrule
        check_fires(rule, safe=False)
        hv = rule.head_variables()
        for proj in projections(kg, rule.atoms, hv):
            s, o = _head_pair(rule.head, hv, proj)
            out.add((s, rule.head.relation, o))
    return sorted(out)

"""Brute-force oracles for cross-checking metric implementations.

Everything here enumerates total substitutions over a plain fact-set
snapshot. Deliberately dumb and index-free so it can disagree with the
library when the library is wrong.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from hornforge import Atom, KnowledgeGraph, Rule, canonicalize, is_closed, sort_key, var


def _value(term, sub):
    return sub[term.index] if term.is_var else term.index


@dataclass(frozen=True)
class BruteMetrics:
    support: int
    head_fact_count: int
    cwa_body_size: int
    pca_subject_size: int
    pca_object_size: int

    @property
    def head_coverage(self):
        return Fraction(self.support, self.head_fact_count)

    @property
    def std_confidence(self):
        if self.cwa_body_size == 0:
            return Fraction(0)
        return Fraction(self.support, self.cwa_body_size)

    def pca_confidence(self, direction):
        den = self.pca_subject_size if direction == "subject" else self.pca_object_size
        if den == 0:
            return Fraction(0)
        return Fraction(self.support, den)


def _compile_term(term, var_pos):
    # (True, combo position) for a variable, (False, entity id) for a constant
    if term.is_var:
        return True, var_pos[term.index]
    return False, term.index


def brute_metrics(kg: KnowledgeGraph, rule: Rule, object_identity=False) -> BruteMetrics:
    """Every count by total-substitution enumeration: |E|^|vars| candidates."""
    facts = set(kg.fact_list())
    n = len(kg.entities)
    head = rule.head
    all_vars = sorted(rule.variables())
    var_pos = {v: i for i, v in enumerate(all_vars)}
    head_pos = tuple(var_pos[v] for v in sorted(rule.head_variables()))
    body_c = [
        (_compile_term(a.subject, var_pos), a.relation, _compile_term(a.object, var_pos))
        for a in rule.body
    ]
    (hsv, hsi), hrel, (hov, hoi) = (
        _compile_term(head.subject, var_pos), head.relation, _compile_term(head.object, var_pos),
    )
    # existential head-fact lookups for the PCA denominators
    known_subj = {(s, r) for s, r, _ in facts}
    known_obj = {(r, o) for _, r, o in facts}

    body_sat, supported, pca_subj, pca_obj = set(), set(), set(), set()
    for combo in itertools.product(range(n), repeat=len(all_vars)):
        if object_identity and len(set(combo)) != len(combo):
            continue
        ok = True
        for (sv, si), rel, (ov, oi) in body_c:
            s = combo[si] if sv else si
            o = combo[oi] if ov else oi
            if (s, rel, o) not in facts:
                ok = False
                break
        if not ok:
            continue
        key = tuple(combo[p] for p in head_pos)
        body_sat.add(key)
        hs = combo[hsi] if hsv else hsi
        ho = combo[hoi] if hov else hoi
        if (hs, hrel, ho) in facts:
            supported.add(key)
        if (hs, hrel) in known_subj:
            pca_subj.add(key)
        if (hrel, ho) in known_obj:
            pca_obj.add(key)

    head_count = sum(1 for _, r, _ in facts if r == head.relation)
    return BruteMetrics(
        support=len(supported),
        head_fact_count=head_count,
        cwa_body_size=len(body_sat),
        pca_subject_size=len(pca_subj),
        pca_object_size=len(pca_obj),
    )


def brute_support(kg, rule, object_identity=False) -> int:
    return brute_metrics(kg, rule, object_identity).support


def brute_head_projections(kg, rule, object_identity=False) -> frozenset:
    """Distinct head-variable tuples whose body is satisfiable."""
    facts = set(kg.fact_list())
    n = len(kg.entities)
    all_vars = sorted(rule.variables())
    head_vars = sorted(rule.head_variables())
    out = set()
    for combo in itertools.product(range(n), repeat=len(all_vars)):
        if object_identity and len(set(combo)) != len(combo):
            continue
        sub = dict(zip(all_vars, combo))
        if all(
            (_value(a.subject, sub), a.relation, _value(a.object, sub)) in facts
            for a in rule.body
        ):
            out.add(tuple(sub[v] for v in head_vars))
    return frozenset(out)


def brute_auto_direction(kg, relation) -> str:
    """Functionality tie-break straight off the fact snapshot."""
    pairs = [(s, o) for s, r, o in kg.fact_list() if r == relation]
    if not pairs:
        return "subject"
    fun = Fraction(len({s for s, _ in pairs}), len(pairs))
    ifun = Fraction(len({o for _, o in pairs}), len(pairs))
    return "subject" if fun >= ifun else "object"


def brute_covered(kg, rules, examples, object_identity=False) -> frozenset:
    """Examples predicted by any rule: head bound to the example, body satisfiable."""
    facts = set(kg.fact_list())
    n = len(kg.entities)
    out = set()
    for s, r, o in examples:
        for rule in rules:
            head = rule.head
            if head.relation != r:
                continue
            fixed = {}
            ok = True
            for term, val in ((head.subject, s), (head.object, o)):
                if term.is_var:
                    if fixed.setdefault(term.index, val) != val:
                        ok = False
                elif term.index != val:
                    ok = False
            if not ok:
                continue
            free = sorted(set(rule.variables()) - set(fixed))
            for combo in itertools.product(range(n), repeat=len(free)):
                sub = dict(fixed)
                sub.update(zip(free, combo))
                if object_identity and len(set(sub.values())) != len(sub):
                    continue
                if all(
                    (_value(a.subject, sub), a.relation, _value(a.object, sub)) in facts
                    for a in rule.body
                ):
                    out.add((s, r, o))
                    break
            if (s, r, o) in out:
                break
    return frozenset(out)


def brute_embeds(anc: Rule, cand: Rule) -> bool:
    """True when some injective renaming of anc's variables onto cand's
    sends anc's head to cand's head and every body atom of anc into cand's
    body; constants stay fixed.  Every renaming is tried."""
    anc_vars = anc.variables()
    cand_body = set(cand.body)

    def rename(atom, sub):
        s, o = atom.subject, atom.object
        return Atom(
            atom.relation,
            var(sub[s.index]) if s.is_var else s,
            var(sub[o.index]) if o.is_var else o,
        )

    for image in itertools.permutations(cand.variables(), len(anc_vars)):
        sub = dict(zip(anc_vars, image))
        if rename(anc.head, sub) == cand.head and all(rename(a, sub) in cand_body for a in anc.body):
            return True
    return False


def random_kg(rng, max_entities=8, max_relations=4, max_facts=30) -> KnowledgeGraph:
    n_e = rng.randint(2, max_entities)
    n_r = rng.randint(1, max_relations)
    n_f = rng.randint(1, max_facts)
    triples = set()
    for _ in range(n_f):
        triples.add((
            "e%d" % rng.randrange(n_e),
            "r%d" % rng.randrange(n_r),
            "e%d" % rng.randrange(n_e),
        ))
    return KnowledgeGraph.from_label_triples(sorted(triples))


def all_chain_rules(kg, max_body=2):
    """Every closed chain rule (head + up to max_body body atoms, both
    orientations per step), deduplicated by canonical form."""
    rels = range(len(kg.relations))
    x, y, z = var(0), var(1), var(2)
    rules = set()
    for hr in rels:
        head = Atom(hr, x, y)
        for r1 in rels:
            for a1 in (Atom(r1, x, y), Atom(r1, y, x)):
                rules.add(canonicalize(Rule(head, (a1,))))
            if max_body < 2:
                continue
            for r2 in rels:
                for a1 in (Atom(r1, x, z), Atom(r1, z, x)):
                    for a2 in (Atom(r2, z, y), Atom(r2, y, z)):
                        rules.add(canonicalize(Rule(head, (a1, a2))))
    return sorted(rules, key=sort_key)


def all_closed_rules(kg, max_body=2):
    """Every canonical closed rule over the graph's relations with at most
    max_body distinct variable-only, non-reflexive body atoms.  The head
    atom itself never reappears in the body (a rule implying itself is
    vacuous and the refinement operators never build one)."""
    assert max_body == 2
    nrel = len(kg.relations)
    pats = [(u, w) for u in range(3) for w in range(3) if u != w]
    atoms = [Atom(r, var(u), var(w)) for r in range(nrel) for u, w in pats]
    rules = set()
    for hr in range(nrel):
        head = Atom(hr, var(0), var(1))
        for a1 in atoms:
            if a1 == head:
                continue
            one = Rule(head, (a1,))
            if is_closed(one):
                rules.add(canonicalize(one))
            for a2 in atoms:
                if a2 == head or a2 == a1:
                    continue
                two = Rule(head, (a1, a2))
                if is_closed(two):
                    rules.add(canonicalize(two))
    return sorted(rules, key=sort_key)

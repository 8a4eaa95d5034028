"""Reference computations made apart from hornforge, for the output checks.

Everything here works on entity and relation labels read back from the
generated TSV files with its own parser and plain dict/set indexes.  It
imports nothing from hornforge, so a fault in the program's loader, join
or metrics cannot hide itself by also being in the check.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

_ATOM = re.compile(r"\s*([^\s(),]+)\(\s*([^(),\s]+)\s*,\s*([^(),\s]+)\s*\)\s*")


def read_facts(path):
    """Label triples of a subject<TAB>relation<TAB>object file."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


class Index:
    """Per-relation pair set and subject/object adjacency over label facts."""

    def __init__(self, facts):
        self.pairs = {}
        self.out = {}
        self.inn = {}
        for s, r, o in facts:
            self.pairs.setdefault(r, set()).add((s, o))
            self.out.setdefault(r, {}).setdefault(s, set()).add(o)
            self.inn.setdefault(r, {}).setdefault(o, set()).add(s)


def parse_rule_text(text):
    """(head, body) of 'b1(?a, ?c) & b2(?c, ?b) => h(?a, ?b)', each atom
    (relation, subject, object); a term starting with '?' is a variable."""
    lhs, rhs = text.split("=>")
    body = tuple(_atom(part) for part in lhs.split("&")) if lhs.strip() else ()
    return _atom(rhs), body


def _atom(text):
    m = _ATOM.fullmatch(text)
    if m is None:
        raise ValueError(f"not an atom: {text!r}")
    return m.group(1), m.group(2), m.group(3)


def _is_var(term):
    return term.startswith("?")


def _solutions(index, atoms, binding, injective):
    """Every extension of binding (variable -> entity) under which all atoms
    are facts.  With injective, distinct variables take distinct entities."""
    if not atoms:
        yield binding
        return

    def bound(atom):
        _, s, o = atom
        return (not _is_var(s) or s in binding) + (not _is_var(o) or o in binding)

    i = max(range(len(atoms)), key=lambda k: bound(atoms[k]))
    rel, s, o = atoms[i]
    rest = atoms[:i] + atoms[i + 1 :]
    sv = binding.get(s) if _is_var(s) else s
    ov = binding.get(o) if _is_var(o) else o
    if sv is not None and ov is not None:
        cands = [(sv, ov)] if (sv, ov) in index.pairs.get(rel, ()) else []
    elif sv is not None:
        cands = [(sv, x) for x in index.out.get(rel, {}).get(sv, ())]
    elif ov is not None:
        cands = [(x, ov) for x in index.inn.get(rel, {}).get(ov, ())]
    else:
        cands = index.pairs.get(rel, ())
    for cs, co in cands:
        new = dict(binding)
        ok = True
        for term, val in ((s, cs), (o, co)):
            if not _is_var(term):
                continue
            if term in new:
                ok = ok and new[term] == val
            elif injective and val in new.values():
                ok = False
            else:
                new[term] = val
        if ok:
            yield from _solutions(index, rest, new, injective)


def rule_counts(index, rule, injective=False):
    """(support, head facts, CWA body size, PCA body size, PCA direction) of a
    parsed rule, by set joins over the index.

    Support counts head facts whose body is satisfiable; both body sizes
    count distinct head-variable projections of body solutions, the PCA one
    only those whose functional head argument has some head fact.  The PCA
    direction is the subject unless the relation has more distinct objects
    than subjects.
    """
    head, body = rule
    hrel, hs, ho = head
    subjects = index.out.get(hrel, {})
    objects = index.inn.get(hrel, {})
    direction = "subject" if len(subjects) >= len(objects) else "object"
    head_vars = list(dict.fromkeys(t for t in (hs, ho) if _is_var(t)))

    def projections(atoms):
        return {tuple(b[v] for v in head_vars) for b in _solutions(index, atoms, {}, injective)}

    # each head fact with a satisfiable body is one projection of body + head
    support = len(projections(body + (head,)))
    body_projections = projections(body)

    def functional_value(proj):
        term = hs if direction == "subject" else ho
        return dict(zip(head_vars, proj))[term] if _is_var(term) else term

    known = subjects if direction == "subject" else objects
    pca = sum(1 for p in body_projections if functional_value(p) in known)
    head_facts = len(index.pairs.get(hrel, ()))
    return support, head_facts, len(body_projections), pca, direction


def chain_steps(rule):
    """(relation, inverted) per body atom walking from the head subject to
    the head object, or None when the body is not such a simple chain."""
    (_, hs, ho), body = rule
    cur, remaining, steps = hs, list(body), []
    while remaining:
        nxt = [a for a in remaining if cur in (a[1], a[2])]
        if len(nxt) != 1 or not all(_is_var(t) for t in nxt[0][1:]):
            return None
        rel, s, o = nxt[0]
        steps.append((rel, o == cur))
        cur = s if o == cur else o
        remaining.remove(nxt[0])
    return steps if steps and cur == ho else None


def chain_targets(index, start, steps):
    """Entities reached from start along (relation, inverted) steps."""
    frontier = {start}
    for rel, inverted in steps:
        adj = index.inn.get(rel, {}) if inverted else index.out.get(rel, {})
        frontier = {y for x in frontier for y in adj.get(x, ())}
    return frontier


def _rank_cmp(a, b):
    (label_a, vec_a), (label_b, vec_b) = a, b
    if vec_a != vec_b:
        return -1 if vec_a > vec_b else 1
    return (label_a > label_b) - (label_a < label_b)


def ranked_completions(index, chain_rules, relation, subject, top_k):
    """Top-k (entity label, descending confidence vector) completions of
    relation(subject, ?) under chain rules given as (head relation, steps,
    confidence).  Vectors compare lexicographically, a missing entry below
    any present one; equal vectors order by label."""
    confs = {}
    for head, steps, conf in chain_rules:
        if head != relation:
            continue
        for y in chain_targets(index, subject, steps):
            confs.setdefault(y, []).append(Fraction(conf))
    ranked = [(y, tuple(sorted(c, reverse=True))) for y, c in confs.items()]
    ranked.sort(key=functools.cmp_to_key(_rank_cmp))
    return ranked[:top_k]

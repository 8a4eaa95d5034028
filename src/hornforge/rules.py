"""Rule syntax: terms, atoms, Horn rules, structural predicates, text form.

Variables are small integers, entities and relations are interned ids
(see kg.Interner).  Everything here is purely structural; evaluation
semantics live in metrics.py and matrix.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations

_VAR_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# canonicalize searches every body order, so bodies are capped
MAX_BODY_ATOMS = 8


class RuleParseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Term:
    """Either a variable (index into the rule's variable space) or an entity."""

    is_var: bool
    index: int

    def key(self, var_map=None):
        # encoding used for canonical comparison; variables sort before constants
        if self.is_var:
            i = self.index if var_map is None else var_map[self.index]
            return (0, i)
        return (1, self.index)


def var(i: int) -> Term:
    return Term(True, i)


def const(entity_id: int) -> Term:
    return Term(False, entity_id)


@dataclass(frozen=True, slots=True)
class Atom:
    relation: int
    subject: Term
    object: Term

    @property
    def terms(self):
        return (self.subject, self.object)

    def variables(self):
        return tuple(t.index for t in self.terms if t.is_var)

    def key(self, var_map=None):
        return (self.relation, self.subject.key(var_map), self.object.key(var_map))


@dataclass(frozen=True, slots=True)
class Rule:
    """body[0] & body[1] & ... => head.  Empty body is allowed."""

    head: Atom
    body: tuple[Atom, ...] = ()

    def __len__(self):
        # atom count, head included
        return 1 + len(self.body)

    @property
    def atoms(self):
        return (self.head,) + self.body

    def variables(self):
        """Distinct variables, first appearance order, head scanned first."""
        seen = []
        for atom in self.atoms:
            for t in atom.terms:
                if t.is_var and t.index not in seen:
                    seen.append(t.index)
        return tuple(seen)

    def head_variables(self):
        seen = []
        for t in self.head.terms:
            if t.is_var and t.index not in seen:
                seen.append(t.index)
        return tuple(seen)


def atom_count_by_variable(rule: Rule) -> dict:
    """var -> number of distinct atoms it appears in."""
    counts = {}
    for atom in rule.atoms:
        for v in set(atom.variables()):
            counts[v] = counts.get(v, 0) + 1
    return counts


def open_variables(rule: Rule):
    """Variables appearing in exactly one atom."""
    return tuple(v for v, c in atom_count_by_variable(rule).items() if c == 1)


def is_connected(rule: Rule) -> bool:
    """True iff every atom transitively shares an argument with every other.

    Sharing counts both variables and constants; a rule with at most one
    atom besides an empty body is trivially connected.
    """
    atoms = rule.atoms
    if len(atoms) <= 1:
        return True
    arg_sets = [set(a.terms) for a in atoms]
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(atoms)):
            if j not in reached and arg_sets[i] & arg_sets[j]:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(atoms)


def is_safe(rule: Rule) -> bool:
    """Every head variable also occurs in the body."""
    body_vars = set()
    for atom in rule.body:
        body_vars.update(atom.variables())
    return all(v in body_vars for v in rule.head_variables())


def is_closed(rule: Rule) -> bool:
    """Every variable appears in at least two distinct atoms."""
    return all(c >= 2 for c in atom_count_by_variable(rule).values())


def apply_substitution(atoms, sigma: dict):
    """Replace variables bound in sigma (var -> entity id) by constants."""
    out = []
    for atom in atoms:
        s, o = atom.subject, atom.object
        if s.is_var and s.index in sigma:
            s = const(sigma[s.index])
        if o.is_var and o.index in sigma:
            o = const(sigma[o.index])
        out.append(Atom(atom.relation, s, o))
    return out


def _renumber(head: Atom, body, mapping) -> Rule:
    def fix(t: Term) -> Term:
        return var(mapping[t.index]) if t.is_var else t

    new_head = Atom(head.relation, fix(head.subject), fix(head.object))
    new_body = tuple(Atom(a.relation, fix(a.subject), fix(a.object)) for a in body)
    return Rule(new_head, new_body)


def _numbering_for(head: Atom, body):
    mapping = {}
    for atom in (head,) + tuple(body):
        for t in atom.terms:
            if t.is_var and t.index not in mapping:
                mapping[t.index] = len(mapping)
    return mapping


def canonicalize(rule: Rule) -> Rule:
    """Normal form: duplicate body atoms dropped, variables renumbered by
    first appearance (head first), body order chosen so the encoded rule
    is lexicographically least.  Alpha-equivalent rules map to the same
    object.  Bodies of more than MAX_BODY_ATOMS distinct atoms raise
    ValueError."""
    body = []
    for atom in rule.body:
        if atom not in body:
            body.append(atom)
    if len(body) > MAX_BODY_ATOMS:
        raise ValueError(
            f"cannot canonicalize a body of {len(body)} atoms (at most {MAX_BODY_ATOMS})"
        )
    best_key = None
    best = None
    for perm in permutations(body):
        mapping = _numbering_for(rule.head, perm)
        key = (rule.head.key(mapping), tuple(a.key(mapping) for a in perm))
        if best_key is None or key < best_key:
            best_key = key
            best = _renumber(rule.head, perm, mapping)
    if best is None:
        mapping = _numbering_for(rule.head, ())
        best = _renumber(rule.head, (), mapping)
    return best


def sort_key(rule: Rule):
    """Total deterministic order over canonical rules."""
    return (len(rule), rule.head.key(), tuple(a.key() for a in rule.body))


def var_name(i: int) -> str:
    if i < len(_VAR_LETTERS):
        return _VAR_LETTERS[i]
    return f"v{i}"


def _render_term(t: Term, kg) -> str:
    if t.is_var:
        return "?" + var_name(t.index)
    return kg.entities.label(t.index)


def render_atom(atom: Atom, kg) -> str:
    rel = kg.relations.label(atom.relation)
    return f"{rel}({_render_term(atom.subject, kg)}, {_render_term(atom.object, kg)})"


def render_rule(rule: Rule, kg, negate_head: bool = False) -> str:
    body = " & ".join(render_atom(a, kg) for a in rule.body)
    bang = "!" if negate_head else ""
    return f"{body} => {bang}{render_atom(rule.head, kg)}"


_ATOM_RE = re.compile(r"\s*(!?)([^\s(),!][^(),!]*?)\s*\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)\s*")


def _parse_atom(text: str, kg, var_ids: dict, allow_negation: bool):
    m = _ATOM_RE.fullmatch(text)
    if m is None:
        raise RuleParseError(f"malformed atom: {text!r}")
    negated = m.group(1) == "!"
    if negated and not allow_negation:
        raise RuleParseError(f"negation not allowed here: {text!r}")
    rel_label = m.group(2).strip()
    rel = kg.relations.get(rel_label)
    if rel is None:
        raise RuleParseError(f"unknown relation: {rel_label!r}")
    terms = []
    for raw in (m.group(3), m.group(4)):
        raw = raw.strip()
        if raw.startswith("?"):
            name = raw[1:]
            if not name:
                raise RuleParseError(f"empty variable name in atom: {text!r}")
            if name not in var_ids:
                var_ids[name] = len(var_ids)
            terms.append(var(var_ids[name]))
        else:
            eid = kg.entities.get(raw)
            if eid is None:
                raise RuleParseError(f"unknown entity: {raw!r}")
            terms.append(const(eid))
    return Atom(rel, terms[0], terms[1]), negated


def parse_rule_with_negation(text: str, kg):
    """Parse 'a(...) & b(...) => [!]h(...)' against kg's interners.

    Returns (rule, head_negated).  The rule comes back canonicalized, so
    parse followed by render is the identity on canonical rule text.
    """
    if "=>" not in text:
        raise RuleParseError(f"missing '=>' in rule: {text!r}")
    body_text, head_text = text.split("=>", 1)
    var_ids = {}
    body = []
    body_text = body_text.strip()
    if body_text:
        for part in body_text.split("&"):
            atom, neg = _parse_atom(part, kg, var_ids, allow_negation=False)
            body.append(atom)
    if len(body) > MAX_BODY_ATOMS and len(set(body)) > MAX_BODY_ATOMS:
        raise RuleParseError(f"rule body has more than {MAX_BODY_ATOMS} distinct atoms: {text!r}")
    head, negated = _parse_atom(head_text, kg, var_ids, allow_negation=True)
    return canonicalize(Rule(head, tuple(body))), negated


def parse_rule(text: str, kg) -> Rule:
    rule, negated = parse_rule_with_negation(text, kg)
    if negated:
        raise RuleParseError(f"negated head not allowed here: {text!r}")
    return rule

"""Rule quality measures over a knowledge graph.

All ratios are exact fractions.Fraction values; callers render decimals.
Support and the confidence denominators count distinct head-variable
substitutions, with body variables treated existentially.  The matrix
oracle in matrix.py recomputes the same quantities for chain rules by a
separate route and must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kg import KnowledgeGraph, _compile, _ext_candidates
from .rules import Rule, is_connected, is_safe


def as_fraction(x) -> Fraction:
    """Exact conversion; float literals go through their decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        try:
            return Fraction(repr(x))
        except ValueError:
            return Fraction(x)
    return Fraction(x)


# --- compiled-atom join machinery ----------------------------------------


def _estimate(kg, catom, binding):
    r, s_var, s_key, o_var, o_key = catom
    s_val = binding.get(s_key) if s_var else s_key
    o_val = binding.get(o_key) if o_var else o_key
    if s_val is not None and o_val is not None:
        return 0
    if s_val is not None:
        return len(kg.objects_of(r, s_val))
    if o_val is not None:
        return len(kg.subjects_of(r, o_val))
    return 1 + len(kg.pairs(r))


def _apply_ext(binding, used, ext):
    """Returns number of bindings applied, or -1 on an object-identity clash."""
    n = 0
    for v, val in ext:
        if used is not None and val in used:
            for w, wval in ext[:n]:
                del binding[w]
                used.discard(wval)
            return -1
        binding[v] = val
        if used is not None:
            used.add(val)
        n += 1
    return n


def _undo_ext(binding, used, ext):
    for v, val in ext:
        del binding[v]
        if used is not None:
            used.discard(val)


def _satisfiable(kg, catoms, binding, used) -> bool:
    if not catoms:
        return True
    if len(catoms) == 1:
        idx = 0
    else:
        idx = min(range(len(catoms)), key=lambda i: _estimate(kg, catoms[i], binding))
    cat = catoms[idx]
    rest = catoms[:idx] + catoms[idx + 1 :]
    if not rest and used is None:
        # existence is enough: no need to materialize a binding
        for _ in _ext_candidates(kg, cat, binding):
            return True
        return False
    for ext in _ext_candidates(kg, cat, binding):
        if _apply_ext(binding, used, ext) < 0:
            continue
        if not rest or _satisfiable(kg, rest, binding, used):
            _undo_ext(binding, used, ext)
            return True
        _undo_ext(binding, used, ext)
    return False


def _count_projections(kg, catoms, head_vars, binding0, oi, cutoff=None, proj_filter=None):
    """Distinct head-variable projections of body solutions.

    Returns the count, or None when a cutoff is given and exceeded.
    """
    counted = set()
    rejected = set()
    binding = dict(binding0)
    used = set(binding.values()) if oi else None
    hv = tuple(head_vars)
    aborted = False

    def rec(remaining):
        nonlocal aborted
        unbound = [v for v in hv if v not in binding]
        if not unbound:
            proj = tuple(binding[v] for v in hv)
            if proj in counted or proj in rejected:
                return
            if not _satisfiable(kg, remaining, binding, used):
                return
            # filter runs only on satisfiable projections, exactly once each
            if proj_filter is not None and not proj_filter(binding):
                rejected.add(proj)
                return
            counted.add(proj)
            if cutoff is not None and len(counted) > cutoff:
                aborted = True
            return
        if not remaining:
            raise ValueError("unsafe rule: head variable never bound by the body")
        idx = min(range(len(remaining)), key=lambda i: _estimate(kg, remaining[i], binding))
        cat = remaining[idx]
        rest = remaining[:idx] + remaining[idx + 1 :]
        for ext in _ext_candidates(kg, cat, binding):
            if _apply_ext(binding, used, ext) < 0:
                continue
            rec(rest)
            _undo_ext(binding, used, ext)
            if aborted:
                return

    rec(tuple(catoms))
    return None if aborted else len(counted)


def enumerate_solutions(kg, atoms, object_identity=False, limit=None):
    """All full-variable bindings satisfying a conjunction of atoms.

    Returns a list of dicts, or None when limit is given and exceeded.
    """
    catoms = tuple(_compile(a) for a in atoms)
    out = []
    binding = {}
    used = set() if object_identity else None
    aborted = False

    def rec(remaining):
        nonlocal aborted
        if not remaining:
            out.append(dict(binding))
            if limit is not None and len(out) > limit:
                aborted = True
            return
        idx = min(range(len(remaining)), key=lambda i: _estimate(kg, remaining[i], binding))
        cat = remaining[idx]
        rest = remaining[:idx] + remaining[idx + 1 :]
        for ext in _ext_candidates(kg, cat, binding):
            if _apply_ext(binding, used, ext) < 0:
                continue
            rec(rest)
            _undo_ext(binding, used, ext)
            if aborted:
                return

    rec(catoms)
    return None if aborted else out


def _bind_head_fact(head, s, o):
    """Binding of head variables against a concrete (s, o) pair, or None."""
    binding = {}
    t = head.subject
    if t.is_var:
        binding[t.index] = s
    elif t.index != s:
        return None
    t = head.object
    if t.is_var:
        if t.index in binding and binding[t.index] != o:
            return None
        binding[t.index] = o
    elif t.index != o:
        return None
    return binding


# --- support fast paths -----------------------------------------------------
#
# Candidate evaluation visits every head fact once per rule, so the per-fact
# constant dominates mining time.  Bodies of at most two all-variable atoms,
# each touching at most one variable outside a two-variable head, reduce to
# direct index probes; they get dedicated loops below (reading the graph's
# index dicts, since a method call per fact costs more than the probe).
# Everything else falls back to the generic join.


def _pair_check(ps, si, oi):
    def chk(f):
        return (f[si], f[oi]) in ps

    return chk


def _member_check(idx, bi):
    def chk(f):
        return f[bi] in idx

    return chk


def _support_fast(kg, rule):
    """Support by per-fact index probes, or None for shapes not covered."""
    body = rule.body
    if len(body) > 2:
        return None
    hs, ho = rule.head.subject, rule.head.object
    if not (hs.is_var and ho.is_var) or hs.index == ho.index:
        return None
    a_var, b_var = hs.index, ho.index
    pairs = kg.pairs(rule.head.relation)
    if not body:
        return len(pairs)

    # per atom: (relation, free var, bound fact slot, free-at-subject, s slot, o slot)
    plans = []
    for atom in body:
        ts, to = atom.subject, atom.object
        if not (ts.is_var and to.is_var):
            return None
        s_free = ts.index != a_var and ts.index != b_var
        o_free = to.index != a_var and to.index != b_var
        if s_free and o_free:
            return None
        if s_free or o_free:
            free_v = ts.index if s_free else to.index
            bound_var = to.index if s_free else ts.index
            bi = 0 if bound_var == a_var else 1
            plans.append((atom.relation, free_v, bi, s_free, None, None))
        else:
            si = 0 if ts.index == a_var else 1
            oi = 0 if to.index == a_var else 1
            plans.append((atom.relation, None, None, None, si, oi))

    if len(plans) == 1:
        r, free_v, bi, z_subj, si, oi = plans[0]
        if free_v is None:
            ps = kg._pair_sets[r]
            return sum(1 for f in pairs if (f[si], f[oi]) in ps)
        idx = kg._obj_to_sub[r] if z_subj else kg._sub_to_obj[r]
        return sum(1 for f in pairs if f[bi] in idx)

    (r0, fv0, bi0, zs0, si0, oi0), (r1, fv1, bi1, zs1, si1, oi1) = plans
    if fv0 is not None and fv0 == fv1:
        # one shared variable outside the head: existence of a join witness,
        # iterating the smaller candidate list and probing the other atom
        cidx0 = kg._obj_to_sub[r0] if zs0 else kg._sub_to_obj[r0]
        cidx1 = kg._obj_to_sub[r1] if zs1 else kg._sub_to_obj[r1]
        ps0, ps1 = kg._pair_sets[r0], kg._pair_sets[r1]
        count = 0
        for f in pairs:
            v0 = f[bi0]
            c0 = cidx0.get(v0)
            if c0 is None:
                continue
            v1 = f[bi1]
            c1 = cidx1.get(v1)
            if c1 is None:
                continue
            if len(c0) <= len(c1):
                if zs1:
                    for z in c0:
                        if (z, v1) in ps1:
                            count += 1
                            break
                else:
                    for z in c0:
                        if (v1, z) in ps1:
                            count += 1
                            break
            else:
                if zs0:
                    for z in c1:
                        if (z, v0) in ps0:
                            count += 1
                            break
                else:
                    for z in c1:
                        if (v0, z) in ps0:
                            count += 1
                            break
        return count

    checks = []
    for r, free_v, bi, z_subj, si, oi in plans:
        if free_v is None:
            checks.append(_pair_check(kg._pair_sets[r], si, oi))
        else:
            checks.append(_member_check(kg._obj_to_sub[r] if z_subj else kg._sub_to_obj[r], bi))
    c0, c1 = checks
    return sum(1 for f in pairs if c0(f) and c1(f))


# --- denominator fast paths -------------------------------------------------
#
# Both confidence denominators count distinct (head subject, head object)
# projections of body solutions.  When the body is a chain of one or two
# all-variable atoms walking from the head subject to the head object
# (r(x, y) or r(y, x); r1 between x and z then r2 between z and y, each in
# either orientation), the projections read straight off the subject/object
# indexes, with the PCA filter applied per projection.  object_identity and
# every other body shape take the generic join in _count_projections, which
# test_random_rule_shapes and test_object_identity_routes_agree keep checked
# against brute force.


def _chain_steps(rule):
    """(relation, inverted) per body atom from head subject to head object,
    or None unless the rule is a one- or two-atom variable-only chain."""
    hs, ho = rule.head.subject, rule.head.object
    body = rule.body
    if not (hs.is_var and ho.is_var) or hs.index == ho.index or not 1 <= len(body) <= 2:
        return None
    for atom in body:
        if not (atom.subject.is_var and atom.object.is_var) or atom.subject == atom.object:
            return None
    cur = hs.index
    remaining = list(body)
    steps = []
    while remaining:
        matches = [a for a in remaining if cur in (a.subject.index, a.object.index)]
        if len(matches) != 1:
            return None
        atom = matches[0]
        inverted = atom.object.index == cur
        steps.append((atom.relation, inverted))
        cur = atom.subject.index if inverted else atom.object.index
        remaining.remove(atom)
    return steps if cur == ho.index else None


def _chain_denominator(kg, head_relation, steps, chosen, cutoff):
    """Distinct (x, y) projections of a chain body; the PCA filter keeps
    those whose chosen head argument has a known head fact.  None when
    cutoff is given and exceeded."""
    def step_index(r, inverted):
        return kg._obj_to_sub[r] if inverted else kg._sub_to_obj[r]

    keep_x = kg._sub_to_obj[head_relation] if chosen == "subject" else None
    keep_y = kg._obj_to_sub[head_relation] if chosen == "object" else None
    first = step_index(*steps[0])
    second = step_index(*steps[1]) if len(steps) == 2 else None
    count = 0
    for x, ys in first.items():
        if keep_x is not None and x not in keep_x:
            continue
        if second is not None:
            reached = set()
            for z in ys:
                reached.update(second.get(z, ()))
            ys = reached
        count += len(ys) if keep_y is None else sum(1 for y in ys if y in keep_y)
        if cutoff is not None and count > cutoff:
            return None
    return count


# --- core measures --------------------------------------------------------


def support(kg: KnowledgeGraph, rule: Rule, object_identity: bool = False) -> int:
    """Distinct head substitutions with the head a fact and the body satisfiable."""
    if not is_connected(rule):
        raise ValueError("disconnected rule")
    if not object_identity:
        fast = _support_fast(kg, rule)
        if fast is not None:
            return fast
    catoms = tuple(_compile(a) for a in rule.body)
    count = 0
    for s, o in kg.pairs(rule.head.relation):
        binding = _bind_head_fact(rule.head, s, o)
        if binding is None:
            continue
        if object_identity:
            vals = set(binding.values())
            if len(vals) != len(binding):
                continue
            used = vals
        else:
            used = None
        if _satisfiable(kg, catoms, binding, used):
            count += 1
    return count


def head_coverage(kg, rule, object_identity=False) -> Fraction:
    n = kg.fact_count(rule.head.relation)
    if n == 0:
        raise ValueError("undefined head coverage: head relation has no facts")
    return Fraction(support(kg, rule, object_identity), n)


def _check_denominator_preconditions(rule):
    if not rule.body:
        raise ValueError("confidence undefined for empty body")
    if not is_connected(rule):
        raise ValueError("disconnected rule")
    if not is_safe(rule):
        raise ValueError("unsafe rule: every head variable must occur in the body")


def cwa_body_size(kg, rule, object_identity=False, cutoff=None):
    """Distinct head substitutions whose body is satisfiable (closed-world
    denominator).  None when cutoff is given and exceeded."""
    steps = None if object_identity else _chain_steps(rule)
    if steps is not None:
        return _chain_denominator(kg, rule.head.relation, steps, None, cutoff)
    _check_denominator_preconditions(rule)
    catoms = tuple(_compile(a) for a in rule.body)
    return _count_projections(kg, catoms, rule.head_variables(), {}, object_identity, cutoff)


def pca_direction(kg, rule, direction: str = "auto") -> str:
    if direction in ("subject", "object"):
        return direction
    if direction != "auto":
        raise ValueError(f"unknown confidence direction: {direction!r}")
    r = rule.head.relation
    if kg.fact_count(r) == 0:
        return "subject"
    stats = kg.relation_stats(r)
    # ties favour the subject side
    return "subject" if stats.functionality >= stats.inverse_functionality else "object"


def _pca_filter(kg, head, chosen: str):
    r = head.relation
    if chosen == "subject":
        t = head.subject
        if t.is_var:
            return lambda b: kg.has_subject(r, b[t.index])
        return lambda b: kg.has_subject(r, t.index)
    t = head.object
    if t.is_var:
        return lambda b: kg.has_object(r, b[t.index])
    return lambda b: kg.has_object(r, t.index)


def pca_body_size(kg, rule, direction="auto", object_identity=False, cutoff=None):
    """Distinct head substitutions with the body satisfiable and some known
    head fact sharing the functional argument (partial-completeness
    denominator).  None when cutoff is given and exceeded."""
    steps = None if object_identity else _chain_steps(rule)
    if steps is None:
        _check_denominator_preconditions(rule)
    chosen = pca_direction(kg, rule, direction)
    if steps is not None:
        return _chain_denominator(kg, rule.head.relation, steps, chosen, cutoff)
    catoms = tuple(_compile(a) for a in rule.body)
    filt = _pca_filter(kg, rule.head, chosen)
    return _count_projections(
        kg, catoms, rule.head_variables(), {}, object_identity, cutoff, filt
    )


def std_confidence(kg, rule, object_identity=False) -> Fraction:
    supp = support(kg, rule, object_identity)
    size = cwa_body_size(kg, rule, object_identity)
    return Fraction(supp, size) if size else Fraction(0)


def pca_confidence(kg, rule, direction="auto", object_identity=False) -> Fraction:
    supp = support(kg, rule, object_identity)
    size = pca_body_size(kg, rule, direction, object_identity)
    return Fraction(supp, size) if size else Fraction(0)


@dataclass(frozen=True)
class RuleMetrics:
    support: int
    head_fact_count: int
    cwa_body_size: int
    pca_body_size: int
    pca_direction: str

    @property
    def head_coverage(self) -> Fraction:
        if self.head_fact_count == 0:
            raise ValueError("undefined head coverage: head relation has no facts")
        return Fraction(self.support, self.head_fact_count)

    @property
    def std_confidence(self) -> Fraction:
        return Fraction(self.support, self.cwa_body_size) if self.cwa_body_size else Fraction(0)

    @property
    def pca_confidence(self) -> Fraction:
        return Fraction(self.support, self.pca_body_size) if self.pca_body_size else Fraction(0)

    def confidence(self, kind: str) -> Fraction:
        if kind == "std":
            return self.std_confidence
        if kind == "pca":
            return self.pca_confidence
        raise ValueError(f"unknown confidence kind: {kind!r}")


def evaluate(kg, rule, direction="auto", object_identity=False) -> RuleMetrics:
    """Support plus both confidence denominators in one pass."""
    chosen = pca_direction(kg, rule, direction)
    return RuleMetrics(
        support=support(kg, rule, object_identity),
        head_fact_count=kg.fact_count(rule.head.relation),
        cwa_body_size=cwa_body_size(kg, rule, object_identity),
        pca_body_size=pca_body_size(kg, rule, chosen, object_identity),
        pca_direction=chosen,
    )


@dataclass(frozen=True)
class LazyOutcome:
    passed: bool
    denominator: int | None


def lazy_denominator(
    kg, rule, kind: str, min_conf, direction="auto", object_identity=False, support_value=None
) -> LazyOutcome:
    """Denominator count that aborts once the confidence threshold is lost.

    The count stops as soon as it exceeds support / min_conf, at which point
    the rule cannot reach min_conf; the accept decision matches eager
    evaluation exactly.
    """
    mc = as_fraction(min_conf)
    if not 0 < mc <= 1:
        raise ValueError("min_conf must lie in (0, 1]")
    supp = support(kg, rule, object_identity) if support_value is None else support_value
    cutoff = (supp * mc.denominator) // mc.numerator
    if kind in ("std", "cwa"):
        size = cwa_body_size(kg, rule, object_identity, cutoff=cutoff)
    elif kind == "pca":
        size = pca_body_size(kg, rule, direction, object_identity, cutoff=cutoff)
    else:
        raise ValueError(f"unknown confidence kind: {kind!r}")
    if size is None:
        return LazyOutcome(False, None)
    return LazyOutcome(True, size)


# --- example-set weighting -------------------------------------------------


@dataclass(frozen=True)
class ExampleSets:
    generation: frozenset
    validation: frozenset

    def __post_init__(self):
        object.__setattr__(self, "generation", frozenset(self.generation))
        object.__setattr__(self, "validation", frozenset(self.validation))
        if self.generation & self.validation:
            raise ValueError("examples overlap: generation and validation must be disjoint")


def covered(kg, rules, facts) -> frozenset:
    """Facts predicted by at least one rule: head unifies and body holds in kg."""
    by_head = {}
    for rule in rules:
        by_head.setdefault(rule.head.relation, []).append(
            (rule, tuple(_compile(a) for a in rule.body))
        )
    out = set()
    for fact in facts:
        s, r, o = fact
        for rule, catoms in by_head.get(r, ()):
            binding = _bind_head_fact(rule.head, s, o)
            if binding is None:
                continue
            if _satisfiable(kg, catoms, binding, None):
                out.add(fact)
                break
    return frozenset(out)


def rudik_weight(kg, rules, examples: ExampleSets, alpha) -> Fraction:
    """alpha * uncovered-generation share + (1-alpha) * covered-validation share.

    Lower is better: a good rule set explains the generation examples while
    firing rarely on the validation counterexamples.
    """
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    gen, val = examples.generation, examples.validation
    if not gen or not val:
        raise ValueError("degenerate example set")
    cov_gen = covered(kg, rules, gen)
    cov_val = covered(kg, rules, val)
    return a * Fraction(len(gen) - len(cov_gen), len(gen)) + (1 - a) * Fraction(
        len(cov_val), len(val)
    )


def marginal_weight(kg, ruleset, rule, examples: ExampleSets, alpha) -> Fraction:
    """Weight change from adding `rule` to `ruleset`; negative means improvement."""
    return rudik_weight(kg, list(ruleset) + [rule], examples, alpha) - rudik_weight(
        kg, list(ruleset), examples, alpha
    )

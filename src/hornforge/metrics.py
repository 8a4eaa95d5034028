"""Rule quality measures over a knowledge graph.

All ratios are exact fractions.Fraction values; callers render decimals.
Support and the confidence denominators count distinct head-variable
substitutions, with body variables treated existentially.  Two searches
do the joining: `_satisfiable` answers whether a conjunction has a
solution under a binding, and `projections` lists the distinct
projections of its solutions onto chosen variables.  The generic
denominators, rule application in predict.py and the top-down miner's
witness values all go through `projections`.  Without object identity,
the graph's one column join, `KnowledgeGraph.index_join`, takes any
connected body of all-variable atoms instead: support counts the head
facts whose head-variable values occur in its columns
(`KnowledgeGraph.count_facts_among`), and both denominators count the
distinct head keys of its columns; `_body_size` decides the PCA filter
once for both routes, and `check_fires` is every structural check.  The
generic searches keep constants, repeated variables, object identity and
bodies connected only through the head.  The matrix oracle in matrix.py
recomputes these quantities for chain rules separately and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import sorted_unique
from .kg import KnowledgeGraph, _compile, _estimate, _ext_candidates
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


def projections(kg, atoms, out_vars, binding=None, object_identity=False, cutoff=None, keep=None):
    """Distinct out_vars value tuples over the solutions of a conjunction of
    atoms, in search order.

    binding fixes variables up front; object_identity makes distinct
    variables take distinct entities.  The search binds the cheapest atom
    first and stops branching once every out variable is bound: a tuple
    seen before is dropped before its existence check, and the remaining
    atoms need only one solution.  keep, when given, is called with the
    projected tuple once per distinct satisfiable tuple and drops it when
    it returns false.  Returns a list, or None when cutoff is given and
    exceeded.
    """
    binding = dict(binding or {})
    used = set(binding.values()) if object_identity else None
    out_vars = tuple(out_vars)
    found = []
    seen = set()
    aborted = False

    def rec(remaining):
        nonlocal aborted
        if all(v in binding for v in out_vars):
            proj = tuple(binding[v] for v in out_vars)
            if proj in seen or not _satisfiable(kg, remaining, binding, used):
                return
            seen.add(proj)
            if keep is not None and not keep(proj):
                return
            found.append(proj)
            if cutoff is not None and len(found) > cutoff:
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

    rec(tuple(_compile(kg, a) for a in atoms))
    return None if aborted else found


def enumerate_solutions(kg, atoms, object_identity=False, limit=None):
    """All full-variable bindings satisfying a conjunction of atoms.

    Returns a list of dicts, or None when limit is given and exceeded.
    """
    vs = sorted({v for a in atoms for v in a.variables()})
    sols = projections(kg, atoms, vs, None, object_identity, limit)
    return None if sols is None else [dict(zip(vs, sol)) for sol in sols]


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


# --- core measures --------------------------------------------------------


def check_fires(rule, safe=True):
    """Raise ValueError unless the rule is connected and, when safe is
    true, safe: every head variable occurs in the body."""
    if not is_connected(rule):
        raise ValueError("disconnected rule")
    if safe and not is_safe(rule):
        raise ValueError("unsafe rule: every head variable must occur in the body")


# the most rows a column join builds, for a measure or for the top-down
# miner's witness sweep; past it the measure takes the generic join
ROW_LIMIT = 200_000


def _body_columns(kg, rule, object_identity):
    """{variable: int64 column} of kg.index_join over the rule's body; None
    under object identity, for a body index_join does not cover, or when
    the join overruns ROW_LIMIT."""
    joined = None if object_identity else kg.index_join(rule.body, ROW_LIMIT)
    return None if joined is None or joined[1] is None else dict(zip(*joined))


def support(kg: KnowledgeGraph, rule: Rule, object_identity: bool = False) -> int:
    """Distinct head substitutions with the head a fact and the body
    satisfiable.  For a head over two distinct variables, an empty body
    and one kg.index_join covers are counted off the graph's arrays."""
    head = _compile(kg, rule.head)
    r, s_var, s, o_var, o = head
    if not object_identity and s_var and o_var and s != o:
        # an empty body leaves both head variables free; a covered body is
        # connected, so one head variable among its columns connects the rule
        column = _body_columns(kg, rule, object_identity) if rule.body else {}
        if column is not None and (not rule.body or s in column or o in column):
            return kg.count_facts_among(r, column.get(s), column.get(o))
    check_fires(rule, safe=False)
    catoms = tuple(_compile(kg, a) for a in rule.body)
    count = 0
    # head bindings straight off the index: constants and a repeated head
    # variable leave only the head facts that match
    for ext in _ext_candidates(kg, head, {}):
        binding = dict(ext)
        used = None
        if object_identity:
            used = set(binding.values())
            if len(used) != len(binding):
                continue
        if _satisfiable(kg, catoms, binding, used):
            count += 1
    return count


def head_coverage(kg, rule, object_identity=False) -> Fraction:
    n = kg.fact_count(rule.head.relation)
    if n == 0:
        raise ValueError("undefined head coverage: head relation has no facts")
    return Fraction(support(kg, rule, object_identity), n)


def _body_size(kg, rule, direction, object_identity, cutoff):
    """Distinct head-variable tuples whose body is satisfiable, restricted
    by the PCA filter in `direction` unless it is None.  A body that
    kg.index_join covers and that binds every head variable is counted off
    the join's columns; None when cutoff is given and exceeded.  A constant
    head term in the PCA direction gives 0 unless a head fact shares it; a
    variable one names the head variable both routes filter on."""
    r = kg.relation_id(rule.head.relation)
    hvars = rule.head_variables()
    column = _body_columns(kg, rule, object_identity) if hvars else None
    # columns that hold every head variable: the rule is non-empty, safe and connected
    if column is None or hvars[0] not in column or hvars[-1] not in column:
        column = None
        if not rule.body:
            raise ValueError("confidence undefined for empty body")
        check_fires(rule)
    i = None  # the position in hvars of the head variable the PCA filter reads
    if direction is not None:
        chosen = pca_direction(kg, rule, direction)
        t = rule.head.subject if chosen == "subject" else rule.head.object
        known = kg.has_subject if chosen == "subject" else kg.has_object
        if t.is_var:
            i = hvars.index(t.index)
        elif not known(r, t.index):
            for atom in rule.body:  # an unknown body relation still raises
                kg.relation_id(atom.relation)
            return 0
    if column is None:
        keep = None if i is None else lambda proj: known(r, proj[i])
        sols = projections(kg, rule.body, hvars, None, object_identity, cutoff, keep)
        return None if sols is None else len(sols)
    # a lone head variable is read twice: its (v, v) tuples count as (v,)
    keys = column[hvars[0]] * kg.entity_count + column[hvars[-1]]
    if i is not None:
        keys = keys[kg.has_endpoints(r, column[hvars[i]], chosen)]
    size = sorted_unique(keys).size
    return None if cutoff is not None and size > cutoff else size


def cwa_body_size(kg, rule, object_identity=False, cutoff=None):
    """Distinct head substitutions whose body is satisfiable (closed-world
    denominator).  None when cutoff is given and exceeded."""
    return _body_size(kg, rule, None, object_identity, cutoff)


def pca_direction(kg, rule, direction: str = "auto") -> str:
    if direction in ("subject", "object"):
        return direction
    if direction != "auto":
        raise ValueError(f"unknown confidence direction: {direction!r}")
    r = kg.relation_id(rule.head.relation)
    if kg.fact_count(r) == 0:
        return "subject"
    stats = kg.relation_stats(r)
    # functionality against inverse functionality over the same fact count;
    # ties favour the subject side
    return "subject" if stats.distinct_subjects >= stats.distinct_objects else "object"


def pca_body_size(kg, rule, direction="auto", object_identity=False, cutoff=None):
    """Distinct head substitutions with the body satisfiable and some known
    head fact sharing the functional argument (partial-completeness
    denominator).  None when cutoff is given and exceeded."""
    return _body_size(kg, rule, direction, object_identity, cutoff)


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
    the rule cannot reach min_conf.  For support of at least 1 the
    denominator is at least the support, so `passed` is exactly the eager
    test confidence >= min_conf.  At zero support it is not: a body with no
    solutions passes with denominator 0 while its eager confidence is 0.
    Callers therefore reject zero-support rules before calling this.
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


def gated_metrics(kg, rule, kind: str, min_conf, supp: int, object_identity=False):
    """RuleMetrics of a rule with support `supp` (at least 1) whose `kind`
    confidence reaches min_conf, or None when it does not.

    The `kind` denominator is counted lazily; the other one only for a rule
    that passes.  A returned value equals evaluate() on the same rule.
    """
    if supp < 1:
        raise ValueError("gated evaluation needs support of at least 1")
    outcome = lazy_denominator(
        kg, rule, kind, min_conf, object_identity=object_identity, support_value=supp
    )
    if not outcome.passed:
        return None
    direction = pca_direction(kg, rule)
    if kind == "pca":
        cwa, pca = cwa_body_size(kg, rule, object_identity), outcome.denominator
    else:
        cwa, pca = outcome.denominator, pca_body_size(kg, rule, direction, object_identity)
    return RuleMetrics(
        support=supp,
        head_fact_count=kg.fact_count(rule.head.relation),
        cwa_body_size=cwa,
        pca_body_size=pca,
        pca_direction=direction,
    )


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
        by_head.setdefault(kg.relation_id(rule.head.relation), []).append(
            (rule, tuple(_compile(kg, a) for a in rule.body))
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

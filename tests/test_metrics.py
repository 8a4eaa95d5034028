import itertools
import random
from fractions import Fraction

import pytest

from hornforge import (
    Atom,
    ExampleSets,
    KnowledgeGraph,
    LazyOutcome,
    Rule,
    as_fraction,
    const,
    covered,
    cwa_body_size,
    enumerate_solutions,
    evaluate,
    head_coverage,
    is_connected,
    lazy_denominator,
    load_triples,
    marginal_weight,
    matrix_cwa_body_size,
    matrix_support,
    parse_rule,
    pca_body_size,
    pca_confidence,
    pca_direction,
    projections,
    rudik_weight,
    std_confidence,
    support,
    var,
)
from hornforge import metrics
from hornforge.metrics import gated_metrics
from oracles import all_chain_rules, brute_covered, brute_metrics, brute_support, random_kg


def ent(kg, label):
    return kg.entities.id(label)


def rel(kg, label):
    return kg.relations.id(label)


def random_two_var_rules(kg, rng, count):
    """Random connected safe rules with 1-2 body atoms over vars x,y,z."""
    n_rel = len(kg.relations)
    pool = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 0), (1, 1)]
    out = []
    tries = 0
    while len(out) < count and tries < count * 30:
        tries += 1
        head = Atom(rng.randrange(n_rel), var(0), var(1))
        body = tuple(
            Atom(rng.randrange(n_rel), var(a), var(b))
            for a, b in (rng.choice(pool) for _ in range(rng.randint(1, 2)))
        )
        rule = Rule(head, body)
        from hornforge import is_connected, is_safe

        if is_connected(rule) and is_safe(rule):
            out.append(rule)
    return out


def random_constant_head_rules(kg, rng, count):
    """Random connected rules whose head has one constant, subject or
    object, drawn from every entity (so often one with no head fact), and
    1-2 body atoms over vars x,y,z and that constant."""
    n_rel, n_ent = len(kg.relations), len(kg.entities)
    out = []
    tries = 0
    while len(out) < count and tries < count * 30:
        tries += 1
        c = const(rng.randrange(n_ent))
        r = rng.randrange(n_rel)
        head = Atom(r, c, var(0)) if rng.randrange(2) else Atom(r, var(0), c)
        terms = [var(0), var(1), var(2), c]
        body = tuple(
            Atom(rng.randrange(n_rel), rng.choice(terms), rng.choice(terms))
            for _ in range(rng.randint(1, 2))
        )
        rule = Rule(head, body)
        if is_connected(rule):
            out.append(rule)
    return out


class TestSupport:
    def test_running_example(self, sample_kg, rule_r):
        assert support(sample_kg, rule_r) == 2

    def test_running_example_object_identity(self, sample_kg, rule_r):
        assert support(sample_kg, rule_r, object_identity=True) == 2

    def test_empty_body_counts_head_facts(self, sample_kg):
        seed = Rule(Atom(rel(sample_kg, "speaks"), var(0), var(1)))
        assert support(sample_kg, seed) == 3

    def test_zero_support(self, sample_kg):
        z = parse_rule("gender(?a, ?c) & worksFor(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert support(sample_kg, z) == 0

    def test_disconnected_rejected(self, sample_kg):
        r = Rule(
            Atom(rel(sample_kg, "speaks"), var(0), var(1)),
            (Atom(rel(sample_kg, "gender"), var(2), var(3)),),
        )
        with pytest.raises(ValueError, match="disconnected rule"):
            support(sample_kg, r)
        two = parse_rule("nationality(?a, ?b) & gender(?c, ?d) => speaks(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="disconnected rule"):
            support(sample_kg, two)

    def test_unsafe_rule_still_has_support(self, sample_kg):
        # head facts bind every head variable, so support stays well-defined
        r = parse_rule("officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert support(sample_kg, r) == 2

    def test_object_identity_never_increases(self):
        rng = random.Random(5)
        for _ in range(60):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 10):
                assert support(kg, rule, object_identity=True) <= support(kg, rule)

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_constant_in_head_matches_brute_force(self, object_identity):
        rng = random.Random(47)
        checked = no_head_fact = 0
        for _ in range(60):
            kg = random_kg(rng)
            for rule in random_constant_head_rules(kg, rng, 8):
                bm = brute_metrics(kg, rule, object_identity)
                assert support(kg, rule, object_identity) == bm.support
                h = rule.head
                if h.subject.is_var:
                    no_head_fact += not kg.has_object(h.relation, h.object.index)
                else:
                    no_head_fact += not kg.has_subject(h.relation, h.subject.index)
                checked += 1
        assert checked >= 300 and no_head_fact >= 50

    def test_object_identity_rejects_merged_variables(self):
        kg = load_triples("a\tr\ta\na\tr\tb\n")
        r = parse_rule("r(?x, ?y) => r(?x, ?y)", kg)
        assert support(kg, r) == 2
        assert support(kg, r, object_identity=True) == 1


def _probe_graph(p_density, q_density, seed):
    """Random p, q and h facts over 8 entities; the denser of p and q holds
    the longer candidate lists."""
    rng = random.Random(seed)
    facts = [("e0", "h", "e1"), ("e0", "p", "e0"), ("e0", "q", "e0")]
    for s, o in itertools.product(range(8), repeat=2):
        for r, density in (("h", 0.4), ("p", p_density), ("q", q_density)):
            if rng.random() < density:
                facts.append((f"e{s}", r, f"e{o}"))
    return KnowledgeGraph.from_label_triples(facts)


class TestSupportFastPath:
    """Body shapes support counts off KnowledgeGraph.index_join's columns,
    against brute force, on graphs where either of p and q holds the more
    facts; the generic join must not run.  The shapes it leaves to the
    generic join must still take it."""

    GRAPHS = [_probe_graph(0.6, 0.1, 1), _probe_graph(0.1, 0.6, 2), _probe_graph(0.3, 0.3, 3)]

    @pytest.mark.parametrize(
        "body",
        [
            # the empty body: every head fact
            "",
            # one closed atom, both orientations
            "p(?a, ?b)",
            "p(?b, ?a)",
            # one dangling atom, both orientations, on either head slot
            "p(?a, ?c)",
            "p(?c, ?a)",
            "p(?b, ?c)",
            "p(?c, ?b)",
            # two atoms over both head variables
            "p(?a, ?b) & q(?b, ?a)",
            "p(?a, ?b) & q(?c, ?b)",
            # a shared variable outside the head, all four orientation pairs
            "p(?a, ?c) & q(?c, ?b)",
            "p(?a, ?c) & q(?b, ?c)",
            "p(?c, ?a) & q(?c, ?b)",
            "p(?c, ?a) & q(?b, ?c)",
            # a dangling chain holding one head variable, on either head slot
            "p(?a, ?c) & q(?c, ?d)",
            "p(?d, ?c) & q(?c, ?b)",
            # three atoms: a chain, and a four-atom body closing a cycle
            "p(?a, ?c) & q(?c, ?d) & p(?d, ?b)",
            "p(?a, ?c) & q(?c, ?d) & p(?d, ?b) & q(?b, ?a)",
        ],
    )
    def test_matches_brute_force(self, body, monkeypatch):
        def generic_join(*args, **kwargs):
            raise AssertionError("support took the generic join")

        monkeypatch.setattr(metrics, "_satisfiable", generic_join)
        for kg in self.GRAPHS:
            rule = parse_rule(f"{body} => h(?a, ?b)", kg)
            assert support(kg, rule) == brute_support(kg, rule)

    @pytest.mark.parametrize(
        "text",
        [
            "p(?a, e0) & q(?a, ?b) => h(?a, ?b)",  # a constant in a body atom
            "p(?a, ?a) & q(?a, ?b) => h(?a, ?b)",  # a repeated-variable atom
            "p(?a, ?c) & q(?c, ?b) => h(e0, ?b)",  # a head constant
            "p(?a, ?c) & q(?c, ?a) => h(?a, ?a)",  # a repeated head variable
            "p(?c, ?a) & q(?b, ?d) => h(?a, ?b)",  # two atoms sharing no variable
            "p(?a, ?c) & q(?c, ?d) & p(?b, ?e) => h(?a, ?b)",  # linked only through the head
        ],
    )
    def test_uncovered_shapes_take_generic_join(self, text, monkeypatch):
        calls = []
        generic_join = metrics._satisfiable

        def counted(*args):
            calls.append(args)
            return generic_join(*args)

        monkeypatch.setattr(metrics, "_satisfiable", counted)
        for kg in self.GRAPHS:
            rule = parse_rule(text, kg)
            calls.clear()
            assert support(kg, rule) == brute_support(kg, rule)
            assert calls


class TestDenominatorIndexPath:
    """Both denominators of every body shape KnowledgeGraph.index_join
    covers, with a constant and a repeated variable in the head besides,
    against brute force; the generic join must not run."""

    @pytest.mark.parametrize(
        "text",
        [
            # one atom, both orientations
            "p(?a, ?b) => h(?a, ?b)",
            "p(?b, ?a) => h(?a, ?b)",
            # two-atom chains, all four orientations
            "p(?a, ?c) & q(?c, ?b) => h(?a, ?b)",
            "p(?a, ?c) & q(?b, ?c) => h(?a, ?b)",
            "p(?c, ?a) & q(?c, ?b) => h(?a, ?b)",
            "p(?c, ?a) & q(?b, ?c) => h(?a, ?b)",
            # a fork and a closed pair
            "p(?a, ?b) & q(?a, ?c) => h(?a, ?b)",
            "p(?a, ?b) & q(?b, ?a) => h(?a, ?b)",
            # three-atom chains
            "p(?a, ?c) & q(?c, ?d) & p(?d, ?b) => h(?a, ?b)",
            "p(?c, ?a) & q(?d, ?c) & q(?b, ?d) => h(?a, ?b)",
            "q(?a, ?c) & p(?d, ?c) & p(?d, ?b) => h(?a, ?b)",
            # a head with a constant, and a head with a repeated variable
            "p(?a, ?c) & q(?c, ?b) => h(e0, ?b)",
            "p(?a, ?c) & q(?c, ?a) => h(?a, ?a)",
        ],
    )
    def test_matches_brute_force(self, text, monkeypatch):
        def generic_join(*args, **kwargs):
            raise AssertionError("the denominator took the generic join")

        monkeypatch.setattr(metrics, "projections", generic_join)
        for kg in TestSupportFastPath.GRAPHS:
            rule = parse_rule(text, kg)
            brute = brute_metrics(kg, rule)
            sizes = [
                (lambda c: cwa_body_size(kg, rule, cutoff=c), brute.cwa_body_size),
                (lambda c: pca_body_size(kg, rule, "subject", cutoff=c), brute.pca_subject_size),
                (lambda c: pca_body_size(kg, rule, "object", cutoff=c), brute.pca_object_size),
            ]
            for size, expected in sizes:
                assert expected > 0
                assert size(None) == expected
                assert size(expected) == expected
                assert size(expected - 1) is None


class TestThreeAtomChains:
    def test_index_matrix_and_brute_routes_agree(self, monkeypatch):
        # every three-atom chain body, in every orientation, is counted off
        # the column join; the matrix route and brute force recount it
        def generic_join(*args, **kwargs):
            raise AssertionError("a three-atom chain took the generic join")

        rng = random.Random(73)
        graphs = [random_kg(rng, max_entities=5, max_relations=2, max_facts=20) for _ in range(50)]
        monkeypatch.setattr(metrics, "_satisfiable", generic_join)
        monkeypatch.setattr(metrics, "projections", generic_join)
        x, y, z, w = var(0), var(1), var(2), var(3)
        checked = supported = 0
        for kg in graphs:
            for r1, r2, r3 in itertools.product(range(len(kg.relations)), repeat=3):
                for body in itertools.product(
                    (Atom(r1, x, z), Atom(r1, z, x)),
                    (Atom(r2, z, w), Atom(r2, w, z)),
                    (Atom(r3, w, y), Atom(r3, y, w)),
                ):
                    rule = Rule(Atom(0, x, y), body)
                    bm = brute_metrics(kg, rule)
                    assert support(kg, rule) == matrix_support(kg, rule) == bm.support
                    assert cwa_body_size(kg, rule) == matrix_cwa_body_size(kg, rule) == bm.cwa_body_size
                    checked += 1
                    supported += bm.support > 0
        assert checked >= 1000 and supported > 0


class TestRowLimit:
    """Past metrics.ROW_LIMIT rows the column join stops, and support and
    both denominators take the generic join, with the same values."""

    TEXTS = [
        "p(?a, ?c) & q(?c, ?d) & p(?d, ?b) => h(?a, ?b)",
        "p(?c, ?a) & q(?d, ?c) & q(?b, ?d) => h(?a, ?b)",
        "p(?a, ?c) & q(?c, ?d) & p(?d, ?e) & q(?e, ?b) => h(?a, ?b)",
        "p(?a, ?c) & p(?c, ?d) & q(?d, ?b) & q(?a, ?b) => h(?a, ?b)",
    ]

    @pytest.mark.parametrize("limit", [0, 60])
    def test_measures_past_the_limit(self, monkeypatch, limit):
        true_join = KnowledgeGraph.index_join
        stopped, kept = [], []

        def spy_join(kg, atoms, cutoff=None):
            assert cutoff == limit
            variables, columns = true_join(kg, atoms, cutoff)
            if columns is None:
                stopped.append(len(atoms))
            else:
                assert columns[0].size <= limit
                kept.append(len(atoms))
            return variables, columns

        monkeypatch.setattr(metrics, "ROW_LIMIT", limit)
        monkeypatch.setattr(KnowledgeGraph, "index_join", spy_join)
        for kg in TestSupportFastPath.GRAPHS:
            for text in self.TEXTS:
                rule = parse_rule(text, kg)
                bm = brute_metrics(kg, rule)
                assert support(kg, rule) == bm.support, text
                assert cwa_body_size(kg, rule) == bm.cwa_body_size, text
                assert pca_body_size(kg, rule, "subject") == bm.pca_subject_size, text
                assert pca_body_size(kg, rule, "object") == bm.pca_object_size, text
        assert set(stopped) == {3, 4}
        assert bool(kept) == (limit > 0)


class TestHeadCoverage:
    def test_running_example(self, sample_kg, rule_r):
        assert head_coverage(sample_kg, rule_r) == Fraction(2, 3)

    def test_empty_body_is_total(self, sample_kg):
        assert head_coverage(sample_kg, Rule(Atom(rel(sample_kg, "speaks"), var(0), var(1)))) == 1

    def test_zero_support(self, sample_kg):
        z = parse_rule("gender(?a, ?c) & worksFor(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert head_coverage(sample_kg, z) == 0


class TestStdConfidence:
    def test_running_example(self, sample_kg, rule_r):
        assert std_confidence(sample_kg, rule_r) == Fraction(2, 3)
        assert cwa_body_size(sample_kg, rule_r) == 3

    def test_nationality_chain(self, sample_kg):
        r = parse_rule("nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert std_confidence(sample_kg, r) == Fraction(2, 3)

    def test_perfect_rule(self, sample_kg):
        r = parse_rule("birthCountry(?a, ?b) => nationality(?a, ?b)", sample_kg)
        assert std_confidence(sample_kg, r) == 1
        assert cwa_body_size(sample_kg, r) == 3

    def test_empty_body_rejected(self, sample_kg):
        with pytest.raises(ValueError, match="empty body"):
            cwa_body_size(sample_kg, Rule(Atom(rel(sample_kg, "speaks"), var(0), var(1))))

    def test_unsafe_rejected(self, sample_kg):
        r = parse_rule("officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="unsafe"):
            cwa_body_size(sample_kg, r)

    def test_zero_denominator_reports_zero(self, sample_kg):
        z = parse_rule("gender(?a, ?c) & worksFor(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert cwa_body_size(sample_kg, z) == 0
        assert std_confidence(sample_kg, z) == 0

    @pytest.mark.parametrize("body_size", [cwa_body_size, pca_body_size])
    def test_disconnected_rejected(self, sample_kg, body_size):
        r = parse_rule("nationality(?a, ?b) & officialLang(?c, ?d) => speaks(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="disconnected rule"):
            body_size(sample_kg, r)


class TestPcaConfidence:
    def test_subject_direction_matches_worked_example(self, sample_kg, rule_r):
        # Merkel satisfies the body but nothing is known about her languages
        assert pca_body_size(sample_kg, rule_r, "subject") == 2
        assert pca_confidence(sample_kg, rule_r, "subject") == 1

    def test_object_direction(self, sample_kg, rule_r):
        assert pca_body_size(sample_kg, rule_r, "object") == 3
        assert pca_confidence(sample_kg, rule_r, "object") == Fraction(2, 3)

    def test_auto_picks_more_functional_direction(self, sample_kg, rule_r):
        # speaks: functionality 2/3 < inverse functionality 1 -> object
        assert pca_direction(sample_kg, rule_r) == "object"
        assert pca_confidence(sample_kg, rule_r) == Fraction(2, 3)

    def test_auto_subject_for_functional_head(self, sample_kg):
        r = parse_rule("birthCountry(?a, ?b) => nationality(?a, ?b)", sample_kg)
        assert pca_direction(sample_kg, r) == "subject"
        assert pca_confidence(sample_kg, r, "subject") == 1

    def test_forced_directions_pass_through(self, sample_kg, rule_r):
        assert pca_direction(sample_kg, rule_r, "subject") == "subject"
        assert pca_direction(sample_kg, rule_r, "object") == "object"

    def test_unknown_direction_rejected(self, sample_kg, rule_r):
        with pytest.raises(ValueError, match="unknown confidence direction"):
            pca_direction(sample_kg, rule_r, "sideways")

    def test_auto_on_empty_head_relation_defaults_to_subject(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(rel(sample_kg, "speaks"), 2)
        r = Rule(
            Atom(rel(sample_kg, "gender"), var(0), var(1)),
            (Atom(rel(sample_kg, "speaks"), var(0), var(1)),),
        )
        assert pca_direction(sub, r) == "subject"

    def test_never_below_std(self):
        rng = random.Random(17)
        for _ in range(60):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 8):
                std = std_confidence(kg, rule)
                assert pca_confidence(kg, rule, "subject") >= std
                assert pca_confidence(kg, rule, "object") >= std


class TestEvaluate:
    def test_bundle_matches_parts(self, sample_kg, rule_r):
        m = evaluate(sample_kg, rule_r)
        assert m.support == 2
        assert m.head_fact_count == 3
        assert m.cwa_body_size == 3
        assert m.pca_body_size == 3
        assert m.pca_direction == "object"
        assert m.head_coverage == Fraction(2, 3)
        assert m.confidence("std") == Fraction(2, 3)
        assert m.confidence("pca") == Fraction(2, 3)

    def test_forced_subject_bundle(self, sample_kg, rule_r):
        m = evaluate(sample_kg, rule_r, direction="subject")
        assert m.pca_body_size == 2 and m.confidence("pca") == 1

    def test_count_ordering_invariants(self):
        rng = random.Random(29)
        for _ in range(40):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 8):
                m = evaluate(kg, rule)
                assert 0 <= m.support <= m.pca_body_size <= m.cwa_body_size
                assert m.support <= m.head_fact_count or m.head_fact_count == 0


class TestBruteForceEquivalence:
    def test_fixture_rules(self, sample_kg):
        for text in (
            "birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
            "nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
            "birthCountry(?a, ?b) => nationality(?a, ?b)",
            "gender(?a, ?c) & worksFor(?c, ?b) => speaks(?a, ?b)",
        ):
            rule = parse_rule(text, sample_kg)
            bm = brute_metrics(sample_kg, rule)
            assert support(sample_kg, rule) == bm.support
            assert cwa_body_size(sample_kg, rule) == bm.cwa_body_size
            assert pca_body_size(sample_kg, rule, "subject") == bm.pca_subject_size
            assert pca_body_size(sample_kg, rule, "object") == bm.pca_object_size

    def test_random_rule_shapes(self):
        rng = random.Random(41)
        for _ in range(60):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 12):
                bm = brute_metrics(kg, rule)
                assert support(kg, rule) == bm.support
                assert cwa_body_size(kg, rule) == bm.cwa_body_size
                assert pca_body_size(kg, rule, "subject") == bm.pca_subject_size
                assert pca_body_size(kg, rule, "object") == bm.pca_object_size

    def test_object_identity_routes_agree(self):
        rng = random.Random(43)
        for _ in range(40):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 8):
                bm = brute_metrics(kg, rule, object_identity=True)
                assert support(kg, rule, object_identity=True) == bm.support
                assert cwa_body_size(kg, rule, object_identity=True) == bm.cwa_body_size


class TestLazyDenominator:
    def test_pass_keeps_exact_denominator(self, sample_kg, rule_r):
        out = lazy_denominator(sample_kg, rule_r, "cwa", Fraction(1, 10))
        assert out.passed and out.denominator == 3

    def test_fail_aborts(self, sample_kg, rule_r):
        out = lazy_denominator(sample_kg, rule_r, "cwa", Fraction(9, 10))
        assert not out.passed and out.denominator is None

    def test_perfect_rule_at_full_threshold(self, sample_kg):
        r = parse_rule("birthCountry(?a, ?b) => nationality(?a, ?b)", sample_kg)
        out = lazy_denominator(sample_kg, r, "cwa", Fraction(1))
        assert out.passed and out.denominator == support(sample_kg, r)

    def test_std_is_an_alias_for_cwa(self, sample_kg, rule_r):
        a = lazy_denominator(sample_kg, rule_r, "cwa", Fraction(1, 2))
        b = lazy_denominator(sample_kg, rule_r, "std", Fraction(1, 2))
        assert a == b

    def test_pca_kind(self, sample_kg, rule_r):
        out = lazy_denominator(sample_kg, rule_r, "pca", Fraction(1, 10), direction="subject")
        assert out.passed and out.denominator == 2

    def test_threshold_validation(self, sample_kg, rule_r):
        for bad in (0, Fraction(11, 10), -1):
            with pytest.raises(ValueError):
                lazy_denominator(sample_kg, rule_r, "cwa", bad)
        with pytest.raises(ValueError):
            lazy_denominator(sample_kg, rule_r, "bogus", Fraction(1, 2))

    def test_supplied_support_short_circuits(self, sample_kg, rule_r):
        out = lazy_denominator(sample_kg, rule_r, "cwa", Fraction(1, 10), support_value=2)
        assert out == lazy_denominator(sample_kg, rule_r, "cwa", Fraction(1, 10))

    def test_zero_support_passes_on_an_empty_body(self, sample_kg):
        # the lazy test is not the eager one at zero support, so the gate
        # both miners share refuses it
        r = parse_rule("nationality(?a, ?c) & nationality(?c, ?b) => nationality(?a, ?b)", sample_kg)
        assert support(sample_kg, r) == 0
        assert lazy_denominator(sample_kg, r, "cwa", Fraction(1, 10)) == LazyOutcome(True, 0)
        with pytest.raises(ValueError, match="support of at least 1"):
            gated_metrics(sample_kg, r, "pca", Fraction(1, 10), 0)

    def test_decision_matches_eager(self):
        # supp >= 1 keeps the eager ratio well-defined
        rng = random.Random(59)
        thresholds = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        checked = 0
        for _ in range(80):
            kg = random_kg(rng)
            for rule in random_two_var_rules(kg, rng, 6):
                supp = support(kg, rule)
                if supp == 0:
                    continue
                den_std = cwa_body_size(kg, rule)
                den_pca = pca_body_size(kg, rule, "subject")
                for t in thresholds:
                    lz = lazy_denominator(kg, rule, "cwa", t, support_value=supp)
                    assert lz.passed == (Fraction(supp, den_std) >= t)
                    if lz.passed:
                        assert lz.denominator == den_std
                    lz = lazy_denominator(kg, rule, "pca", t, direction="subject", support_value=supp)
                    assert lz.passed == (Fraction(supp, den_pca) >= t)
                    if lz.passed:
                        assert lz.denominator == den_pca
                    checked += 1
        assert checked >= 100

    def test_chain_cutoff_is_all_or_nothing(self):
        # chain bodies take the index fast path: exact count up to the
        # cutoff, None exactly when the count exceeds it
        rng = random.Random(67)
        for _ in range(30):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg):
                counts = (
                    (lambda c: cwa_body_size(kg, rule, cutoff=c)),
                    (lambda c: pca_body_size(kg, rule, "subject", cutoff=c)),
                    (lambda c: pca_body_size(kg, rule, "object", cutoff=c)),
                )
                for count in counts:
                    full = count(None)
                    for c in range(full + 2):
                        assert count(c) == (None if full > c else full)


class TestAntiMonotonicity:
    def test_body_extension_never_gains_support(self):
        rng = random.Random(61)
        for _ in range(50):
            kg = random_kg(rng)
            n_rel = len(kg.relations)
            for rule in random_two_var_rules(kg, rng, 6):
                base = support(kg, rule)
                ext = Rule(
                    rule.head,
                    rule.body + (Atom(rng.randrange(n_rel), var(0), var(rng.randint(1, 3))),),
                )
                assert support(kg, ext) <= base
                assert head_coverage(kg, ext) <= head_coverage(kg, rule)


class TestEnumerateSolutions:
    def test_running_example_witnesses(self, sample_kg, rule_r):
        sols = enumerate_solutions(sample_kg, list(rule_r.body) + [rule_r.head])
        people = {sample_kg.entities.label(s[0]) for s in sols}
        assert people == {"U.v.d._Leyen", "E._Macron"}
        assert len(sols) == 2

    def test_limit_is_all_or_nothing(self, sample_kg, rule_r):
        atoms = list(rule_r.body) + [rule_r.head]
        assert enumerate_solutions(sample_kg, atoms, limit=1) is None
        assert len(enumerate_solutions(sample_kg, atoms, limit=2)) == 2

    def test_object_identity_filters_merged_bindings(self):
        kg = load_triples("a\tr\ta\na\tr\tb\n")
        atoms = [Atom(0, var(0), var(1))]
        assert len(enumerate_solutions(kg, atoms)) == 2
        assert len(enumerate_solutions(kg, atoms, object_identity=True)) == 1


class TestProjections:
    def test_keep_runs_once_per_satisfiable_tuple(self, sample_kg, rule_r):
        seen = []

        def keep(proj):
            seen.append(proj)
            return proj[0] != ent(sample_kg, "E._Macron")

        got = projections(sample_kg, rule_r.body, (0, 1), keep=keep)
        assert len(seen) == len(set(seen))
        assert set(seen) == set(projections(sample_kg, rule_r.body, (0, 1)))
        assert set(got) == {s for s in seen if s[0] != ent(sample_kg, "E._Macron")}

    def test_cutoff_and_ground_projection(self, sample_kg, rule_r):
        n = len(projections(sample_kg, rule_r.body, (0, 1)))
        assert projections(sample_kg, rule_r.body, (0, 1), cutoff=n - 1) is None
        assert len(projections(sample_kg, rule_r.body, (0, 1), cutoff=n)) == n
        merkel, german = ent(sample_kg, "A._Merkel"), ent(sample_kg, "German")
        assert projections(sample_kg, rule_r.body, (), {0: merkel, 1: german}) == [()]
        assert projections(sample_kg, rule_r.body, (), {0: german, 1: merkel}) == []


def speaks_examples(kg):
    speaks = rel(kg, "speaks")
    gen = frozenset((s, r, o) for s, r, o in kg.fact_list() if r == speaks)
    val = frozenset(
        {
            (ent(kg, "U.v.d._Leyen"), speaks, ent(kg, "French")),
            (ent(kg, "E._Macron"), speaks, ent(kg, "English")),
            (ent(kg, "E._Macron"), speaks, ent(kg, "German")),
        }
    )
    return ExampleSets(gen, val)


class TestRudikWeight:
    def test_empty_rule_set_scores_alpha(self, sample_kg):
        ex = speaks_examples(sample_kg)
        assert rudik_weight(sample_kg, [], ex, Fraction(1, 2)) == Fraction(1, 2)
        assert rudik_weight(sample_kg, [], ex, Fraction(3, 4)) == Fraction(3, 4)

    def test_perfect_rule_set_scores_zero(self, sample_kg, rule_r):
        speaks = rel(sample_kg, "speaks")
        gen = frozenset(
            {
                (ent(sample_kg, "U.v.d._Leyen"), speaks, ent(sample_kg, "German")),
                (ent(sample_kg, "E._Macron"), speaks, ent(sample_kg, "French")),
            }
        )
        ex = ExampleSets(gen, speaks_examples(sample_kg).validation)
        assert rudik_weight(sample_kg, [rule_r], ex, Fraction(1, 2)) == 0

    def test_two_of_three_coverage(self, sample_kg, rule_r):
        # the chain rule explains Leyen/German and Macron/French but not Leyen/English
        ex = speaks_examples(sample_kg)
        assert rudik_weight(sample_kg, [rule_r], ex, Fraction(1, 2)) == Fraction(1, 6)

    def test_degenerate_sets_rejected(self, sample_kg, rule_r):
        ex = speaks_examples(sample_kg)
        with pytest.raises(ValueError, match="degenerate"):
            rudik_weight(sample_kg, [rule_r], ExampleSets(frozenset(), ex.validation), 0.5)
        with pytest.raises(ValueError, match="degenerate"):
            rudik_weight(sample_kg, [rule_r], ExampleSets(ex.generation, frozenset()), 0.5)

    def test_alpha_validated(self, sample_kg, rule_r):
        with pytest.raises(ValueError):
            rudik_weight(sample_kg, [rule_r], speaks_examples(sample_kg), 2)

    def test_example_sets_must_be_disjoint(self, sample_kg):
        f = next(iter(speaks_examples(sample_kg).generation))
        with pytest.raises(ValueError, match="overlap"):
            ExampleSets(frozenset({f}), frozenset({f}))


class TestMarginalWeight:
    def test_subsumed_rule_adds_nothing(self, sample_kg, rule_r):
        ex = speaks_examples(sample_kg)
        assert marginal_weight(sample_kg, [rule_r], rule_r, ex, Fraction(1, 2)) == 0

    def test_new_positive_coverage_is_negative(self, sample_kg):
        # gender(?a, male) => speaks(?a, ?b) explains only Macron/French
        male = parse_rule("gender(?a, male) => speaks(?a, ?b)", sample_kg)
        ex = speaks_examples(sample_kg)
        assert marginal_weight(sample_kg, [], male, ex, Fraction(1)) == Fraction(-1, 3)

    def test_negative_coverage_is_positive(self, sample_kg, rule_r):
        speaks = rel(sample_kg, "speaks")
        gen = frozenset({(ent(sample_kg, "E._Macron"), speaks, ent(sample_kg, "French"))})
        val = frozenset(
            {
                (ent(sample_kg, "E._Macron"), speaks, ent(sample_kg, "English")),
                (ent(sample_kg, "U.v.d._Leyen"), speaks, ent(sample_kg, "French")),
            }
        )
        ex = ExampleSets(gen, val)
        male = parse_rule("gender(?a, male) => speaks(?a, ?b)", sample_kg)
        assert marginal_weight(sample_kg, [rule_r], male, ex, Fraction(1, 2)) == Fraction(1, 4)


class TestCovered:
    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(30):
            kg = random_kg(rng)
            rules = all_chain_rules(kg, max_body=2)[:20]
            n = len(kg.entities)
            candidates = [
                (rng.randrange(n), rng.randrange(len(kg.relations)), rng.randrange(n))
                for _ in range(15)
            ]
            assert covered(kg, rules, candidates) == brute_covered(kg, rules, candidates)

    def test_unifies_head_constants(self, sample_kg):
        r = parse_rule("gender(?a, male) => speaks(?a, ?b)", sample_kg)
        speaks = rel(sample_kg, "speaks")
        macron_french = (ent(sample_kg, "E._Macron"), speaks, ent(sample_kg, "French"))
        leyen_german = (ent(sample_kg, "U.v.d._Leyen"), speaks, ent(sample_kg, "German"))
        got = covered(sample_kg, [r], [macron_french, leyen_german])
        assert got == frozenset({macron_french})


class TestAsFraction:
    def test_string_decimal(self):
        assert as_fraction("0.1") == Fraction(1, 10)

    def test_float_uses_repr(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(0.5) == Fraction(1, 2)
        # repr-based conversion round-trips the float exactly
        assert float(as_fraction(2 / 3)) == 2 / 3

    def test_passthrough(self):
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
        assert as_fraction(2) == 2

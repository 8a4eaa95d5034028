"""Rule execution: predictions, LCWA negatives, greedy selection, contradictions."""

import random
from fractions import Fraction

import pytest

import hornforge as hf
from hornforge import (
    ExampleSets,
    NegativeRule,
    Prediction,
    apply_rule,
    complete,
    find_inconsistencies,
    generate_negatives,
    select_rules_greedy,
)
from oracles import brute_covered, random_kg


def labeled(kg, fact):
    s, r, o = fact
    return (kg.entities.label(s), kg.relations.label(r), kg.entities.label(o))


def fact_ids(kg, s, r, o):
    return (kg.entities.id(s), kg.relations.id(r), kg.entities.id(o))


@pytest.fixture(scope="module")
def rule_r2(sample_kg):
    return hf.parse_rule("nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)


@pytest.fixture(scope="module")
def speaks_examples(sample_kg):
    speaks = sample_kg.relations.id("speaks")
    gen = frozenset(f for f in sample_kg.fact_list() if f[1] == speaks)
    return ExampleSets(gen, generate_negatives(sample_kg, "speaks"))


class TestPrediction:
    def test_requires_a_generating_rule(self, rule_r):
        with pytest.raises(ValueError, match="at least one generating rule"):
            Prediction((0, 0, 0), False, ())
        p = Prediction((0, 0, 0), False, ((rule_r, Fraction(1)),))
        assert p.rules[0][1] == 1


class TestApplyRule:
    def test_two_hop_language_rule(self, sample_kg, rule_r):
        preds = apply_rule(sample_kg, rule_r)
        assert [(labeled(sample_kg, p.fact), p.in_kg) for p in preds] == [
            (("A._Merkel", "speaks", "German"), False),
            (("U.v.d._Leyen", "speaks", "German"), True),
            (("E._Macron", "speaks", "French"), True),
        ]
        # default confidence is the rule's own pca confidence
        for p in preds:
            assert p.rules == ((rule_r, Fraction(2, 3)),)

    def test_novel_fact_is_the_interesting_one(self, sample_kg, rule_r):
        novel = [p for p in apply_rule(sample_kg, rule_r) if not p.in_kg]
        assert [labeled(sample_kg, p.fact) for p in novel] == [("A._Merkel", "speaks", "German")]

    def test_all_known_when_rule_restates_graph(self, sample_kg):
        rule = hf.parse_rule("birthCountry(?a, ?b) => nationality(?a, ?b)", sample_kg)
        preds = apply_rule(sample_kg, rule)
        assert len(preds) == 3
        assert all(p.in_kg for p in preds)

    def test_explicit_confidence_overrides(self, sample_kg, rule_r):
        preds = apply_rule(sample_kg, rule_r, confidence=Fraction(1, 2))
        assert all(p.rules == ((rule_r, Fraction(1, 2)),) for p in preds)

    def test_default_confidence_keeps_object_identity(self):
        kg = hf.KnowledgeGraph.from_label_triples([
            ("e1", "p", "e2"), ("e2", "q", "e3"), ("e4", "p", "e4"),
            ("e4", "q", "e5"), ("e1", "h", "e3"), ("e4", "h", "e9"),
        ])  # fmt: skip
        rule = hf.parse_rule("p(?a, ?c) & q(?c, ?b) => h(?a, ?b)", kg)
        assert hf.pca_confidence(kg, rule) == Fraction(1, 2)
        preds = apply_rule(kg, rule, object_identity=True)
        assert [(labeled(kg, p.fact), p.rules) for p in preds] == [(("e1", "h", "e3"), ((rule, 1),))]

    def test_rejects_disconnected(self, sample_kg):
        rule = hf.parse_rule("gender(?c, ?d) => speaks(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="disconnected rule"):
            apply_rule(sample_kg, rule)

    def test_rejects_unsafe(self, sample_kg):
        rule = hf.parse_rule("officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="unsafe rule"):
            apply_rule(sample_kg, rule)

    def test_sorted_by_fact(self, sample_kg, rule_r):
        preds = apply_rule(sample_kg, rule_r)
        assert [p.fact for p in preds] == sorted(p.fact for p in preds)


class TestGenerateNegatives:
    def test_speaks_negatives_exact(self, sample_kg):
        negs = generate_negatives(sample_kg, "speaks")
        assert {labeled(sample_kg, f) for f in negs} == {
            ("U.v.d._Leyen", "speaks", "French"),
            ("E._Macron", "speaks", "English"),
            ("E._Macron", "speaks", "German"),
        }

    def test_disjoint_from_graph(self, sample_kg):
        for rel in ("speaks", "nationality", "worksFor", "officialLang"):
            negs = generate_negatives(sample_kg, rel)
            assert negs.isdisjoint(sample_kg.facts)
            rid = sample_kg.relations.id(rel)
            for s, r, o in negs:
                assert r == rid
                # LCWA: subject must already use the relation somewhere
                assert sample_kg.objects_of(rid, s)

    def test_single_object_relation_has_none(self, sample_kg):
        assert generate_negatives(sample_kg, "worksFor") == frozenset()

    def test_unknown_relation(self, sample_kg):
        with pytest.raises(ValueError, match="unknown relation"):
            generate_negatives(sample_kg, "bogus")

    def test_relation_id_accepted(self, sample_kg):
        rid = sample_kg.relations.id("speaks")
        assert generate_negatives(sample_kg, rid) == generate_negatives(sample_kg, "speaks")


class TestComplete:
    def test_subject_query(self, sample_kg, rule_r, rule_r2):
        scored = [(rule_r, Fraction(2, 3)), (rule_r2, Fraction(2, 3))]
        merkel = sample_kg.entities.id("A._Merkel")
        got = complete(sample_kg, scored, "speaks", subject=merkel)
        german = sample_kg.entities.id("German")
        assert got == [(german, (Fraction(2, 3), Fraction(2, 3)))]

    def test_object_query_label_tiebreak(self, sample_kg, rule_r, rule_r2):
        scored = [(rule_r, Fraction(2, 3)), (rule_r2, Fraction(2, 3))]
        german = sample_kg.entities.id("German")
        got = complete(sample_kg, scored, "speaks", object=german)
        assert [sample_kg.entities.label(e) for e, _ in got] == ["A._Merkel", "U.v.d._Leyen"]
        assert all(v == (Fraction(2, 3), Fraction(2, 3)) for _, v in got)

    def test_longer_vector_loses_to_higher_confidence(self, sample_kg, rule_r, rule_r2):
        g3 = hf.parse_rule("gender(?a, female) => speaks(?a, English)", sample_kg)
        scored = [(rule_r, Fraction(2, 3)), (rule_r2, Fraction(2, 3)), (g3, Fraction(1))]
        leyen = sample_kg.entities.id("U.v.d._Leyen")
        got = complete(sample_kg, scored, "speaks", subject=leyen)
        assert [(sample_kg.entities.label(e), v) for e, v in got] == [
            ("English", (Fraction(1),)),
            ("German", (Fraction(2, 3), Fraction(2, 3))),
        ]

    def test_top_k(self, sample_kg, rule_r, rule_r2):
        scored = [(rule_r, Fraction(2, 3)), (rule_r2, Fraction(2, 3))]
        german = sample_kg.entities.id("German")
        got = complete(sample_kg, scored, "speaks", object=german, top_k=1)
        assert [sample_kg.entities.label(e) for e, _ in got] == ["A._Merkel"]

    def test_top_k_below_one(self, sample_kg, rule_r):
        german = sample_kg.entities.id("German")
        with pytest.raises(ValueError, match="top_k"):
            complete(sample_kg, [(rule_r, Fraction(1))], "speaks", object=german, top_k=-1)

    def test_constant_head_completion(self, sample_kg):
        wf = hf.parse_rule("birthCountry(?a, ?b) => worksFor(?a, EU)", sample_kg)
        merkel = sample_kg.entities.id("A._Merkel")
        got = complete(sample_kg, [(wf, Fraction(1))], "worksFor", subject=merkel)
        assert got == [(sample_kg.entities.id("EU"), (Fraction(1),))]

    def test_constant_head_mismatch_skipped(self, sample_kg):
        wf = hf.parse_rule("gender(?a, ?b) => worksFor(?a, EU)", sample_kg)
        germany = sample_kg.entities.id("Germany")
        assert complete(sample_kg, [(wf, Fraction(1))], "worksFor", object=germany) == []

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("nationality(?a, ?c) => speaks(?a, ?b)", "unsafe rule"),
            ("nationality(?a, ?b) & officialLang(?c, ?d) => speaks(?a, ?b)", "disconnected rule"),
        ],
    )
    def test_rule_that_cannot_fire_rejected(self, sample_kg, text, msg):
        rule = hf.parse_rule(text, sample_kg)
        with pytest.raises(ValueError, match=msg):
            complete(sample_kg, [(rule, Fraction(1))], "speaks", subject="A._Merkel")

    def test_other_head_relations_ignored(self, sample_kg, rule_r):
        merkel = sample_kg.entities.id("A._Merkel")
        assert complete(sample_kg, [(rule_r, Fraction(1))], "nationality", subject=merkel) == []

    def test_exactly_one_side(self, sample_kg, rule_r):
        scored = [(rule_r, Fraction(1))]
        with pytest.raises(ValueError, match="exactly one of subject and object"):
            complete(sample_kg, scored, "speaks")
        with pytest.raises(ValueError, match="exactly one of subject and object"):
            complete(sample_kg, scored, "speaks", subject=0, object=1)

    def test_unknown_relation(self, sample_kg, rule_r):
        with pytest.raises(ValueError, match="unknown relation"):
            complete(sample_kg, [(rule_r, 1)], "bogus", subject=0)

    def test_entity_label_query(self, sample_kg, rule_r):
        merkel = sample_kg.entities.id("A._Merkel")
        by_id = complete(sample_kg, [(rule_r, 1)], "speaks", subject=merkel)
        assert by_id == [(sample_kg.entities.id("German"), (Fraction(1),))]
        assert complete(sample_kg, [(rule_r, 1)], "speaks", subject="A._Merkel") == by_id
        german = sample_kg.entities.id("German")
        assert complete(sample_kg, [(rule_r, 1)], "speaks", object="German") == complete(
            sample_kg, [(rule_r, 1)], "speaks", object=german
        )

    @pytest.mark.parametrize("entity", ["Narnia", -1, 10**6])
    def test_unknown_entity(self, sample_kg, rule_r, entity):
        with pytest.raises(ValueError, match="unknown entity"):
            complete(sample_kg, [(rule_r, 1)], "speaks", subject=entity)
        with pytest.raises(ValueError, match="unknown entity"):
            complete(sample_kg, [(rule_r, 1)], "speaks", object=entity)


class TestSelectRulesGreedy:
    def test_two_rules_cover_everything(self, sample_kg, rule_r, rule_r2, speaks_examples):
        g3 = hf.parse_rule("gender(?a, female) => speaks(?a, English)", sample_kg)
        for alpha in (Fraction(1), Fraction(1, 2)):
            sel = select_rules_greedy(sample_kg, [rule_r, rule_r2, g3], speaks_examples, alpha)
            assert [hf.render_rule(r, sample_kg) for r in sel] == [
                "nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
                "gender(?a, female) => speaks(?a, English)",
            ]
            # full generation coverage and no negative coverage: weight hits 0
            assert hf.rudik_weight(sample_kg, sel, speaks_examples, alpha) == 0

    def test_non_improving_candidates_rejected(self, sample_kg, speaks_examples):
        # fires on every person working for the EU: covers all negatives too
        blanket = hf.parse_rule("worksFor(?a, ?c) => speaks(?a, ?b)", sample_kg)
        assert select_rules_greedy(sample_kg, [blanket], speaks_examples, Fraction(1, 2)) == []

    def test_duplicate_coverage_not_selected_twice(self, sample_kg, rule_r, rule_r2, speaks_examples):
        sel = select_rules_greedy(sample_kg, [rule_r, rule_r2], speaks_examples, Fraction(1))
        assert len(sel) == 1

    def test_alpha_range(self, sample_kg, rule_r, speaks_examples):
        with pytest.raises(ValueError, match="alpha must lie"):
            select_rules_greedy(sample_kg, [rule_r], speaks_examples, 2)

    def test_degenerate_examples(self, sample_kg, rule_r):
        speaks = sample_kg.relations.id("speaks")
        gen = frozenset(f for f in sample_kg.fact_list() if f[1] == speaks)
        with pytest.raises(ValueError, match="degenerate example set"):
            select_rules_greedy(sample_kg, [rule_r], ExampleSets(gen, frozenset()), 1)

    def test_selected_rules_always_improved_the_weight(self, sample_kg):
        rng = random.Random(23)
        for _ in range(10):
            kg = random_kg(rng)
            r0 = 0 if len(kg.relations) else None
            if r0 is None:
                continue
            gen = frozenset(f for f in kg.fact_list() if f[1] == r0)
            val = generate_negatives(kg, r0)
            if not gen or not val:
                continue
            cands = []
            for rel in range(len(kg.relations)):
                if rel == r0:
                    continue
                cands.append(hf.Rule(hf.Atom(r0, hf.var(0), hf.var(1)), (hf.Atom(rel, hf.var(0), hf.var(1)),)))
                cands.append(hf.Rule(hf.Atom(r0, hf.var(0), hf.var(1)), (hf.Atom(rel, hf.var(1), hf.var(0)),)))
            ex = ExampleSets(gen, val)
            sel = select_rules_greedy(kg, cands, ex, Fraction(1, 2))
            # each prefix strictly lowers the weight
            weights = [hf.rudik_weight(kg, sel[:k], ex, Fraction(1, 2)) for k in range(len(sel) + 1)]
            assert all(b < a for a, b in zip(weights, weights[1:]))
            # and coverage bookkeeping agrees with the brute oracle
            for rule in sel:
                assert hf.covered(kg, [rule], gen) == brute_covered(kg, [rule], gen)


class TestFindInconsistencies:
    def test_negated_head_contradiction(self, sample_kg):
        rule, negated = hf.parse_rule_with_negation("worksFor(?a, EU) => !gender(?a, male)", sample_kg)
        assert negated
        got = find_inconsistencies(sample_kg, [NegativeRule(rule)])
        assert [labeled(sample_kg, f) for f in got] == [("E._Macron", "gender", "male")]

    def test_plain_rules_accepted(self, sample_kg):
        rule = hf.parse_rule("worksFor(?a, EU) => gender(?a, male)", sample_kg)
        got = find_inconsistencies(sample_kg, [rule])
        assert [labeled(sample_kg, f) for f in got] == [("E._Macron", "gender", "male")]

    def test_consistent_rule_finds_nothing(self, sample_kg):
        rule, _ = hf.parse_rule_with_negation("gender(?a, female) => !gender(?a, male)", sample_kg)
        assert find_inconsistencies(sample_kg, [NegativeRule(rule)]) == []

    def test_union_sorted(self, sample_kg):
        r1, _ = hf.parse_rule_with_negation("worksFor(?a, EU) => !gender(?a, male)", sample_kg)
        r2, _ = hf.parse_rule_with_negation("worksFor(?a, EU) => !gender(?a, female)", sample_kg)
        got = find_inconsistencies(sample_kg, [NegativeRule(r1), NegativeRule(r2)])
        assert got == sorted(got)
        assert {labeled(sample_kg, f) for f in got} == {
            ("E._Macron", "gender", "male"),
            ("U.v.d._Leyen", "gender", "female"),
        }

    def test_rejects_disconnected(self, sample_kg):
        rule = hf.parse_rule("speaks(?c, ?d) => gender(?a, ?b)", sample_kg)
        with pytest.raises(ValueError, match="disconnected rule"):
            find_inconsistencies(sample_kg, [NegativeRule(rule)])

import random
from fractions import Fraction

import pytest

from hornforge import (
    NonChainRuleError,
    SparseBoolMatrix,
    adjacency_matrix,
    aggregate_infer,
    body_product,
    chain_orientations,
    cwa_body_size,
    head_coverage,
    load_triples,
    matrix_cwa_body_size,
    matrix_head_coverage,
    matrix_std_confidence,
    matrix_support,
    parse_rule,
    support,
    tensorlog_infer,
)
from oracles import all_chain_rules, random_kg

FIVE_ENTITY = (
    "E._Macron\tworksFor\tEU\n"
    "U.v.d._Leyen\tworksFor\tEU\n"
    "E._Macron\tbirthCountry\tFrance\n"
    "E._Macron\tspeaks\tFrench\n"
    "France\tofficialLang\tFrench\n"
)


@pytest.fixture(scope="module")
def five_kg():
    return load_triples(FIVE_ENTITY)


def label_pairs(kg, matrix):
    return {
        (kg.entities.label(s), kg.entities.label(o)) for s, o in matrix.pairs()
    }


class TestSparseBoolMatrix:
    def test_from_pairs_dedupes_and_sorts(self):
        m = SparseBoolMatrix.from_pairs(4, [(2, 1), (0, 3), (2, 1), (0, 0)])
        assert m.nnz == 3
        assert m.pairs() == [(0, 0), (0, 3), (2, 1)]

    def test_contains(self):
        m = SparseBoolMatrix.from_pairs(4, [(2, 1), (0, 3)])
        assert m.contains(2, 1) and m.contains(0, 3)
        assert not m.contains(1, 2)

    def test_transpose(self):
        m = SparseBoolMatrix.from_pairs(4, [(2, 1), (0, 3), (1, 1)])
        assert sorted(m.transpose().pairs()) == [(1, 1), (1, 2), (3, 0)]
        assert m.transpose().transpose() == m

    def test_product_is_boolean_reachability(self):
        a = SparseBoolMatrix.from_pairs(3, [(0, 1), (0, 2)])
        b = SparseBoolMatrix.from_pairs(3, [(1, 2), (2, 2)])
        # two distinct paths 0->2 clamp to a single 1
        assert (a @ b).pairs() == [(0, 2)]

    def test_identity_is_neutral(self):
        m = SparseBoolMatrix.from_pairs(5, [(0, 1), (3, 2), (4, 4)])
        i = SparseBoolMatrix.identity(5)
        assert (m @ i) == m
        assert (i @ m) == m

    def test_identity_shape(self):
        assert SparseBoolMatrix.identity(3).pairs() == [(0, 0), (1, 1), (2, 2)]


class TestAdjacency:
    def test_official_lang_on_five_entity_graph(self, five_kg):
        assert len(five_kg.entities) == 5
        m = adjacency_matrix(five_kg, five_kg.relations.id("officialLang"))
        assert label_pairs(five_kg, m) == {("France", "French")}

    def test_label_and_id_equivalent(self, sample_kg):
        a = adjacency_matrix(sample_kg, "speaks")
        b = adjacency_matrix(sample_kg, sample_kg.relations.id("speaks"))
        assert a == b


class TestChainOrientations:
    def test_forward_chain(self, rule_r):
        steps = chain_orientations(rule_r)
        assert [inv for _, inv in steps] == [False, False]

    def test_inverse_step_detected(self, sample_kg):
        r = parse_rule("birthCountry(?c, ?a) & officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert [inv for _, inv in chain_orientations(r)] == [True, False]

    def test_non_chain_shapes_rejected(self, sample_kg):
        for text in (
            "birthCountry(?a, ?b) & nationality(?a, ?b) => speaks(?a, ?b)",
            "worksFor(?a, EU) => speaks(?a, ?b)",
        ):
            with pytest.raises(NonChainRuleError, match="matrix oracle requires chain rules"):
                chain_orientations(parse_rule(text, sample_kg))


class TestBodyProduct:
    def test_running_example_nonzeros(self, sample_kg, rule_r):
        m = body_product(sample_kg, rule_r)
        assert label_pairs(sample_kg, m) == {
            ("U.v.d._Leyen", "German"),
            ("A._Merkel", "German"),
            ("E._Macron", "French"),
        }

    def test_empty_body_is_identity(self, sample_kg):
        from hornforge import Atom, Rule, var

        r = Rule(Atom(sample_kg.relations.id("speaks"), var(0), var(1)))
        assert body_product(sample_kg, r) == SparseBoolMatrix.identity(len(sample_kg.entities))

    def test_empty_relation_gives_zero_matrix(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 2)
        r = parse_rule("gender(?a, ?b) => speaks(?a, ?b)", sample_kg)
        assert body_product(sub, r).nnz == 0

    def test_inverse_atom_equals_transpose(self):
        rng = random.Random(13)
        from hornforge import Atom, Rule, var

        for _ in range(25):
            kg = random_kg(rng)
            if len(kg.relations) < 2:
                continue
            # r0 traversed backwards, then r1 forwards
            rule = Rule(
                Atom(0, var(0), var(1)),
                (Atom(0, var(2), var(0)), Atom(1, var(2), var(1))),
            )
            got = body_product(kg, rule)
            want = adjacency_matrix(kg, 0).transpose() @ adjacency_matrix(kg, 1)
            assert got == want

    def test_memo_is_bounded_and_weak(self):
        import gc
        import weakref

        from hornforge import matrix

        rng = random.Random(17)
        kg = random_kg(rng, max_relations=3)
        for rule in all_chain_rules(kg):
            assert body_product(kg, rule) == matrix._chain_product(kg, rule)
            assert len(matrix._product_cache[kg]) <= matrix._PRODUCT_CACHE_SIZE
        # the memo must not keep the graph alive
        ref = weakref.ref(kg)
        del kg
        gc.collect()
        assert ref() is None


class TestMatrixMetrics:
    def test_running_example(self, sample_kg, rule_r):
        assert matrix_support(sample_kg, rule_r) == 2
        assert matrix_head_coverage(sample_kg, rule_r) == Fraction(2, 3)
        assert matrix_cwa_body_size(sample_kg, rule_r) == 3
        assert matrix_std_confidence(sample_kg, rule_r) == Fraction(2, 3)

    def test_zero_overlap(self, sample_kg):
        r = parse_rule("worksFor(?a, ?b) => speaks(?a, ?b)", sample_kg)
        assert matrix_support(sample_kg, r) == 0

    def test_agrees_with_index_metrics_on_random_graphs(self):
        rng = random.Random(37)
        for _ in range(40):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg):
                assert matrix_support(kg, rule) == support(kg, rule)
                assert matrix_cwa_body_size(kg, rule) == cwa_body_size(kg, rule)
                if kg.fact_count(rule.head.relation):
                    assert matrix_head_coverage(kg, rule) == head_coverage(kg, rule)


class TestTensorlogInfer:
    def test_one_hot_french_on_five_entity_graph(self, five_kg):
        r = parse_rule("birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", five_kg)
        vec = tensorlog_infer(five_kg, r, "E._Macron")
        assert vec.dimension == 5
        assert vec.nonzeros == frozenset({five_kg.entities.id("French")})
        assert sum(vec.indicator()) == 1

    def test_merkel_derives_german_on_full_fixture(self, sample_kg, rule_r):
        vec = tensorlog_infer(sample_kg, rule_r, "A._Merkel")
        assert vec.nonzeros == frozenset({sample_kg.entities.id("German")})

    def test_dead_end_entity_gives_zero_vector(self, sample_kg, rule_r):
        assert tensorlog_infer(sample_kg, rule_r, "English").nonzeros == frozenset()

    def test_unknown_entity_rejected(self, sample_kg, rule_r):
        with pytest.raises(ValueError, match="unknown entity"):
            tensorlog_infer(sample_kg, rule_r, "Narnia")
        with pytest.raises(ValueError, match="unknown entity"):
            tensorlog_infer(sample_kg, rule_r, 10**6)

    def test_matches_body_product_rows(self):
        rng = random.Random(53)
        for _ in range(20):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg)[:12]:
                m = body_product(kg, rule)
                rows = {}
                for s, o in m.pairs():
                    rows.setdefault(s, set()).add(o)
                for x in range(len(kg.entities)):
                    assert tensorlog_infer(kg, rule, x).nonzeros == frozenset(
                        rows.get(x, set())
                    )


class TestAggregateInfer:
    def test_singleton_matches_tensorlog(self, sample_kg, rule_r):
        vec = tensorlog_infer(sample_kg, rule_r, "E._Macron")
        out = aggregate_infer(sample_kg, [(rule_r, Fraction(1))], "E._Macron")
        assert {e for e, _ in out} == vec.nonzeros
        assert all(s == 1 for _, s in out)

    def test_scores_sum_over_rules(self):
        kg = load_triples("a\tr1\tb\na\tr2\tc\na\tr3\tb\nb\th\tc\n")
        r1 = parse_rule("r1(?x, ?y) => h(?x, ?y)", kg)
        r2 = parse_rule("r2(?x, ?y) => h(?x, ?y)", kg)
        r3 = parse_rule("r3(?x, ?y) => h(?x, ?y)", kg)
        out = aggregate_infer(
            kg, [(r1, Fraction(6, 10)), (r3, Fraction(3, 10)), (r2, Fraction(3, 10))], "a"
        )
        assert [(kg.entities.label(e), s) for e, s in out] == [
            ("b", Fraction(9, 10)),
            ("c", Fraction(3, 10)),
        ]

    def test_disjoint_conclusions_keep_individual_scores(self):
        kg = load_triples("a\tr1\tb\na\tr2\tc\nb\th\tc\n")
        r1 = parse_rule("r1(?x, ?y) => h(?x, ?y)", kg)
        r2 = parse_rule("r2(?x, ?y) => h(?x, ?y)", kg)
        out = dict(aggregate_infer(kg, [(r1, Fraction(1, 2)), (r2, Fraction(1, 4))], "a"))
        assert out[kg.entities.id("b")] == Fraction(1, 2)
        assert out[kg.entities.id("c")] == Fraction(1, 4)

    def test_empty_rule_list(self, sample_kg):
        assert aggregate_infer(sample_kg, [], "E._Macron") == []

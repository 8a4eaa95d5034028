"""Top-down miner: config validation, refinement operators, search output."""

import random
from fractions import Fraction

import pytest

import hornforge as hf
from hornforge import MinerConfig, mine, parse_rule, refine_closing, refine_dangling, refine_instantiated, seed_rules
from hornforge.amie import refine
from oracles import all_closed_rules, brute_support, random_kg

TINY = Fraction(1, 10**9)


def canon(text, kg):
    return hf.canonicalize(parse_rule(text, kg))


def renders(mined, kg):
    return [hf.render_rule(m.rule, kg) for m in mined]


class TestMinerConfig:
    def test_defaults(self):
        cfg = MinerConfig()
        assert cfg.max_len == 3
        assert cfg.min_head_coverage == Fraction(1, 100)
        assert cfg.min_confidence == Fraction(1, 10)
        assert cfg.confidence_kind == "pca"
        assert cfg.enable_instantiation is False
        assert cfg.enable_skyline is True
        assert cfg.object_identity is False

    def test_max_len_floor(self):
        with pytest.raises(ValueError, match="max_len must be at least 2"):
            MinerConfig(max_len=1)
        assert MinerConfig(max_len=2).max_len == 2

    def test_max_len_cap(self):
        assert MinerConfig(max_len=9).max_len == 9
        with pytest.raises(ValueError, match="max_len must be at most 9"):
            MinerConfig(max_len=10)

    @pytest.mark.parametrize("bad", [0, Fraction(0), -1, 2, Fraction(101, 100)])
    def test_threshold_range(self, bad):
        with pytest.raises(ValueError, match="min_head_coverage"):
            MinerConfig(min_head_coverage=bad)
        with pytest.raises(ValueError, match="min_confidence"):
            MinerConfig(min_confidence=bad)

    def test_thresholds_become_exact_fractions(self):
        cfg = MinerConfig(min_head_coverage=0.5, min_confidence="2/3")
        assert cfg.min_head_coverage == Fraction(1, 2)
        assert cfg.min_confidence == Fraction(2, 3)

    def test_confidence_kind(self):
        assert MinerConfig(confidence_kind="std").confidence_kind == "std"
        with pytest.raises(ValueError, match="unknown confidence kind"):
            MinerConfig(confidence_kind="cwa")
        with pytest.raises(ValueError, match="unknown confidence kind"):
            MinerConfig(confidence_kind="PCA")


class TestSeedRules:
    def test_one_seed_per_nonempty_relation(self, sample_kg):
        seeds = seed_rules(sample_kg)
        assert len(seeds) == len(sample_kg.relations) == 6
        assert {s.head.relation for s in seeds} == set(range(6))
        for s in seeds:
            assert s.body == ()
            assert s.head.subject == hf.var(0) and s.head.object == hf.var(1)
            assert not hf.is_closed(s)

    def test_seed_support_equals_head_fact_count(self, sample_kg):
        for s in seed_rules(sample_kg):
            assert hf.support(sample_kg, s) == sample_kg.fact_count(s.head.relation)

    def test_empty_relations_skipped(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph("speaks", 2)
        seeds = seed_rules(sub)
        assert [sub.relations.label(s.head.relation) for s in seeds] == ["speaks"]

    def test_empty_kg(self):
        assert seed_rules(hf.load_triples("")) == []


class TestRefineDangling:
    def test_seed_children(self, sample_kg):
        speaks_seed = next(
            s for s in seed_rules(sample_kg) if sample_kg.relations.label(s.head.relation) == "speaks"
        )
        kids = refine_dangling(sample_kg, speaks_seed, MinerConfig())
        assert canon("officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg) in kids
        assert canon("nationality(?a, ?c) => speaks(?a, ?b)", sample_kg) in kids
        # one fresh-variable atom per child, canonical order, no duplicates
        assert kids == sorted(set(kids), key=hf.sort_key)
        for child in kids:
            assert len(child.body) == 1
            assert len(child.variables()) == 3

    def test_length_budget_exhausted(self, sample_kg, rule_r):
        assert refine_dangling(sample_kg, rule_r, MinerConfig()) == []

    def test_closability_cut(self, sample_kg):
        # an open length-2 rule one step from the cap can never close in time
        open_rule = canon("birthCountry(?a, ?c) => speaks(?a, ?b)", sample_kg)
        assert refine_dangling(sample_kg, open_rule, MinerConfig(max_len=3)) == []
        # with more budget the same rule does refine
        assert refine_dangling(sample_kg, open_rule, MinerConfig(max_len=4)) != []
        closed_rule = canon("nationality(?a, ?b) => speaks(?a, ?b)", sample_kg)
        assert refine_dangling(sample_kg, closed_rule, MinerConfig(max_len=3)) == []

    def test_viability_filter(self, sample_kg):
        seed = seed_rules(sample_kg)[0]
        assert refine_dangling(sample_kg, seed, MinerConfig(), viable=set()) == []


class TestRefineClosing:
    def test_seed_children(self, sample_kg):
        speaks_seed = next(
            s for s in seed_rules(sample_kg) if sample_kg.relations.label(s.head.relation) == "speaks"
        )
        kids = refine_closing(sample_kg, speaks_seed, MinerConfig())
        assert canon("nationality(?a, ?b) => speaks(?a, ?b)", sample_kg) in kids
        # reversed head-relation atom is a legal closing atom
        assert canon("speaks(?b, ?a) => speaks(?a, ?b)", sample_kg) in kids
        # the head atom itself is not
        assert canon("speaks(?a, ?b) => speaks(?a, ?b)", sample_kg) not in kids
        assert kids == sorted(set(kids), key=hf.sort_key)
        for child in kids:
            assert len(child.variables()) == 2
            assert hf.is_closed(child)

    def test_closes_dangling_rule(self, sample_kg, rule_r):
        open_rule = canon("birthCountry(?a, ?c) => speaks(?a, ?b)", sample_kg)
        kids = refine_closing(sample_kg, open_rule, MinerConfig())
        assert rule_r in kids

    def test_no_duplicate_body_atom(self, sample_kg):
        rule = canon("nationality(?a, ?b) => speaks(?a, ?b)", sample_kg)
        kids = refine_closing(sample_kg, rule, MinerConfig(max_len=4))
        for child in kids:
            assert len(set(child.body)) == len(child.body)
            assert child.head not in child.body

    def test_never_reflexive(self, sample_kg):
        for seed in seed_rules(sample_kg):
            for child in refine_closing(sample_kg, seed, MinerConfig()):
                for atom in child.body:
                    assert atom.subject != atom.object

    def test_length_budget_exhausted(self, sample_kg, rule_r):
        assert refine_closing(sample_kg, rule_r, MinerConfig()) == []

    def test_viability_filter(self, sample_kg):
        seed = seed_rules(sample_kg)[0]
        assert refine_closing(sample_kg, seed, MinerConfig(), viable=set()) == []


class TestRefineInstantiated:
    def test_disabled_by_default(self, sample_kg):
        seed = seed_rules(sample_kg)[0]
        assert refine_instantiated(sample_kg, seed, MinerConfig()) == []

    def test_constants_from_witnesses(self, sample_kg):
        speaks_seed = next(
            s for s in seed_rules(sample_kg) if sample_kg.relations.label(s.head.relation) == "speaks"
        )
        cfg = MinerConfig(enable_instantiation=True)
        kids = refine_instantiated(sample_kg, speaks_seed, cfg)
        assert canon("worksFor(?a, EU) => speaks(?a, ?b)", sample_kg) in kids
        assert kids == sorted(set(kids), key=hf.sort_key)
        for child in kids:
            consts = [t for a in child.body for t in (a.subject, a.object) if not t.is_var]
            assert consts, hf.render_rule(child, sample_kg)

    def test_children_keep_a_witness(self, sample_kg):
        cfg = MinerConfig(enable_instantiation=True)
        for seed in seed_rules(sample_kg):
            for child in refine_instantiated(sample_kg, seed, cfg):
                assert hf.support(sample_kg, child) >= 1

    def test_children_keep_a_witness_random(self):
        rng = random.Random(11)
        cfg = MinerConfig(enable_instantiation=True)
        for _ in range(10):
            kg = random_kg(rng)
            for seed in seed_rules(kg):
                for child in refine_instantiated(kg, seed, cfg):
                    assert brute_support(kg, child) >= 1

    def test_length_budget_exhausted(self, sample_kg, rule_r):
        cfg = MinerConfig(enable_instantiation=True)
        assert refine_instantiated(sample_kg, rule_r, cfg) == []


class TestRefineCombined:
    def test_union_of_operators(self, sample_kg):
        seed = seed_rules(sample_kg)[0]
        cfg = MinerConfig()
        combined = refine(sample_kg, seed, cfg)
        expected = set(refine_dangling(sample_kg, seed, cfg)) | set(refine_closing(sample_kg, seed, cfg))
        assert set(combined) == expected
        assert combined == sorted(set(combined), key=hf.sort_key)

    def test_instantiation_adds_children(self, sample_kg):
        seed = next(
            s for s in seed_rules(sample_kg) if sample_kg.relations.label(s.head.relation) == "speaks"
        )
        plain = set(refine(sample_kg, seed, MinerConfig()))
        inst = set(refine(sample_kg, seed, MinerConfig(enable_instantiation=True)))
        assert plain < inst


GOLDEN = [
    ("nationality(?a, ?b) => birthCountry(?a, ?b)", 3, "1", "1", "1", "subject"),
    ("speaks(?a, ?c) & officialLang(?b, ?c) => birthCountry(?a, ?b)", 2, "2/3", "1", "1", "subject"),
    ("birthCountry(?a, ?b) => nationality(?a, ?b)", 3, "1", "1", "1", "subject"),
    ("speaks(?a, ?c) & officialLang(?b, ?c) => nationality(?a, ?b)", 2, "2/3", "1", "1", "subject"),
    ("birthCountry(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)", 2, "1", "2/3", "2/3", "subject"),
    ("nationality(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)", 2, "1", "2/3", "2/3", "subject"),
    ("birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", 2, "2/3", "2/3", "2/3", "object"),
    ("nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", 2, "2/3", "2/3", "2/3", "object"),
]


def golden_tuples(mined, kg):
    return [
        (
            hf.render_rule(m.rule, kg),
            m.metrics.support,
            str(m.metrics.head_coverage),
            str(m.metrics.std_confidence),
            str(m.metrics.pca_confidence),
            m.metrics.pca_direction,
        )
        for m in mined
    ]


class TestMineFixture:
    def test_default_output(self, sample_kg):
        assert golden_tuples(mine(sample_kg), sample_kg) == GOLDEN

    def test_metrics_match_eager_evaluation(self, sample_kg):
        for m in mine(sample_kg):
            assert m.metrics == hf.evaluate(sample_kg, m.rule)

    def test_repeated_runs_identical(self, sample_kg):
        runs = [golden_tuples(mine(sample_kg), sample_kg) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2] == GOLDEN

    def test_max_len_two(self, sample_kg):
        got = renders(mine(sample_kg, MinerConfig(max_len=2)), sample_kg)
        assert got == [
            "nationality(?a, ?b) => birthCountry(?a, ?b)",
            "birthCountry(?a, ?b) => nationality(?a, ?b)",
        ]

    def test_min_head_coverage_one(self, sample_kg):
        mined = mine(sample_kg, MinerConfig(min_head_coverage=1))
        assert all(m.metrics.head_coverage == 1 for m in mined)
        assert renders(mined, sample_kg) == [
            "nationality(?a, ?b) => birthCountry(?a, ?b)",
            "birthCountry(?a, ?b) => nationality(?a, ?b)",
            "birthCountry(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)",
            "nationality(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)",
        ]

    def test_min_confidence_one(self, sample_kg):
        got = golden_tuples(mine(sample_kg, MinerConfig(min_confidence=1)), sample_kg)
        assert got == [t for t in GOLDEN if t[4] == "1"]

    def test_std_kind_same_rules_here(self, sample_kg):
        got = mine(sample_kg, MinerConfig(confidence_kind="std"))
        assert golden_tuples(got, sample_kg) == GOLDEN

    def test_empty_kg(self):
        assert mine(hf.load_triples("")) == []


# Ancestor p(x,y) => h(x,y) scores pca 2/3; the specialization
# p(x,y) & q(y,x) => h(x,y) also scores exactly 2/3, so the skyline drops it.
SKYLINE_TSV = (
    "a1\tp\tb1\n"
    "a2\tp\tb2\n"
    "a3\tp\tb3\n"
    "a1\th\tb1\n"
    "a2\th\tb2\n"
    "a3\th\tb1\n"
    "b1\tq\ta1\n"
    "b2\tq\ta2\n"
    "b3\tq\ta3\n"
)


@pytest.fixture(scope="module")
def sky_kg():
    return hf.load_triples(SKYLINE_TSV)


class TestSkyline:
    def test_blocks_non_improving_children(self, sky_kg):
        got = renders(mine(sky_kg), sky_kg)
        assert got == [
            "p(?a, ?b) => h(?a, ?b)",
            "q(?b, ?a) => h(?a, ?b)",
            "q(?b, ?a) => p(?a, ?b)",
            "h(?a, ?b) => p(?a, ?b)",
            "p(?b, ?a) => q(?a, ?b)",
            "h(?b, ?a) => q(?a, ?b)",
        ]

    def test_disabled_skyline_reveals_them(self, sky_kg):
        on = set(renders(mine(sky_kg), sky_kg))
        off = set(renders(mine(sky_kg, MinerConfig(enable_skyline=False)), sky_kg))
        assert on < off
        assert off - on == {
            "p(?a, ?b) & q(?b, ?a) => h(?a, ?b)",
            "h(?a, ?b) & q(?b, ?a) => p(?a, ?b)",
            "p(?b, ?a) & h(?b, ?a) => q(?a, ?b)",
        }

    def test_blocked_child_ties_its_ancestor(self, sky_kg):
        off = {hf.render_rule(m.rule, sky_kg): m.metrics for m in mine(sky_kg, MinerConfig(enable_skyline=False))}
        child = off["p(?a, ?b) & q(?b, ?a) => h(?a, ?b)"]
        parent = off["p(?a, ?b) => h(?a, ?b)"]
        assert child.pca_confidence == parent.pca_confidence == Fraction(2, 3)

    def test_perfect_rules_not_refined(self, sky_kg):
        # q(?b, ?a) => p(?a, ?b) is exact, so its specializations never surface
        on = {hf.render_rule(m.rule, sky_kg): m.metrics for m in mine(sky_kg)}
        assert on["q(?b, ?a) => p(?a, ?b)"].pca_confidence == 1
        assert "h(?a, ?b) & q(?b, ?a) => p(?a, ?b)" not in on


class TestPruningSoundness:
    def test_no_pruning_matches_exhaustive_enumeration(self):
        rng = random.Random(7)
        loose = dict(min_head_coverage=TINY, min_confidence=TINY, enable_skyline=False)
        for _ in range(25):
            kg = random_kg(rng)
            mined = mine(kg, MinerConfig(**loose))
            got = {m.rule for m in mined}
            want = {r for r in all_closed_rules(kg) if brute_support(kg, r) >= 1}
            assert got == want
            for m in mined:
                assert m.metrics == hf.evaluate(kg, m.rule)
            assert {m.rule for m in mine(kg)} <= got

    def test_skyline_only_removes_rules(self):
        rng = random.Random(8)
        for _ in range(20):
            kg = random_kg(rng)
            on = {m.rule for m in mine(kg)}
            off = {m.rule for m in mine(kg, MinerConfig(enable_skyline=False))}
            assert on <= off

    def test_threads_agree_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(10):
            kg = random_kg(rng)
            first = [(m.rule, m.metrics) for m in mine(kg, MinerConfig())]
            second = [(m.rule, m.metrics) for m in mine(kg, MinerConfig())]
            assert first == second

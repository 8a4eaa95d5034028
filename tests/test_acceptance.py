"""Release gate: the checks every build must clear before shipping.

Each test covers one numbered criterion, prints a single
"[criterion N] <name>: PASS|FAIL" line (visible with -s, or in captured
output on failure), and enforces its stated runtime budget with zero
numeric tolerance everywhere a value is asserted.
"""

import contextlib
import random
import time
from fractions import Fraction

import hornforge as hf
from hornforge import (
    AnytimeConfig,
    ExampleSets,
    KnowledgeGraph,
    MinerConfig,
    PathProfile,
    cwa_body_size,
    evaluate,
    generalize,
    generate_negatives,
    head_coverage,
    lazy_denominator,
    matrix_cwa_body_size,
    matrix_head_coverage,
    matrix_std_confidence,
    matrix_support,
    mine,
    mine_anytime,
    parse_rule,
    pca_body_size,
    pca_confidence,
    refine_closing,
    refine_dangling,
    refine_instantiated,
    render_rule,
    rudik_weight,
    sample_path,
    seed_rules,
    select_rules_greedy,
    std_confidence,
    support,
    tensorlog_infer,
)
from oracles import all_chain_rules, brute_metrics, brute_support, random_kg

RULE_R = "birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)"


@contextlib.contextmanager
def criterion(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_fixture_exactness(sample_kg):
    with criterion(1, "exact measures of the running-example rule"):
        t0 = time.perf_counter()
        rule = parse_rule(RULE_R, sample_kg)
        m = evaluate(sample_kg, rule)
        assert m.support == 2
        assert m.head_coverage == Fraction(2, 3)
        assert m.std_confidence == Fraction(2, 3)
        assert pca_body_size(sample_kg, rule, "subject") == 2
        assert pca_confidence(sample_kg, rule, "subject") == Fraction(1)
        assert time.perf_counter() - t0 < 1.0


FIVE_ENTITY = (
    "E._Macron\tworksFor\tEU\n"
    "U.v.d._Leyen\tworksFor\tEU\n"
    "E._Macron\tbirthCountry\tFrance\n"
    "E._Macron\tspeaks\tFrench\n"
    "France\tofficialLang\tFrench\n"
)


def test_criterion_2_matrix_chain_inference_one_hot():
    with criterion(2, "one-hot chain inference on the five-entity graph"):
        kg = hf.load_triples(FIVE_ENTITY)
        assert len(kg.entities) == 5
        rule = parse_rule(RULE_R, kg)
        vec = tensorlog_infer(kg, rule, "E._Macron")
        french = kg.entities.id("French")
        assert vec.dimension == 5
        assert vec.nonzeros == frozenset({french})
        indicator = vec.indicator()
        assert sum(indicator) == 1
        assert indicator[french] == 1


def test_criterion_3_relevant_subgraph_excludes_unreachable_facts(sample_kg):
    with criterion(3, "relevant-subgraph selection drops exactly the isolated facts"):
        sub = sample_kg.select_relevant_subgraph("speaks", 3)
        excluded = set(sample_kg.fact_list()) - set(sub.fact_list())
        merkel = sample_kg.entities.id("A._Merkel")
        germany = sample_kg.entities.id("Germany")
        nationality = sample_kg.relations.id("nationality")
        birth_country = sample_kg.relations.id("birthCountry")
        assert excluded == {
            (merkel, nationality, germany),
            (merkel, birth_country, germany),
        }


def _mine_snapshot(kg):
    lines = []
    for mr in mine(kg, MinerConfig()):
        m = mr.metrics
        lines.append(
            "\t".join(
                (
                    render_rule(mr.rule, kg),
                    str(m.support),
                    str(m.head_coverage),
                    str(m.std_confidence),
                    str(m.pca_confidence),
                    m.pca_direction,
                )
            )
        )
    return "\n".join(lines).encode()


def test_criterion_4_miner_defaults_round_trip(sample_kg):
    with criterion(4, "default mining is reproducible and finds the known rules"):
        t0 = time.perf_counter()
        snapshots = [_mine_snapshot(sample_kg) for _ in range(5)]
        assert len(set(snapshots)) == 1
        rendered = {
            render_rule(mr.rule, sample_kg) for mr in mine(sample_kg, MinerConfig())
        }
        assert RULE_R in rendered
        assert "birthCountry(?a, ?b) => nationality(?a, ?b)" in rendered
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_three_route_metric_equivalence():
    with criterion(5, "index, matrix, and brute-force routes agree on 1000 graphs"):
        rng = random.Random(5)
        t0 = time.perf_counter()
        graphs = 0
        rules_checked = 0
        for _ in range(1000):
            kg = random_kg(rng)
            graphs += 1
            for rule in all_chain_rules(kg, max_body=2):
                ref = brute_metrics(kg, rule)
                assert support(kg, rule) == ref.support
                assert cwa_body_size(kg, rule) == ref.cwa_body_size
                assert head_coverage(kg, rule) == ref.head_coverage
                assert std_confidence(kg, rule) == ref.std_confidence
                for direction, size in (
                    ("subject", ref.pca_subject_size),
                    ("object", ref.pca_object_size),
                ):
                    assert pca_body_size(kg, rule, direction) == size
                    assert pca_confidence(kg, rule, direction) == ref.pca_confidence(direction)
                assert matrix_support(kg, rule) == ref.support
                assert matrix_cwa_body_size(kg, rule) == ref.cwa_body_size
                assert matrix_head_coverage(kg, rule) == ref.head_coverage
                assert matrix_std_confidence(kg, rule) == ref.std_confidence
                rules_checked += 1
        assert graphs == 1000
        assert rules_checked >= 10_000
        assert time.perf_counter() - t0 < 60.0


def _refinements(kg, rule, config):
    children = list(refine_closing(kg, rule, config))
    children += refine_dangling(kg, rule, config)
    if config.enable_instantiation:
        children += refine_instantiated(kg, rule, config)
    return children


def test_criterion_6_anti_monotone_support_under_refinement():
    with criterion(6, "support and head coverage never grow under refinement"):
        rng = random.Random(9)
        config = MinerConfig(enable_instantiation=True)
        cases = 0
        for _ in range(20):
            kg = random_kg(rng)
            frontier = [(r, support(kg, r)) for r in seed_rules(kg, config)]
            for depth in range(2):
                deeper = []
                for parent, parent_supp in frontier:
                    parent_hc = head_coverage(kg, parent)
                    for child in _refinements(kg, parent, config):
                        child_supp = support(kg, child)
                        assert child_supp <= parent_supp
                        assert head_coverage(kg, child) <= parent_hc
                        cases += 1
                        if depth == 0 and child_supp >= 1 and len(deeper) < 4:
                            deeper.append((child, child_supp))
                frontier = deeper
        assert cases >= 500


def test_criterion_6_pca_confidence_dominates_standard():
    with criterion(6, "pca confidence is at least standard confidence"):
        rng = random.Random(6)
        cases = 0
        for _ in range(40):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg, max_body=2):
                supp = support(kg, rule)
                cwa = cwa_body_size(kg, rule)
                std = std_confidence(kg, rule)
                for direction in ("subject", "object"):
                    pca_size = pca_body_size(kg, rule, direction)
                    assert supp <= pca_size <= cwa
                    assert pca_confidence(kg, rule, direction) >= std
                    cases += 1
            if cases >= 500:
                break
        assert cases >= 500


def test_criterion_6_lazy_and_eager_denominators_decide_alike():
    with criterion(6, "lazy denominator counting matches eager evaluation"):
        rng = random.Random(7)
        thresholds = (Fraction(1, 10), Fraction(1, 2), Fraction(1))
        cases = 0
        for _ in range(40):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg, max_body=2):
                supp = support(kg, rule)
                routes = (
                    ("std", "subject", cwa_body_size(kg, rule)),
                    ("pca", "subject", pca_body_size(kg, rule, "subject")),
                    ("pca", "object", pca_body_size(kg, rule, "object")),
                )
                for kind, direction, eager_size in routes:
                    eager_conf = Fraction(supp, eager_size) if eager_size else Fraction(0)
                    for mc in thresholds:
                        out = lazy_denominator(kg, rule, kind, mc, direction)
                        cutoff = (supp * mc.denominator) // mc.numerator
                        assert out.passed == (eager_size <= cutoff)
                        if out.passed:
                            assert out.denominator == eager_size
                            lazy_conf = (
                                Fraction(supp, out.denominator)
                                if out.denominator
                                else Fraction(0)
                            )
                            accepted = lazy_conf >= mc
                        else:
                            assert out.denominator is None
                            accepted = False
                        assert accepted == (eager_conf >= mc)
                        cases += 1
            if cases >= 500:
                break
        assert cases >= 500


def test_criterion_6_generalized_paths_keep_their_witness():
    with criterion(6, "every rule generalized from a sampled path has support"):
        rng = random.Random(8)
        cases = 0
        graphs = 0
        while cases < 500 and graphs < 400:
            kg = random_kg(rng)
            graphs += 1
            for _ in range(12):
                profile = PathProfile(rng.randrange(1, 3), bool(rng.randrange(2)))
                path = sample_path(kg, profile, rng)
                if path is None:
                    continue
                for rule in generalize(path):
                    assert brute_support(kg, rule, object_identity=True) >= 1
                    cases += 1
        assert cases >= 500


def test_criterion_6_anytime_rounds_only_add_rules():
    with criterion(6, "more sampling rounds never drop a mined rule"):
        cases = 0
        for g in range(170):
            kg = random_kg(random.Random(900 + g))
            previous = None
            for rounds in (1, 2, 3, 4):
                config = AnytimeConfig(
                    rounds=rounds,
                    round_samples=40,
                    min_support=1,
                    min_confidence=Fraction(1, 100),
                    seed=g,
                )
                got = {mr.rule for mr in mine_anytime(kg, config)}
                if previous is not None:
                    assert previous <= got
                    cases += 1
                previous = got
        assert cases >= 500


def _scale_kg():
    # planted two-hop composition r01 . r02 ~> r00 plus uniform noise
    rng = random.Random(0)
    n_entities, n_relations, n_facts = 10_000, 20, 100_000
    facts = set()
    while len(facts) < 30_000:
        x = rng.randrange(n_entities)
        z = rng.randrange(n_entities)
        y = rng.randrange(n_entities)
        facts.add((x, 1, z))
        facts.add((z, 2, y))
        if rng.random() < 0.9:
            facts.add((x, 0, y))
    while len(facts) < n_facts:
        facts.add(
            (
                rng.randrange(n_entities),
                rng.randrange(n_relations),
                rng.randrange(n_entities),
            )
        )
    facts = sorted(facts)[:n_facts]
    triples = [(f"e{s:05d}", f"r{r:02d}", f"e{o:05d}") for s, r, o in facts]
    return KnowledgeGraph.from_label_triples(triples)


def test_criterion_7_scale_smoke():
    with criterion(7, "default mining on 100k facts stays inside the budget"):
        kg = _scale_kg()
        assert len(kg.entities) == 10_000
        assert len(kg.relations) == 20
        assert sum(kg.fact_count(r) for r in range(len(kg.relations))) == 100_000
        t0 = time.perf_counter()
        mined = mine(kg, MinerConfig())
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        assert len(mined) >= 1
        rendered = {render_rule(mr.rule, kg) for mr in mined}
        assert "r02(?c, ?b) & r01(?a, ?c) => r00(?a, ?b)" in rendered


def test_criterion_8_greedy_selection_terminates_at_zero_weight(sample_kg):
    with criterion(8, "greedy rule selection improves every step and covers exactly"):
        speaks = sample_kg.relations.id("speaks")
        generation = frozenset(f for f in sample_kg.fact_list() if f[1] == speaks)
        examples = ExampleSets(generation, generate_negatives(sample_kg, "speaks"))
        rule_r = parse_rule(RULE_R, sample_kg)
        rule_r2 = parse_rule(
            "nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg
        )
        english = parse_rule("gender(?a, female) => speaks(?a, English)", sample_kg)
        blanket = parse_rule("worksFor(?a, ?c) => speaks(?a, ?b)", sample_kg)
        for alpha in (Fraction(1), Fraction(1, 2)):
            selected = select_rules_greedy(
                sample_kg, [rule_r, rule_r2, english], examples, alpha
            )
            weights = [
                rudik_weight(sample_kg, selected[:k], examples, alpha)
                for k in range(len(selected) + 1)
            ]
            assert all(b < a for a, b in zip(weights, weights[1:]))
            assert weights[-1] == 0
        # covers every negative too: its marginal never goes below zero
        assert select_rules_greedy(sample_kg, [blanket], examples, Fraction(1, 2)) == []

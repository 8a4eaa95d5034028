"""Bottom-up sampler: path sampling, generalization, anytime mining loop."""

import random
from fractions import Fraction

import pytest

import hornforge as hf
from hornforge import AnytimeConfig, GroundPath, PathProfile, generalize, mine_anytime, sample_path, saturation
from oracles import brute_support, random_kg


def canon(text, kg):
    return hf.canonicalize(hf.parse_rule(text, kg))


def eid(kg, label):
    return kg.entities.id(label)


def rid(kg, label):
    return kg.relations.id(label)


class TestPathProfile:
    def test_length_floor(self):
        with pytest.raises(ValueError, match="profile length must be at least 1"):
            PathProfile(0, True)

    def test_hashable(self):
        assert PathProfile(2, True) == PathProfile(2, True)
        assert len({PathProfile(1, True), PathProfile(1, False), PathProfile(1, True)}) == 2


class TestAnytimeConfig:
    def test_defaults(self):
        cfg = AnytimeConfig()
        assert cfg.rounds == 10
        assert cfg.round_samples == 500
        assert cfg.round_ms is None
        assert cfg.min_support == 2
        assert cfg.min_confidence == Fraction(1, 10)
        assert cfg.confidence_kind == "pca"
        assert cfg.saturation_threshold == Fraction(9, 10)
        assert cfg.start_length == 1
        assert cfg.max_length == 3
        assert cfg.object_identity is True
        assert cfg.seed == 0

    def test_fraction_coercion(self):
        cfg = AnytimeConfig(min_confidence=0.25, saturation_threshold="4/5")
        assert cfg.min_confidence == Fraction(1, 4)
        assert cfg.saturation_threshold == Fraction(4, 5)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(rounds=0), "rounds must be at least 1"),
            (dict(min_support=0), "min_support must be at least 1"),
            (dict(min_confidence=0), "min_confidence must lie"),
            (dict(min_confidence=2), "min_confidence must lie"),
            (dict(confidence_kind="cwa"), "unknown confidence kind"),
            (dict(saturation_threshold=0), "saturation_threshold must lie"),
            (dict(saturation_threshold=Fraction(11, 10)), "saturation_threshold must lie"),
            (dict(start_length=0), "start_length must be at least 1"),
            (dict(round_ms=-5), "round_ms must be at least 1"),
            (dict(start_length=9, max_length=None), "start_length must be at most 8"),
            (dict(max_length=9), "max_length must be at most 8"),
            (dict(max_length=0), "max_length must be at least 1"),
            (dict(round_samples=0), "round_samples must be at least 1"),
            (dict(round_samples=-3), "round_samples must be at least 1"),
            (dict(round_ms=0), "round_ms must be at least 1"),
            (dict(start_length=3, max_length=2), "start_length must be at most max_length"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AnytimeConfig(**kwargs)


class TestSamplePath:
    def test_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            sample_path(hf.load_triples(""), PathProfile(1, False), random.Random(0))

    def test_seed_determinism(self, sample_kg):
        a = sample_path(sample_kg, PathProfile(2, True), random.Random(5))
        b = sample_path(sample_kg, PathProfile(2, True), random.Random(5))
        assert a == b

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("cyclic", [True, False])
    def test_shape(self, sample_kg, length, cyclic):
        rng = random.Random(13)
        profile = PathProfile(length, cyclic)
        hits = 0
        for _ in range(300):
            path = sample_path(sample_kg, profile, rng)
            if path is None:
                continue
            hits += 1
            assert len(path.steps) == length + 1
            assert len(path.nodes) == length + 2
            assert path.is_cyclic == cyclic
            anchor_fact, _ = path.anchor
            assert anchor_fact in sample_kg.facts
            for fact, _inv in path.steps:
                assert fact in sample_kg.facts
            for fact, _inv in path.steps[1:]:
                assert fact != anchor_fact
            interior = path.nodes[:-1] if cyclic else path.nodes
            assert len(set(interior)) == len(interior)
        assert hits > 0

    def test_walk_revisits_allowed_without_object_identity(self, sample_kg):
        rng = random.Random(3)
        seen_revisit = False
        for _ in range(500):
            path = sample_path(sample_kg, PathProfile(2, False), rng, object_identity=False)
            if path is not None and len(set(path.nodes)) < len(path.nodes):
                seen_revisit = True
                break
        assert seen_revisit

    def test_census_finds_language_rule(self, sample_kg, rule_r):
        rng = random.Random(1)
        found = set()
        for _ in range(500):
            path = sample_path(sample_kg, PathProfile(2, True), rng)
            if path is not None:
                found.update(generalize(path))
        assert rule_r in found


class TestGeneralize:
    def test_cyclic_path_yields_one_closed_rule(self, sample_kg, rule_r):
        leyen, german, germany = (eid(sample_kg, x) for x in ("U.v.d._Leyen", "German", "Germany"))
        speaks, lang, born = (rid(sample_kg, x) for x in ("speaks", "officialLang", "birthCountry"))
        path = GroundPath(
            steps=(((leyen, speaks, german), False), ((germany, lang, german), True), ((leyen, born, germany), True)),
            nodes=(leyen, german, germany, leyen),
        )
        assert path.is_cyclic
        assert generalize(path) == [rule_r]

    def test_acyclic_path_yields_two_grounded_variants(self, sample_kg):
        leyen, eu, germany = (eid(sample_kg, x) for x in ("U.v.d._Leyen", "EU", "Germany"))
        works, born = (rid(sample_kg, x) for x in ("worksFor", "birthCountry"))
        path = GroundPath(
            steps=(((leyen, works, eu), True), ((leyen, born, germany), False)),
            nodes=(eu, leyen, germany),
        )
        assert not path.is_cyclic
        assert generalize(path) == [
            canon("birthCountry(?a, Germany) => worksFor(?a, EU)", sample_kg),
            canon("birthCountry(?a, ?b) => worksFor(?a, EU)", sample_kg),
        ]

    def test_variable_free_head_variant_dropped(self):
        kg = hf.KnowledgeGraph.from_label_triples([("x", "r", "y"), ("y", "s", "y")])
        x, y = eid(kg, "x"), eid(kg, "y")
        r, s = rid(kg, "r"), rid(kg, "s")
        path = GroundPath(steps=(((x, r, y), False), ((y, s, y), False)), nodes=(x, y, y))
        assert generalize(path) == [canon("s(?a, ?a) => r(x, ?a)", kg)]

    def test_generalized_rules_keep_their_witness(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(15):
            kg = random_kg(rng)
            if not kg.fact_list():
                continue
            for profile in (PathProfile(1, True), PathProfile(1, False), PathProfile(2, True), PathProfile(2, False)):
                for _ in range(25):
                    path = sample_path(kg, profile, rng)
                    if path is None:
                        continue
                    for rule in generalize(path):
                        assert brute_support(kg, rule, object_identity=True) >= 1
                        checked += 1
        assert checked > 100


class TestSaturation:
    def test_empty_round(self):
        assert saturation([], set()) == Fraction(1)

    def test_partial_overlap(self):
        stored = {"a", "b", "c"}
        assert saturation(["a", "b", "c", "d"], stored) == Fraction(3, 4)

    def test_all_new(self):
        assert saturation(["a", "b"], set()) == Fraction(0)


ANYTIME_GOLDEN = [
    ("nationality(?a, ?b) => birthCountry(?a, ?b)", 3, "1", "1", "1", "subject"),
    ("birthCountry(?a, ?b) => nationality(?a, ?b)", 3, "1", "1", "1", "subject"),
    ("birthCountry(?a, ?b) => worksFor(?a, EU)", 2, "1", "2/3", "1", "subject"),
    ("gender(?a, ?b) => worksFor(?a, EU)", 2, "1", "1", "1", "subject"),
    ("nationality(?a, ?b) => worksFor(?a, EU)", 2, "1", "2/3", "1", "subject"),
    ("speaks(?a, ?b) => worksFor(?a, EU)", 2, "1", "1", "1", "subject"),
]


def tuples(mined, kg):
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


class TestMineAnytime:
    def test_seeded_two_rounds(self, sample_kg):
        got = mine_anytime(sample_kg, AnytimeConfig(seed=42, rounds=2))
        assert tuples(got, sample_kg) == ANYTIME_GOLDEN

    def test_metrics_match_eager_evaluation(self, sample_kg):
        for m in mine_anytime(sample_kg, AnytimeConfig(seed=42, rounds=2)):
            assert m.metrics == hf.evaluate(sample_kg, m.rule, object_identity=True)

    def test_same_seed_same_output(self, sample_kg):
        cfg = dict(seed=7, rounds=3)
        a = mine_anytime(sample_kg, AnytimeConfig(**cfg))
        b = mine_anytime(sample_kg, AnytimeConfig(**cfg))
        assert [(m.rule, m.metrics) for m in a] == [(m.rule, m.metrics) for m in b]

    def test_more_rounds_never_lose_rules(self, sample_kg):
        sets = [
            {m.rule for m in mine_anytime(sample_kg, AnytimeConfig(seed=42, rounds=k))}
            for k in (1, 2, 3)
        ]
        assert sets[0] <= sets[1] <= sets[2]

    def test_unbounded_length_stops_at_canonical_cap(self, sample_kg, monkeypatch):
        # a threshold this low lets the walk length grow every round
        lengths = []
        real = hf.anyburl.generalize

        def spy(path):
            lengths.append(len(path.steps) - 1)
            return real(path)

        monkeypatch.setattr(hf.anyburl, "generalize", spy)
        cfg = AnytimeConfig(
            seed=1,
            rounds=12,
            round_samples=20,
            max_length=None,
            min_support=1,
            saturation_threshold=Fraction(1, 1000),
            object_identity=False,
        )
        mine_anytime(sample_kg, cfg)
        assert max(lengths) == 8

    def test_thresholds_respected(self, sample_kg):
        cfg = AnytimeConfig(seed=3, rounds=3)
        for m in mine_anytime(sample_kg, cfg):
            assert m.metrics.support >= cfg.min_support
            assert m.metrics.pca_confidence >= cfg.min_confidence

    def test_min_support_one(self, sample_kg):
        out = mine_anytime(sample_kg, AnytimeConfig(seed=3, rounds=2, min_support=1))
        assert out and all(m.metrics.support >= 1 for m in out)

    def test_time_budget_mode(self, sample_kg):
        out = mine_anytime(sample_kg, AnytimeConfig(seed=1, rounds=1, round_ms=30))
        assert all(m.metrics.support >= 2 for m in out)

    def test_empty_graph(self):
        with pytest.raises(ValueError, match="empty graph"):
            mine_anytime(hf.load_triples(""), AnytimeConfig(rounds=1, round_samples=5))


class TestGatedEvaluation:
    @pytest.mark.parametrize("min_support", [1, 3])
    @pytest.mark.parametrize("object_identity", [False, True])
    @pytest.mark.parametrize("kind", ["std", "pca"])
    def test_gated_equals_eager(self, kind, object_identity, min_support, monkeypatch):
        # every candidate of every round, eagerly evaluated, decides what
        # the gated miner must store; thresholds with small denominators
        # put denominators right at the lazy cutoff
        candidates = set()
        real = hf.anyburl.generalize

        def spy(path):
            rules = real(path)
            candidates.update(rules)
            return rules

        monkeypatch.setattr(hf.anyburl, "generalize", spy)
        rng = random.Random(f"gated/{kind}/{object_identity}/{min_support}")
        thresholds = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        accepted = rejected = 0
        for _ in range(30):
            kg = random_kg(rng)
            candidates.clear()
            cfg = AnytimeConfig(
                seed=rng.randrange(1000),
                rounds=3,
                round_samples=30,
                min_support=min_support,
                min_confidence=rng.choice(thresholds),
                confidence_kind=kind,
                max_length=2,
                object_identity=object_identity,
            )
            mined = mine_anytime(kg, cfg)
            eager = {
                rule: hf.evaluate(kg, rule, object_identity=object_identity) for rule in candidates
            }
            passing = {
                rule
                for rule, m in eager.items()
                if m.support >= min_support and m.confidence(kind) >= cfg.min_confidence
            }
            assert {m.rule for m in mined} == passing
            for m in mined:
                assert m.metrics == eager[m.rule]
            accepted += len(passing)
            rejected += len(candidates) - len(passing)
        assert accepted >= 20 and rejected >= 20

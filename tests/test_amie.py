"""Top-down miner: config validation, refinement operators, search output."""

import itertools
import random
from fractions import Fraction

import pytest

import hornforge as hf
from hornforge import MinerConfig, Rule, mine, parse_rule, refine_closing, refine_dangling, refine_instantiated, seed_rules
from hornforge.amie import _ancestors, _children, _viable_refinements, refine
from oracles import all_closed_rules, brute_embeds, brute_support, random_kg

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

    def test_witness_bound_keeps_every_child(self, sample_kg, monkeypatch):
        speaks_seed = next(
            s for s in seed_rules(sample_kg) if sample_kg.relations.label(s.head.relation) == "speaks"
        )
        cfg = MinerConfig(enable_instantiation=True)
        expected = refine_instantiated(sample_kg, speaks_seed, cfg)
        assert expected
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", 1)
        assert refine_instantiated(sample_kg, speaks_seed, cfg) == expected


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


def supported_parents(kg, config, levels):
    """Seeds plus `levels` generations of their refinements with support."""
    parents = frontier = seed_rules(kg)
    for _ in range(levels):
        frontier = [
            child
            for rule in frontier
            for child in refine(kg, rule, config)
            if brute_support(kg, child, config.object_identity) > 0
        ]
        parents = parents + frontier
    return parents


class TestWitnessSweep:
    """_viable_refinements against brute-force support of every child."""

    def check(self, kg, config, parents):
        """Pruning keeps exactly the closing children whose support reaches
        head coverage, each carrying that support, and exactly the
        supported dangling children, with no count.  Returns the number
        carried."""
        oi = config.object_identity
        n_carried = 0
        for rule in parents:
            counted = _viable_refinements(kg, rule, config)
            assert counted is not None
            kids = _children(rule, counted)
            floor = config.min_head_coverage * kg.fact_count(rule.head.relation)
            closing, dangling = refine_closing(kg, rule, config), refine_dangling(kg, rule, config)
            assert set(kids) <= set(closing) | set(dangling)
            want = {c: n for c in closing if (n := brute_support(kg, c, oi)) >= floor}
            assert {c: kids[c] for c in closing if c in kids} == want
            n_carried += len(want)
            pruned = [c for c in dangling if c in kids]
            assert all(kids[c] is None for c in pruned)
            supported = [c for c in dangling if brute_support(kg, c, oi) > 0]
            if oi:
                # a dangling witness may reuse an entity the child forbids
                assert set(supported) <= set(pruned)
            else:
                assert pruned == supported
        return n_carried

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_seeds_and_supported_children(self, object_identity):
        rng = random.Random(21)
        config = MinerConfig(object_identity=object_identity)
        carried = 0
        for _ in range(15):
            kg = random_kg(rng)
            carried += self.check(kg, config, supported_parents(kg, config, 1))
        assert carried > 0

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_three_atom_parents(self, object_identity):
        rng = random.Random(22)
        config = MinerConfig(max_len=4, object_identity=object_identity)
        three = 0
        for _ in range(6):
            kg = random_kg(rng, max_entities=5, max_relations=3, max_facts=14)
            parents = supported_parents(kg, config, 2)
            three += sum(len(p) == 3 for p in parents)
            self.check(kg, config, parents)
        assert three > 0

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_parents_with_a_constant(self, object_identity):
        rng = random.Random(23)
        config = MinerConfig(enable_instantiation=True, object_identity=object_identity)
        with_constant = carried = 0
        for _ in range(10):
            kg = random_kg(rng)
            parents = [
                child
                for seed in seed_rules(kg)
                for child in refine_instantiated(kg, seed, config)
                if brute_support(kg, child, object_identity) > 0
            ]
            with_constant += len(parents)
            carried += self.check(kg, config, parents)
        assert with_constant > 0
        assert carried > 0

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_overrun_prunes_nothing(self, sample_kg, monkeypatch, object_identity):
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", 1)
        config = MinerConfig(object_identity=object_identity)
        two_atom = canon("birthCountry(?a, ?c) => speaks(?a, ?b)", sample_kg)
        for rule in seed_rules(sample_kg) + [two_atom]:
            if hf.support(sample_kg, rule, object_identity) > 1:
                assert _viable_refinements(sample_kg, rule, config) is None

    @staticmethod
    def spy_mine(monkeypatch, kg, config):
        """Runs mine; returns its rules, {parent: its sweep's result}, and
        the (parent, children) pair _children built for each parent."""
        true_sweep, true_children = _viable_refinements, _children
        seen, built = {}, []

        def spy_sweep(kg_, rule, config_):
            seen[rule] = true_sweep(kg_, rule, config_)
            return seen[rule]

        def spy_children(rule, counted):
            kids = true_children(rule, counted)
            built.append((rule, kids))
            return kids

        with monkeypatch.context() as m:
            m.setattr(hf.amie, "_viable_refinements", spy_sweep)
            m.setattr(hf.amie, "_children", spy_children)
            mined = mine(kg, config)
        return mined, seen, built

    @pytest.mark.parametrize("limit", [0, 4])
    def test_overrun_never_carries_a_count(self, monkeypatch, limit):
        # a parent overruns when its sweep returns None: projections (object
        # identity) stops once the solutions pass the limit, the column join
        # once the rows of a partial join do
        loose = dict(min_head_coverage=TINY, min_confidence=TINY, enable_skyline=False)
        configs = [
            MinerConfig(**loose),
            MinerConfig(max_len=4, **loose),
            MinerConfig(object_identity=True, **loose),
        ]
        rng = random.Random(24)
        runs = [(random_kg(rng), config) for config in configs for _ in range(12)]
        expected = [mine(kg, config) for kg, config in runs]
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", limit)
        true_support = hf.amie.support
        n_over = n_fine = n_partial = 0
        for (kg, config), want in zip(runs, expected):
            oi = config.object_identity
            supported = set()

            def spy_support(kg_, rule, object_identity=False):
                supported.add(rule)
                return true_support(kg_, rule, object_identity)

            monkeypatch.setattr(hf.amie, "support", spy_support)
            mined, seen, built = self.spy_mine(monkeypatch, kg, config)
            assert mined == want
            over, counted = [], set()
            for p, kids in built:
                solutions = len(hf.enumerate_solutions(kg, p.atoms, oi))
                if seen[p] is not None:
                    assert solutions <= limit
                    carried = {child: n for child, n in kids.items() if n is not None}
                    for child, count in carried.items():
                        assert count == true_support(kg, child, oi), hf.render_rule(child, kg)
                        assert child not in supported, hf.render_rule(child, kg)
                    counted.update(carried)
                    n_fine += 1
                    continue
                over.append(p)
                assert all(n is None for n in kids.values())
                if len(p) <= 2 or oi:
                    assert solutions > limit
                elif solutions <= limit:
                    n_partial += 1
                    parts = [
                        part
                        for k in range(1, len(p))
                        for part in itertools.combinations(p.atoms, k)
                        if hf.is_connected(Rule(part[0], part[1:]))
                    ]
                    assert any(len(hf.enumerate_solutions(kg, part)) > limit for part in parts)
            for p in over:
                for child in refine_closing(kg, p, config):
                    assert child in supported or child in counted
            n_over += len(over)
        assert n_over > 0
        assert (n_fine > 0) == (limit > 0) == (n_partial > 0)

    def test_no_child_below_coverage_is_built(self, monkeypatch):
        config = MinerConfig(min_head_coverage=Fraction(1, 4), min_confidence=TINY)
        rng = random.Random(25)
        graphs = [random_kg(rng) for _ in range(20)]
        dropped = 0
        for kg in graphs:
            _, seen, built = self.spy_mine(monkeypatch, kg, config)
            for rule, kids in built:
                assert seen[rule] is not None
                floor = config.min_head_coverage * kg.fact_count(rule.head.relation)
                supports = {c: brute_support(kg, c) for c in refine_closing(kg, rule, config)}
                want = {c: n for c, n in supports.items() if n >= floor}
                assert {c: kids[c] for c in supports if c in kids} == want, hf.render_rule(rule, kg)
                dropped += sum(0 < n < floor for n in supports.values())
        assert dropped > 0
        # an overrun parent still builds every closing child, with no support
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", 0)
        n_kids = 0
        for kg in graphs:
            _, seen, built = self.spy_mine(monkeypatch, kg, config)
            for rule, kids in built:
                assert seen[rule] is None
                closing = refine_closing(kg, rule, config)
                assert all(kids[c] is None for c in closing)
                n_kids += len(closing)
        assert n_kids > 0

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_overrun_builds_every_child(self, monkeypatch, object_identity):
        # with no witness to prune by, a parent builds every child of the
        # three operators, and carries no count
        config = MinerConfig(
            max_len=4,
            min_head_coverage=TINY,
            min_confidence=TINY,
            enable_instantiation=True,
            object_identity=object_identity,
        )
        rng = random.Random(26)
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", 0)
        n_parents = with_constant = 0
        for _ in range(6):
            kg = random_kg(rng, max_entities=5, max_relations=3, max_facts=12)
            _, seen, built = self.spy_mine(monkeypatch, kg, config)
            for rule, kids in built:
                assert seen[rule] is None
                want = set(refine_closing(kg, rule, config))
                want |= set(refine_dangling(kg, rule, config))
                instantiated = refine_instantiated(kg, rule, config)
                want |= set(instantiated)
                assert set(kids) == want, hf.render_rule(rule, kg)
                assert all(n is None for n in kids.values())
                n_parents += 1
                with_constant += bool(instantiated)
        assert n_parents > 0 and with_constant > 0


def random_rule(rng, kg, max_body):
    """A canonical rule with a two-variable head and up to max_body random
    body atoms over its variables, a fresh variable or a constant."""
    rels, ents = len(kg.relations), len(kg.entities)
    n_vars = 2
    body = []
    for _ in range(rng.randint(0, max_body)):
        terms = []
        for _ in range(2):
            pick = rng.random()
            if pick < 0.15:
                terms.append(hf.const(rng.randrange(ents)))
            elif pick < 0.4:
                terms.append(hf.var(n_vars))
                n_vars += 1
            else:
                terms.append(hf.var(rng.randrange(n_vars)))
        body.append(hf.Atom(rng.randrange(rels), *terms))
    return hf.canonicalize(hf.Rule(hf.Atom(rng.randrange(rels), hf.var(0), hf.var(1)), tuple(body)))


def witness_values(kg, rule, v):
    """Values of variable v over every substitution satisfying all of the
    rule's atoms, by enumeration."""
    facts = set(kg.fact_list())
    vs = rule.variables()
    out = set()
    for combo in itertools.product(range(len(kg.entities)), repeat=len(vs)):
        sub = dict(zip(vs, combo))

        def value(t):
            return sub[t.index] if t.is_var else t.index

        if all((value(a.subject), a.relation, value(a.object)) in facts for a in rule.atoms):
            out.add(sub[v])
    return out


class TestClosability:
    """Each operator keeps exactly the canonical children that can still
    close: at most twice as many open variables as atoms left to add."""

    @staticmethod
    def reference(kg, rule, op, max_len):
        vs = rule.variables()
        fresh = hf.var(max(vs) + 1)
        rels = range(len(kg.relations))
        if op is refine_dangling:
            atoms = [a for v in vs for r in rels for a in (hf.Atom(r, hf.var(v), fresh), hf.Atom(r, fresh, hf.var(v)))]
        elif op is refine_closing:
            atoms = [hf.Atom(r, hf.var(a), hf.var(b)) for a in vs for b in vs if a != b for r in rels]
        else:
            atoms = []
            for v in vs:
                for val in witness_values(kg, rule, v):
                    for s, r, o in kg.fact_list():
                        if s == val:
                            atoms.append(hf.Atom(r, hf.var(v), hf.const(o)))
                        if o == val:
                            atoms.append(hf.Atom(r, hf.const(s), hf.var(v)))
        children = {hf.canonicalize(hf.Rule(rule.head, rule.body + (a,))) for a in atoms if a not in rule.atoms}
        keep = [c for c in children if len(hf.open_variables(c)) <= 2 * (max_len - len(c))]
        return sorted(keep, key=hf.sort_key)

    @pytest.mark.parametrize("max_len", [3, 4, 5])
    def test_operators_match_reference(self, max_len):
        rng = random.Random(40 + max_len)
        config = MinerConfig(max_len=max_len, enable_instantiation=True)
        cut = 0
        for _ in range(8):
            kg = random_kg(rng, max_entities=4, max_relations=3, max_facts=12)
            for _ in range(6):
                rule = random_rule(rng, kg, max_len - 1)
                for op in (refine_dangling, refine_closing, refine_instantiated):
                    want = self.reference(kg, rule, op, max_len)
                    assert op(kg, rule, config) == want, (op.__name__, hf.render_rule(rule, kg))
                    cut += len(self.reference(kg, rule, op, 99)) - len(want)
        assert cut > 0


class TestAncestors:
    """_ancestors lists exactly the canonical rules that embed into a rule
    with a shorter, non-empty body."""

    def test_matches_brute_force_embedding(self):
        rng = random.Random(51)
        config = MinerConfig(max_len=4, enable_instantiation=True)
        true_cases = with_constant = two_atom_part = 0
        for _ in range(3):
            kg = random_kg(rng, max_entities=3, max_relations=2, max_facts=6)
            rules = set()
            for seed in seed_rules(kg):
                for child in refine(kg, seed, config):
                    rules.add(child)
                    rules.update(refine(kg, child, config))
            # three-atom bodies, whose two-atom parts are ancestors too
            two = sorted((r for r in rules if len(r.body) == 2), key=hf.sort_key)
            for parent in rng.sample(two, min(3, len(two))):
                rules.update(refine(kg, parent, config))
            rules = sorted(rules, key=hf.sort_key)
            for cand in rules:
                ancestors = set(_ancestors(cand))
                for anc in rules:
                    want = 0 < len(anc.body) < len(cand.body) and brute_embeds(anc, cand)
                    assert (anc in ancestors) == want, (hf.render_rule(anc, kg), hf.render_rule(cand, kg))
                    true_cases += want
                    with_constant += want and any(not t.is_var for a in anc.body for t in a.terms)
                    two_atom_part += want and len(anc.body) == 2
        assert true_cases > 0 and with_constant > 0 and two_atom_part > 0


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

    @pytest.mark.parametrize("object_identity", [False, True])
    def test_threshold_grid_matches_exhaustive_enumeration(self, object_identity):
        rng = random.Random(10)
        for _ in range(25):
            kg = random_kg(rng)
            supports = {r: brute_support(kg, r, object_identity) for r in all_closed_rules(kg)}
            for t in (TINY, Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                config = MinerConfig(
                    min_head_coverage=t,
                    min_confidence=TINY,
                    enable_skyline=False,
                    object_identity=object_identity,
                )
                got = {m.rule for m in mine(kg, config)}
                want = {
                    r
                    for r, n in supports.items()
                    if n >= 1 and n >= t * kg.fact_count(r.head.relation)
                }
                assert got == want, (t, sorted(hf.render_rule(r, kg) for r in got ^ want))

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

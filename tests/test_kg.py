import importlib.util
import io
import itertools
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from hornforge import (
    Atom,
    GraphParseError,
    Interner,
    KnowledgeGraph,
    Rule,
    adjacency_matrix,
    apply_rule,
    complete,
    const,
    covered,
    cwa_body_size,
    dump_triples,
    evaluate,
    generate_negatives,
    head_coverage,
    is_connected,
    load_triples,
    pca_body_size,
    projections,
    support,
    var,
)
from oracles import all_chain_rules, brute_support, random_kg

_KG_MEMORY = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "kg_memory.py"


class TestLoading:
    def test_fixture_shape(self, sample_kg):
        assert len(sample_kg.entities) == 11
        assert len(sample_kg.relations) == 6
        assert len(sample_kg.fact_list()) == 15

    def test_empty_input(self):
        kg = load_triples("")
        assert len(kg.entities) == 0 and len(kg.fact_list()) == 0

    def test_duplicates_collapse(self):
        kg = load_triples("a\tr\tb\na\tr\tb\na\tr\tb\n")
        assert len(kg.fact_list()) == 1

    def test_comments_and_blank_lines_skipped(self):
        kg = load_triples("# header\n\na\tr\tb\n  # indented comment\n")
        assert len(kg.fact_list()) == 1

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_triples("a\tr\tb\na\tb\n")

    def test_empty_field_reports_line(self):
        with pytest.raises(GraphParseError, match="line 1"):
            load_triples("a\t \tb\n")

    def test_line_order_irrelevant(self, sample_kg):
        lines = [f"{s}\t{r}\t{o}" for s, r, o in sample_kg.iter_label_triples()]
        shuffled = list(lines)
        random.Random(3).shuffle(shuffled)
        a = load_triples("\n".join(lines) + "\n")
        b = load_triples("\n".join(shuffled) + "\n")
        assert set(a.iter_label_triples()) == set(b.iter_label_triples())

    def test_dump_round_trips(self, sample_kg):
        buf = io.StringIO()
        dump_triples(sample_kg, buf)
        again = load_triples(buf.getvalue())
        assert set(again.iter_label_triples()) == set(sample_kg.iter_label_triples())


class TestInterner:
    def test_bijection(self, sample_kg):
        for label in sample_kg.entities.labels():
            assert sample_kg.entities.label(sample_kg.entities.id(label)) == label

    def test_unknown_lookups(self, sample_kg):
        assert sample_kg.entities.get("Atlantis") is None
        with pytest.raises(KeyError):
            sample_kg.entities.id("Atlantis")
        assert "Atlantis" not in sample_kg.entities
        assert "E._Macron" in sample_kg.entities


class TestIndexes:
    def test_match_atom_unbound(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        got = {
            (sub[0], sub[1])
            for sub in sample_kg.match_atom(Atom(speaks, var(0), var(1)))
        }
        expect = {
            (sample_kg.entities.id("U.v.d._Leyen"), sample_kg.entities.id("English")),
            (sample_kg.entities.id("U.v.d._Leyen"), sample_kg.entities.id("German")),
            (sample_kg.entities.id("E._Macron"), sample_kg.entities.id("French")),
        }
        assert got == expect

    def test_match_atom_bound_subject(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        macron = sample_kg.entities.id("E._Macron")
        got = list(sample_kg.match_atom(Atom(speaks, var(0), var(1)), {0: macron}))
        assert got == [{0: macron, 1: sample_kg.entities.id("French")}]

    def test_match_atom_unmatchable(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        germany = sample_kg.entities.id("Germany")
        assert list(sample_kg.match_atom(Atom(speaks, var(0), var(1)), {0: germany})) == []
        for unknown in (-1, len(sample_kg.relations)):
            assert list(sample_kg.match_atom(Atom(unknown, var(0), var(1)))) == []

    def test_has_pair_and_fact_count(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        assert sample_kg.fact_count(speaks) == 3
        assert sample_kg.has_pair(
            speaks, sample_kg.entities.id("E._Macron"), sample_kg.entities.id("French")
        )
        assert not sample_kg.has_pair(
            speaks, sample_kg.entities.id("A._Merkel"), sample_kg.entities.id("German")
        )

    def test_iteration_order(self):
        rng = random.Random(29)
        for _ in range(30):
            kg = random_kg(rng, max_entities=10, max_relations=5, max_facts=60)
            facts = sorted(kg.facts)
            assert kg.fact_list() == tuple(facts)
            entities, relations = range(len(kg.entities)), range(len(kg.relations))
            for r in relations:
                assert kg.pairs(r) == [(s, o) for s, rr, o in facts if rr == r]
                for e in entities:
                    assert list(kg.objects_of(r, e)) == [o for s, rr, o in facts if (s, rr) == (e, r)]
                    assert list(kg.subjects_of(r, e)) == sorted(s for s, rr, o in facts if (rr, o) == (r, e))
            for e in entities:
                assert list(kg.out_edges(e)) == sorted((r, o) for s, r, o in facts if s == e)
                # in fact order: by subject, then relation
                assert list(kg.in_edges(e)) == [(r, s) for s, r, o in facts if o == e]

    def test_views_agree_with_fact_list(self):
        rng = random.Random(37)
        for _ in range(30):
            n_e, n_r = rng.randint(2, 7), rng.randint(1, 4)
            entities, relations = Interner(), Interner()
            for i in range(n_e + 1):  # the last entity has no facts
                entities.intern(f"e{i}")
            for i in range(n_r + 1):  # nor has the last relation
                relations.intern(f"r{i}")
            facts = {(rng.randrange(n_e), rng.randrange(n_r), rng.randrange(n_e)) for _ in range(30)}
            facts |= {(e, rng.randrange(n_r), e) for e in rng.sample(range(n_e), 2)}
            kg = KnowledgeGraph(entities, relations, facts)
            for r in range(n_r + 1):
                pairs = [(s, o) for s, rr, o in kg.fact_list() if rr == r]
                assert kg.pairs(r) == pairs and kg.fact_count(r) == len(pairs)
                for s, o in itertools.product(range(n_e + 1), repeat=2):
                    assert kg.has_pair(r, s, o) == ((s, o) in pairs)
                if pairs:
                    st = kg.relation_stats(r)
                    assert (st.fact_count, st.distinct_subjects, st.distinct_objects) == (
                        len(pairs), len({s for s, _ in pairs}), len({o for _, o in pairs})
                    )
                else:
                    with pytest.raises(ValueError, match="no facts"):
                        kg.relation_stats(r)
                reflexive = [sub[0] for sub in kg.match_atom(Atom(r, var(0), var(0)))]
                assert reflexive == [s for s, o in pairs if s == o]
                cols, (subjects, objects) = kg.index_join([Atom(r, var(0), var(1))])
                assert cols == (0, 1) and list(zip(subjects.tolist(), objects.tolist())) == pairs
                # the list is the caller's: changing it changes no view of the graph
                kg.pairs(r).append((n_e, n_e))
                assert kg.fact_count(r) == len(pairs) and not kg.has_pair(r, n_e, n_e)
                assert kg.pairs(r) == pairs

    def test_linked_head_counts(self):
        # every (e, o) pair twice per row, in two row orders, with few
        # distinct head keys so that rows repeat heads: the count is of
        # distinct heads, not of rows
        rng = random.Random(30)
        for _ in range(30):
            kg = random_kg(rng, max_entities=10, max_relations=5, max_facts=60)
            entities, relations = range(len(kg.entities)), range(len(kg.relations))
            pairs = list(itertools.product(entities, repeat=2)) * 2
            rng.shuffle(pairs)
            table = [pairs, pairs[::-1]]
            a = np.array([[e for e, _ in row] for row in table], np.int64)
            b = np.array([[o for _, o in row] for row in table], np.int64)
            heads = [rng.randrange(5) for _ in pairs]
            brute = {}
            for i, row in enumerate(table):
                for r in relations:
                    linked = {h for (e, o), h in zip(row, heads) if kg.has_pair(r, e, o)}
                    if linked:
                        brute[i, r] = len(linked)
            assert kg.linked_head_counts(a, b, np.array(heads, np.int64)) == brute
            empty = np.empty((1, 0), np.int64)
            assert kg.linked_head_counts(empty, empty, np.empty(0, np.int64)) == {}

    def test_incident_relations(self):
        rng = random.Random(32)
        for _ in range(30):
            kg = random_kg(rng, max_entities=10, max_relations=5, max_facts=60)
            facts = kg.fact_list()
            values = [rng.randrange(len(kg.entities)) for _ in range(rng.randint(0, 6))]
            out_rels, in_rels = kg.incident_relations(np.array(values, np.int64))
            assert out_rels == sorted({r for s, r, o in facts if s in values})
            assert in_rels == sorted({r for s, r, o in facts if o in values})

    def test_has_endpoints(self):
        rng = random.Random(33)
        for _ in range(30):
            kg = random_kg(rng, max_entities=10, max_relations=5, max_facts=60)
            values = np.array([rng.randrange(len(kg.entities)) for _ in range(20)], np.int64)
            for r in range(len(kg.relations)):
                subjects, objects = kg.has_endpoints(r, values, "subject"), kg.has_endpoints(r, values, "object")
                assert subjects.tolist() == [kg.has_subject(r, v) for v in values.tolist()]
                assert objects.tolist() == [kg.has_object(r, v) for v in values.tolist()]

    def test_count_facts_among(self):
        # rows repeat, so a fact met twice must still count once
        rng = random.Random(35)
        for _ in range(30):
            kg = random_kg(rng, max_entities=10, max_relations=5, max_facts=60)
            facts, n = kg.fact_list(), len(kg.entities)
            rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 30))]
            rows += [rng.choice(facts)[::2] for _ in range(5)] * 2
            rng.shuffle(rows)
            subjects = np.array([s for s, _ in rows], np.int64)
            objects = np.array([o for _, o in rows], np.int64)
            for r in range(len(kg.relations)):
                pairs = [(s, o) for s, rr, o in facts if rr == r]
                assert kg.count_facts_among(r, subjects, objects) == sum(f in rows for f in pairs)
                assert kg.count_facts_among(r, subjects) == sum(s in subjects for s, _ in pairs)
                assert kg.count_facts_among(r, None, objects) == sum(o in objects for _, o in pairs)
                assert kg.count_facts_among(r) == len(pairs)

    @staticmethod
    def join_rows(kg, atoms, cutoff=None):
        """index_join's columns as sorted rows, each as a tuple in its
        variables' order; None when the columns are cut off."""
        cols, columns = kg.index_join(atoms, cutoff)
        if columns is None:
            return cols, None
        assert len(columns) == len(cols)
        assert all(c.dtype == np.int64 and c.size == columns[0].size for c in columns)
        return cols, sorted(zip(*(c.tolist() for c in columns)))

    @staticmethod
    def brute_rows(kg, atoms, cols):
        """Every substitution of the atoms' variables that makes them all
        facts, as a tuple in `cols` order, sorted."""
        vs = sorted({v for atom in atoms for v in atom.variables()})
        assert sorted(cols) == vs
        subs = [dict(zip(vs, c)) for c in itertools.product(range(len(kg.entities)), repeat=len(vs))]
        return sorted(
            tuple(sub[v] for v in cols)
            for sub in subs
            if all(kg.has_pair(t.relation, sub[t.subject.index], sub[t.object.index]) for t in atoms)
        )

    A, B, C, D = var(0), var(1), var(2), var(3)
    ACCEPTED = [
        [(0, A, B)],
        [(0, B, A)],
        [(0, A, C), (1, C, B)],
        [(0, A, C), (1, B, C)],
        [(0, C, A), (1, C, B)],
        [(0, C, A), (1, B, C)],
        [(0, A, B), (1, A, C)],
        [(0, A, B), (1, B, A)],
    ]
    # both atoms over one relation: a chain, a fork, a sink, a closed pair
    # and a repeated atom
    SELF_JOINS = [
        [(0, A, C), (0, C, B)],
        [(0, C, A), (0, C, B)],
        [(0, A, C), (0, B, C)],
        [(0, A, B), (0, B, A)],
        [(0, A, B), (0, A, B)],
    ]
    # three and four atoms: chains, cycles, a fork, a closed pair plus a
    # dangling atom, one relation throughout, a repeated atom, and an
    # input order whose second atom shares no variable with the first
    LONGER = [
        [(0, A, C), (1, C, D), (0, D, B)],
        [(1, A, C), (0, C, D), (1, B, D), (0, B, A)],
        [(0, A, B), (1, B, C), (0, C, A)],
        [(0, A, B), (1, B, C), (0, C, D), (1, D, A)],
        [(0, A, B), (1, A, C), (0, D, A)],
        [(0, A, B), (1, B, A), (1, B, C)],
        [(0, A, B), (1, B, A), (0, A, C), (1, D, C)],
        [(0, A, B), (0, B, C), (0, C, D)],
        [(0, A, B), (1, B, C), (0, A, B)],
        [(0, A, B), (1, C, D), (0, B, C)],
    ]

    def test_index_join_rows_are_the_solutions(self):
        a, b, c = self.A, self.B, self.C
        rejected = [
            [],
            [(0, a, const(0))],
            [(0, a, b), (1, b, c), (0, c, const(0))],
            [(0, a, a)],
            [(0, a, b), (1, c, var(3))],
            [(0, a, b), (1, b, c), (0, var(3), var(4))],
        ]
        rng = random.Random(31)
        for _ in range(20):
            kg = random_kg(rng, max_entities=6, max_relations=2, max_facts=30)
            n_rel = len(kg.relations)
            for shape in self.ACCEPTED + self.SELF_JOINS + self.LONGER:
                atoms = [Atom(r % n_rel, s, o) for r, s, o in shape]
                cols, rows = self.join_rows(kg, atoms)
                assert rows == self.brute_rows(kg, atoms, cols)
            for shape in rejected:
                assert kg.index_join([Atom(r % n_rel, s, o) for r, s, o in shape]) is None

    def test_index_join_over_a_relation_without_facts(self):
        entities, relations = Interner(), Interner()
        for label in ("e0", "e1", "e2"):
            entities.intern(label)
        p, q, empty = (relations.intern(label) for label in ("p", "q", "empty"))
        kg = KnowledgeGraph(entities, relations, {(0, p, 1), (1, q, 2), (1, p, 1)})
        for shape in self.ACCEPTED + self.SELF_JOINS + self.LONGER:
            for other, at in itertools.product((empty, q), range(len(shape))):
                # the empty relation at one position, `other` at the rest
                atoms = [Atom(empty if k == at else other, s, o) for k, (_, s, o) in enumerate(shape)]
                cols, rows = self.join_rows(kg, atoms)
                assert rows == [] == self.brute_rows(kg, atoms, cols)
                assert self.join_rows(kg, atoms, 0) == (cols, [])
        a, b = np.array([[0, 1, 1]], np.int64), np.array([[1, 2, 1]], np.int64)
        assert kg.linked_head_counts(a, b, np.zeros(3, np.int64)) == {(0, p): 1, (0, q): 1}
        assert kg.incident_relations(np.array([0, 1, 2], np.int64)) == ([p, q], [p, q])
        assert not kg.has_endpoints(empty, np.array([0, 1, 2], np.int64), "subject").any()
        subjects, objects = np.array([0, 1, 1, 0], np.int64), np.array([1, 1, 1, 2], np.int64)
        assert kg.count_facts_among(p, subjects, objects) == 2
        assert kg.count_facts_among(q, subjects, objects) == 0
        assert kg.count_facts_among(q, None, objects) == 1
        assert kg.count_facts_among(empty, subjects, objects) == 0
        assert kg.count_facts_among(empty, subjects) == kg.count_facts_among(empty, None, objects) == 0

    def test_index_join_cutoff(self):
        # columns are None exactly when the rows number more than cutoff
        rng = random.Random(34)
        cut = kept = 0
        for _ in range(20):
            kg = random_kg(rng, max_entities=6, max_relations=2, max_facts=30)
            n_rel = len(kg.relations)
            for shape in self.ACCEPTED + self.SELF_JOINS:
                atoms = [Atom(r % n_rel, s, o) for r, s, o in shape]
                cols, rows = self.join_rows(kg, atoms)
                for cutoff in {0, len(rows) - 1, len(rows), len(rows) + 1} - {-1}:
                    got = self.join_rows(kg, atoms, cutoff)
                    if len(rows) > cutoff:
                        assert got == (cols, None)
                        cut += 1
                    else:
                        assert got == (cols, rows)
                        kept += 1
        assert cut > 0 and kept > 0

    def test_index_join_cutoff_on_longer_joins(self):
        # more solutions than cutoff always cut; columns, when returned, are
        # the solutions; a cut means some connected part of the conjunction,
        # the partial join that stopped, has more than cutoff solutions
        rng = random.Random(35)
        cut = kept = partial = 0
        for _ in range(12):
            kg = random_kg(rng, max_entities=5, max_relations=2, max_facts=25)
            n_rel = len(kg.relations)
            for shape in self.LONGER:
                atoms = [Atom(r % n_rel, s, o) for r, s, o in shape]
                cols, rows = self.join_rows(kg, atoms)
                parts = [
                    part
                    for k in range(1, len(atoms) + 1)
                    for part in itertools.combinations(atoms, k)
                    if is_connected(Rule(part[0], part[1:]))
                ]
                worst = max(
                    len(self.brute_rows(kg, part, sorted({v for t in part for v in t.variables()})))
                    for part in parts
                )
                for cutoff in {0, len(rows) - 1, len(rows), len(rows) + 1, worst - 1, worst} - {-1}:
                    got = self.join_rows(kg, atoms, cutoff)
                    assert got[0] == cols
                    if got[1] is None:
                        assert worst > cutoff
                        cut += 1
                        partial += len(rows) <= cutoff
                    else:
                        assert len(rows) <= cutoff and got[1] == rows
                        kept += 1
        assert cut > 0 and kept > 0 and partial > 0


class TestRelationId:
    ENTRY_POINTS = {
        "relation_stats": lambda kg, r: kg.relation_stats(r),
        "select_relevant_subgraph": lambda kg, r: kg.select_relevant_subgraph(r, 2),
        "complete": lambda kg, r: complete(kg, [], r, subject=0),
        "generate_negatives": generate_negatives,
        "adjacency_matrix": adjacency_matrix,
    }

    def test_label_or_id(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        assert sample_kg.relation_id("speaks") == speaks
        assert sample_kg.relation_id(speaks) == speaks

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_out_of_range_id_rejected(self, sample_kg, entry):
        for bad in (-1, len(sample_kg.relations)):
            with pytest.raises(ValueError, match="unknown relation"):
                self.ENTRY_POINTS[entry](sample_kg, bad)
        # a relation interned after the graph was built, by id and by label
        kg = KnowledgeGraph.from_label_triples(sample_kg.iter_label_triples())
        for bad in (kg.relations.intern("late"), "late"):
            with pytest.raises(ValueError, match="unknown relation"):
                self.ENTRY_POINTS[entry](kg, bad)

    RULE_ENTRY_POINTS = {
        "support": support,
        "support, object identity": lambda kg, rule: support(kg, rule, object_identity=True),
        "head_coverage": head_coverage,
        "cwa_body_size": cwa_body_size,
        "pca_body_size": pca_body_size,
        "pca_body_size, subject": lambda kg, rule: pca_body_size(kg, rule, "subject"),
        "evaluate": evaluate,
        "evaluate, object": lambda kg, rule: evaluate(kg, rule, "object"),
        "projections": lambda kg, rule: projections(kg, rule.atoms, rule.head_variables()),
        "index_join": lambda kg, rule: kg.index_join([rule.head, rule.body[-1]]),
        "apply_rule": lambda kg, rule: apply_rule(kg, rule, confidence=1),
        "covered": lambda kg, rule: covered(kg, [rule], kg.fact_list()),
    }

    @pytest.mark.parametrize("position", ["head", "body"])
    @pytest.mark.parametrize("bad", [-1, 2, "late"], ids=["-1", "len(relations)", "interned later"])
    @pytest.mark.parametrize("entry", sorted(RULE_ENTRY_POINTS))
    def test_out_of_range_atom_relation_rejected(self, entry, bad, position):
        # without the check the column and the generic join read different
        # relations for -1, and len(relations) fails inside numpy; a relation
        # interned after the graph was built has no index either
        kg = KnowledgeGraph.from_label_triples([("a", "p", "b"), ("b", "q", "c"), ("b", "p", "c")])
        if bad == "late":
            bad = kg.relations.intern("late")
        p = kg.relation_id("p")
        a, b, c = var(0), var(1), var(2)
        if position == "head":
            rule = Rule(Atom(bad, a, b), (Atom(p, a, c), Atom(p, c, b)))
        else:
            rule = Rule(Atom(p, a, b), (Atom(p, a, c), Atom(bad, c, b)))
        with pytest.raises(ValueError, match="unknown relation"):
            self.RULE_ENTRY_POINTS[entry](kg, rule)

    ACCESSORS = {
        "fact_count": lambda kg, r: kg.fact_count(r),
        "pairs": lambda kg, r: kg.pairs(r),
        "objects_of": lambda kg, r: kg.objects_of(r, kg.entity_id("b")),
        "subjects_of": lambda kg, r: kg.subjects_of(r, kg.entity_id("b")),
        "subjects": lambda kg, r: kg.subjects(r),
        "objects": lambda kg, r: kg.objects(r),
        "has_subject": lambda kg, r: kg.has_subject(r, kg.entity_id("b")),
        "has_object": lambda kg, r: kg.has_object(r, kg.entity_id("b")),
        "count_facts_among": lambda kg, r: kg.count_facts_among(r),
        "count_facts_among, subjects": lambda kg, r: kg.count_facts_among(r, np.arange(3)),
        "has_endpoints": lambda kg, r: kg.has_endpoints(r, np.arange(3), "object"),
    }

    @pytest.mark.parametrize(
        "bad", [-1, 2, "late id", "late"], ids=["-1", "len(relations)", "interned later", "its label"]
    )
    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    def test_accessor_rejects_out_of_range_id(self, accessor, bad):
        # unchecked, -1 reads q's facts and len(relations) raises IndexError;
        # for a relation interned after the graph was built, has_endpoints
        # returned an all-False mask
        kg = KnowledgeGraph.from_label_triples([("a", "p", "b"), ("b", "q", "c"), ("b", "p", "c")])
        assert len(kg.relations) == 2
        self.ACCESSORS[accessor](kg, kg.relation_id("q"))
        if bad in ("late id", "late"):
            late = kg.relations.intern("late")
            bad = late if bad == "late id" else bad
        with pytest.raises(ValueError, match="unknown relation"):
            self.ACCESSORS[accessor](kg, bad)


class TestRelationStats:
    def test_speaks(self, sample_kg):
        st = sample_kg.relation_stats("speaks")
        assert st.fact_count == 3
        assert st.functionality == Fraction(2, 3)
        assert st.inverse_functionality == 1

    def test_birth_country_fully_functional(self, sample_kg):
        assert sample_kg.relation_stats("birthCountry").functionality == 1

    def test_singleton_relation(self):
        kg = load_triples("a\tr\tb\n")
        st = kg.relation_stats("r")
        assert st.functionality == 1 and st.inverse_functionality == 1

    def test_empty_relation_rejected(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        sub = sample_kg.select_relevant_subgraph(speaks, 2)
        with pytest.raises(ValueError, match="undefined functionality"):
            sub.relation_stats("gender")

    def test_unknown_relation_rejected(self, sample_kg):
        with pytest.raises(ValueError, match="unknown relation"):
            sample_kg.relation_stats("bogus")

    def test_counts_rederivable_from_facts(self, sample_kg):
        for label in sample_kg.relations.labels():
            r = sample_kg.relations.id(label)
            st = sample_kg.relation_stats(r)
            facts = [(s, o) for s, rr, o in sample_kg.fact_list() if rr == r]
            assert st.fact_count == len(facts)
            assert st.distinct_subjects == len({s for s, _ in facts})
            assert st.distinct_objects == len({o for _, o in facts})


class TestRelevantSubgraph:
    def test_depth_two_keeps_only_head_facts(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 2)
        assert sorted(sub.iter_label_triples()) == [
            ("E._Macron", "speaks", "French"),
            ("U.v.d._Leyen", "speaks", "English"),
            ("U.v.d._Leyen", "speaks", "German"),
        ]

    def test_depth_three_drops_exactly_the_merkel_facts(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 3)
        dropped = set(sample_kg.iter_label_triples()) - set(sub.iter_label_triples())
        assert dropped == {
            ("A._Merkel", "nationality", "Germany"),
            ("A._Merkel", "birthCountry", "Germany"),
        }

    def test_large_depth_is_identity(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 6)
        assert set(sub.iter_label_triples()) == set(sample_kg.iter_label_triples())

    def test_depth_below_two_rejected(self, sample_kg):
        with pytest.raises(ValueError):
            sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 1)

    def test_absent_head_relation_yields_empty(self, sample_kg):
        speaks = sample_kg.relations.id("speaks")
        sub = sample_kg.select_relevant_subgraph(speaks, 2)
        gone = sub.select_relevant_subgraph(sample_kg.relations.id("gender"), 3)
        assert len(gone.fact_list()) == 0

    def test_shares_interners(self, sample_kg):
        sub = sample_kg.select_relevant_subgraph(sample_kg.relations.id("speaks"), 3)
        assert sub.entities is sample_kg.entities
        assert sub.relations is sample_kg.relations

    def test_monotone_in_depth(self):
        rng = random.Random(11)
        for _ in range(30):
            kg = random_kg(rng)
            r = rng.randrange(len(kg.relations))
            prev = set()
            for depth in (2, 3, 4):
                cur = set(kg.select_relevant_subgraph(r, depth).fact_list())
                assert prev <= cur
                prev = cur

    def test_support_preserved_for_chain_rules(self):
        # facts outside the relevant subgraph never contribute to support
        rng = random.Random(23)
        for _ in range(30):
            kg = random_kg(rng)
            for rule in all_chain_rules(kg):
                sub = kg.select_relevant_subgraph(rule.head.relation, 3)
                assert support(sub, rule) == brute_support(kg, rule)


class TestAdjacency:
    def test_nnz_matches_fact_count(self, sample_kg):
        from hornforge import adjacency_matrix

        for label in sample_kg.relations.labels():
            r = sample_kg.relations.id(label)
            assert adjacency_matrix(sample_kg, r).nnz == sample_kg.fact_count(r)

    def test_empty_relation_is_zero_matrix(self, sample_kg):
        from hornforge import adjacency_matrix

        speaks = sample_kg.relations.id("speaks")
        sub = sample_kg.select_relevant_subgraph(speaks, 2)
        assert adjacency_matrix(sub, sample_kg.relations.id("gender")).nnz == 0


class TestMemory:
    def test_graph_bytes_per_fact(self):
        # tracemalloc on Python 3.11: 423 B/fact as built, 484 once the
        # first column join has made the int64 fact arrays
        spec = importlib.util.spec_from_file_location("kg_memory", _KG_MEMORY)
        kg_memory = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kg_memory)
        _, with_lazy = kg_memory.graph_memory(20_000, 2_000, 20)
        assert with_lazy / 20_000 < 700


class TestImmutability:
    def test_facts_are_frozen(self, sample_kg):
        assert isinstance(sample_kg.facts, frozenset)
        assert isinstance(sample_kg.fact_list(), tuple)

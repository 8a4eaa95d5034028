import importlib.util
import io
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from hornforge import (
    Atom,
    GraphParseError,
    KnowledgeGraph,
    adjacency_matrix,
    complete,
    const,
    dump_triples,
    generate_negatives,
    load_triples,
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
                for o in entities:
                    assert kg.relations_linking(e, o) == tuple(r for r in relations if kg.has_pair(r, e, o))


    def test_index_join_rows_are_the_solutions(self):
        a, b, c = var(0), var(1), var(2)
        accepted = [
            [(0, a, b)],
            [(0, b, a)],
            [(0, a, c), (1, c, b)],
            [(0, a, c), (1, b, c)],
            [(0, c, a), (1, c, b)],
            [(0, c, a), (1, b, c)],
            [(0, a, b), (1, a, c)],
            [(0, a, b), (1, b, a)],
        ]
        rejected = [
            [],
            [(0, a, b), (1, b, c), (0, c, a)],
            [(0, a, const(0))],
            [(0, a, a)],
            [(0, a, b), (1, c, var(3))],
        ]
        rng = random.Random(31)
        for _ in range(20):
            kg = random_kg(rng, max_entities=6, max_relations=2, max_facts=30)
            entities, n_rel = range(len(kg.entities)), len(kg.relations)
            for shape in accepted:
                atoms = [Atom(r % n_rel, s, o) for r, s, o in shape]
                cols, rows = kg.index_join(atoms)
                rows = [frozenset(zip(cols, row)) for row in rows]
                vs = sorted({v for atom in atoms for v in atom.variables()})
                assert sorted(cols) == vs
                subs = [dict(zip(vs, c)) for c in itertools.product(entities, repeat=len(vs))]
                brute = {
                    frozenset(sub.items())
                    for sub in subs
                    if all(kg.has_pair(t.relation, sub[t.subject.index], sub[t.object.index])
                           for t in atoms)
                }
                assert len(rows) == len(set(rows)) and set(rows) == brute
            for shape in rejected:
                assert kg.index_join([Atom(r % n_rel, s, o) for r, s, o in shape]) is None


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
        # tracemalloc on Python 3.11: 599 B/fact with one (s, o) tuple per
        # fact shared by the pair indexes, 858 with copies in each
        spec = importlib.util.spec_from_file_location("kg_memory", _KG_MEMORY)
        kg_memory = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kg_memory)
        _, with_lazy = kg_memory.graph_memory(20_000, 2_000, 20)
        assert with_lazy / 20_000 < 700


class TestImmutability:
    def test_facts_are_frozen(self, sample_kg):
        assert isinstance(sample_kg.facts, frozenset)
        assert isinstance(sample_kg.fact_list(), tuple)

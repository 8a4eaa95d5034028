import io
import random
from fractions import Fraction

import pytest

from hornforge import Atom, GraphParseError, KnowledgeGraph, dump_triples, load_triples, support, var
from oracles import all_chain_rules, brute_support, random_kg


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
        unknown = len(sample_kg.relations)
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


class TestImmutability:
    def test_facts_are_frozen(self, sample_kg):
        assert isinstance(sample_kg.facts, frozenset)
        assert isinstance(sample_kg.fact_list(), tuple)

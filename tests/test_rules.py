import itertools

import pytest

from hornforge import (
    Atom,
    Rule,
    RuleParseError,
    apply_substitution,
    canonicalize,
    const,
    is_closed,
    is_connected,
    is_safe,
    open_variables,
    parse_rule,
    parse_rule_with_negation,
    render_rule,
    sort_key,
    var,
)


def rel(kg, label):
    return kg.relations.id(label)


def ent(kg, label):
    return kg.entities.id(label)


class TestConnectivity:
    def test_chain_body_is_connected(self, sample_kg):
        r = parse_rule("nationality(?a, ?c) & officialLang(?c, ?b) => nationality(?a, ?b)", sample_kg)
        assert is_connected(r)

    def test_isolated_body_atom_disconnects(self, sample_kg):
        # second body atom shares no argument with anything else
        head = Atom(rel(sample_kg, "speaks"), var(0), var(1))
        body = (
            Atom(rel(sample_kg, "speaks"), var(0), var(2)),
            Atom(rel(sample_kg, "officialLang"), var(3), var(4)),
        )
        assert not is_connected(Rule(head, body))

    def test_empty_body_is_connected(self, sample_kg):
        assert is_connected(Rule(Atom(rel(sample_kg, "speaks"), var(0), var(1))))

    def test_shared_constant_connects(self, sample_kg):
        # atoms sharing only the constant EU still form one component
        eu = const(ent(sample_kg, "EU"))
        head = Atom(rel(sample_kg, "worksFor"), var(0), eu)
        body = (Atom(rel(sample_kg, "gender"), eu, var(1)),)
        assert is_connected(Rule(head, body))
        # same shape without the shared constant is disconnected
        body2 = (Atom(rel(sample_kg, "gender"), const(ent(sample_kg, "Germany")), var(1)),)
        assert not is_connected(Rule(head, body2))


class TestSafety:
    def test_head_variable_missing_from_body(self, sample_kg):
        r = parse_rule(
            "birthCountry(?a, ?c) & nationality(?a, ?d) & officialLang(?d, ?e) => speaks(?a, ?b)",
            sample_kg,
        )
        assert not is_safe(r)

    def test_running_example_is_safe(self, rule_r):
        assert is_safe(rule_r)

    def test_constant_head_argument_needs_no_binding(self, sample_kg):
        head = Atom(rel(sample_kg, "worksFor"), var(0), const(ent(sample_kg, "EU")))
        r = Rule(head, (Atom(rel(sample_kg, "gender"), var(0), var(1)),))
        assert is_safe(r)


class TestClosedness:
    def test_every_variable_twice(self, sample_kg):
        r = parse_rule(
            "birthCountry(?a, ?c) & nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
            sample_kg,
        )
        assert is_closed(r)

    def test_dangling_head_variable(self, sample_kg):
        r = parse_rule("officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        assert not is_closed(r)
        # ?a (head only) and ?c (body only) each occur in a single atom
        assert set(open_variables(r)) == {0, 2}

    def test_empty_body_not_closed(self, sample_kg):
        assert not is_closed(Rule(Atom(rel(sample_kg, "speaks"), var(0), var(1))))

    def test_closed_implies_safe_exhaustively(self, sample_kg):
        rels = [0, 1, 2]
        pool = [var(0), var(1), var(2)]
        for hr, br in itertools.product(rels, rels):
            for hs, ho, bs, bo in itertools.product(pool, repeat=4):
                r = Rule(Atom(hr, hs, ho), (Atom(br, bs, bo),))
                if is_closed(r):
                    assert is_safe(r)


class TestApplySubstitution:
    def test_grounding_the_running_example(self, sample_kg, rule_r):
        sub = {
            0: ent(sample_kg, "E._Macron"),
            2: ent(sample_kg, "France"),
            1: ent(sample_kg, "French"),
        }
        ground = apply_substitution(list(rule_r.body), sub)
        for atom in ground:
            assert not atom.subject.is_var and not atom.object.is_var
            assert sample_kg.has_pair(atom.relation, atom.subject.index, atom.object.index)

    def test_empty_substitution_is_identity(self, rule_r):
        assert tuple(apply_substitution(list(rule_r.body), {})) == rule_r.body

    def test_partial_substitution_leaves_variables(self, sample_kg, rule_r):
        ground = apply_substitution(list(rule_r.body), {0: ent(sample_kg, "E._Macron")})
        assert not ground[0].subject.is_var
        assert ground[0].object.is_var and ground[1].object.is_var


def alpha_equal(r1, r2):
    def shape(atom, m):
        def t(term):
            return ("v", m[term.index]) if term.is_var else ("c", term.index)

        return (atom.relation, t(atom.subject), t(atom.object))

    v1, v2 = sorted(r1.variables()), sorted(r2.variables())
    if len(v1) != len(v2) or len(r1.body) != len(r2.body):
        return False
    ident = {v: v for v in v2}
    for perm in itertools.permutations(v2):
        m = dict(zip(v1, perm))
        if shape(r1.head, m) == shape(r2.head, ident) and sorted(
            shape(a, m) for a in r1.body
        ) == sorted(shape(a, ident) for a in r2.body):
            return True
    return False


class TestCanonicalize:
    def test_body_order_irrelevant(self, sample_kg, rule_r):
        swapped = Rule(rule_r.head, (rule_r.body[1], rule_r.body[0]))
        assert canonicalize(swapped) == canonicalize(rule_r)

    def test_variable_renaming_irrelevant(self, sample_kg):
        a = parse_rule("birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)", sample_kg)
        b = parse_rule("birthCountry(?x, ?z) & officialLang(?z, ?y) => speaks(?x, ?y)", sample_kg)
        assert canonicalize(a) == canonicalize(b)

    def test_idempotent(self, rule_r):
        assert canonicalize(canonicalize(rule_r)) == canonicalize(rule_r)

    def test_variables_contiguous_from_zero(self, rule_r):
        c = canonicalize(rule_r)
        assert sorted(c.variables()) == list(range(len(c.variables())))

    def test_collision_iff_alpha_equivalent(self):
        # every 2-atom rule over a 3-relation vocabulary and 3 variables
        rules = []
        for hr, br in itertools.product(range(3), range(3)):
            for hs, ho in itertools.product(range(2), repeat=2):
                for bs, bo in itertools.product(range(3), repeat=2):
                    rules.append(Rule(Atom(hr, var(hs), var(ho)), (Atom(br, var(bs), var(bo)),)))
        canon = [canonicalize(r) for r in rules]
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                assert (canon[i] == canon[j]) == alpha_equal(rules[i], rules[j]), (
                    rules[i],
                    rules[j],
                )

    def test_body_cap_is_loud(self):
        def chain(n):
            return Rule(Atom(0, var(0), var(n)), tuple(Atom(0, var(i), var(i + 1)) for i in range(n)))

        assert len(canonicalize(chain(8)).body) == 8
        with pytest.raises(ValueError, match="at most 8"):
            canonicalize(chain(9))


class TestTextFormat:
    def test_round_trip_on_canonical_rules(self, sample_kg, rule_r):
        for text in (
            "birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
            "birthCountry(?a, ?b) => nationality(?a, ?b)",
            "worksFor(?a, EU) => speaks(?a, ?b)",
        ):
            r = parse_rule(text, sample_kg)
            assert parse_rule(render_rule(r, sample_kg), sample_kg) == r

    def test_render_uses_letter_names_and_constants(self, sample_kg, rule_r):
        text = render_rule(rule_r, sample_kg)
        assert text == "birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)"

    def test_negated_head_round_trip(self, sample_kg):
        rule, negated = parse_rule_with_negation("gender(?a, ?b) => !speaks(?a, ?b)", sample_kg)
        assert negated
        text = render_rule(rule, sample_kg, negate_head=True)
        assert "!speaks" in text
        again, neg2 = parse_rule_with_negation(text, sample_kg)
        assert neg2 and again == rule

    def test_parse_rule_rejects_negation(self, sample_kg):
        with pytest.raises(RuleParseError):
            parse_rule("gender(?a, ?b) => !speaks(?a, ?b)", sample_kg)

    def test_parse_errors(self, sample_kg):
        for bad in ("speaks(?a)", "=> speaks(?a, ?b", "bogus(?a, ?b) => speaks(?a, ?b)", ""):
            with pytest.raises(RuleParseError):
                parse_rule(bad, sample_kg)

    def test_unknown_constant_rejected(self, sample_kg):
        with pytest.raises(RuleParseError):
            parse_rule("worksFor(?a, Atlantis) => speaks(?a, ?b)", sample_kg)

    def test_body_over_cap_rejected(self, sample_kg):
        def chain(n):
            body = " & ".join(f"worksFor(?v{i}, ?v{i + 1})" for i in range(n))
            return f"{body} => speaks(?v0, ?v{n})"

        assert len(parse_rule(chain(8), sample_kg).body) == 8
        # repeated atoms count once
        assert len(parse_rule(chain(8).replace(" =>", " & worksFor(?v0, ?v1) =>"), sample_kg).body) == 8
        with pytest.raises(RuleParseError, match="more than 8 distinct atoms"):
            parse_rule_with_negation(chain(9), sample_kg)


class TestOrdering:
    def test_sort_key_total_order(self, sample_kg):
        texts = [
            "birthCountry(?a, ?b) => nationality(?a, ?b)",
            "nationality(?a, ?b) => birthCountry(?a, ?b)",
            "birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)",
        ]
        rules = [parse_rule(t, sample_kg) for t in texts]
        once = sorted(rules, key=sort_key)
        assert sorted(reversed(once), key=sort_key) == once
        assert len({sort_key(r) for r in rules}) == len(rules)

    def test_rule_length_counts_head(self, rule_r):
        assert len(rule_r) == 3

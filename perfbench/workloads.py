"""The benchmark's four workloads.

Each workload writes its seeded inputs as TSV files, sets the program up
from those files alone, names one round of operations (a fixed list that
the timed phase repeats whole) and checks one operation's output against
oracle.py.  Sizes are chosen so that one operation takes under half a
second (mine-anytime) to about 1.6 s (mine-topdown, verify-routes) on a
2-core host, and a query of predict-complete about 16 ms, so that a run
holds many operations and their median rides out the host's bursts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle


def _entity(i):
    return f"e{i:05d}"


def _relation(i):
    return f"r{i:02d}"


def _write_facts(path, facts):
    with open(path, "w", encoding="utf-8") as fh:
        for s, r, o in sorted(facts):
            fh.write(f"{_entity(s)}\t{_relation(r)}\t{_entity(o)}\n")


def planted_facts(rng, entities, relations, facts, planted_share, rate):
    """Criterion 7's shape: r01(x, z) and r02(z, y) planted for random x, z,
    y with r00(x, y) added at the given rate, until the planted share of
    the facts is reached; the rest is uniform noise over all relations."""
    out = set()
    while len(out) < int(facts * planted_share):
        x, z, y = rng.randrange(entities), rng.randrange(entities), rng.randrange(entities)
        out.add((x, 1, z))
        out.add((z, 2, y))
        if rng.random() < rate:
            out.add((x, 0, y))
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(relations), rng.randrange(entities)))
    return out


def compositions_facts(rng, entities, relations, facts, planted_share, rate):
    """Every third relation composed: r(3k+1)(x, z) and r(3k+2)(z, y)
    planted for a random k < relations // 3 and random x, z, y, with
    r(3k)(x, y) added at the given rate, until the planted share of the
    facts is reached; the rest is uniform noise.  No relation dominates."""
    out = set()
    while len(out) < int(facts * planted_share):
        k = rng.randrange(relations // 3)
        x, z, y = rng.randrange(entities), rng.randrange(entities), rng.randrange(entities)
        out.add((x, 3 * k + 1, z))
        out.add((z, 3 * k + 2, y))
        if rng.random() < rate:
            out.add((x, 3 * k, y))
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(relations), rng.randrange(entities)))
    return out


def uniform_facts(rng, entities, relations, facts):
    out = set()
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(relations), rng.randrange(entities)))
    return out


def _mined_counts(mined):
    m = mined.metrics
    return m.support, m.head_fact_count, m.cwa_body_size, m.pca_body_size, m.pca_direction


class MineTopdown:
    name = "mine-topdown"
    ENTITIES, RELATIONS, FACTS = 1_000, 20, 10_000
    PLANTED_SHARE, PLANTED_RATE = 0.3, 0.9

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        graph = workdir / "graph.tsv"
        _write_facts(
            graph,
            planted_facts(
                rng, self.ENTITIES, self.RELATIONS, self.FACTS, self.PLANTED_SHARE, self.PLANTED_RATE
            ),
        )
        return {"graph": graph}

    def setup(self, hf, inputs):
        return {"kg": hf.load_triples(inputs["graph"])}

    def round(self, hf, state):
        kg = state["kg"]
        return [lambda: hf.mine(kg, hf.MinerConfig())]

    def check(self, hf, inputs, state, i, output):
        """Every emitted rule's counts match a set join (and the matrix
        route for chain rules), meet the default thresholds, have PCA
        confidence at least standard confidence, and the planted
        r01 . r02 => r00 composition is among them."""
        kg, config = state["kg"], hf.MinerConfig()
        index = oracle.Index(oracle.read_facts(inputs["graph"]))
        planted = False
        for mined in output:
            rule = oracle.parse_rule_text(hf.render_rule(mined.rule, kg))
            counts = oracle.rule_counts(index, rule)
            if _mined_counts(mined) != counts:
                return False
            supp, head_facts, cwa, pca, _ = counts
            try:
                matrix = hf.matrix_support(kg, mined.rule), hf.matrix_cwa_body_size(kg, mined.rule)
            except hf.NonChainRuleError:
                matrix = supp, cwa
            if matrix != (supp, cwa):
                return False
            std_conf = Fraction(supp, cwa) if cwa else Fraction(0)
            pca_conf = Fraction(supp, pca) if pca else Fraction(0)
            if Fraction(supp, head_facts) < config.min_head_coverage:
                return False
            if pca_conf < config.min_confidence or pca_conf < std_conf:
                return False
            steps = oracle.chain_steps(rule)
            planted |= rule[0][0] == "r00" and steps == [("r01", False), ("r02", False)]
        return planted


class MineAnytime:
    name = "mine-anytime"
    ENTITIES, RELATIONS, FACTS = 300, 18, 10_000
    PLANTED_SHARE, PLANTED_RATE = 0.5, 0.9
    ROUNDS, ROUND_SAMPLES, PATH_LENGTH = 3, 40, 3
    SAMPLERS = 8  # mine_anytime calls per round, each with its own sampling seed

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        graph = workdir / "graph.tsv"
        _write_facts(
            graph,
            compositions_facts(
                rng, self.ENTITIES, self.RELATIONS, self.FACTS, self.PLANTED_SHARE, self.PLANTED_RATE
            ),
        )
        return {"graph": graph, "seed": seed}

    def setup(self, hf, inputs):
        configs = [
            hf.AnytimeConfig(
                rounds=self.ROUNDS,
                round_samples=self.ROUND_SAMPLES,
                start_length=self.PATH_LENGTH,
                max_length=self.PATH_LENGTH,
                seed=inputs["seed"] * 100 + j,
            )
            for j in range(self.SAMPLERS)
        ]
        return {"kg": hf.load_triples(inputs["graph"]), "configs": configs}

    def round(self, hf, state):
        kg = state["kg"]
        return [lambda config=config: hf.mine_anytime(kg, config) for config in state["configs"]]

    def check(self, hf, inputs, state, i, output):
        """Every stored rule's counts match an object-identity set join and
        meet min_support and min_confidence."""
        kg, config = state["kg"], state["configs"][i]
        index = oracle.Index(oracle.read_facts(inputs["graph"]))
        for mined in output:
            rule = oracle.parse_rule_text(hf.render_rule(mined.rule, kg))
            counts = oracle.rule_counts(index, rule, injective=True)
            if _mined_counts(mined) != counts:
                return False
            supp, _, _, pca, _ = counts
            pca_conf = Fraction(supp, pca) if pca else Fraction(0)
            if supp < config.min_support or pca_conf < config.min_confidence:
                return False
        return True


class VerifyRoutes:
    name = "verify-routes"
    ENTITIES, RELATIONS, FACTS = 500, 5, 2_000

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        graph = workdir / "graph.tsv"
        _write_facts(graph, uniform_facts(rng, self.ENTITIES, self.RELATIONS, self.FACTS))
        return {"graph": graph, "report": workdir / "verify.out"}

    def setup(self, hf, inputs):
        return {"kg": hf.load_triples(inputs["graph"]), **inputs}

    def round(self, hf, state):
        argv = ["verify", "--input", str(state["graph"]), "--output", str(state["report"])]

        def verify():
            code = hf.cli.run(argv)
            with open(state["report"], encoding="utf-8") as fh:
                return code, fh.read()

        return [verify]

    def check(self, hf, inputs, state, i, output):
        """Exit code 0 and one OK line over heads x (2R + 4R^2) chain rules."""
        r = self.RELATIONS
        return output == (0, f"verified {r * (2 * r + 4 * r * r)} chain rules: OK\n")


class PredictComplete:
    name = "predict-complete"
    ENTITIES, RELATIONS, FACTS = 2_000, 10, 20_000
    QUERIES, TOP_K = 200, 10

    def generate(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        facts = uniform_facts(rng, self.ENTITIES, self.RELATIONS, self.FACTS)
        graph = workdir / "graph.tsv"
        _write_facts(graph, facts)
        rules = workdir / "rules.tsv"
        with open(rules, "w", encoding="utf-8") as fh:
            for text in self.chain_rule_texts():
                fh.write(f"{text}\t{rng.randrange(1, 1000)}/1000\n")
        subjects = sorted({s for s, _, _ in facts})
        queries = workdir / "queries.tsv"
        with open(queries, "w", encoding="utf-8") as fh:
            for _ in range(self.QUERIES):
                rel, subj = rng.randrange(self.RELATIONS), rng.choice(subjects)
                fh.write(f"{_relation(rel)}\t{_entity(subj)}\n")
        return {"graph": graph, "rules": rules, "queries": queries}

    def chain_rule_texts(self):
        """Every chain rule of one or two body atoms, each in either
        direction, for every head relation; r(?a, ?b) => r(?a, ?b) left out."""
        rels = [_relation(i) for i in range(self.RELATIONS)]
        for head in rels:
            for r in rels:
                if r != head:
                    yield f"{r}(?a, ?b) => {head}(?a, ?b)"
                yield f"{r}(?b, ?a) => {head}(?a, ?b)"
            for r1 in rels:
                for first in (f"{r1}(?a, ?c)", f"{r1}(?c, ?a)"):
                    for r2 in rels:
                        for second in (f"{r2}(?c, ?b)", f"{r2}(?b, ?c)"):
                            yield f"{first} & {second} => {head}(?a, ?b)"

    def setup(self, hf, inputs):
        kg = hf.load_triples(inputs["graph"])
        rules = []
        with open(inputs["rules"], encoding="utf-8") as fh:
            for line in fh:
                text, conf = line.rstrip("\n").split("\t")
                rules.append((hf.parse_rule(text, kg), Fraction(conf)))
        with open(inputs["queries"], encoding="utf-8") as fh:
            queries = [line.rstrip("\n").split("\t") for line in fh]
        return {"kg": kg, "rules": rules, "queries": queries}

    def round(self, hf, state):
        kg, rules = state["kg"], state["rules"]

        def query(rel, subj):
            return lambda: hf.complete(
                kg, rules, kg.relations.id(rel), subject=kg.entities.id(subj), top_k=self.TOP_K
            )

        return [query(rel, subj) for rel, subj in state["queries"]]

    def check(self, hf, inputs, state, i, output):
        """The top 10 candidates and their confidence vectors equal a plain
        dict join over the generated facts, ranked as documented."""
        if "oracle" not in state:
            chain_rules = []
            with open(inputs["rules"], encoding="utf-8") as fh:
                for line in fh:
                    text, conf = line.rstrip("\n").split("\t")
                    rule = oracle.parse_rule_text(text)
                    chain_rules.append((rule[0][0], oracle.chain_steps(rule), conf))
            state["oracle"] = oracle.Index(oracle.read_facts(inputs["graph"])), chain_rules
        index, chain_rules = state["oracle"]
        rel, subj = state["queries"][i]
        kg = state["kg"]
        got = [(kg.entities.label(e), vec) for e, vec in output]
        return got == oracle.ranked_completions(index, chain_rules, rel, subj, self.TOP_K)


WORKLOADS = {w.name: w for w in (MineTopdown(), MineAnytime(), VerifyRoutes(), PredictComplete())}

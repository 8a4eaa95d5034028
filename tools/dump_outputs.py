"""Print one line per output of hornforge's miners and measures, for fixed seeds.

Run it on two checkouts and compare the outputs byte for byte:

    PYTHONPATH=src python tools/dump_outputs.py > before.txt
    PYTHONPATH=src python tools/dump_outputs.py > after.txt
    cmp before.txt after.txt

Every graph is generated from a fixed seed, so the output depends only on
the code.  Each section's wall time goes to stderr, outside the compared
output.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction

import hornforge as hf
from hornforge.amie import refine


def _graph(facts):
    return hf.KnowledgeGraph.from_label_triples(
        sorted((f"e{s}", f"r{r:02d}", f"e{o}") for s, r, o in facts)
    )


def planted_graph(seed):
    """Criterion 7's shape on 1,000 entities and 20 relations: r01(x, z) and
    r02(z, y) planted with r00(x, y) at rate 0.9 until they make 30% of the
    10,000 facts, then uniform noise over all relations."""
    rng = random.Random(seed)
    out = set()
    while len(out) < 3_000:
        x, z, y = rng.randrange(1_000), rng.randrange(1_000), rng.randrange(1_000)
        out.add((x, 1, z))
        out.add((z, 2, y))
        if rng.random() < 0.9:
            out.add((x, 0, y))
    while len(out) < 10_000:
        out.add((rng.randrange(1_000), rng.randrange(20), rng.randrange(1_000)))
    return _graph(out)


def uniform_graph(seed, entities, relations, facts):
    rng = random.Random(seed)
    out = set()
    while len(out) < facts:
        out.add((rng.randrange(entities), rng.randrange(relations), rng.randrange(entities)))
    return _graph(out)


def chain_rules(kg, max_atoms=2):
    """Every chain rule with a two-variable head ?0, ?1 and one to max_atoms
    body atoms walking ?0, ?2, ?3, ..., ?1, both orientations per step."""
    rels = range(len(kg.relations))
    for h in rels:
        head = hf.Atom(h, hf.var(0), hf.var(1))
        for length in range(1, max_atoms + 1):
            walk = [hf.var(i) for i in (0, *range(2, length + 1), 1)]
            steps = list(zip(walk, walk[1:]))
            for chain in itertools.product(rels, repeat=length):
                for flips in itertools.product((False, True), repeat=length):
                    yield hf.Rule(
                        head,
                        tuple(
                            hf.Atom(r, b, a) if flip else hf.Atom(r, a, b)
                            for r, (a, b), flip in zip(chain, steps, flips)
                        ),
                    )


SMALL_CONFIGS = {
    "max_len=4": dict(max_len=4),
    "instantiation": dict(enable_instantiation=True),
    "identity": dict(object_identity=True),
    "std": dict(confidence_kind="std"),
    "std+instantiation+identity": dict(
        confidence_kind="std", enable_instantiation=True, object_identity=True
    ),
    "skyline off": dict(enable_skyline=False),
    "skyline off+max_len=4": dict(enable_skyline=False, max_len=4),
}


def mined_lines(tag, kg, mined):
    for m in mined:
        yield f"{tag}\t{hf.render_rule(m.rule, kg)}\t{m.metrics!r}"


def dump_mining():
    kg = planted_graph(1)
    yield from mined_lines("mine default planted", kg, hf.mine(kg))
    for seed in range(3):
        kg = uniform_graph(seed, entities=20, relations=4, facts=60)
        for name, fields in SMALL_CONFIGS.items():
            mined = hf.mine(kg, hf.MinerConfig(**fields))
            yield from mined_lines(f"mine small{seed} {name}", kg, mined)


def dump_operators():
    for seed in range(2):
        kg = uniform_graph(seed, entities=20, relations=4, facts=60)
        for max_len in (2, 3, 4):
            config = hf.MinerConfig(max_len=max_len, enable_instantiation=True)
            for rule in hf.seed_rules(kg):
                for op in (hf.refine_dangling, hf.refine_closing, hf.refine_instantiated):
                    for child in op(kg, rule, config):
                        yield f"{op.__name__} small{seed} max_len={max_len}\t{hf.render_rule(child, kg)}"
                # the children of the children, one level down
                for child in refine(kg, rule, config):
                    for grandchild in refine(kg, child, config):
                        yield f"refine2 small{seed} max_len={max_len}\t{hf.render_rule(grandchild, kg)}"


def dump_anytime():
    rng = random.Random(7)
    facts = set()
    while len(facts) < 5_000:
        k = rng.randrange(6)
        x, z, y = rng.randrange(300), rng.randrange(300), rng.randrange(300)
        facts.add((x, 3 * k + 1, z))
        facts.add((z, 3 * k + 2, y))
        if rng.random() < 0.9:
            facts.add((x, 3 * k, y))
    kg = _graph(facts)
    for j in range(8):
        config = hf.AnytimeConfig(
            rounds=3, round_samples=300, start_length=3, max_length=3, seed=100 + j
        )
        yield from mined_lines(f"mine_anytime sampler{j}", kg, hf.mine_anytime(kg, config))


def dump_measures():
    kg = uniform_graph(11, entities=60, relations=5, facts=400)
    for rule in chain_rules(kg):
        text = hf.render_rule(rule, kg)
        for identity in (False, True):
            counts = (
                hf.support(kg, rule, identity),
                hf.cwa_body_size(kg, rule, identity),
                hf.pca_body_size(kg, rule, "auto", identity),
            )
            yield f"measures identity={identity}\t{text}\t{counts}"


def uncovered_rules(kg):
    """Rules that split the PCA filter's cases: a constant head term that
    head facts do and do not share, on each side, over one body atom; and
    two bodies no column join covers, a chain with a constant atom and two
    atoms linked only through the head."""
    rels = range(len(kg.relations))
    for h in rels:
        subjects, objects = set(kg.subjects(h)), set(kg.objects(h))
        known = (min(subjects), min(objects))
        unknown = tuple(min(set(range(len(kg.entities))) - side) for side in (subjects, objects))
        for p in rels:
            for c in known + unknown:
                yield hf.Rule(hf.Atom(h, hf.var(0), hf.const(c)), (hf.Atom(p, hf.var(0), hf.var(1)),))
                yield hf.Rule(hf.Atom(h, hf.const(c), hf.var(1)), (hf.Atom(p, hf.var(0), hf.var(1)),))
            head = hf.Atom(h, hf.var(0), hf.var(1))
            for q in rels:
                yield hf.Rule(head, (hf.Atom(p, hf.var(0), hf.var(1)), hf.Atom(q, hf.var(1), hf.const(known[1]))))
            yield hf.Rule(head, (hf.Atom(p, hf.var(0), hf.var(2)), hf.Atom(p, hf.var(3), hf.var(1))))


def dump_uncovered():
    kg = uniform_graph(14, entities=60, relations=5, facts=400)
    for rule in uncovered_rules(kg):
        text = hf.render_rule(rule, kg)
        for identity in (False, True):
            counts = (
                hf.support(kg, rule, identity),
                hf.cwa_body_size(kg, rule, identity),
                hf.pca_body_size(kg, rule, "subject", identity),
                hf.pca_body_size(kg, rule, "object", identity),
            )
            yield f"uncovered identity={identity}\t{text}\t{counts}"


def dump_complete():
    kg = uniform_graph(12, entities=60, relations=5, facts=400)
    scored = []
    for rule in chain_rules(kg):
        supp = hf.support(kg, rule)
        if supp:
            scored.append((rule, Fraction(supp, hf.pca_body_size(kg, rule))))
    for r in range(len(kg.relations)):
        for e in range(0, len(kg.entities), 7):
            for side in ("subject", "object"):
                ranked = hf.complete(kg, scored, r, top_k=10, **{side: e})
                yield f"complete r={r} {side}={e}\t{ranked}"


def dump_matrix():
    """The matrix route on every chain rule of up to three body atoms: its
    counts, the entities reached from a few starts, and one summed ranking."""
    kg = uniform_graph(13, entities=300, relations=5, facts=1_800)
    starts = (0, 57, 123)
    scored = []
    for rule in chain_rules(kg, max_atoms=3):
        supp = hf.matrix_support(kg, rule)
        size = hf.matrix_cwa_body_size(kg, rule)
        counts = (supp, size, len(hf.body_product(kg, rule).pairs()))
        reached = [sorted(hf.tensorlog_infer(kg, rule, e).nonzeros) for e in starts]
        yield f"matrix\t{hf.render_rule(rule, kg)}\t{counts}\t{reached}"
        if supp:
            scored.append((rule, Fraction(supp, size)))
    for e in starts:
        yield f"aggregate_infer from={e}\t{hf.aggregate_infer(kg, scored, e)}"


SECTIONS = (
    ("mining", dump_mining),
    ("operators", dump_operators),
    ("anytime", dump_anytime),
    ("measures", dump_measures),
    ("uncovered", dump_uncovered),
    ("complete", dump_complete),
    ("matrix", dump_matrix),
)


def main():
    out = sys.stdout
    total = time.perf_counter()
    for name, section in SECTIONS:
        t0 = time.perf_counter()
        n = 0
        for line in section():
            out.write(line + "\n")
            n += 1
        print(f"{name}: {n} lines, {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    print(f"total: {time.perf_counter() - total:.2f} s", file=sys.stderr)


if __name__ == "__main__":
    main()

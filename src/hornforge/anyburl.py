"""Bottom-up anytime rule learning from sampled ground paths.

Each sample draws an anchor fact and walks a fixed number of edges from
the anchor's far end; the walk generalizes to a closed rule when it
returns to its start, otherwise to head-grounded variants.  Rounds keep
everything ever stored, shift sampling effort toward productive path
profiles, and grow the walk length once a round's yield is mostly
already known (saturation).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .amie import MinedRule
from .kg import KnowledgeGraph
from .metrics import as_fraction, evaluate
from .rules import MAX_BODY_ATOMS, Atom, Rule, canonicalize, const, render_rule, sort_key, var


@dataclass(frozen=True)
class PathProfile:
    length: int  # body edges walked beyond the anchor
    cyclic: bool

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("profile length must be at least 1")


@dataclass(frozen=True)
class GroundPath:
    """Anchor fact plus walked facts; each step is ((s, r, o), inverted)."""

    steps: tuple
    nodes: tuple

    @property
    def anchor(self):
        return self.steps[0]

    @property
    def is_cyclic(self) -> bool:
        return self.nodes[-1] == self.nodes[0]


@dataclass
class AnytimeConfig:
    rounds: int = 10
    round_samples: int = 500
    round_ms: int | None = None  # wall-clock budget per round; overrides round_samples
    min_support: int = 2
    min_confidence: Fraction = Fraction(1, 10)
    confidence_kind: str = "pca"
    saturation_threshold: Fraction = Fraction(9, 10)
    start_length: int = 1
    max_length: int | None = 3  # None grows walks up to MAX_BODY_ATOMS
    effort_smoothing: Fraction = Fraction(1, 2)
    profile_weights: dict | None = None  # optional initial PathProfile -> weight
    object_identity: bool = True
    seed: int = 0

    def __post_init__(self):
        self.min_confidence = as_fraction(self.min_confidence)
        self.saturation_threshold = as_fraction(self.saturation_threshold)
        self.effort_smoothing = as_fraction(self.effort_smoothing)
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.min_support < 1:
            raise ValueError("min_support must be at least 1")
        if not 0 < self.min_confidence <= 1:
            raise ValueError("min_confidence must lie in (0, 1]")
        if self.confidence_kind not in ("std", "pca"):
            raise ValueError(f"unknown confidence kind: {self.confidence_kind!r}")
        if not 0 < self.saturation_threshold <= 1:
            raise ValueError("saturation_threshold must lie in (0, 1]")
        if self.start_length < 1:
            raise ValueError("start_length must be at least 1")
        if self.start_length > MAX_BODY_ATOMS:
            raise ValueError(f"start_length must be at most {MAX_BODY_ATOMS}")
        if self.max_length is not None and self.max_length > MAX_BODY_ATOMS:
            raise ValueError(f"max_length must be at most {MAX_BODY_ATOMS}")
        if not 0 < self.effort_smoothing <= 1:
            raise ValueError("effort_smoothing must lie in (0, 1]")


def sample_path(kg: KnowledgeGraph, profile: PathProfile, rng, object_identity=True):
    """One random ground path matching the profile, or None when the walk
    gets stuck or ends with the wrong shape.  The anchor fact itself is
    never reused as a walk edge."""
    facts = kg.fact_list()
    if not facts:
        raise ValueError("empty graph")
    anchor = facts[rng.randrange(len(facts))]
    inverted = bool(rng.randrange(2))
    s, _, o = anchor
    start, end = (o, s) if inverted else (s, o)
    if object_identity and start == end:
        return None
    nodes = [start, end]
    steps = [(anchor, inverted)]
    cur = end
    for i in range(profile.length):
        last = i == profile.length - 1
        cands = []
        for r, nxt in kg.out_edges(cur):
            fact = (cur, r, nxt)
            if fact == anchor:
                continue
            cands.append((fact, False, nxt))
        for r, nxt in kg.in_edges(cur):
            fact = (nxt, r, cur)
            if fact == anchor:
                continue
            cands.append((fact, True, nxt))
        if object_identity:
            visited = set(nodes)
            cands = [
                c
                for c in cands
                if c[2] not in visited or (last and profile.cyclic and c[2] == nodes[0])
            ]
        if not cands:
            return None
        fact, inv, nxt = cands[rng.randrange(len(cands))]
        steps.append((fact, inv))
        nodes.append(nxt)
        cur = nxt
    if (cur == nodes[0]) != profile.cyclic:
        return None
    return GroundPath(tuple(steps), tuple(nodes))


def generalize(path: GroundPath):
    """Rules abstracting a ground path.

    Cyclic paths map every entity to a variable (one closed rule).
    Acyclic paths keep the anchor's start entity as a constant and emit
    two variants: terminal entity kept constant, terminal made a variable.
    """
    (anchor, _inv) = path.steps[0]
    body_facts = [fact for fact, _ in path.steps[1:]]

    def build(const_entities):
        mapping = {}

        def term(e):
            if e in const_entities:
                return const(e)
            if e not in mapping:
                mapping[e] = len(mapping)
            return var(mapping[e])

        head = Atom(anchor[1], term(anchor[0]), term(anchor[2]))
        body = tuple(Atom(r, term(s), term(o)) for s, r, o in body_facts)
        if not any(t.is_var for t in head.terms):
            return None
        return canonicalize(Rule(head, body))

    if path.is_cyclic:
        rule = build(frozenset())
        return [rule] if rule is not None else []
    start = path.nodes[0]
    terminal = path.nodes[-1]
    out = []
    for consts in (frozenset({start, terminal}), frozenset({start})):
        rule = build(consts)
        if rule is not None and rule not in out:
            out.append(rule)
    return out


def saturation(round_rules, stored) -> Fraction:
    """Share of this round's distinct rules already stored; 1 when the
    round produced nothing."""
    if not round_rules:
        return Fraction(1)
    known = sum(1 for r in round_rules if r in stored)
    return Fraction(known, len(round_rules))


def _profiles_up_to(max_len: int):
    out = []
    for length in range(1, max_len + 1):
        out.append(PathProfile(length, True))
        out.append(PathProfile(length, False))
    return out


def mine_anytime(kg: KnowledgeGraph, config: AnytimeConfig = None):
    """Sampled bottom-up mining; returns MinedRule entries in the same
    order as the top-down miner.  With a fixed seed and sample budget the
    result is identical from run to run."""
    if config is None:
        config = AnytimeConfig()
    master = random.Random(config.seed)
    stored = {}
    weights = {}
    max_len = config.start_length
    if config.max_length is not None:
        max_len = min(max_len, config.max_length)

    def run_task(task):
        profile, seed = task
        path = sample_path(kg, profile, random.Random(seed), config.object_identity)
        if path is None:
            return profile, ()
        return profile, tuple(generalize(path))

    for _ in range(config.rounds):
        profiles = _profiles_up_to(max_len)
        for p in profiles:
            initial = Fraction(1)
            if config.profile_weights and p in config.profile_weights:
                initial = as_fraction(config.profile_weights[p])
            weights.setdefault(p, initial)
        # keep a small floor so no profile starves permanently
        draw_weights = [max(float(weights[p]), 0.01) for p in profiles]
        tasks = []
        if config.round_ms is None:
            for _ in range(config.round_samples):
                p = master.choices(profiles, weights=draw_weights)[0]
                tasks.append((p, master.getrandbits(64)))
            results = [run_task(t) for t in tasks]
        else:
            deadline = time.monotonic() + config.round_ms / 1000.0
            results = []
            while time.monotonic() < deadline:
                chunk = []
                for _ in range(64):
                    p = master.choices(profiles, weights=draw_weights)[0]
                    chunk.append((p, master.getrandbits(64)))
                tasks.extend(chunk)
                results.extend(run_task(t) for t in chunk)
        round_rules = set()
        producers = {}
        samples_by_profile = {p: 0 for p in profiles}
        for (profile, _seed), (_p, rules) in zip(tasks, results):
            samples_by_profile[profile] += 1
            for rule in rules:
                round_rules.add(rule)
                producers.setdefault(rule, set()).add(profile)
        stored_before = frozenset(stored)
        eligible = []
        new_by_profile = {p: 0 for p in profiles}
        for rule in sorted(round_rules, key=sort_key):
            if rule in stored:
                eligible.append(rule)
                continue
            metrics = evaluate(kg, rule, object_identity=config.object_identity)
            if (
                metrics.support >= config.min_support
                and metrics.confidence(config.confidence_kind) >= config.min_confidence
            ):
                stored[rule] = metrics
                eligible.append(rule)
                for p in producers[rule]:
                    new_by_profile[p] += 1
        # saturation over threshold-eligible rules: candidates that can
        # never be stored should not block length growth forever
        sat = saturation(eligible, stored_before)
        ema = config.effort_smoothing
        for p in profiles:
            if samples_by_profile[p] == 0:
                continue
            yield_p = Fraction(new_by_profile[p], samples_by_profile[p])
            weights[p] = (1 - ema) * weights[p] + ema * yield_p
        length_cap = MAX_BODY_ATOMS if config.max_length is None else config.max_length
        if sat >= config.saturation_threshold and max_len < length_cap:
            max_len += 1

    def final_key(item):
        rule, metrics = item
        return (
            kg.relations.label(rule.head.relation),
            -metrics.confidence(config.confidence_kind),
            -metrics.head_coverage,
            render_rule(rule, kg),
        )

    return [MinedRule(rule, metrics) for rule, metrics in sorted(stored.items(), key=final_key)]

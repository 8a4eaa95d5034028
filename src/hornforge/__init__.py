"""Soft Horn-rule mining over knowledge graphs with open-world-aware scoring."""

from .kg import GraphParseError, Interner, KnowledgeGraph, RelationStats, dump_triples, load_triples
from .rules import (
    Atom,
    Rule,
    RuleParseError,
    Term,
    apply_substitution,
    canonicalize,
    const,
    is_closed,
    is_connected,
    is_safe,
    open_variables,
    parse_rule,
    parse_rule_with_negation,
    render_atom,
    render_rule,
    sort_key,
    var,
)
from .metrics import (
    ExampleSets,
    LazyOutcome,
    RuleMetrics,
    as_fraction,
    covered,
    cwa_body_size,
    enumerate_solutions,
    evaluate,
    head_coverage,
    lazy_denominator,
    marginal_weight,
    pca_body_size,
    pca_confidence,
    pca_direction,
    projections,
    rudik_weight,
    std_confidence,
    support,
)
from .amie import MinedRule, MinerConfig, mine, refine_closing, refine_dangling, refine_instantiated, seed_rules
from .anyburl import AnytimeConfig, GroundPath, PathProfile, generalize, mine_anytime, sample_path, saturation
from .matrix import (
    EntityVector,
    NonChainRuleError,
    SparseBoolMatrix,
    adjacency_matrix,
    aggregate_infer,
    body_product,
    chain_orientations,
    matrix_cwa_body_size,
    matrix_head_coverage,
    matrix_std_confidence,
    matrix_support,
    tensorlog_infer,
)
from .predict import (
    NegativeRule,
    Prediction,
    apply_rule,
    complete,
    find_inconsistencies,
    generate_negatives,
    select_rules_greedy,
)

__version__ = "0.1.0"

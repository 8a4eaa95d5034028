"""Command-line interface: mine rules, verify against the matrix oracle,
execute predictions, and print relation statistics.

All tabular output is deterministic given (input, flags, seed): rows are
canonically ordered and ratios print as exact fraction plus 6-digit
decimal.  Exit codes: 0 success, 1 verification divergence, 2 unreadable
or malformed input or unwritable output, 64 bad flag/query combinations.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from fractions import Fraction

from .amie import MinerConfig, mine
from .anyburl import AnytimeConfig, mine_anytime
from .kg import GraphParseError, load_triples
from .matrix import matrix_cwa_body_size, matrix_support
from .metrics import cwa_body_size, support
from .predict import check_fires, complete
from .rules import MAX_BODY_ATOMS, Atom, Rule, RuleParseError, parse_rule, render_rule, var

HEADER = "rule\tsupport\tsupport_frac_hc\thead_coverage\tstd_conf\tpca_conf\tpca_direction"


def _dec(fr: Fraction) -> str:
    return f"{float(fr):.6f}"


def _frac_cell(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}={_dec(fr)}"


def _rule_row(kg, mined) -> str:
    m = mined.metrics
    return "\t".join(
        [
            render_rule(mined.rule, kg),
            str(m.support),
            f"{m.support}/{m.head_fact_count}",
            _dec(m.head_coverage),
            _frac_cell(m.std_confidence),
            _frac_cell(m.pca_confidence),
            m.pca_direction,
        ]
    )


def _write_lines(path, lines, status=0) -> int:
    """Writes the lines and returns status, or 2 when path is unwritable."""
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
        return status
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return status
    except OSError:
        print(f"error: cannot write output: {path}", file=sys.stderr)
        return 2


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_triples(fh)
    except (OSError, UnicodeDecodeError):
        print(f"error: cannot read input: {path}", file=sys.stderr)
        return None
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _add_common(sub):
    sub.add_argument("--input", required=True, help="TSV file of subject<TAB>relation<TAB>object")
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")


def build_parser():
    parser = argparse.ArgumentParser(prog="hornforge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_mine = subs.add_parser("mine", help="mine rules from a graph")
    _add_common(p_mine)
    p_mine.add_argument("--miner", choices=("amie", "anyburl"), default="amie")
    p_mine.add_argument("--max-len", type=int, default=3, help="max atoms per rule, head included")
    p_mine.add_argument("--min-hc", default="0.01", help="minimum head coverage")
    p_mine.add_argument("--min-conf", default="0.1", help="minimum confidence (chosen kind)")
    p_mine.add_argument("--confidence-kind", choices=("std", "pca"), default="pca")
    p_mine.add_argument("--instantiation", action="store_true", help="enable constant atoms")
    p_mine.add_argument(
        "--object-identity",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="force distinct entities per variable (default: off for amie, on for anyburl)",
    )
    p_mine.add_argument("--seed", type=int, default=0)
    p_mine.add_argument("--rounds", type=int, default=10)
    p_mine.add_argument("--round-samples", type=int, default=500)
    p_mine.add_argument("--round-ms", type=int, default=None)
    p_mine.add_argument("--min-support", type=int, default=2)
    p_mine.add_argument("--saturation-threshold", default="0.9")
    p_mine.add_argument("--start-length", type=int, default=1)
    p_mine.add_argument("--max-path-length", type=int, default=3)

    p_verify = subs.add_parser("verify", help="cross-check metrics against the matrix oracle")
    _add_common(p_verify)
    p_verify.add_argument("--max-len", type=int, default=3)
    p_verify.add_argument("--head", default=None, help="restrict to one head relation label")

    p_pred = subs.add_parser("predict", help="rank completions for a query")
    _add_common(p_pred)
    p_pred.add_argument("--rules", required=True, help="rule TSV as written by mine")
    p_pred.add_argument("--query", required=True, help="e.g. 'speaks(A._Merkel, ?)'")
    p_pred.add_argument("--top", type=int, default=10)
    p_pred.add_argument("--confidence-kind", choices=("std", "pca"), default="pca")

    p_stats = subs.add_parser("stats", help="per-relation fact statistics")
    _add_common(p_stats)
    return parser


def _cmd_mine(kg, args) -> int:
    try:
        if args.miner == "amie":
            config = MinerConfig(
                max_len=args.max_len,
                min_head_coverage=Fraction(args.min_hc),
                min_confidence=Fraction(args.min_conf),
                confidence_kind=args.confidence_kind,
                enable_instantiation=args.instantiation,
                object_identity=bool(args.object_identity),
            )
            mined = mine(kg, config)
        else:
            config = AnytimeConfig(
                rounds=args.rounds,
                round_samples=args.round_samples,
                round_ms=args.round_ms,
                min_support=args.min_support,
                min_confidence=Fraction(args.min_conf),
                confidence_kind=args.confidence_kind,
                saturation_threshold=Fraction(args.saturation_threshold),
                start_length=args.start_length,
                max_length=args.max_path_length,
                object_identity=True if args.object_identity is None else args.object_identity,
                seed=args.seed,
            )
            mined = mine_anytime(kg, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    return _write_lines(args.output, [HEADER] + [_rule_row(kg, m) for m in mined])


def _chain_rules(kg, head_rel, max_len):
    """All closed chain rules with the given head, up to max_len atoms,
    built one at a time."""
    steps = [(r, inv) for r in range(len(kg.relations)) for inv in (False, True)]
    for body_len in range(1, max_len):
        # head r(?0, ?1), chain vars ?0 -> 2 -> 3 ... -> 1
        chain_vars = [0] + list(range(2, body_len + 1)) + [1]
        for seq in itertools.product(steps, repeat=body_len):
            body = []
            for i, (r, inv) in enumerate(seq):
                a, b = chain_vars[i], chain_vars[i + 1]
                body.append(Atom(r, var(b), var(a)) if inv else Atom(r, var(a), var(b)))
            yield Rule(Atom(head_rel, var(0), var(1)), tuple(body))


def _cmd_verify(kg, args) -> int:
    heads = range(len(kg.relations))
    if args.head is not None:
        rid = kg.relations.get(args.head)
        if rid is None:
            print(f"error: unknown relation: {args.head}", file=sys.stderr)
            return 64
        heads = [rid]
    if not 2 <= args.max_len <= MAX_BODY_ATOMS + 1:
        print(f"error: --max-len must lie in [2, {MAX_BODY_ATOMS + 1}]", file=sys.stderr)
        return 64
    checked = 0
    bad = []
    for head_rel in heads:
        for rule in _chain_rules(kg, head_rel, args.max_len):
            m_supp = matrix_support(kg, rule)
            m_size = matrix_cwa_body_size(kg, rule)
            i_supp = support(kg, rule)
            i_size = cwa_body_size(kg, rule)
            checked += 1
            if (m_supp, m_size) != (i_supp, i_size):
                bad.append(
                    f"mismatch {render_rule(rule, kg)}: "
                    f"index support={i_supp} size={i_size}, matrix support={m_supp} size={m_size}"
                )
    lines = [f"verified {checked} chain rules: {'FAIL' if bad else 'OK'}"] + bad
    return _write_lines(args.output, lines, 1 if bad else 0)


_QUERY_RE = re.compile(r"\s*([^\s(),!][^(),!]*?)\s*\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)\s*")


def _cmd_predict(kg, args) -> int:
    m = _QUERY_RE.fullmatch(args.query)
    if m is None:
        print(f"error: malformed query: {args.query!r}", file=sys.stderr)
        return 64
    rel_label, lhs, rhs = m.group(1).strip(), m.group(2).strip(), m.group(3).strip()
    if (lhs == "?") == (rhs == "?"):
        print("error: query must have exactly one '?' side", file=sys.stderr)
        return 64
    rid = kg.relations.get(rel_label)
    if rid is None:
        print(f"error: unknown relation: {rel_label}", file=sys.stderr)
        return 64
    known_label = rhs if lhs == "?" else lhs
    known = kg.entities.get(known_label)
    if known is None:
        print(f"error: unknown entity: {known_label}", file=sys.stderr)
        return 64
    if args.top < 1:
        print("error: --top must be at least 1", file=sys.stderr)
        return 64
    conf_col = 4 if args.confidence_kind == "std" else 5
    scored = []
    try:
        with open(args.rules, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("rule\t"):
                print("error: rules file lacks the mine output header", file=sys.stderr)
                return 2
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 7:
                    print(f"error: rules file line {lineno}: expected 7 fields", file=sys.stderr)
                    return 2
                try:
                    rule = parse_rule(parts[0], kg)
                except RuleParseError as exc:
                    print(f"error: rules file line {lineno}: {exc}", file=sys.stderr)
                    return 2
                try:
                    conf = Fraction(parts[conf_col].split("=", 1)[0])
                except (ValueError, ZeroDivisionError):
                    conf = None
                try:
                    check_fires(rule)
                    if conf is None or not 0 <= conf <= 1:
                        raise ValueError("confidence is not a fraction in [0, 1]")
                except ValueError as exc:
                    print(f"error: rules file line {lineno}: {exc}", file=sys.stderr)
                    return 2
                scored.append((rule, conf))
    except (OSError, UnicodeDecodeError):
        print(f"error: cannot read rules: {args.rules}", file=sys.stderr)
        return 2
    subject = known if rhs == "?" else None
    obj = known if lhs == "?" else None
    ranked = complete(kg, scored, rid, subject=subject, object=obj, top_k=args.top)
    lines = ["rank\tcandidate\tconf_vector"]
    for i, (ent, vec) in enumerate(ranked, start=1):
        lines.append(f"{i}\t{kg.entities.label(ent)}\t{','.join(_dec(c) for c in vec)}")
    return _write_lines(args.output, lines)


def _cmd_stats(kg, args) -> int:
    lines = [
        f"# entities={len(kg.entities)} relations={len(kg.relations)} facts={len(kg.facts)}",
        "relation\tfacts\tdistinct_subjects\tdistinct_objects\tfunctionality\tinverse_functionality",
    ]
    for label in sorted(kg.relations.labels()):
        st = kg.relation_stats(label)
        lines.append(
            "\t".join(
                [
                    label,
                    str(st.fact_count),
                    str(st.distinct_subjects),
                    str(st.distinct_objects),
                    _frac_cell(st.functionality),
                    _frac_cell(st.inverse_functionality),
                ]
            )
        )
    return _write_lines(args.output, lines)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kg = _load_graph(args.input)
    if kg is None:
        return 2
    command = {
        "mine": _cmd_mine,
        "verify": _cmd_verify,
        "predict": _cmd_predict,
        "stats": _cmd_stats,
    }[args.command]
    return command(kg, args)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

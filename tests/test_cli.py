"""Command-line interface: golden outputs, exit codes, flag plumbing."""

import io
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hornforge.cli as cli
from hornforge import load_triples
from conftest import FIXTURE

MINE_GOLDEN = """\
rule\tsupport\tsupport_frac_hc\thead_coverage\tstd_conf\tpca_conf\tpca_direction
nationality(?a, ?b) => birthCountry(?a, ?b)\t3\t3/3\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
speaks(?a, ?c) & officialLang(?b, ?c) => birthCountry(?a, ?b)\t2\t2/3\t0.666667\t1/1=1.000000\t1/1=1.000000\tsubject
birthCountry(?a, ?b) => nationality(?a, ?b)\t3\t3/3\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
speaks(?a, ?c) & officialLang(?b, ?c) => nationality(?a, ?b)\t2\t2/3\t0.666667\t1/1=1.000000\t1/1=1.000000\tsubject
birthCountry(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)\t2\t2/2\t1.000000\t2/3=0.666667\t2/3=0.666667\tsubject
nationality(?c, ?a) & speaks(?c, ?b) => officialLang(?a, ?b)\t2\t2/2\t1.000000\t2/3=0.666667\t2/3=0.666667\tsubject
birthCountry(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)\t2\t2/3\t0.666667\t2/3=0.666667\t2/3=0.666667\tobject
nationality(?a, ?c) & officialLang(?c, ?b) => speaks(?a, ?b)\t2\t2/3\t0.666667\t2/3=0.666667\t2/3=0.666667\tobject
"""

ANYBURL_GOLDEN = """\
rule\tsupport\tsupport_frac_hc\thead_coverage\tstd_conf\tpca_conf\tpca_direction
nationality(?a, ?b) => birthCountry(?a, ?b)\t3\t3/3\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
birthCountry(?a, ?b) => nationality(?a, ?b)\t3\t3/3\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
birthCountry(?a, ?b) => worksFor(?a, EU)\t2\t2/2\t1.000000\t2/3=0.666667\t1/1=1.000000\tsubject
gender(?a, ?b) => worksFor(?a, EU)\t2\t2/2\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
nationality(?a, ?b) => worksFor(?a, EU)\t2\t2/2\t1.000000\t2/3=0.666667\t1/1=1.000000\tsubject
speaks(?a, ?b) => worksFor(?a, EU)\t2\t2/2\t1.000000\t1/1=1.000000\t1/1=1.000000\tsubject
"""

STATS_GOLDEN = """\
# entities=11 relations=6 facts=15
relation\tfacts\tdistinct_subjects\tdistinct_objects\tfunctionality\tinverse_functionality
birthCountry\t3\t3\t2\t1/1=1.000000\t2/3=0.666667
gender\t2\t2\t2\t1/1=1.000000\t1/1=1.000000
nationality\t3\t3\t2\t1/1=1.000000\t2/3=0.666667
officialLang\t2\t2\t2\t1/1=1.000000\t1/1=1.000000
speaks\t3\t2\t3\t2/3=0.666667\t1/1=1.000000
worksFor\t2\t2\t1\t1/1=1.000000\t1/2=0.500000
"""


def cap(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def rules_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "rules.tsv"
    code, _, _ = cap(["mine", "--input", str(FIXTURE), "--output", str(path)])
    assert code == 0
    return path


class TestMine:
    def test_golden_output(self):
        code, out, err = cap(["mine", "--input", str(FIXTURE)])
        assert (code, err) == (0, "")
        assert out == MINE_GOLDEN

    def test_output_file_matches_stdout(self, rules_file):
        assert rules_file.read_text(encoding="utf-8") == MINE_GOLDEN

    def test_anyburl_golden(self):
        argv = ["mine", "--input", str(FIXTURE), "--miner", "anyburl", "--seed", "42", "--rounds", "2"]
        code, out, _ = cap(argv)
        assert code == 0
        assert out == ANYBURL_GOLDEN

    def test_runs_deterministic(self):
        outs = {cap(["mine", "--input", str(FIXTURE)])[1] for _ in range(3)}
        assert outs == {MINE_GOLDEN}

    def test_fraction_flags(self):
        code, out, _ = cap(["mine", "--input", str(FIXTURE), "--min-conf", "2/3", "--min-hc", "1/100"])
        assert code == 0
        assert out == MINE_GOLDEN

    @pytest.mark.parametrize(
        "extra",
        [
            ["--max-len", "1"],
            ["--min-conf", "0"],
            ["--min-conf", "abc"],
            ["--miner", "anyburl", "--rounds", "0"],
            ["--max-len", "10"],
            ["--miner", "anyburl", "--max-path-length", "9"],
            ["--miner", "anyburl", "--max-path-length", "0"],
            ["--miner", "anyburl", "--start-length", "3", "--max-path-length", "2"],
            ["--miner", "anyburl", "--round-samples", "0"],
            ["--miner", "anyburl", "--round-samples", "-3"],
            ["--miner", "anyburl", "--round-ms", "0"],
            ["--miner", "anyburl", "--round-ms", "-5"],
        ],
    )
    def test_bad_flags(self, extra):
        code, out, err = cap(["mine", "--input", str(FIXTURE)] + extra)
        assert code == 64
        assert out == ""
        assert err.startswith("error:")

    def test_witness_overrun_keeps_output(self, monkeypatch):
        # an overrun switches pruning off; only zero-support children are added
        monkeypatch.setattr("hornforge.metrics.ROW_LIMIT", 1)
        code, out, _ = cap(["mine", "--input", str(FIXTURE)])
        assert (code, out) == (0, MINE_GOLDEN)

    def test_missing_input(self):
        code, _, err = cap(["mine", "--input", "no_such_file.tsv"])
        assert code == 2
        assert "cannot read input" in err

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\n", encoding="utf-8")
        code, _, err = cap(["mine", "--input", str(bad)])
        assert code == 2
        assert "line 1" in err


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["mine", "verify", "stats"])
    def test_directory_input(self, command, tmp_path):
        code, _, err = cap([command, "--input", str(tmp_path)])
        assert code == 2
        assert "cannot read input" in err

    @pytest.mark.parametrize("path", ["", "no\tsuch\tfile"])
    def test_path_never_read_as_tsv_text(self, path):
        # an empty path or one with tabs names a file; it is never parsed as TSV
        code, out, err = cap(["stats", "--input", path])
        assert (code, out) == (2, "")
        assert "cannot read input" in err

    def test_path_with_tabs_is_a_file(self, tmp_path):
        path = tmp_path / "sample\tkg.tsv"
        path.write_bytes(FIXTURE.read_bytes())
        assert cap(["stats", "--input", str(path)]) == (0, STATS_GOLDEN, "")

    def test_non_utf8_input(self, tmp_path):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes("Zo\xeb\tspeaks\tGerman\n".encode("latin-1"))
        code, _, err = cap(["mine", "--input", str(bad)])
        assert code == 2
        assert "cannot read input" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mine"],
            ["verify", "--head", "speaks"],
            ["predict", "--query", "speaks(A._Merkel, ?)"],
            ["stats"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_directory_output(self, argv, rules_file, tmp_path):
        if argv[0] == "predict":
            argv = argv + ["--rules", str(rules_file)]
        code, out, err = cap(argv + ["--input", str(FIXTURE), "--output", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot write output: {tmp_path}\n"


class TestVerify:
    def test_fixture_agrees(self):
        code, out, _ = cap(["verify", "--input", str(FIXTURE)])
        assert code == 0
        assert out == "verified 936 chain rules: OK\n"

    def test_single_head(self):
        code, out, _ = cap(["verify", "--input", str(FIXTURE), "--head", "speaks"])
        assert code == 0
        assert out == "verified 156 chain rules: OK\n"

    def test_unknown_head(self):
        code, _, err = cap(["verify", "--input", str(FIXTURE), "--head", "bogus"])
        assert code == 64
        assert "unknown relation" in err

    @pytest.mark.parametrize("max_len", ["1", "0", "-3", "10"])
    def test_bad_max_len(self, max_len):
        code, out, err = cap(["verify", "--input", str(FIXTURE), "--max-len", max_len])
        assert (code, out) == (64, "")
        assert err.startswith("error:")

    def test_chain_bodies_built_lazily(self):
        kg = load_triples(FIXTURE)
        tracemalloc.start()
        try:
            first = next(r for r in cli._chain_rules(kg, 0, 6) if len(r.body) == 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first.body) == 5
        assert peak < 1 << 20

    def test_divergence_exits_one(self, monkeypatch):
        monkeypatch.setattr(cli, "matrix_support", lambda kg, rule: 999)
        code, out, _ = cap(["verify", "--input", str(FIXTURE), "--head", "speaks"])
        assert code == 1
        assert out.startswith("verified 156 chain rules: FAIL\n")
        assert "mismatch" in out


class TestPredict:
    def test_subject_query(self, rules_file):
        code, out, _ = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "speaks(A._Merkel, ?)"]
        )
        assert code == 0
        assert out == "rank\tcandidate\tconf_vector\n1\tGerman\t0.666667,0.666667\n"

    def test_object_query(self, rules_file):
        code, out, _ = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "speaks(?, German)"]
        )
        assert code == 0
        assert out == (
            "rank\tcandidate\tconf_vector\n"
            "1\tA._Merkel\t0.666667,0.666667\n"
            "2\tU.v.d._Leyen\t0.666667,0.666667\n"
        )

    def test_top_limit(self, rules_file):
        code, out, _ = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "speaks(?, German)", "--top", "1"]
        )
        assert code == 0
        assert out.count("\n") == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one(self, rules_file, top):
        code, out, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "speaks(?, German)", "--top", top]
        )
        assert (code, out) == (64, "")
        assert err.startswith("error:")

    def test_single_confidence_rule(self, rules_file):
        code, out, _ = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "nationality(A._Merkel, ?)"]
        )
        assert code == 0
        assert out == "rank\tcandidate\tconf_vector\n1\tGermany\t1.000000\n"

    def test_no_matching_rules(self, rules_file):
        code, out, _ = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", "worksFor(E._Macron, ?)"]
        )
        assert code == 0
        assert out == "rank\tcandidate\tconf_vector\n"

    @pytest.mark.parametrize(
        "query,msg",
        [
            ("speaks A._Merkel ?", "malformed query"),
            ("speaks(?, ?)", "exactly one '?'"),
            ("speaks(A._Merkel, German)", "exactly one '?'"),
            ("bogus(A._Merkel, ?)", "unknown relation"),
            ("speaks(Nobody, ?)", "unknown entity"),
        ],
    )
    def test_bad_queries(self, rules_file, query, msg):
        code, _, err = cap(["predict", "--input", str(FIXTURE), "--rules", str(rules_file), "--query", query])
        assert code == 64
        assert msg in err

    def test_missing_rules_file(self):
        code, _, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", "no_rules.tsv", "--query", "speaks(?, German)"]
        )
        assert code == 2
        assert "cannot read rules" in err

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_rules_file(self, tmp_path, kind):
        path = tmp_path
        if kind == "non_utf8":
            path = tmp_path / "latin1.tsv"
            path.write_bytes((cli.HEADER + "\nZo\xeb\n").encode("latin-1"))
        code, _, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(path), "--query", "speaks(?, German)"]
        )
        assert code == 2
        assert "cannot read rules" in err

    @pytest.mark.parametrize("cell", ["bogus", "1/0", "-1/2=-0.500000", "3/2=1.500000"])
    def test_rules_file_bad_confidence(self, tmp_path, cell):
        row = ["nationality(?a, ?b) => speaks(?a, ?b)", "1", "1/3", "0.3", "1/1=1.0", cell, "subject"]
        bad = tmp_path / "conf.tsv"
        bad.write_text(cli.HEADER + "\n" + "\t".join(row) + "\n", encoding="utf-8")
        code, out, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(?, German)"]
        )
        assert (code, out) == (2, "")
        assert "rules file line 2: confidence" in err

    @pytest.mark.parametrize(
        "rule,msg",
        [
            ("nationality(?a, ?c) => speaks(?a, ?b)", "unsafe rule"),
            ("nationality(?a, ?b) & officialLang(?c, ?d) => speaks(?a, ?b)", "disconnected rule"),
        ],
    )
    def test_rules_file_rule_that_cannot_fire(self, tmp_path, rule, msg):
        row = [rule, "1", "1/3", "0.3", "1/1=1.0", "1/1=1.0", "subject"]
        bad = tmp_path / "unfit.tsv"
        bad.write_text(cli.HEADER + "\n" + "\t".join(row) + "\n", encoding="utf-8")
        code, out, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(A._Merkel, ?)"]
        )
        assert (code, out) == (2, "")
        assert f"error: rules file line 2: {msg}" in err

    @pytest.mark.parametrize(
        "rule,msg",
        [
            ("bogus(?a, ?b) => speaks(?a, ?b)", "unknown relation: 'bogus'"),
            ("nationality(?a ?b) => speaks(?a, ?b)", "malformed atom"),
        ],
    )
    def test_rules_file_rule_that_does_not_parse(self, tmp_path, rule, msg):
        good = ["nationality(?a, ?b) => speaks(?a, ?b)", "1", "1/3", "0.3", "1/1=1.0", "1/1=1.0", "subject"]
        bad = tmp_path / "unparsed.tsv"
        lines = [cli.HEADER, "\t".join(good), "\t".join([rule] + good[1:])]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(A._Merkel, ?)"]
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: rules file line 3: {msg}")

    def test_rules_file_without_header(self, tmp_path):
        bad = tmp_path / "norules.tsv"
        bad.write_text("not a header\n", encoding="utf-8")
        code, _, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(?, German)"]
        )
        assert code == 2
        assert "header" in err

    def test_rules_file_short_row(self, tmp_path):
        bad = tmp_path / "short.tsv"
        bad.write_text(cli.HEADER + "\nonly\tthree\tfields\n", encoding="utf-8")
        code, _, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(?, German)"]
        )
        assert code == 2
        assert "line 2" in err

    def test_rules_file_body_over_cap(self, tmp_path):
        body = " & ".join(f"worksFor(?v{i}, ?v{i + 1})" for i in range(9))
        row = [f"{body} => speaks(?v0, ?v9)", "1", "1/3", "0.3", "1/1=1.0", "1/1=1.0", "subject"]
        bad = tmp_path / "long.tsv"
        bad.write_text(cli.HEADER + "\n" + "\t".join(row) + "\n", encoding="utf-8")
        code, out, err = cap(
            ["predict", "--input", str(FIXTURE), "--rules", str(bad), "--query", "speaks(?, German)"]
        )
        assert (code, out) == (2, "")
        assert "more than 8 distinct atoms" in err


class TestStats:
    def test_golden_output(self):
        code, out, err = cap(["stats", "--input", str(FIXTURE)])
        assert (code, err) == (0, "")
        assert out == STATS_GOLDEN


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hornforge.cli", "stats", "--input", str(FIXTURE)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == STATS_GOLDEN

    def test_script_name(self):
        proc = subprocess.run(["hornforge", "stats", "--input", str(FIXTURE)], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == STATS_GOLDEN

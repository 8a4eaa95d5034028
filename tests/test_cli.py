"""Command-line interface: golden outputs, exit codes, flag plumbing."""

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hornforge.cli as cli
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
        ],
    )
    def test_bad_flags(self, extra):
        code, out, err = cap(["mine", "--input", str(FIXTURE)] + extra)
        assert code == 64
        assert out == ""
        assert err.startswith("error:")

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

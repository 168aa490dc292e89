import json
import os
import random
import subprocess
import sys

import pytest

import grigconj
from conftest import rand_reduced
from grigconj import cli, engine, quotient, search, sptree, words
from grigconj.words import inverse, product


def run_lines(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out.strip().splitlines()


class TestBasicCommands:
    def test_reduce(self, capsys):
        code, lines = run_lines(capsys, "reduce", "bcd")
        assert code == 0 and lines == ["1"]

    def test_reduce_keeps_reduced(self, capsys):
        code, lines = run_lines(capsys, "reduce", "abab")
        assert code == 0 and lines == ["abab"]

    def test_norm_table_weights(self, capsys):
        code, lines = run_lines(capsys, "norm", "dadadad", "--table-weights")
        assert code == 0 and lines == ["8.1157"]

    def test_equal(self, capsys):
        code, lines = run_lines(capsys, "equal", "bc", "d")
        assert code == 0 and lines == ["YES"]
        code, lines = run_lines(capsys, "equal", "a", "b")
        assert code == 1 and lines == ["NO"]

    def test_conj_yes(self, capsys):
        code, lines = run_lines(capsys, "conj", "b", "aba")
        assert code == 0 and lines == ["YES"]

    def test_conj_no(self, capsys):
        code, lines = run_lines(capsys, "conj", "b", "c")
        assert code == 1 and lines == ["NO"]

    def test_parse_error_exit_code(self, capsys):
        code = cli.run(["reduce", "xyz"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_unknown_command(self, capsys):
        assert cli.run(["frobnicate"]) == 2


class TestJson:
    def test_conj_json(self, capsys):
        code, lines = run_lines(capsys, "--json", "conj", "b", "aba")
        assert code == 0
        payload = json.loads(lines[0])
        assert payload["conjugate"] is True
        assert isinstance(payload["q_set"], list)

    def test_conj_json_no(self, capsys):
        # A NO carries no q_set key: the payload is exactly this object.
        code, lines = run_lines(capsys, "--json", "conj", "a", "b")
        assert code == 1
        assert lines == ['{"conjugate": false}']

    def test_table9_json(self, capsys):
        code, lines = run_lines(capsys, "--json", "table9")
        assert code == 0
        rows = json.loads(lines[0])
        assert len(rows) == 100
        assert rows[0]["word"] == "1"


class TestPairsCommand:
    def test_planted_pair(self, tmp_path, capsys):
        f = tmp_path / "words.txt"
        f.write_text("# comment\nb\nc\naba\n\n")
        code, lines = run_lines(capsys, "pairs", str(f))
        assert code == 0 and lines == ["0 2"]

    def test_no_pair(self, tmp_path, capsys):
        f = tmp_path / "words.txt"
        f.write_text("b\nc\nd\n")
        code, lines = run_lines(capsys, "pairs", str(f))
        assert code == 1 and lines == ["NONE"]

    @pytest.mark.parametrize(
        "text",
        [
            "# comment\nb\nc\naba\n",
            "# comment\r\nb\r\nc\r\naba\r\n",
            "# comment\rb\rc\raba\r",
            "# comment\nb\nc\naba",
            "  # indented comment\r\n\r\n\tb \r\n \r\nc\r\n  aba",
        ],
        ids=["lf", "crlf", "cr", "no-final-newline", "indented-comment"],
    )
    def test_line_endings(self, tmp_path, capsys, text):
        f = tmp_path / "words.txt"
        f.write_bytes(text.encode())
        code, lines = run_lines(capsys, "pairs", str(f))
        assert code == 0 and lines == ["0 2"]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_only_line_endings_split_lines(self, tmp_path, capsys, sep):
        # b<sep>aba is one line with a bad letter, not the lines b and aba.
        f = tmp_path / "words.txt"
        f.write_bytes(f"c\nb{sep}aba\n".encode())
        assert cli.run(["pairs", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: invalid symbol(s) [{sep!r}] in {'b' + sep + 'aba'!r}"
        ]

    def test_missing_file(self, capsys):
        assert cli.run(["pairs", "/nonexistent/file.txt"]) == 2

    def test_file_not_utf8_is_an_error(self, tmp_path, capsys):
        f = tmp_path / "words.txt"
        f.write_bytes(b"aba\n\xff\xfeb\n")
        for extra in ([], ["--json"]):
            assert cli.run(extra + ["pairs", str(f)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "utf-8" in lines[0]

    def test_bad_letter_is_an_error(self, tmp_path, capsys):
        # Before or after the first pair (b, aba): every line is parsed.
        f = tmp_path / "words.txt"
        for text in ("b\nabx\naba\n", "b\naba\nabx\n"):
            f.write_text(text)
            for extra in ([], ["--json"]):
                assert cli.run(extra + ["pairs", str(f)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == ["error: invalid symbol(s) ['x'] in 'abx'"]

    @pytest.mark.parametrize(
        "text, message",
        [
            # "|" is the separator of the whole-list check.
            ("b\nab|ab\naba\n", "error: invalid symbol(s) ['|'] in 'ab|ab'"),
            ("b\naba\nabá\n", "error: invalid symbol(s) ['á'] in 'abá'"),
        ],
    )
    def test_separator_or_non_ascii_letter_is_an_error(self, tmp_path, capsys, text, message):
        f = tmp_path / "words.txt"
        f.write_text(text, encoding="utf-8")
        for extra in ([], ["--json"]):
            assert cli.run(extra + ["pairs", str(f)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [message]

    def test_identity_and_unreduced_lines(self, tmp_path, capsys):
        # "1" and aabaa (= b) send the file through the per-line parse; the
        # same list in reduced words takes the whole-list check.
        f = tmp_path / "words.txt"
        f.write_text("ab\n1\naabaa\nc\nb\n")
        assert engine.conjugate_pairs(["ab", "", "b", "c", "b"]) == (2, 4)
        for extra, want in (([], ["2 4"]), (["--json"], ['{"pair": [2, 4]}'])):
            code, lines = run_lines(capsys, *extra, "pairs", str(f))
            assert code == 0 and lines == want


class TestConjugatorCommand:
    def test_finds_and_verifies(self, capsys):
        code, lines = run_lines(capsys, "conjugator", "aba", "b", "--verify")
        assert code == 0
        assert lines[0] == "a"
        assert lines[1] == "verified: YES"

    def test_none_case(self, capsys):
        code, lines = run_lines(capsys, "conjugator", "b", "c")
        assert code == 1 and lines == ["NONE"]

    def test_length_reported_as_log_n(self, capsys):
        rng = random.Random(7)
        v = rand_reduced(2000, rng)
        x = rand_reduced(1000, rng)
        u = product(product(inverse(x), v), x)
        code, lines = run_lines(capsys, "conjugator", u, v, "--verify")
        assert code == 0 and lines[1] == "verified: YES"
        length, log_n = lines[2].split(", ")
        assert length == f"length {len(lines[0])}"
        assert log_n.startswith("log_n ") and log_n.endswith(" (bound 8)")
        assert 0 < float(log_n.split()[1]) < 8
        code, lines = run_lines(capsys, "--json", "conjugator", u, v, "--verify")
        payload = json.loads(lines[0])
        assert code == 0 and payload["verified"] is True
        assert "length_bound_ratio" not in payload
        assert 0 < payload["length_log_n"] < 8

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_failed_verify_is_internal_error(self, monkeypatch, capsys, json_flag):
        # x = b fails aba = x^-1 b x; the failed re-check must read neither
        # as an answer nor as a usage error.
        monkeypatch.setattr(search, "find_conjugator", lambda u, v: "b")
        assert cli.run(json_flag + ["conjugator", "aba", "b", "--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: AssertionError: ")
        assert len(captured.err.splitlines()) == 1


class TestTreeCommand:
    def test_stats(self, capsys):
        code, lines = run_lines(capsys, "tree", "abababab", "--stats")
        assert code == 0
        fields = dict(line.split("\t", 1)[:2] for line in lines if "\t" in line)
        assert fields["vertices"] == "11"

    @pytest.mark.parametrize("word", ["bcd", "ddabacabbadabacabad"])
    def test_library_parses_as_the_cli_does(self, capsys, word):
        # Both words are unreduced: bcd is the identity, and the other
        # reduces to abababacabad, of norm above 9.
        code, lines = run_lines(capsys, "--json", "tree", "--stats", word)
        assert code == 0
        payload = json.loads(lines[0])
        tree, t9 = sptree.build_tree(word), sptree.build_tree9(word)
        assert tree == sptree.build_tree(words.reduce(word))
        assert t9 == sptree.build_tree9(words.reduce(word))
        assert (payload["vertex_count"], payload["total_norm"], payload["height"]) == (
            tree.vertex_count, tree.total_norm, tree.height)
        assert payload["total_label_length"] == tree.total_label_len
        assert (payload["t9_vertex_count"], payload["t9_total_norm"]) == (
            t9.vertex_count, t9.total_norm)


class TestTable9Command:
    def test_frozen_rows(self, capsys):
        code, lines = run_lines(capsys, "table9")
        assert code == 0
        assert len(lines) == 100
        rows = {line.split("\t")[0]: line for line in lines}
        assert rows["dadadad"] == "dadadad\t8.1157\t1"
        assert rows["abab"] == "abab\t7.5118\tca,ac"
        assert rows["cacac"].split("\t")[1] == "7.3758"


class TestQuotientDump:
    def test_sections_present(self, capsys):
        code, lines = run_lines(capsys, "quotient-dump")
        assert code == 0
        text = "\n".join(lines)
        for header in ("# mul", "# inv", "# gen_coset", "# lift", "# base_q"):
            assert header in text

    def test_json_shape(self, capsys):
        code, lines = run_lines(capsys, "--json", "quotient-dump")
        payload = json.loads(lines[0])
        assert payload["stabilizer_depth"] >= 1
        assert len(payload["mul"]) == 16
        assert len(payload["pairs"]) == 32
        assert payload["base_q"]["1"] == list(range(16))


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            AssertionError("invariant"),
            engine.CapacityViolation("row over 256"),
            search.LiftResidual("residue\nleft"),
            search.BaseIncomplete("slot"),
            quotient.SandwichGap("gap"),
            # Crashes outside the invariant checks must not read as "NO".
            search.NotLiftable("cosets"),
            words.NotInStabilizer("odd word"),
            KeyError("word"),
            RecursionError("maximum recursion depth exceeded"),
        ],
    )
    @pytest.mark.parametrize(
        "target, argv",
        [
            ((search, "find_conjugator"), ["conjugator", "aba", "b"]),
            ((engine, "solve"), ["conj", "b", "aba"]),
        ],
    )
    def test_exit_three_with_one_line(self, monkeypatch, capsys, exc, target, argv):
        def boom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*target, boom)
        assert cli.run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ")
        assert len(captured.err.splitlines()) == 1

    def test_build_divergence(self, monkeypatch, capsys):
        # The build's depth cap is fixed, so a build that fails to certify
        # is a fault in the code.
        monkeypatch.setattr(quotient, "_TABLES", None)
        monkeypatch.setattr(quotient, "_MAX_DEPTH", 1)
        assert cli.run(["conj", "b", "aba"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: BuildDivergence: index did not reach 16")
        assert len(captured.err.splitlines()) == 1


def run_python(*args):
    """``python`` with ``args`` in a fresh process that imports this
    package from the tree under test."""
    src = os.path.dirname(os.path.dirname(grigconj.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = run_python("-m", "grigconj", "conj", "b", "aba")
        assert proc.returncode == 0
        assert proc.stdout == "YES\n"

    def test_grig_max_depth_is_ignored(self, monkeypatch):
        # The build's depth cap is a constant: no environment variable
        # sets it.
        monkeypatch.setenv("GRIG_MAX_DEPTH", "x")
        proc = run_python("-m", "grigconj", "conj", "b", "aba")
        assert proc.returncode == 0
        assert proc.stdout == "YES\n"

    def test_build_divergence_in_a_fresh_process(self):
        # No table or cache exists yet: the first build runs from inside
        # the first solve.
        proc = run_python(
            "-c",
            "import sys; from grigconj import cli, quotient; quotient._MAX_DEPTH = 1; "
            "sys.exit(cli.run(sys.argv[1:]))",
            "conj", "b", "aba",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: internal: BuildDivergence: ")
        assert len(proc.stderr.splitlines()) == 1

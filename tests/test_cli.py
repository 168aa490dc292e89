import json
import os
import subprocess
import sys

import pytest

import grigconj
from grigconj import cli, quotient


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

    def test_missing_file(self, capsys):
        assert cli.run(["pairs", "/nonexistent/file.txt"]) == 2


class TestConjugatorCommand:
    def test_finds_and_verifies(self, capsys):
        code, lines = run_lines(capsys, "conjugator", "aba", "b", "--verify")
        assert code == 0
        assert lines[0] == "a"
        assert lines[1] == "verified: YES"

    def test_none_case(self, capsys):
        code, lines = run_lines(capsys, "conjugator", "b", "c")
        assert code == 1 and lines == ["NONE"]


class TestTreeCommand:
    def test_stats(self, capsys):
        code, lines = run_lines(capsys, "tree", "abababab", "--stats")
        assert code == 0
        fields = dict(line.split("\t", 1)[:2] for line in lines if "\t" in line)
        assert fields["vertices"] == "11"


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


class TestConfigurationErrors:
    @pytest.mark.parametrize(
        "raw, message",
        [("x", "error: GRIG_MAX_DEPTH"), ("1", "error: index did not reach 16")],
    )
    def test_exit_three_with_one_line(self, monkeypatch, capsys, raw, message):
        monkeypatch.setattr(quotient, "_TABLES", None)
        monkeypatch.setenv("GRIG_MAX_DEPTH", raw)
        assert cli.run(["conj", "b", "aba"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert len(captured.err.splitlines()) == 1


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(grigconj.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("GRIG_MAX_DEPTH", None)
        proc = subprocess.run(
            [sys.executable, "-m", "grigconj", "conj", "b", "aba"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "YES\n"

"""Command line behavior: output goldens, exit codes, stdin plumbing."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tightlp.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"

DOUBLE_NEG = "p :- not not p.\np :- p, q.\n"
CONTRARY = "p :- not -q.\n-q :- not p.\n"


@pytest.fixture
def program_file(tmp_path):
    def write(text, name="prog.lp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def run_module(args, input=None, **env):
    """Run a fresh interpreter on the package sources, as the CLI runs."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], input=input, capture_output=True, text=True, env=env
    )


class TestParse:
    def test_canonical_echo(self, program_file, capsys):
        assert run(["parse", program_file("p :- q,r.  % c\n")]) == 0
        assert capsys.readouterr().out == "p :- q, r.\n"

    def test_stdin_dash(self, monkeypatch, capsys):
        feed(monkeypatch, "{a}.\n")
        assert run(["parse", "-"]) == 0
        assert capsys.readouterr().out == "a :- not not a.\n"

    def test_parse_error_exit_code(self, program_file, capsys):
        assert run(["parse", program_file("p :- .")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 1, column 6")

    def test_missing_file(self, capsys):
        assert run(["parse", "/nonexistent/x.lp"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_option_exits_one(self, capsys):
        assert run(["parse", "--bogus", "x"]) == 1

    def test_program_file_is_closed(self, program_file):
        # development mode reports a file left for the collector to close
        proc = run_module(["-X", "dev", "-m", "tightlp", "parse", program_file("p :- q.\n")])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p :- q.\n", "")

    def test_program_file_is_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "prog.lp"
        path.write_text("p. % café\n", encoding="utf-8")
        proc = run_module(
            ["-X", "utf8=0", "-m", "tightlp", "parse", str(path)],
            PYTHONCOERCECLOCALE="0",
            LC_ALL="C",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p.\n", "")

    @pytest.mark.parametrize(
        "text, column, char", [("é.", 1, "é"), ("p(²).", 3, "²"), ("p(٣).", 3, "٣")]
    )
    def test_non_ascii_is_a_parse_error(self, monkeypatch, capsys, text, column, char):
        feed(monkeypatch, text)
        assert run(["parse", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "parse error: line 1, column %d: unexpected character %r\n" % (column, char)
        assert captured.err == expected


class TestComplete:
    def test_golden(self, program_file, capsys):
        assert run(["complete", program_file(DOUBLE_NEG)]) == 0
        assert capsys.readouterr().out == "p <-> -(-p) | (p & q)\nq <-> false\n"

    def test_classical_negation_is_reported(self, program_file, capsys):
        assert run(["complete", program_file(CONTRARY)]) == 1
        assert "eliminate_classical_negation" in capsys.readouterr().err


class TestTight:
    def test_absolute_verdict_with_levels(self, program_file, capsys):
        assert run(["tight", program_file("p :- q, not r.\nq.")]) == 0
        out = capsys.readouterr().out
        assert out == "absolutely tight\nlambda: p=1, q=0, r=0\n"

    def test_cycle_report(self, program_file, capsys):
        assert run(["tight", program_file(DOUBLE_NEG)]) == 0
        assert capsys.readouterr().out == "not absolutely tight; cycle: p -> p\n"

    def test_on_a_set(self, program_file, capsys):
        path = program_file(DOUBLE_NEG)
        assert run(["tight", path, "--on", "{p}"]) == 0
        assert capsys.readouterr().out == "tight on {p}\nlambda: p=0\n"
        assert run(["tight", path, "--on", "p, q"]) == 0
        assert capsys.readouterr().out == "not tight on {p, q}; cycle: p -> p\n"

    @pytest.mark.parametrize("on", [None, "a,b,c,d"])
    def test_printed_cycle_does_not_depend_on_hash_order(self, program_file, on):
        path = program_file("a :- b. b :- a. b :- c. c :- b. c :- d. d :- c. d :- d.\n")
        argv = ["-m", "tightlp", "tight", path] + ([] if on is None else ["--on", on])
        procs = [run_module(argv, PYTHONHASHSEED=seed) for seed in ("0", "1", "2")]
        assert all(proc.returncode == 0 for proc in procs)
        outs = {proc.stdout for proc in procs}
        assert len(outs) == 1
        head, _, shown = outs.pop().rstrip("\n").partition("; cycle: ")
        assert head.startswith("not ")
        cycle = shown.split(" -> ")
        # parent graph on {a, b, c, d}: body literal -> head, for every rule
        edges = {("b", "a"), ("a", "b"), ("c", "b"), ("b", "c"), ("d", "c"), ("c", "d"), ("d", "d")}
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(step in edges for step in zip(cycle, cycle[1:]))

    def test_inconsistent_set_rejected(self, program_file, capsys):
        assert run(["tight", program_file(DOUBLE_NEG), "--on", "p, -p"]) == 1
        assert "consistent" in capsys.readouterr().err

    def test_long_chain_gets_its_levels(self, program_file, capsys):
        # a(1) sorts first but sits at the far end of the chain
        n = 3000
        text = "".join("a(%d) :- a(%d), not c(%d).\n" % (i, i + 1, i) for i in range(1, n + 1))
        path = program_file(text)
        chain = ", ".join("a(%d)=%d" % (i, n + 1 - i) for i in range(1, n + 2))
        zeros = ", ".join("c(%d)=0" % i for i in range(1, n + 1))
        assert run(["tight", path]) == 0
        assert capsys.readouterr().out == "absolutely tight\nlambda: %s, %s\n" % (chain, zeros)
        on = ", ".join("a(%d)" % i for i in range(1, n + 2))
        assert run(["tight", path, "--on", on]) == 0
        assert capsys.readouterr().out == "tight on {%s}\nlambda: %s\n" % (on, chain)


class TestSolve:
    def test_plain_sets(self, program_file, capsys):
        assert run(["solve", program_file(DOUBLE_NEG)]) == 0
        assert capsys.readouterr().out == "{}\n{p}\n"

    def test_classical_negation_round_trips(self, program_file, capsys):
        assert run(["solve", program_file(CONTRARY)]) == 0
        assert capsys.readouterr().out == "{p}\n{-q}\n"

    def test_trace_marks_dropped_models(self, program_file, capsys):
        assert run(["solve", program_file("p :- p.\n"), "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "{}\n"
        assert "trace: {} accepted [tight-on-model]" in captured.err
        assert "trace: {p} dropped (not an answer set; reduct fixpoint is {})" in captured.err

    def test_model_cap_exit_code(self, program_file, capsys):
        assert run(["solve", program_file("{a}.\n{b}.\n"), "--max-models", "2"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_negative_max_models_is_a_usage_error(self, program_file, capsys):
        assert run(["solve", program_file("{a}.\n"), "--max-models", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --max-models: must not be negative")

    def test_agrees_with_enumerate(self, program_file, capsys):
        path = program_file("{a}.\n{b}.\n:- a, b.\n")
        assert run(["solve", path]) == 0
        solved = capsys.readouterr().out
        assert run(["enumerate", path]) == 0
        assert capsys.readouterr().out == solved


class TestEnumerate:
    def test_golden(self, program_file, capsys):
        assert run(["enumerate", program_file(CONTRARY)]) == 0
        assert capsys.readouterr().out == "{p}\n{-q}\n"

    def test_bound_is_adjustable(self, program_file, capsys):
        text = "".join("{a%d}.\n" % i for i in range(5))
        path = program_file(text)
        assert run(["enumerate", path, "--brute-bound", "4"]) == 2
        assert "cap" in capsys.readouterr().err
        assert run(["enumerate", path, "--brute-bound", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 32

    def test_negative_bound_is_a_usage_error(self, program_file, capsys):
        assert run(["enumerate", program_file("{a}.\n"), "--brute-bound", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument --brute-bound: must not be negative")

    def test_default_bound_refuses_large_programs(self, program_file, capsys):
        text = "".join("{a%d}.\n" % i for i in range(30))
        assert run(["enumerate", program_file(text)]) == 2


class TestDimacs:
    def test_stdout(self, program_file, capsys):
        assert run(["dimacs", program_file("q.\np :- q.\n")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c var 1 = p\nc var 2 = q\np cnf 2 3\n")
        assert out.endswith("0\n")

    def test_output_file(self, program_file, tmp_path, capsys):
        target = tmp_path / "out.cnf"
        assert run(["dimacs", program_file(CONTRARY), "-o", str(target)]) == 0
        text = target.read_text()
        assert "c var 3 = q_neg" in text
        assert capsys.readouterr().out == ""


def wide_program(shape, n):
    """One head with n rules, or one body that is an n-way disjunction
    (``or``) or an n-way conjunction of negations (``andnot``)."""
    if shape == "head":
        return "".join("h :- a(%d), not b(%d).\n" % (i, i) for i in range(1, n + 1))
    if shape == "andnot":
        return "h :- %s.\n" % ", ".join("not b(%d)" % i for i in range(1, n + 1))
    return "h :- %s.\n" % "; ".join("a(%d)" % i for i in range(1, n + 1))


class TestDeepInputs:
    def test_recursion_limit_is_a_resource_cap(self, program_file, capsys):
        # a list of any length is one node, so only nesting runs deep
        assert run(["solve", program_file("h :- %sa.\n" % ("not " * 3000))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource cap exceeded: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "complete", "dimacs"])
    @pytest.mark.parametrize("shape", ["head", "or"])
    def test_480_elements_fit_the_default_stack(self, shape, command):
        # a fresh interpreter starts from a shallow stack, as the CLI does
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tightlp", command, "-"],
            input=wide_program(shape, 480),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["parse", "complete"])
    @pytest.mark.parametrize("shape", ["head", "or"])
    def test_900_elements_fit_parse_and_complete(self, shape, command):
        # through python -m their limits are 983-986 elements, so one more
        # frame per nesting level in the renderer or the completion halves
        # them and fails here
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tightlp", command, "-"],
            input=wide_program(shape, 900),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["parse", "complete", "tight", "solve", "dimacs"])
    @pytest.mark.parametrize("shape", ["head", "or", "andnot"])
    def test_2000_elements_fit_every_command(self, shape, command):
        # a list is one node whatever its length, so no walker nests per element
        proc = run_module(["-m", "tightlp", command, "-"], wide_program(shape, 2000))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "command, depth",
        [("parse", 900), ("complete", 900), ("tight", 900), ("solve", 900), ("dimacs", 900)],
    )
    def test_nested_not_fits_the_default_stack(self, command, depth):
        # through python -m every command reaches 977 nested nots (a formula
        # keeps its hash, so clausify's cache does not recurse); one more
        # frame per nesting level in the parser, the renderer or clausify's
        # walk fails here
        proc = run_module(["-m", "tightlp", command, "-"], "h :- %sa.\n" % ("not " * depth))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["solve", "dimacs"])
    def test_20000_way_disjunction_solves(self, command):
        proc = run_module(["-m", "tightlp", command, "-"], wide_program("or", 20000))
        assert proc.returncode == 0, proc.stderr
        if command == "solve":
            assert proc.stdout == "{}\n"


class TestGenerators:
    def test_queens_pipe_through_solve(self, monkeypatch, capsys):
        assert run(["gen-queens", "4"]) == 0
        board = capsys.readouterr().out
        feed(monkeypatch, board)
        assert run(["solve", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.count("queen") == 4 for line in lines)

    def test_blocks_names(self, capsys):
        assert run(["gen-blocks", "2", "0", "--names", "x,y"]) == 0
        out = capsys.readouterr().out
        assert "on(x,table,0) :- not -on(x,table,0)." in out
        assert "move" not in out

    def test_tc_constants(self, capsys):
        assert run(["gen-tc", "1", "2", "--p-name", "edge", "--tc-name", "path"]) == 0
        out = capsys.readouterr().out
        assert "path(1,2) :- edge(1,2)." in out
        assert "path(1,2) :- edge(1,1), path(1,2)." in out
        assert len(out.strip().splitlines()) == 12

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-tc", "A", "b"],
            ["gen-tc", "1", "-1"],
            ["gen-tc", "1", "not"],
            ["gen-blocks", "2", "1", "--names", "B1,b2"],
        ],
    )
    def test_terms_the_parser_would_reject(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid")

    def test_bad_board_size(self, capsys):
        assert run(["gen-queens", "0"]) == 1

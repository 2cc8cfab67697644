"""Command line behavior: output goldens, exit codes, stdin plumbing."""

import gc
import io
import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import consistent_subsets, random_program
from reference import literal_set_key, minimal_closed_set, reduct
import tightlp.cli
import tightlp.sat
import tightlp.semantics
import tightlp.syntax
import tightlp.tightness
from tightlp import BlocksSpec, DefSpec, answer_sets_via_completion, blocksworld_program, def_rules
from tightlp.cli import run
from tightlp.syntax import format_literal_set, literal_key, parse_literals, parse_program, render

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

    @pytest.mark.parametrize("on", [None, "a, b", "a", ""])
    def test_one_graph_per_request(self, program_file, capsys, monkeypatch, on):
        # counted wherever it is looked up, so a second build inside a helper shows
        calls = []
        for module in (tightlp.cli, tightlp.tightness):
            for name in ("parent_graph", "positive_dependency_graph"):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(1) or real(*a))
        path = program_file("a :- b. b :- a. c :- not a.\n")
        assert run(["tight", path] + ([] if on is None else ["--on", on])) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        expected = {
            None: "not absolutely tight; cycle: a -> b -> a\n",
            "a, b": "not tight on {a, b}; cycle: a -> b -> a\n",
            "a": "tight on {a}\nlambda: a=0\n",
            "": "tight on {}\n",
        }
        assert out == expected[on]

    @pytest.mark.parametrize(
        "on", [["--on=-q,p"], ["--on", "{-q, p}"], ["--on", "-q, p"], ["--on", "-q,p"]]
    )
    def test_on_a_set_that_starts_with_a_contrary(self, program_file, capsys, on):
        # argparse alone reads a bare "--on -q,p" as two options; every form passes the set
        assert run(["tight", program_file("p :- -q.\n-q :- not r.\n"), *on]) == 0
        assert capsys.readouterr().out == "tight on {p, -q}\nlambda: p=1, -q=0\n"

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

    def test_contraries_are_solved_as_written(self, program_file, capsys):
        # q_neg is the name dimacs gives -q; solve reads -q as a literal of its own
        path = program_file("q_neg.\np :- -q.\n")
        assert run(["solve", path]) == 0
        assert capsys.readouterr().out == "{q_neg}\n"
        assert run(["dimacs", path]) == 1
        assert "collides" in capsys.readouterr().err

    def test_trace_marks_dropped_models(self, program_file, capsys):
        assert run(["solve", program_file("p :- p.\n"), "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "{}\n"
        assert "trace: {} accepted [tight-on-model]" in captured.err
        assert "trace: {p} dropped (not an answer set; reduct fixpoint is {})" in captured.err

    def test_model_cap_exit_code(self, program_file, capsys):
        assert run(["solve", program_file("{a}.\n{b}.\n"), "--max-models", "2"]) == 2
        assert capsys.readouterr().err == "resource cap exceeded: more than 2 completion models\n"

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


# a sorts before -a and p(9) before p(10), unlike their text; ints sort
# before identifiers, and predicates of arity 0, 1 and 2 meet
PRINTER_POOL = sorted(
    parse_literals("a, -a, p(9), p(10), -p(10), p(b), r(b,3), r(3,b), -r(3,b), q"), key=literal_key
)
LOOP = parse_literals("c(9), c(10)")


class TestPrintedSets:
    """solve, enumerate and solve --trace print each set as format_literal_set
    does, on programs whose answer sets are a random family: a choice for
    each literal of a universe, and a constraint against each consistent
    subset outside the family.  A positive loop over c(9) and c(10) adds a
    dropped completion model per answer set."""

    def families(self):
        rng = random.Random(83)
        for _ in range(12):
            universe = frozenset(rng.sample(PRINTER_POOL, rng.randint(4, 8)))
            subsets = list(consistent_subsets(universe))
            family = set(rng.sample(subsets, rng.randint(0, min(12, len(subsets)))))
            if rng.random() < 0.5:
                family.add(frozenset())
            yield universe, sorted(family, key=literal_set_key), subsets

    def program(self, universe, family, subsets):
        lines = ["%s :- not not %s." % (l, l) for l in sorted(universe, key=literal_key)]
        for x in subsets:
            if x not in family:
                body = [str(l) for l in x] + ["not %s" % l for l in universe - x]
                lines.append(":- %s." % ", ".join(body))
        lines.append("c(9) :- c(10).\nc(10) :- c(9).")
        return "\n".join(lines) + "\n"

    def test_every_line_is_format_literal_set_of_its_set(self, program_file, capsys):
        shuffled = 0  # sets whose text order is not their literal order
        for universe, family, subsets in self.families():
            path = program_file(self.program(universe, family, subsets))
            printed = "".join(format_literal_set(x) + "\n" for x in family)
            assert run(["solve", path]) == 0
            assert capsys.readouterr() == (printed, "")
            assert run(["enumerate", path]) == 0
            assert capsys.readouterr() == (printed, "")
            assert run(["solve", path, "--trace"]) == 0
            captured = capsys.readouterr()
            assert captured.out == printed
            looped = sorted((x | LOOP for x in family), key=literal_set_key)
            expect = ["trace: %s accepted [tight-on-model]" % format_literal_set(x) for x in family]
            expect += [
                "trace: %s dropped (not an answer set; reduct fixpoint is %s)"
                % (format_literal_set(x), format_literal_set(x - LOOP))
                for x in looped
            ]
            assert captured.err.splitlines()[1:] == expect
            for x in family:
                shuffled += sorted(map(str, x)) != [str(l) for l in sorted(x, key=literal_key)]
        assert shuffled >= 10

    @pytest.mark.parametrize(
        "extra, trace",
        [
            ("", ["{-b} accepted [absolutely-tight]", "{b0} accepted [absolutely-tight]"]),
            ("b0 :- b0.\n", ["{-b} accepted [tight-on-model]", "{b0} accepted [verified]"]),
            (
                "c :- c.\n",
                [
                    "{-b} accepted [tight-on-model]",
                    "{b0} accepted [tight-on-model]",
                    "{-b, c} dropped (not an answer set; reduct fixpoint is {-b})",
                    "{b0, c} dropped (not an answer set; reduct fixpoint is {b0})",
                ],
            ),
        ],
    )
    def test_program_order_where_the_rewritten_order_differs(
        self, extra, trace, program_file, capsys
    ):
        # -b sorts before b0, but its rewritten atom b_neg numbers after b0
        path = program_file("-b :- not b0.\nb0 :- not -b.\n" + extra)
        assert run(["solve", path]) == 0
        assert capsys.readouterr() == ("{-b}\n{b0}\n", "")
        assert run(["enumerate", path]) == 0
        assert capsys.readouterr() == ("{-b}\n{b0}\n", "")
        assert run(["solve", path, "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "{-b}\n{b0}\n"
        lines = captured.err.splitlines()
        assert lines[1:] == ["trace: " + line for line in trace]
        for text in re.findall(r"\{[^}]*\}", captured.err):
            assert format_literal_set(parse_literals(text)) == text


DROPPED = re.compile(r"trace: (\{.*\}) dropped \(not an answer set; reduct fixpoint is (\{.*\})\)")


class TestTraceNotes:
    """Each dropped line of solve --trace names the least fixpoint of the
    reduct relative to its model, as the reference states it: a proper
    subset of the model."""

    def notes(self, text, program_file, capsys):
        """The dropped lines' notes against the reference, and their number."""
        prog = parse_program(text)
        assert run(["solve", program_file(text), "--trace"]) == 0
        lines = capsys.readouterr().err.splitlines()
        notes = dict(m.groups() for m in map(DROPPED.fullmatch, lines) if m)
        expect = {}
        for x in answer_sets_via_completion(prog).completion_models:
            least = minimal_closed_set(reduct(prog, x))
            if least != x:
                assert least is not None and least < x
                expect[format_literal_set(x)] = format_literal_set(least)
        assert notes == expect
        return len(notes)

    def test_random_programs(self, program_file, capsys):
        rng = random.Random(89)
        dropped = 0
        for _ in range(300):
            prog = random_program(
                rng,
                n_atoms=rng.randint(2, 5),
                depth=3,
                classical=rng.random() < 0.5,
                constraint_chance=0.2,
            )
            dropped += self.notes(render(prog) + "\n", program_file, capsys)
        assert dropped >= 50

    def test_free_closure_over_three_constants(self, program_file, capsys):
        choices = "".join("{p(%d,%d)}.\n" % pair for pair in itertools.product((1, 2, 3), repeat=2))
        text = choices + render(def_rules(DefSpec(constants=(1, 2, 3)))) + "\n"
        assert self.notes(text, program_file, capsys) == 1155

    def test_one_compile_per_request(self, program_file, monkeypatch, capsys):
        # the encoding, the tightness verdict, admission and the notes all
        # read one AnswerSetChecker; no dependency graph is built
        calls = {"checker": 0, "graph": 0}
        checker_init = tightlp.semantics.AnswerSetChecker.__init__
        graph = tightlp.tightness.positive_dependency_graph

        def counted_init(self, program):
            calls["checker"] += 1
            checker_init(self, program)

        def counted_graph(program):
            calls["graph"] += 1
            return graph(program)

        monkeypatch.setattr(tightlp.semantics.AnswerSetChecker, "__init__", counted_init)
        monkeypatch.setattr(tightlp.tightness, "positive_dependency_graph", counted_graph)
        assert run(["solve", program_file("p :- p.\n"), "--trace"]) == 0
        assert "trace: {p} dropped" in capsys.readouterr().err
        assert calls == {"checker": 1, "graph": 0}

    def test_solve_walks_no_formula_per_model(self, program_file, monkeypatch, capsys):
        # blocks world 2x2 has classical negation and 43 completion models,
        # all tight on the program: admission reads the search's id sets, and
        # only the printed sets meet Literals, ranked once per request
        names = ("satisfies",)
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        modules = (tightlp.syntax, tightlp.semantics, tightlp.sat, tightlp.cli)
        assert all(any(hasattr(m, name) for m in modules) for name in names)
        for module in modules:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        text = render(blocksworld_program(BlocksSpec(("b1", "b2"), 2)))
        assert run(["solve", program_file(text + "\n")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 43
        assert calls["satisfies"] == 0


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


@pytest.mark.parametrize(
    "argv", [["solve"], ["dimacs"], ["tight"], ["tight", "--on", "h"], ["complete"], ["parse"]]
)
def test_a_request_leaves_no_reference_cycles(program_file, capsys, argv):
    # a cycle would hold the request's clauses and compiled nodes until the
    # cyclic collector ran
    path = program_file(wide_program("head", 300) + "".join("a(%d).\n" % i for i in range(1, 301)))
    assert run([argv[0], path, *argv[1:]]) == 0  # the first call sets up lazily
    gc.collect()
    gc.disable()
    try:
        assert run([argv[0], path, *argv[1:]]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


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

    def test_a_3000_link_positive_cycle(self):
        # the checker's component pass walks the cycle without recursing
        n = 3000
        text = "".join("a(%d) :- a(%d).\n" % (i + 1, i) for i in range(1, n))
        text += "a(1) :- a(%d).\n" % n
        proc = run_module(["-m", "tightlp", "solve", "--trace", "-"], text)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "{}\n"
        every = "{%s}" % ", ".join("a(%d)" % i for i in range(1, n + 1))
        dropped = "trace: %s dropped (not an answer set; reduct fixpoint is {})\n" % every
        assert dropped in proc.stderr

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

    @pytest.mark.parametrize("constants", [["\u0663", "1"], ["\u00b2", "1"], ["1,\u0663"], ["\uff11"]])
    def test_non_ascii_digits_are_not_integers(self, constants, capsys):
        # the parser reads an integer as ASCII digits only
        assert run(["gen-tc", *constants]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = next(c for c in ",".join(constants).split(",") if not c.isascii())
        assert captured.err == "error: invalid term: %r\n" % bad

    def test_bad_board_size(self, capsys):
        assert run(["gen-queens", "0"]) == 1


class TestClosedStdout:
    def test_a_closed_stdout_exits_1_quietly(self):
        # about 460 kB, several pipe buffers, so the write after the close fails
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "tightlp", "gen-tc", *map(str, range(1, 25))]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"tc(1,1) :- p(1,1).\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert err == b""
        assert proc.returncode == 1

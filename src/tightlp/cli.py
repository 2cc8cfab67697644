"""Command line front end: parse, analyze, and solve programs."""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from .syntax import (
    ParseError,
    Program,
    format_literal_set,
    format_ranked_sets,
    literal_key,
    parse_literals,
    parse_program,
    render,
)
from .semantics import AnswerSetChecker, CapacityError, is_consistent
from .semantics import answer_set_ranks_bruteforce
from .completion import completion, render_completion
from .sat import answer_sets_via_completion, clausify, to_dimacs
from .tightness import (
    lambda_witness,  # unused here; perfbench/tracing.py rebinds cli.lambda_witness
    parent_graph,
    positive_dependency_graph,
)
from .generators import BlocksSpec, QueensSpec, blocksworld_program, queens_program
from .transitive_closure import DefSpec, def_rules
from .syntax import eliminate_classical_negation


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative, got %d" % value)
    return value


def _read_program(path: str) -> Program:
    if path == "-":
        return parse_program(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_program(fh.read())


def _print_lines(lines, file=None) -> None:
    (file or sys.stdout).write("".join(line + "\n" for line in lines))


def _cmd_parse(args) -> int:
    print(render(_read_program(args.program)))
    return 0


def _cmd_complete(args) -> int:
    print(render_completion(completion(_read_program(args.program))))
    return 0


def _cmd_tight(args) -> int:
    program = _read_program(args.program)
    if args.on is None:
        graph, verdict = positive_dependency_graph(program), "absolutely tight"
    else:
        x = parse_literals(args.on)
        if not is_consistent(x):
            raise ValueError("--on set must be consistent")
        graph, verdict = parent_graph(program, x), "tight on %s" % format_literal_set(x)
    cycle = graph.find_cycle()
    if cycle is not None:
        print("not %s; cycle: %s" % (verdict, " -> ".join(map(str, cycle))))
        return 0
    print(verdict)
    if graph.vertices:
        depths = sorted(graph.longest_path_depths().items(), key=lambda kv: literal_key(kv[0]))
        print("lambda: " + ", ".join("%s=%d" % kv for kv in depths))
    return 0


def _cmd_solve(args) -> int:
    program = _read_program(args.program)
    result = answer_sets_via_completion(program, max_models=args.max_models)
    n = len(result.accepted)
    rejected = result.rejected if args.trace else ()
    # every set the request prints, each dropped model followed by its fixpoint
    sets = [*result.accepted, *itertools.chain.from_iterable(rejected)]
    lines = format_ranked_sets(result.literals, sets)
    if args.trace:
        stats = result.stats
        trace = [
            "trace: %d completion model(s), stats: %d decisions, %d propagations, %d conflicts"
            % (n + len(rejected), stats.decisions, stats.propagations, stats.conflicts)
        ]
        trace += ["trace: %s accepted [%s]" % pair for pair in zip(lines, result.tags)]
        trace += [
            "trace: %s dropped (not an answer set; reduct fixpoint is %s)" % pair
            for pair in zip(lines[n::2], lines[n + 1 :: 2])
        ]
        _print_lines(trace, sys.stderr)
    _print_lines(lines[:n])
    return 0


def _cmd_enumerate(args) -> int:
    program = _read_program(args.program)
    literals, ranks = answer_set_ranks_bruteforce(program, bound=args.brute_bound)
    _print_lines(format_ranked_sets(literals, ranks))
    return 0


def _cmd_dimacs(args) -> int:
    program, _ = eliminate_classical_negation(_read_program(args.program))
    text = to_dimacs(clausify(AnswerSetChecker(program)))
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_queens(args) -> int:
    print(render(queens_program(QueensSpec(args.n))))
    return 0


def _cmd_gen_blocks(args) -> int:
    if args.names:
        names = tuple(n.strip() for n in args.names.split(",") if n.strip())
    else:
        names = tuple("b%d" % (i + 1) for i in range(args.blocks))
    print(render(blocksworld_program(BlocksSpec(names, args.horizon))))
    return 0


def _cmd_gen_tc(args) -> int:
    parts = [c.strip() for chunk in args.constants for c in chunk.split(",")]
    # an integer is ASCII digits, as the parser reads it
    constants = tuple(int(c) if c.isascii() and c.isdigit() else c for c in parts if c)
    spec = DefSpec(constants=constants, p_name=args.p_name, tc_name=args.tc_name)
    print(render(def_rules(spec)))
    return 0


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = _ArgumentParser(
        prog="tightlp",
        description="Tightness analysis and answer set solving for logic "
        "programs with nested expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("program", help="program file, or - for stdin")
        p.set_defaults(func=func)
        return p

    add_program_cmd("parse", _cmd_parse, "echo the program in canonical form")
    add_program_cmd("complete", _cmd_complete, "print the completion")
    p = add_program_cmd("tight", _cmd_tight, "tightness verdict")
    p.add_argument("--on", help="comma-separated literals to check tightness on")
    p = add_program_cmd("solve", _cmd_solve, "answer sets via completion and SAT")
    p.add_argument(
        "--max-models",
        type=_non_negative_int,
        default=10000,
        metavar="N",
        help="exit 2 once more than N completion models exist, dropped ones included "
        "(default 10000)",
    )
    p.add_argument("--trace", action="store_true", help="log acceptance details to stderr")
    p = add_program_cmd("enumerate", _cmd_enumerate, "answer sets by brute force")
    p.add_argument("--brute-bound", type=_non_negative_int, default=24)
    p = add_program_cmd("dimacs", _cmd_dimacs, "export the completion as DIMACS CNF")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("gen-queens", help="emit the n-queens program")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gen_queens)
    p = sub.add_parser("gen-blocks", help="emit a blocks world program")
    p.add_argument("blocks", type=int, help="number of blocks (named b1, b2, ...)")
    p.add_argument("horizon", type=int, help="number of time steps")
    p.add_argument("--names", help="comma-separated block names overriding the count")
    p.set_defaults(func=_cmd_gen_blocks)
    p = sub.add_parser("gen-tc", help="emit ground transitive closure rules")
    p.add_argument("constants", nargs="+", help="constants (space or comma separated)")
    p.add_argument("--p-name", default="p")
    p.add_argument("--tc-name", default="tc")
    p.set_defaults(func=_cmd_gen_tc)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value that starts with '-', such as the set
    # -q,p, for an option; joined to --on it is read as the value
    while "--on" in argv[:-1]:
        i = argv.index("--on")
        argv[i : i + 2] = ["--on=" + argv[i + 1]]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 1
    except BrokenPipeError:  # a closed stdout; main exits quietly
        raise
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except CapacityError as e:
        print("resource cap exceeded: %s" % e, file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        # input nested or sized past what the interpreter can hold
        print("resource cap exceeded: %s" % (str(e) or type(e).__name__), file=sys.stderr)
        return 2


def main(argv=None) -> None:
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; keep Python's flush at exit quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)

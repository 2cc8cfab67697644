"""Differential suite: ``solve`` against ``enumerate`` through ``cli.run`` on
seeded programs larger than the other random sweeps, with planted positive
cycles in two to four components.

``enumerate`` decides every consistent subset with the compiled reduct
fixpoint, so agreement tests the completion, its encoding, the all-models
search and admission.  The fixpoint itself is held to the definition in
``tests/reference.py``: every printed answer set is the least closed set of
its reduct, and every model that ``solve --trace`` drops is not, with that
least set as the fixpoint it prints.  Each ``solve --trace`` tag is held to
the library's Literal-graph tightness checks, not to the checker's id-based
ones.
Token-level mutants of these programs and of README's go through every
command, which must end in an exit code, never a traceback.
"""

import random
import re
from collections import Counter

import pytest

from tightlp import Program, is_absolutely_tight, is_tight_on, parse_literals, parse_program
from tightlp.cli import run

from reference import minimal_closed_set, reduct
from test_readme import FILES, section

# atoms with and without arguments; constants mix integers and names
POOL = (
    "p(1)", "p(2)", "p(10)", "q(a)", "t(b,3)", "r", "s(c)",
    "t(1,a)", "u", "v(2)", "w(x,y)", "z(0)", "k", "m(a,a)",
)  # fmt: skip
ACCEPTED = re.compile(r"trace: (\{.*\}) accepted \[(.*)\]")
DROPPED = re.compile(r"trace: (\{.*\}) dropped \(not an answer set; reduct fixpoint is (\{.*\})\)")


def differential_program(rng: random.Random) -> str:
    """8-12 atoms cut into 2-4 components.  A component's first literal is
    a choice, and its others form a positive cycle (a self-loop for one),
    supported from outside through a nested body over the choice and
    earlier components.  In about one program in four every cycle is closed
    through ``not not`` instead, so the program is absolutely tight.  Some
    literals are contraries, some with their atom as well, and the program
    may carry constraints and extra nested rules."""
    atoms = rng.sample(POOL, rng.randint(8, 12))
    literals = ["-" + a if rng.random() < 0.25 else a for a in atoms]
    size = rng.randint(2, 4)
    comps = [literals[2 * i : 2 * i + 2] for i in range(size)]
    for l in literals[2 * size :]:
        rng.choice(comps).append(l)
    planted = rng.random() < 0.75
    rules, earlier = [], []

    def body(own):
        """A nested body over own and earlier literals."""
        pool = own + earlier
        a, b, c = (rng.choice(pool) for _ in range(3))
        return rng.choice(
            (
                "%s" % a,
                "%s ; %s" % (a, b),
                "%s, not %s" % (a, b),
                "(%s ; %s), not %s" % (a, b, c),
                "not (%s, %s) ; %s" % (a, b, c),
                "%s, not not %s" % (a, b),
            )
        )

    for choice, *loop in comps:
        rules.append("%s :- not not %s." % (choice, choice))
        closing = "%s :- %s%s." % (loop[0], "" if planted else "not not ", loop[-1])
        rules += ["%s :- %s." % pair for pair in zip(loop[1:], loop)] + [closing]
        rules.append("%s :- %s." % (loop[0], body([choice])))
        if rng.random() < 0.5:
            # a head in this component, a body from here or before, so a
            # cycle stays inside a component; only a planted one may be
            # closed again here
            own = [choice, *loop] if planted else [choice]
            rules.append("%s :- %s." % (rng.choice(loop), body(own)))
        earlier += [choice, *loop]
    for l in literals:
        if l.startswith("-") and rng.random() < 0.5:
            rules.append("%s :- not %s, %s." % (l[1:], l, rng.choice(earlier)))
    for _ in range(rng.randint(0, 2)):
        rules.append(":- %s." % body([]))
    return "\n".join(rules) + "\n"


def tags_hold(program, err: str) -> int:
    """Each accepted line's tag against the library's checks; the tags seen."""
    absolutely = is_absolutely_tight(program)
    tags = Counter()
    for line in err.splitlines()[1:]:
        m = ACCEPTED.fullmatch(line)
        if not m:
            continue
        x, tag = parse_literals(m.group(1)), m.group(2)
        if absolutely:
            assert tag == "absolutely-tight"
        else:
            assert tag == ("tight-on-model" if is_tight_on(program, x) else "verified")
        tags[tag] += 1
    return tags


def reducts_hold(program, out: str, err: str) -> int:
    """Each answer set x printed in out is the least closed set of the
    reduct relative to x; each model dropped in err is not, and its printed
    fixpoint is that least set.  The number of dropped models."""
    for line in out.splitlines():
        x = parse_literals(line)
        assert minimal_closed_set(reduct(program, x)) == x, line
    dropped = 0
    for line in err.splitlines():
        m = DROPPED.fullmatch(line)
        if m:
            x, fixpoint = map(parse_literals, m.groups())
            assert fixpoint == minimal_closed_set(reduct(program, x)) != x, line
            dropped += 1
    return dropped


def test_solve_matches_enumerate_and_tags_match_the_library(tmp_path, capsys):
    rng = random.Random(131)
    path = str(tmp_path / "prog.lp")
    seen = Counter()
    for _ in range(60):
        text = differential_program(rng)
        with open(path, "w") as fh:
            fh.write(text)
        program = parse_program(text)
        assert program.universe == Program(program.rules, program.declared).universe
        assert run(["enumerate", path]) == 0
        expected = capsys.readouterr()
        assert expected.err == ""
        assert run(["solve", path]) == 0
        assert capsys.readouterr() == expected, text
        assert run(["solve", path, "--trace"]) == 0
        traced = capsys.readouterr()
        assert traced.out == expected.out
        seen["dropped"] += reducts_hold(program, traced.out, traced.err)
        seen += tags_hold(program, traced.err)
    # the sweep reaches every branch of admission
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


def input_language_program() -> str:
    """README's "Input language" block with its comments cut: one line of
    each kind of statement."""
    block = section("Input language").split("```\n")[1]
    return "".join(re.split(r"\s{2,}", line)[0] + "\n" for line in block.splitlines())


TOKEN = re.compile(r":-|#?\w+|\S")
COMMANDS = (
    ["parse"], ["complete"], ["tight"], ["tight", "--on", "p,q"],
    ["solve", "--trace"], ["enumerate"], ["dimacs"],
)  # fmt: skip


def mutants(text: str, rng: random.Random, count: int):
    """count texts, each with one token deleted or doubled, or two names or
    numbers swapped (which mostly still parses); the text between tokens
    stays."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    words = [(s, e) for s, e in spans if text[s].isalnum()]
    for _ in range(count):
        s, e = rng.choice(spans)
        (s1, e1), (s2, e2) = sorted(rng.sample(words, 2))
        yield rng.choice(
            (
                text[:s] + text[e:],
                text[:e] + " " + text[s:e] + text[e:],
                text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:],
            )
        )


# a command prints an ArityWarning as a line on stderr; here it would be an error
@pytest.mark.filterwarnings("ignore::tightlp.ArityWarning")
def test_no_command_ends_in_a_traceback_on_a_mutated_program(tmp_path, capsys):
    rng = random.Random(7)
    seeds = [*FILES.values(), input_language_program()]
    seeds += [differential_program(rng) for _ in range(3)]
    path = str(tmp_path / "prog.lp")
    calls = Counter()
    for seed in seeds:
        for text in mutants(seed, rng, 12):
            with open(path, "w") as fh:
                fh.write(text)
            for command in COMMANDS:
                code = run([command[0], path, *command[1:]])
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (command, text)
                calls[code] += 1
    # mutants that still read and ones that do not
    assert sum(calls.values()) == 420 and calls[0] and calls[1], calls

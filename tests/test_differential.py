"""Differential suite: ``solve`` against ``enumerate`` through ``cli.run`` on
seeded programs larger than the other random sweeps, with planted positive
cycles in two to four components.

``enumerate`` decides every consistent subset with the compiled reduct
fixpoint, so agreement tests the completion, its encoding, the all-models
search and admission.  Each ``solve --trace`` tag is held to the library's
Literal-graph tightness checks, not to the checker's id-based ones.
"""

import random
import re
from collections import Counter

from tightlp import is_absolutely_tight, is_tight_on, parse_literals, parse_program
from tightlp.cli import run

# atoms with and without arguments; constants mix integers and names
POOL = (
    "p(1)", "p(2)", "p(10)", "q(a)", "t(b,3)", "r", "s(c)",
    "t(1,a)", "u", "v(2)", "w(x,y)", "z(0)", "k", "m(a,a)",
)  # fmt: skip
ACCEPTED = re.compile(r"trace: (\{.*\}) accepted \[(.*)\]")


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


def test_solve_matches_enumerate_and_tags_match_the_library(tmp_path, capsys):
    rng = random.Random(131)
    path = str(tmp_path / "prog.lp")
    seen = Counter()
    for _ in range(60):
        text = differential_program(rng)
        with open(path, "w") as fh:
            fh.write(text)
        program = parse_program(text)
        assert run(["enumerate", path]) == 0
        expected = capsys.readouterr()
        assert expected.err == ""
        assert run(["solve", path]) == 0
        assert capsys.readouterr() == expected, text
        assert run(["solve", path, "--trace"]) == 0
        traced = capsys.readouterr()
        assert traced.out == expected.out
        seen["dropped"] += traced.err.count(" dropped (")
        seen += tags_hold(program, traced.err)
    # the sweep reaches every branch of admission
    assert len(seen) == 4 and min(seen.values()) >= 10, seen

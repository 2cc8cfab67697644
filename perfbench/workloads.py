"""The benchmark's workloads: seeded request lists with their oracles.

Program texts come from tightlp's own generators where it has one (queens,
blocks world, the ground closure definition); expected outputs come from
``oracles``, which does not use tightlp.  Each builder returns the requests
of one pass in the order they are sent.

Why these three workloads (see README.md for the measurements):

* ``tight`` -- absolutely tight and tight-on-every-model programs, where the
  all-models search does almost all the work.
* ``closure`` -- non-tight transitive closure programs, where many completion
  models are dropped by admission and follow-up ``tight --on`` and
  preservation checks run once per answer set.
* ``wide`` -- one huge construct per program and no search, where parsing,
  completion and clausification do the work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from oracles import (
    answer_sets_text,
    atom,
    blocks_history_count,
    blocks_history_ok,
    check_dimacs,
    check_tight_on,
    closure_answer_sets,
    lit_key,
    lit_text,
    parse_set,
    preservation_text,
    queens_solve_text,
    set_text,
    wide_complete_text,
    wide_expected,
    wide_tight_text,
)

CONSTANTS = (1, 2, 3)
PAIRS = tuple(itertools.product(CONSTANTS, CONSTANTS))

# (number of free base pairs, irreflexivity constraints present).  Five free
# pairs without constraints are left out: those 24 classes take 22 s per pass
# at the seed commit, up to 4 s for one program.
CLOSURE_STRATA = ((3, False), (4, False), (3, True), (4, True), (5, True))

WIDE_SHAPES = ("head", "or", "andnot", "chain")
WIDE_MIN, WIDE_MAX, WIDE_BINS = 100, 480, 7


@dataclass
class Request:
    """One CLI call (argv, with the program text on stdin), or, when argv
    is None, one preservation check on the program text and lib_args.

    ``check`` is the oracle: it receives the captured stdout.  Oracles
    compute their expectation when called, so that set-up time covers only
    building the inputs.
    """

    rid: str
    argv: list[str] | None
    stdin: str
    check: Callable[[str], bool]
    lib_args: tuple = ()


def build(name: str, seed: int, tl) -> list[Request]:
    return {"tight": build_tight, "closure": build_closure, "wide": build_wide}[name](
        random.Random(seed), tl
    )


# ---------------------------------------------------------------------------
# tight


def build_tight(rng: random.Random, tl) -> list[Request]:
    """solve on queens 5 and 6, blocks world 2 blocks at horizon 2 and 3
    blocks at horizon 0.  The programs are fixed; the seed sets the order."""
    requests = []
    for n in (5, 6):
        text = tl.render(tl.queens_program(tl.QueensSpec(n)))
        requests.append(
            Request(
                "queens%d/solve" % n,
                ["solve", "-"],
                text,
                lambda out, n=n: out == queens_solve_text(n),
            )
        )
    for blocks, horizon in ((("b1", "b2"), 2), (("b1", "b2", "b3"), 0)):
        text = tl.render(tl.blocksworld_program(tl.BlocksSpec(blocks, horizon)))
        requests.append(
            Request(
                "blocks%d-h%d/solve" % (len(blocks), horizon),
                ["solve", "-"],
                text,
                lambda out, b=blocks, h=horizon: _blocks_ok(out, b, h),
            )
        )
    rng.shuffle(requests)
    return requests


def _blocks_ok(out, blocks, horizon):
    """Distinct legal histories, as many as there are, in output order."""
    count = blocks_history_count(blocks, horizon)
    sets = [parse_set(line) for line in out.splitlines()]
    return (
        len(sets) == count
        and len(set(sets)) == count
        and all(blocks_history_ok(s, blocks, horizon) for s in sets)
        and out == answer_sets_text(sets)
    )


# ---------------------------------------------------------------------------
# closure


def _canonical(pairs):
    """Least relabelling of a pair set over CONSTANTS (isomorphism class)."""
    return min(
        tuple(sorted((perm[x - 1], perm[y - 1]) for x, y in pairs))
        for perm in itertools.permutations(CONSTANTS)
    )


def build_closure(rng: random.Random, tl) -> list[Request]:
    """One program per isomorphism class of free pair sets in each stratum.

    The seed picks which labelled member of each class is used and the order
    of the programs.  Classes are not drawn at random because one class can
    have 30 times the completion models of another, so passes drawn that
    way would differ widely in cost from seed to seed.
    """
    definition = tl.render(tl.def_rules(tl.DefSpec(constants=CONSTANTS)))
    constraints = "".join(":- tc(%d,%d).\n" % (c, c) for c in CONSTANTS)
    programs = []
    for k, constrained in CLOSURE_STRATA:
        classes: dict = {}
        for free in itertools.combinations(PAIRS, k):
            classes.setdefault(_canonical(free), []).append(free)
        for key in sorted(classes):
            programs.append((rng.choice(classes[key]), constrained))
    rng.shuffle(programs)

    requests = []
    for i, (free, constrained) in enumerate(programs):
        base = "".join("{p(%d,%d)}.\n" % p for p in free)
        if constrained:
            base += constraints
        text = base + definition + "\n"
        sets = closure_answer_sets(free, constrained)
        rid = "c%02d-%s%s" % (i, "".join("%d%d" % p for p in free), "-irr" if constrained else "")
        requests.append(
            Request(
                rid + "/solve",
                ["solve", "-"],
                text,
                lambda out, sets=sets: out == answer_sets_text(sets),
            )
        )
        for j, x in enumerate(sorted(sets, key=set_text)):
            shown = set_text(x)
            requests.append(
                Request(
                    "%s/x%02d/tight-on" % (rid, j),
                    ["tight", "-", "--on", shown],
                    text,
                    lambda out, x=x: check_tight_on(out, x, CONSTANTS),
                )
            )
            requests.append(
                Request(
                    "%s/x%02d/preservation" % (rid, j),
                    None,
                    base,
                    lambda out, x=x: out == preservation_text(x),
                    lib_args=(shown, CONSTANTS),
                )
            )
    return requests


# ---------------------------------------------------------------------------
# wide


def _wide_program(shape, n, rng):
    """Program text and facts of one wide construct with n elements."""
    idx = range(1, n + 1)
    if shape == "head":
        rules = ["h :- a(%d), not b(%d)." % (i, i) for i in idx]
        facts = {atom(p, i) for p in "ab" for i in idx if rng.random() < 0.5}
    elif shape == "or":
        rules = ["h :- %s." % "; ".join("a(%d)" % i for i in idx)]
        facts = {atom("a", i) for i in idx if rng.random() < 1.0 / n}
    elif shape == "andnot":
        rules = ["h :- %s." % ", ".join("not b(%d)" % i for i in idx)]
        facts = {atom("b", i) for i in idx if rng.random() < 1.0 / n}
    else:
        rules = ["a(%d) :- a(%d), not c(%d)." % (i + 1, i, i) for i in idx]
        facts = {atom("a", 1)} | {atom("c", i) for i in idx if rng.random() < 1.0 / n}
    text = "\n".join(rules + ["%s." % lit_text(f) for f in sorted(facts, key=lit_key)])
    return text, facts


def build_wide(rng: random.Random, tl) -> list[Request]:
    """Per shape, one program at each of WIDE_BINS sizes spaced evenly from
    WIDE_MIN to WIDE_MAX elements.  The seed draws the facts and the order.

    Sizes are fixed rather than drawn because clausification is quadratic in
    n: drawn sizes moved req_p90_ms by 12% from seed to seed.  WIDE_MAX is
    480 because 500-element heads and bodies raise RecursionError in
    ``solve`` and ``dimacs`` at the seed commit.
    """
    step = (WIDE_MAX - WIDE_MIN) / (WIDE_BINS - 1)
    programs = [
        (shape, round(WIDE_MIN + j * step)) for shape in WIDE_SHAPES for j in range(WIDE_BINS)
    ]
    rng.shuffle(programs)
    requests = []
    for i, (shape, n) in enumerate(programs):
        text, facts = _wide_program(shape, n, rng)
        rid = "w%02d-%s%d" % (i, shape, n)
        for command in ("solve", "complete", "dimacs", "tight"):
            requests.append(
                Request(
                    "%s/%s" % (rid, command),
                    [command, "-"],
                    text + "\n",
                    lambda out, c=command, s=shape, n=n, f=facts: _wide_ok(out, c, s, n, f),
                )
            )
    return requests


def _wide_ok(out, command, shape, n, facts):
    model, rhs, edges = wide_expected(shape, n, facts)
    if command == "solve":
        return out == answer_sets_text([model])
    if command == "complete":
        return out == wide_complete_text(rhs)
    if command == "dimacs":
        return check_dimacs(out, model, rhs)
    return out == wide_tight_text(rhs, edges)

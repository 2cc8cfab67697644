"""Satisfaction, closure, reducts, and brute-force answer set enumeration."""

from __future__ import annotations

import itertools
from typing import Iterable

from .syntax import (
    FALSE,
    TRUE,
    And,
    Bottom,
    Formula,
    Lit,
    Literal,
    Not,
    Or,
    Program,
    Rule,
    Top,
    atom_key,
    complement,
    literal_key,
    literal_set_key,
)

LiteralSet = frozenset


class CapacityError(RuntimeError):
    """A configurable resource cap was exceeded."""


class EnumerationBoundError(CapacityError):
    """The universe is too large for exhaustive enumeration."""


def is_consistent(x: Iterable[Literal]) -> bool:
    xs = set(x)
    return not any(complement(l) in xs for l in xs)


def satisfies(
    x: frozenset[Literal], formula: Formula, naf: frozenset[Literal] | None = None
) -> bool:
    """Truth of a formula in a consistent set of literals.

    Each ``not F`` holds when naf does not satisfy F, read classically in
    naf; naf defaults to x.  So ``satisfies(y, f, x)`` is the truth in y of
    the reduct of f relative to x, without building the reduct.
    Consistency of x is a precondition and is not checked here.
    """
    if isinstance(formula, Lit):
        return formula.literal in x
    if isinstance(formula, Not):
        return not satisfies(x if naf is None else naf, formula.operand)
    if isinstance(formula, And):
        for part in formula.parts:
            if not satisfies(x, part, naf):
                return False
        return True
    if isinstance(formula, Or):
        for part in formula.parts:
            if satisfies(x, part, naf):
                return True
        return False
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    raise TypeError(f"not a formula: {formula!r}")


def is_closed(x: frozenset[Literal], program: Program) -> bool:
    """Every rule with a satisfied body has its head in x; a satisfied
    constraint body means x is not closed."""
    for r in program.rules:
        if satisfies(x, r.body):
            if r.head is None or r.head not in x:
                return False
    return True


def reduct_formula(formula: Formula, x: frozenset[Literal]) -> Formula:
    """Replace every maximal ``not F`` with false if x satisfies F, else true."""
    if isinstance(formula, Not):
        return FALSE if satisfies(x, formula.operand) else TRUE
    if isinstance(formula, (And, Or)):
        return type(formula)(*[reduct_formula(part, x) for part in formula.parts])
    return formula


def reduct(program: Program, x: frozenset[Literal]) -> Program:
    return Program(
        tuple(Rule(r.head, reduct_formula(r.body, x)) for r in program.rules),
        program.declared,
    )


def _contains_naf(formula: Formula) -> bool:
    if isinstance(formula, Not):
        return True
    if isinstance(formula, (And, Or)):
        for part in formula.parts:
            if _contains_naf(part):
                return True
    return False


def minimal_closed_set(program: Program) -> frozenset[Literal] | None:
    """Least consistent closed set of a program without negation as failure.

    Computed as the fixpoint of the one-step consequence operator from the
    empty set.  Returns None when no consistent closed set exists (the
    fixpoint hits a complementary pair or fires a constraint).
    """
    if any(_contains_naf(r.body) for r in program.rules):
        raise ValueError("minimal_closed_set requires a program without 'not'")
    heads = [(r.head, r.body) for r in program.rules if r.head is not None]
    constraints = [r.body for r in program.rules if r.head is None]
    cur: frozenset[Literal] = frozenset()
    while True:
        if not is_consistent(cur):
            return None
        nxt = frozenset(h for h, b in heads if satisfies(cur, b))
        if nxt == cur:
            break
        cur = nxt
    if any(satisfies(cur, b) for b in constraints):
        return None
    return cur


def is_answer_set(x: frozenset[Literal], program: Program) -> bool:
    """x is the minimal consistent closed set of the reduct relative to x.

    Equal to ``minimal_closed_set(reduct(program, x)) == x``, decided by the
    fixpoint that brute force uses, without building the reduct.
    """
    heads = [(r.head, r.body) for r in program.rules if r.head is not None]
    constraints = [r.body for r in program.rules if r.head is None]
    # the fixpoint check alone would accept an inconsistent x such as {p, -p}
    return is_consistent(x) and _answer_set_check(frozenset(x), heads, constraints)


def _answer_set_check(
    x: frozenset[Literal],
    heads: list[tuple[Literal, Formula]],
    constraints: list[Formula],
) -> bool:
    # fixpoint of the reduct relative to a consistent x, with early exit once
    # the iterate escapes x (the sequence is increasing, so the fixpoint would too)
    y: frozenset[Literal] = frozenset()
    while True:
        ny = frozenset(h for h, b in heads if satisfies(y, b, x))
        if not ny <= x:
            return False
        if ny == y:
            break
        y = ny
    if y != x:
        return False
    return not any(satisfies(y, b, x) for b in constraints)


def enumerate_answer_sets_bruteforce(
    program: Program, bound: int = 24
) -> tuple[frozenset[Literal], ...]:
    """All answer sets, by checking every consistent subset of the universe.

    Deterministic output order: by size, then lexicographically.  Refuses
    universes larger than the bound.
    """
    universe = sorted(program.universe, key=literal_key)
    if len(universe) > bound:
        raise EnumerationBoundError(
            f"universe has {len(universe)} literals, above the bound of {bound}; "
            "raise the bound to force exhaustive enumeration"
        )
    by_atom: dict = {}
    for l in universe:
        by_atom.setdefault(l.atom, []).append(l)
    groups = []
    for atom in sorted(by_atom, key=atom_key):
        lits = sorted(by_atom[atom], key=literal_key)
        groups.append([()] + [(l,) for l in lits])
    heads = [(r.head, r.body) for r in program.rules if r.head is not None]
    constraints = [r.body for r in program.rules if r.head is None]
    found = []
    for pick in itertools.product(*groups):
        x = frozenset(itertools.chain.from_iterable(pick))
        if _answer_set_check(x, heads, constraints):
            found.append(x)
    return tuple(sorted(found, key=literal_set_key))

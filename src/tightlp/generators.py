"""Program families: n-queens and blocks world."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    And,
    Atom,
    Literal,
    Not,
    Program,
    Rule,
    conj_of,
    is_term,
)


@dataclass(frozen=True)
class QueensSpec:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("board size must be at least 1")


def _queen(r: int, c: int) -> Literal:
    return Literal(Atom("queen", (r, c)))


def queens_program(spec: QueensSpec) -> Program:
    """n-queens: free choice per square, at least one queen per column, and
    pairwise attack constraints on columns, rows, and diagonals."""
    n = spec.n
    rng = range(1, n + 1)
    rules: list[Rule] = []
    for r, c in itertools.product(rng, rng):
        q = _queen(r, c)
        rules.append(Rule(q, Not(Not(q))))
    for c in rng:
        rules.append(Rule(None, conj_of(Not(_queen(r, c)) for r in rng)))
    for c in rng:
        for r, r1 in itertools.combinations(rng, 2):
            rules.append(Rule(None, And(_queen(r, c), _queen(r1, c))))
    for r in rng:
        for c, c1 in itertools.combinations(rng, 2):
            rules.append(Rule(None, And(_queen(r, c), _queen(r, c1))))
    for r, r1, c, c1 in itertools.product(rng, rng, rng, rng):
        if c < c1 and abs(r - r1) == c1 - c:
            rules.append(Rule(None, And(_queen(r, c), _queen(r1, c1))))
    return Program(tuple(rules))


@dataclass(frozen=True)
class BlocksSpec:
    blocks: tuple[str, ...]
    horizon: int

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block required")
        if "table" in self.blocks:
            raise ValueError("'table' is reserved for the table location")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("block names must be distinct")
        for b in self.blocks:
            if not is_term(b):
                raise ValueError(f"invalid block name: {b!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))

    @property
    def locations(self) -> tuple[str, ...]:
        return self.blocks + ("table",)


def _on(b: str, l: str, t: int, neg: bool = False) -> Literal:
    return Literal(Atom("on", (b, l, t)), neg)


def _move(b: str, l: str, t: int, neg: bool = False) -> Literal:
    return Literal(Atom("move", (b, l, t)), neg)


def _above(b: str, l: str, t: int) -> Literal:
    return Literal(Atom("above", (b, l, t)))


def _choice_pair(lit: Literal) -> tuple[Rule, Rule]:
    comp = Literal(lit.atom, not lit.negated)
    return (
        Rule(lit, Not(comp)),
        Rule(comp, Not(lit)),
    )


def blocksworld_program(spec: BlocksSpec) -> Program:
    """Blocks world with free initial configuration and free moves, effect
    and inertia rules, physics constraints, and an ``above`` closure that
    must reach the table."""
    blocks = spec.blocks
    locs = spec.locations
    T = spec.horizon
    rules: list[Rule] = []
    for b, l in itertools.product(blocks, locs):
        rules.extend(_choice_pair(_on(b, l, 0)))
    for t in range(T):
        for b, l in itertools.product(blocks, locs):
            rules.extend(_choice_pair(_move(b, l, t)))
    for t in range(T):
        for b, l in itertools.product(blocks, locs):
            rules.append(Rule(_on(b, l, t + 1), _move(b, l, t)))
            rules.append(
                Rule(_on(b, l, t + 1), And(_on(b, l, t), Not(_on(b, l, t + 1, neg=True))))
            )
    for t in range(T + 1):
        for b, l, l1 in itertools.product(blocks, locs, locs):
            if l != l1:
                rules.append(Rule(_on(b, l, t, neg=True), _on(b, l1, t)))
    for t in range(T + 1):
        for b, b1, b2 in itertools.product(blocks, blocks, blocks):
            if b != b1:
                rules.append(Rule(None, And(_on(b, b2, t), _on(b1, b2, t))))
    for t in range(T):
        for b, l, b1 in itertools.product(blocks, locs, blocks):
            rules.append(Rule(None, And(_move(b, l, t), _on(b1, b, t))))
    for t in range(T):
        for b, l in itertools.product(blocks, locs):
            for b1, l1 in itertools.product(blocks, locs):
                if (b, l) != (b1, l1):
                    rules.append(Rule(None, And(_move(b, l, t), _move(b1, l1, t))))
    for t in range(T + 1):
        for b, l in itertools.product(blocks, locs):
            rules.append(Rule(_above(b, l, t), _on(b, l, t)))
        for b, b1, l in itertools.product(blocks, blocks, locs):
            rules.append(Rule(_above(b, l, t), And(_on(b, b1, t), _above(b1, l, t))))
    for t in range(T + 1):
        for b in blocks:
            rules.append(Rule(None, _above(b, b, t)))
    for t in range(T + 1):
        for b in blocks:
            rules.append(Rule(None, Not(_above(b, "table", t))))
    return Program(tuple(rules))


"""Program families used as test fixtures, with independent oracles."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    And,
    Atom,
    Lit,
    Literal,
    Not,
    Program,
    Rule,
    conj_of,
    is_term,
)
from .transitive_closure import DefSpec


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
        rules.append(Rule(q, Not(Not(Lit(q)))))
    for c in rng:
        rules.append(Rule(None, conj_of(Not(Lit(_queen(r, c))) for r in rng)))
    for c in rng:
        for r, r1 in itertools.combinations(rng, 2):
            rules.append(Rule(None, And(Lit(_queen(r, c)), Lit(_queen(r1, c)))))
    for r in rng:
        for c, c1 in itertools.combinations(rng, 2):
            rules.append(Rule(None, And(Lit(_queen(r, c)), Lit(_queen(r, c1)))))
    for r, r1, c, c1 in itertools.product(rng, rng, rng, rng):
        if c < c1 and abs(r - r1) == c1 - c:
            rules.append(Rule(None, And(Lit(_queen(r, c)), Lit(_queen(r1, c1)))))
    return Program(tuple(rules))


def queens_count_oracle(n: int) -> int:
    """Number of n-queens solutions by straightforward backtracking."""
    if not 1 <= n <= 10:
        raise ValueError("oracle supports 1 <= n <= 10")

    def extend(cols: tuple[int, ...]) -> int:
        row = len(cols)
        if row == n:
            return 1
        total = 0
        for col in range(n):
            if all(
                col != c and abs(col - c) != row - r for r, c in enumerate(cols)
            ):
                total += extend(cols + (col,))
        return total

    return extend(())


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
        Rule(lit, Not(Lit(comp))),
        Rule(comp, Not(Lit(lit))),
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
            rules.append(Rule(_on(b, l, t + 1), Lit(_move(b, l, t))))
            rules.append(
                Rule(
                    _on(b, l, t + 1),
                    And(Lit(_on(b, l, t)), Not(Lit(_on(b, l, t + 1, neg=True)))),
                )
            )
    for t in range(T + 1):
        for b, l, l1 in itertools.product(blocks, locs, locs):
            if l != l1:
                rules.append(Rule(_on(b, l, t, neg=True), Lit(_on(b, l1, t))))
    for t in range(T + 1):
        for b, b1, b2 in itertools.product(blocks, blocks, blocks):
            if b != b1:
                rules.append(Rule(None, And(Lit(_on(b, b2, t)), Lit(_on(b1, b2, t)))))
    for t in range(T):
        for b, l, b1 in itertools.product(blocks, locs, blocks):
            rules.append(Rule(None, And(Lit(_move(b, l, t)), Lit(_on(b1, b, t)))))
    for t in range(T):
        for b, l in itertools.product(blocks, locs):
            for b1, l1 in itertools.product(blocks, locs):
                if (b, l) != (b1, l1):
                    rules.append(
                        Rule(None, And(Lit(_move(b, l, t)), Lit(_move(b1, l1, t))))
                    )
    for t in range(T + 1):
        for b, l in itertools.product(blocks, locs):
            rules.append(Rule(_above(b, l, t), Lit(_on(b, l, t))))
        for b, b1, l in itertools.product(blocks, blocks, locs):
            rules.append(
                Rule(
                    _above(b, l, t),
                    And(Lit(_on(b, b1, t)), Lit(_above(b1, l, t))),
                )
            )
    for t in range(T + 1):
        for b in blocks:
            rules.append(Rule(None, Lit(_above(b, b, t))))
    for t in range(T + 1):
        for b in blocks:
            rules.append(Rule(None, Not(Lit(_above(b, "table", t)))))
    return Program(tuple(rules))


def blocksworld_above_slices(spec: BlocksSpec) -> tuple[DefSpec, ...]:
    """One closure descriptor per time step: above(x,y,t) as the transitive
    closure of on(x,y,t) over blocks plus the table."""
    return tuple(
        DefSpec(
            constants=spec.locations,
            p_name="on",
            tc_name="above",
            p_extra_args=(t,),
            tc_extra_args=(t,),
        )
        for t in range(spec.horizon + 1)
    )


def blocksworld_history_count_oracle(spec: BlocksSpec) -> int:
    """Number of legal (configuration, action, ...) histories, computed by
    direct state-space enumeration: a history fixes a legal initial
    configuration and one optional executable move per step.

    Answer sets of the blocks world program correspond one to one with these
    histories, so this is an independent count oracle for it.
    """
    blocks = spec.blocks
    locs = spec.locations

    def legal(cfg: tuple[str, ...]) -> bool:
        placed = dict(zip(blocks, cfg))
        # at most one block per block, and every tower grounded on the table
        used = [l for l in cfg if l != "table"]
        if len(used) != len(set(used)):
            return False
        for b in blocks:
            seen = set()
            cur = b
            while cur != "table":
                if cur in seen:
                    return False
                seen.add(cur)
                cur = placed[cur]
        return True

    configs = [
        cfg for cfg in itertools.product(locs, repeat=len(blocks)) if legal(cfg)
    ]

    def actions(cfg: tuple[str, ...]) -> list[tuple[str, ...]]:
        placed = dict(zip(blocks, cfg))
        out = [cfg]  # no move
        for i, b in enumerate(blocks):
            if any(placed[b1] == b for b1 in blocks):
                continue  # something sits on b
            for l in locs:
                nxt = cfg[:i] + (l,) + cfg[i + 1 :]
                if legal(nxt):
                    out.append(nxt)
        return out

    counts = {cfg: 1 for cfg in configs}
    for _ in range(spec.horizon):
        nxt_counts: dict[tuple[str, ...], int] = {}
        for cfg, ways in counts.items():
            for nxt in actions(cfg):
                nxt_counts[nxt] = nxt_counts.get(nxt, 0) + ways
        counts = nxt_counts
    return sum(counts.values())

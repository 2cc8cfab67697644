"""Definitional oracles that the tests hold the package to.

Each function here states a definition directly, with no compilation or
caching, so that a test can compare the package's fast paths against it:
the reduct of a program relative to a set and its least closed set (after
Lifschitz, Tang & Turner, "Nested expressions in logic programs", 1999),
supportedness and satisfaction of the completion, the transitive closure
of a relation, and direct counts of n-queens solutions and blocks-world
histories.  ``solve_through_the_rewrite`` is the one exception: it keeps
the solver's earlier path for programs with contraries, which rewrote each
``-a`` to a fresh atom, so that the program as written can be held to it.
None of it is part of the package: ``src/`` imports nothing from here.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from tightlp import (
    FALSE,
    TAG_ABSOLUTELY_TIGHT,
    TAG_TIGHT_ON_MODEL,
    TAG_VERIFIED,
    TRUE,
    And,
    Atom,
    BlocksSpec,
    Completion,
    DefSpec,
    Formula,
    Literal,
    Not,
    Or,
    Program,
    Rule,
    clausify,
    eliminate_classical_negation,
    is_consistent,
    literal_key,
    p_extent,
    parent_graph,
    positive_literals,
    satisfies,
    solve_all,
)
from tightlp.semantics import AnswerSetChecker
from tightlp.transitive_closure import Pair, _extent, _pair_literals


def literal_set_key(x: Iterable[Literal]):
    lits = sorted(literal_key(l) for l in x)
    return (len(lits), lits)


def solve_through_the_rewrite(program: Program, max_models: int = 10000):
    """The answer sets with their tags, the dropped completion models each
    paired with its reduct fixpoint, and the number of completion models,
    all as sets of the program's literals in literal_set_key order, found
    by rewriting each ``-a`` to ``a_neg`` plus ``:- a, a_neg.``, compiling
    and clausifying the rewrite, searching it, admitting each model on the
    rewrite's checker and mapping the sets back."""
    target, mapping = eliminate_classical_negation(program)
    checker = AnswerSetChecker(target)
    report = solve_all(clausify(checker), max_models=max_models)
    names = [mapping.get(l.atom, l) for l in checker.literals]

    def original(ids) -> frozenset[Literal]:
        return frozenset(names[i] for i in ids)

    accepted, dropped = [], []
    for m in report.ids:
        xs = frozenset(m)
        if not checker.cyclic_rules:
            accepted.append((original(m), TAG_ABSOLUTELY_TIGHT))
        elif checker.is_tight_on(xs):
            accepted.append((original(m), TAG_TIGHT_ON_MODEL))
        elif checker.is_reduct_fixpoint(xs):
            accepted.append((original(m), TAG_VERIFIED))
        else:
            dropped.append((original(m), original(checker.reduct_fixpoint(xs))))
    accepted.sort(key=lambda pair: literal_set_key(pair[0]))
    dropped.sort(key=lambda pair: literal_set_key(pair[0]))
    return tuple(accepted), tuple(dropped), len(report.ids)


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


def is_supported(x: frozenset[Literal], program: Program) -> bool:
    """Every literal of x heads some rule whose body x satisfies."""
    by_head: dict[Literal, list[Formula]] = {}
    for r in program.rules:
        if r.head is not None:
            by_head.setdefault(r.head, []).append(r.body)
    for l in x:
        if not any(satisfies(x, b) for b in by_head.get(l, ())):
            return False
    return True


def satisfies_completion(atoms: Iterable[Atom], comp: Completion) -> bool:
    xs = frozenset(atoms)
    x = frozenset(Literal(a) for a in xs)
    for a, d in comp.entries:
        if (a in xs) != satisfies(x, d):
            return False
    return not any(satisfies(x, b) for b in comp.constraint_bodies)


def program_positive_literals(program: Program) -> frozenset[Literal]:
    """Union of the positive body literals over all non-constraint rules."""
    out: set[Literal] = set()
    for r in program.rules:
        if r.head is not None:
            out |= positive_literals(r.body)
    return frozenset(out)


def ancestors(literal: Literal, program: Program, x: Iterable[Literal]) -> frozenset[Literal]:
    """Literals reachable from the given one by one or more parent steps."""
    return parent_graph(program, x).ancestors(literal)


def warshall(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Transitive closure of a finite binary relation."""
    closure = set(pairs)
    nodes = {x for p in closure for x in p}
    for v in nodes:
        for x in nodes:
            if (x, v) in closure:
                for y in nodes:
                    if (v, y) in closure:
                        closure.add((x, y))
    return frozenset(closure)


def tc_extent(x: Iterable[Literal], spec: DefSpec) -> frozenset[Pair]:
    return _extent(x, _pair_literals(spec)[1])


def check_tc_extent(x: Iterable[Literal], spec: DefSpec) -> bool:
    """The tc atoms of x are exactly the closure of its p atoms."""
    return tc_extent(x, spec) == warshall(p_extent(x, spec))


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

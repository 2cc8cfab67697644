"""Satisfaction, closure, the compiled answer set check, and brute-force
answer set enumeration."""

from __future__ import annotations

import itertools
from typing import Iterable

from .syntax import (
    And,
    Bottom,
    Formula,
    Literal,
    Not,
    Or,
    Program,
    Top,
    complement,
    literal_key,
    positive_literals,
    sorted_literal_sets,
)

class CapacityError(RuntimeError):
    """A configurable resource cap was exceeded."""


class EnumerationBoundError(CapacityError):
    """The universe is too large for exhaustive enumeration."""


def is_consistent(x: Iterable[Literal]) -> bool:
    xs = set(x)
    return not any(complement(l) in xs for l in xs)


def satisfies(x: frozenset[Literal], formula: Formula) -> bool:
    """Truth of a formula in a consistent set of literals, with ``not`` read
    classically.  Consistency of x is a precondition and is not checked here.
    """
    if isinstance(formula, Literal):
        return formula in x
    if isinstance(formula, Not):
        return not satisfies(x, formula.operand)
    if isinstance(formula, And):
        for part in formula.parts:
            if not satisfies(x, part):
                return False
        return True
    if isinstance(formula, Or):
        for part in formula.parts:
            if satisfies(x, part):
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


def _strongly_connected_components(succ: list[list[int]]) -> list[int]:
    """The component of each vertex 0..n-1 of a graph given by its successor
    lists, named by one of its vertices.  Tarjan's algorithm, with an
    explicit stack so that a long path does not recurse."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    path: list[int] = []  # visited vertices not yet in a component
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        work = [(root, iter(succ[root]))]
        path.append(root)
        count += 1
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    path.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:  # w is on the path: a back or cross edge within v's component
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = path.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


class AnswerSetChecker:
    """A program compiled once, for deciding many sets of its literals.

    Literals become ints in literal_key order, and id n is the head of
    every constraint.  Rule bodies become one and/or DAG over the ids, and
    each ``not F`` is a leaf read classically in the set.  A node's ``need``
    counts the parts still to fire (Dowling & Gallier): all of an And, one
    of an Or, a head's first rule.

    A cycle of the parent relation is a cycle of the positive dependency
    graph, so it lies in one of that graph's strongly connected components.
    ``cyclic_rules`` maps each head to the rules whose body has a positive
    literal in the head's own component, each with those literals only:
    exactly the edges that can lie on a cycle, self-loops included.
    """

    def __init__(self, program: Program):
        self.literals = sorted(program.universe, key=literal_key)
        self.ids = {l: i for i, l in enumerate(self.literals)}
        n = self.sink = len(self.literals)
        self.need = [1] * (n + 1)
        self.up: list[list[int]] = [[] for _ in self.need]  # junctions and rule heads
        self.leaves: list[tuple] = []  # (node, F) for ``not F``, (node, None) for true
        nodes: dict[Formula, int] = {}

        def node(f: Formula) -> int:
            if isinstance(f, Literal):
                return self.ids[f]
            if f not in nodes:
                parts = [node(p) for p in f.parts] if isinstance(f, (And, Or)) else ()
                v = nodes[f] = len(self.need)
                self.need.append(len(parts) if isinstance(f, And) else 1)
                self.up.append([])
                for p in parts:
                    self.up[p].append(v)
                if isinstance(f, (Not, Top)):
                    self.leaves.append((v, f.operand if isinstance(f, Not) else None))
            return nodes[f]

        rules = []  # (head, body, positive body literals) of each rule
        succ: list[list[int]] = [[] for _ in range(n)]
        for r in program.rules:
            head = n if r.head is None else self.ids[r.head]
            self.up[node(r.body)].append(head)
            if r.head is not None:
                pos = [self.ids[l] for l in positive_literals(r.body)]
                rules.append((head, r.body, pos))
                for l in pos:
                    succ[l].append(head)
        comp = _strongly_connected_components(succ)
        self.cyclic_rules: dict[int, list[tuple]] = {}
        for head, body, pos in rules:
            inside = [l for l in pos if comp[l] == comp[head]]
            if inside:
                self.cyclic_rules.setdefault(head, []).append((body, inside))

    def reduct_fixpoint(self, x: frozenset[Literal]) -> list[int] | None:
        """The ids of the least fixpoint of the reduct relative to x, or None
        once a derived head falls outside x or a constraint fires.  On a model
        of the program neither happens: the fixpoint is a subset of x."""
        xs = {self.ids[l] for l in x}
        need = self.need[:]
        stack = [v for v, f in self.leaves if f is None or not satisfies(x, f)]
        while stack:
            for p in self.up[stack.pop()]:
                if p <= self.sink and p not in xs:  # a head outside x, or a constraint
                    return None
                need[p] -= 1
                if not need[p]:
                    stack.append(p)
        return [i for i in xs if need[i] <= 0]

    def is_reduct_fixpoint(self, x: frozenset[Literal]) -> bool:
        """x is the least fixpoint of the reduct relative to x, and fires no
        constraint: for a consistent x, x is an answer set."""
        derived = self.reduct_fixpoint(x)
        return derived is not None and len(derived) == len(x)

    def is_tight_on(self, x: frozenset[Literal]) -> bool:
        """No cycle in the parent relation relative to x, by Kahn's algorithm
        on the edges of the cyclic rules with head in x and body true in x."""
        xs = {self.ids[l] for l in x}
        heads = xs.intersection(self.cyclic_rules)
        succ: dict[int, list[int]] = {}
        waiting = dict.fromkeys(heads, 0)
        for h in heads:
            for body, pos in self.cyclic_rules[h]:
                parents = xs.intersection(pos)
                if parents and satisfies(x, body):
                    for l in parents:
                        succ.setdefault(l, []).append(h)
                        waiting[h] += 1
        ready = [v for v in heads if not waiting[v]]
        for v in ready:
            for w in succ.get(v, ()):
                waiting[w] -= 1
                if not waiting[w]:
                    ready.append(w)
        return len(ready) == len(heads)


def is_answer_set(x: frozenset[Literal], program: Program) -> bool:
    """x is the minimal consistent closed set of the reduct relative to x,
    by the compiled fixpoint."""
    x = frozenset(x)
    # the fixpoint alone would accept an inconsistent x such as {p, -p}
    possible = is_consistent(x) and x <= program.universe
    return possible and AnswerSetChecker(program).is_reduct_fixpoint(x)


def enumerate_answer_sets_bruteforce(
    program: Program, bound: int = 24
) -> tuple[frozenset[Literal], ...]:
    """All answer sets, by checking every consistent subset of the universe.

    Deterministic output order: by size, then lexicographically.  Refuses
    universes larger than the bound.
    """
    size = len(program.universe)
    if size > bound:
        raise EnumerationBoundError(
            f"universe has {size} literals, above the bound of {bound}; "
            "raise the bound to force exhaustive enumeration"
        )
    checker = AnswerSetChecker(program)
    # literal_key order puts the literals of each atom side by side
    by_atom = itertools.groupby(checker.literals, key=lambda l: l.atom)
    groups = [[()] + [(l,) for l in lits] for _, lits in by_atom]
    subsets = (frozenset(itertools.chain.from_iterable(p)) for p in itertools.product(*groups))
    return tuple(sorted_literal_sets(filter(checker.is_reduct_fixpoint, subsets)))

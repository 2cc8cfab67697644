"""Satisfaction, closure, the compiled answer set check, and brute-force
answer set enumeration."""

from __future__ import annotations

import itertools
from functools import cached_property
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
    disj_of,
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
    """A program compiled once, for its CNF encoding, its tightness verdicts
    and deciding many sets of its literals.

    Literals become ids in literal_key order; id n is the head of every
    constraint.  ``ids`` also numbers the formulas the completion reads, each
    literal's disjunction of bodies (``disj``) and each constraint body
    (``constraints``) with their parts and ``not`` operands, and ``nodes``
    and ``parts`` give each id's formula and the ids of its parts.  The
    reduct fixpoint walks them as an and/or DAG whose ``not F`` leaves are
    read classically in the set (Dowling & Gallier).

    A cycle of the parent relation is a cycle of the positive dependency
    graph, so it lies in one of that graph's strongly connected components.
    ``cyclic_rules`` maps each head to the rules whose body has a positive
    literal in the head's own component, each with those literals only:
    exactly the edges that can lie on a cycle, self-loops included, so it is
    empty exactly when the program is absolutely tight.  It and the DAG are
    built on first read: clausify reads neither.
    """

    def __init__(self, program: Program):
        self.rules = program.rules
        self.literals = sorted(program.universe, key=literal_key)
        ids = self.ids = {l: i for i, l in enumerate(self.literals)}
        n = self.sink = len(self.literals)
        nodes = self.nodes = [*self.literals, None]
        parts = self.parts = [[]] * (n + 1)

        def node(f: Formula) -> int:
            k = ids.get(f)
            if k is None:
                if isinstance(f, Not):
                    got = [node(f.operand)]
                else:
                    got = [node(p) for p in f.parts] if isinstance(f, (And, Or)) else []
                k = ids[f] = len(nodes)
                nodes.append(f)
                parts.append(got)
            return k

        bodies: list[list[Formula]] = [[] for _ in range(n + 1)]
        for r in self.rules:
            bodies[n if r.head is None else ids[r.head]].append(r.body)
        self.disj = [node(disj_of(b)) for b in bodies[:n]]
        self.constraints = [node(b) for b in bodies[n]]

    @cached_property
    def _dag(self) -> tuple[list[int], list[list[int]], list[tuple]]:
        """Each node's count of parts still to fire, its parents, and the
        leaves: (node, F) for ``not F``, (node, None) for true.  A head reads
        the parts of its disjunction.  A part's id is below its parents', so
        one pass down the ids links just the nodes a head or constraint reads."""
        need = [1] * len(self.nodes)
        up: list[list[int]] = [[] for _ in need]
        for head, d in enumerate(self.disj):
            for p in self.parts[d] if type(self.nodes[d]) is Or else [d]:
                up[p].append(head)
        for d in self.constraints:
            up[d].append(self.sink)
        leaves: list[tuple] = []
        for k in range(len(self.nodes) - 1, self.sink, -1):
            f = self.nodes[k]
            if up[k] and isinstance(f, (Not, Top)):
                leaves.append((k, f.operand if isinstance(f, Not) else None))
            elif up[k] and isinstance(f, (And, Or)):
                need[k] = len(self.parts[k]) if isinstance(f, And) else 1
                for p in self.parts[k]:
                    up[p].append(k)
        return need, up, leaves

    @cached_property
    def cyclic_rules(self) -> dict[int, list[tuple]]:
        rules = []  # (head, body, positive body literals) of each rule
        succ: list[list[int]] = [[] for _ in range(self.sink)]
        for r in self.rules:
            if r.head is not None:
                head = self.ids[r.head]
                pos = [self.ids[l] for l in positive_literals(r.body)]
                rules.append((head, r.body, pos))
                for l in pos:
                    succ[l].append(head)
        comp = _strongly_connected_components(succ)
        cyclic: dict[int, list[tuple]] = {}
        for head, body, pos in rules:
            inside = [l for l in pos if comp[l] == comp[head]]
            if inside:
                cyclic.setdefault(head, []).append((body, inside))
        return cyclic

    def reduct_fixpoint(self, x: frozenset[Literal]) -> list[int] | None:
        """The ids of the least fixpoint of the reduct relative to x, or None
        once a derived head falls outside x or a constraint fires.  On a model
        of the program neither happens: the fixpoint is a subset of x."""
        need, up, leaves = self._dag
        ids, sink = self.ids, self.sink
        xs = {ids[l] for l in x}
        need = need[:]
        stack = [v for v, f in leaves if f is None or not satisfies(x, f)]
        while stack:
            for p in up[stack.pop()]:
                if p <= sink and p not in xs:  # a head outside x, or a constraint
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
        ids, cyclic = self.ids, self.cyclic_rules
        xs = {ids[l] for l in x}
        heads = xs.intersection(cyclic)
        succ: dict[int, list[int]] = {}
        waiting = dict.fromkeys(heads, 0)
        for h in heads:
            for body, pos in cyclic[h]:
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

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
    ranked_set_key,
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


def _ids(xs: set[int]) -> set[int]:
    """xs, once one element is seen to be an id; Literals would get wrong verdicts."""
    if xs and not isinstance(next(iter(xs)), int):
        raise TypeError("expected a set of literal ids; map literals with id_set")
    return xs


class AnswerSetChecker:
    """A program compiled once, for its CNF encoding, its tightness verdicts
    and deciding many sets of its literals.

    Literals become ids in literal_key order; id n is the head of every
    constraint.  ``ids`` also numbers the formulas the completion reads, each
    literal's disjunction of bodies (``disj``) and each constraint body
    (``constraints``) with their parts and ``not`` operands, and ``nodes``
    and ``parts`` give each id's formula and the ids of its parts.  The
    checks take a set of literals as the set of their ids (``id_set``) and
    read bodies on the nodes (``holds``).  The reduct fixpoint walks them as
    an and/or DAG whose ``not F`` leaves are read classically in the set
    (Dowling & Gallier).

    A cycle of the parent relation is a cycle of the positive dependency
    graph, so it lies in one of that graph's strongly connected components.
    ``cyclic_rules`` maps each head to the rules whose body has a positive
    literal in the head's own component, each as its body's node with those
    literals only: exactly the edges that can lie on a cycle, self-loops
    included, so it is empty exactly when the program is absolutely tight.
    It and the DAG are built on first read: clausify reads neither.
    """

    def __init__(self, program: Program):
        self.rules = program.rules
        self.literals = sorted(program.universe, key=literal_key)
        ids = self.ids = {l: i for i, l in enumerate(self.literals)}
        n = self.sink = len(self.literals)
        self.nodes = [*self.literals, None]
        self.parts = [[]] * (n + 1)
        bodies: list[list[Formula]] = [[] for _ in range(n + 1)]
        for r in self.rules:
            bodies[n if r.head is None else ids[r.head]].append(r.body)
        self.disj = [self.node(disj_of(b)) for b in bodies[:n]]
        self.constraints = [self.node(b) for b in bodies[n]]

    def node(self, f: Formula) -> int:
        """The id of a formula, numbered after its parts on first sight."""
        k = self.ids.get(f)
        if k is None:
            if isinstance(f, Not):
                got = [self.node(f.operand)]
            else:
                got = [self.node(p) for p in f.parts] if isinstance(f, (And, Or)) else []
            k = self.ids[f] = len(self.nodes)
            self.nodes.append(f)
            self.parts.append(got)
        return k

    def id_set(self, x: Iterable[Literal]) -> set[int]:
        """The ids of a set of the program's literals."""
        ids = self.ids
        return {ids[l] for l in x}

    def holds(self, k: int, xs: set[int]) -> bool:
        """Truth of node k in the set of ids xs, with ``not`` read classically,
        as satisfies reads a formula; a literal part is read in place."""
        sink = self.sink
        if k < sink:
            return k in xs
        kind = type(self.nodes[k])
        if kind is Not:
            p = self.parts[k][0]
            return not (p in xs if p < sink else self.holds(p, xs))
        if kind is And or kind is Or:
            decided = kind is Or  # the value of a part that decides the whole
            for p in self.parts[k]:
                if (p in xs if p < sink else self.holds(p, xs)) is decided:
                    return decided
            return not decided
        return kind is Top

    @cached_property
    def _dag(self) -> tuple[list[int], list[list[int]], list[tuple[int, int]]]:
        """Each node's count of parts still to fire, its parents, and the
        leaves: (node, operand) for ``not F``, (node, -1) for true.  A head
        reads the parts of its disjunction.  A part's id is below its
        parents', so one pass down the ids links just the nodes a head or
        constraint reads."""
        need = [1] * len(self.nodes)
        up: list[list[int]] = [[] for _ in need]
        for head, d in enumerate(self.disj):
            for p in self.parts[d] if type(self.nodes[d]) is Or else [d]:
                up[p].append(head)
        for d in self.constraints:
            up[d].append(self.sink)
        leaves: list[tuple[int, int]] = []
        for k in range(len(self.nodes) - 1, self.sink, -1):
            f = self.nodes[k]
            if up[k] and isinstance(f, (Not, Top)):
                leaves.append((k, self.parts[k][0] if isinstance(f, Not) else -1))
            elif up[k] and isinstance(f, (And, Or)):
                need[k] = len(self.parts[k]) if isinstance(f, And) else 1
                for p in self.parts[k]:
                    up[p].append(k)
        return need, up, leaves

    @cached_property
    def cyclic_rules(self) -> dict[int, list[tuple[int, list[int]]]]:
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
        cyclic: dict[int, list[tuple[int, list[int]]]] = {}
        for head, body, pos in rules:
            inside = [l for l in pos if comp[l] == comp[head]]
            if inside:
                cyclic.setdefault(head, []).append((self.node(body), inside))
        return cyclic

    def reduct_fixpoint(self, xs: set[int]) -> list[int] | None:
        """The ids of the least fixpoint of the reduct relative to the id set
        xs, or None once a derived head falls outside xs or a constraint fires.
        On a model of the program neither happens: the fixpoint is in xs."""
        need, up, leaves = self._dag
        sink, holds = self.sink, self.holds
        need, xs = need[:], _ids(xs)
        stack = [v for v, f in leaves if f < 0 or not (f in xs if f < sink else holds(f, xs))]
        while stack:
            for p in up[stack.pop()]:
                if p <= sink and p not in xs:  # a head outside xs, or a constraint
                    return None
                need[p] -= 1
                if not need[p]:
                    stack.append(p)
        return [i for i in xs if need[i] <= 0]

    def is_reduct_fixpoint(self, xs: set[int]) -> bool:
        """The id set xs is the least fixpoint of the reduct relative to xs,
        and fires no constraint: for a consistent set, an answer set."""
        derived = self.reduct_fixpoint(xs)
        return derived is not None and len(derived) == len(xs)

    def is_tight_on(self, xs: set[int]) -> bool:
        """No cycle in the parent relation relative to the id set xs, by Kahn's
        algorithm on the edges of the cyclic rules with head in xs, body true."""
        cyclic, holds = self.cyclic_rules, self.holds
        heads = _ids(xs).intersection(cyclic)
        succ: dict[int, list[int]] = {}
        waiting = dict.fromkeys(heads, 0)
        for h in heads:
            for body, pos in cyclic[h]:
                parents = xs.intersection(pos)
                if parents and holds(body, xs):
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
    x, checker = frozenset(x), AnswerSetChecker(program)
    # the fixpoint alone would accept an inconsistent x such as {p, -p}
    possible = is_consistent(x) and x <= program.universe
    return possible and checker.is_reduct_fixpoint(checker.id_set(x))


def answer_set_ranks_bruteforce(
    program: Program, bound: int = 24
) -> tuple[list[Literal], list[tuple[int, ...]]]:
    """The program's literals in literal_key order and the ranks of every
    answer set, found by checking every consistent subset of the universe.

    Sorted by ranked_set_key, as solve sorts its answer sets.  Refuses
    universes larger than the bound.
    """
    size = len(program.universe)
    if size > bound:
        raise EnumerationBoundError(
            f"universe has {size} literals, above the bound of {bound}; "
            "raise the bound to force exhaustive enumeration"
        )
    checker = AnswerSetChecker(program)
    literals = checker.literals
    # literal_key order puts the literals of each atom side by side
    by_atom = itertools.groupby(range(checker.sink), key=lambda i: literals[i].atom)
    groups = [[()] + [(i,) for i in ids] for _, ids in by_atom]
    subsets = (frozenset(itertools.chain.from_iterable(p)) for p in itertools.product(*groups))
    # an id is a literal_key position, so a set's sorted ids are its ranks
    found = (tuple(sorted(s)) for s in subsets if checker.is_reduct_fixpoint(s))
    return literals, sorted(found, key=ranked_set_key)


def enumerate_answer_sets_bruteforce(
    program: Program, bound: int = 24
) -> tuple[frozenset[Literal], ...]:
    """All answer sets, by brute force, as sets of literals in the order of
    answer_set_ranks_bruteforce."""
    literals, ranks = answer_set_ranks_bruteforce(program, bound)
    return tuple(frozenset(map(literals.__getitem__, r)) for r in ranks)

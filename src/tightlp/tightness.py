"""Parent and dependency graphs, tightness checks, and ranking witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .syntax import (
    Literal,
    Program,
    literal_key,
    positive_literals,
    regular_literals,
)
from .semantics import satisfies


@dataclass(frozen=True)
class Digraph:
    """Finite directed graph.  One pass of Kahn's algorithm, cached, answers
    every acyclicity question about it."""

    vertices: frozenset
    edges: frozenset[tuple]

    @cached_property
    def _predecessors(self) -> dict:
        pred: dict = {v: [] for v in self.vertices}
        for u, w in self.edges:
            pred[w].append(u)
        return pred

    @cached_property
    def _depths(self) -> dict:
        """Longest incoming path length of each vertex Kahn's algorithm places:
        all of them unless some lie on a cycle or behind one."""
        pred = self._predecessors
        succ: dict = {v: [] for v in self.vertices}
        for u, w in self.edges:
            succ[u].append(w)
        waiting = {v: len(us) for v, us in pred.items()}
        ready = [v for v, n in waiting.items() if not n]
        depths = dict.fromkeys(ready, 0)
        for v in ready:  # Kahn's order: every vertex after its predecessors
            for w in succ[v]:
                waiting[w] -= 1
                if not waiting[w]:
                    depths[w] = 1 + max(map(depths.__getitem__, pred[w]))
                    ready.append(w)
        return depths

    def is_acyclic(self) -> bool:
        return len(self._depths) == len(self.vertices)

    def find_cycle(self, key: Callable | None = literal_key) -> list | None:
        """A cycle as [v0, ..., vk, v0], or None; self-loops count.  Walks back
        from the key-least vertex Kahn's pass left unplaced, each time to the
        key-least unplaced predecessor, so hash order cannot change the cycle."""
        if self.is_acyclic():
            return None
        placed = self._depths
        node = min((v for v in self.vertices if v not in placed), key=key)
        walk: dict = {}  # the vertices met, in order
        while node not in walk:
            walk[node] = None
            node = min((u for u in self._predecessors[node] if u not in placed), key=key)
        back = list(walk)
        return [node, *reversed(back[back.index(node) :])]

    def longest_path_depths(self) -> dict:
        """Longest incoming path length per vertex; requires acyclicity."""
        if not self.is_acyclic():
            raise ValueError("longest path depths need an acyclic graph")
        return dict(self._depths)

    def ancestors(self, vertex) -> frozenset:
        """Vertices with a path of one or more edges to the given one."""
        preds = self._predecessors
        if vertex not in preds:
            return frozenset()
        out = set()
        frontier = [vertex]
        while frontier:
            node = frontier.pop()
            for p in preds[node]:
                if p not in out:
                    out.add(p)
                    frontier.append(p)
        return frozenset(out)


def parent_graph(program: Program, x: Iterable[Literal]) -> Digraph:
    """L' -> L edges for rules with head L in x and body satisfied by x,
    one per L' in the body's positive literals that lie in x."""
    xs = frozenset(x)
    edges = set()
    for r in program.rules:
        if r.head is None or r.head not in xs or not satisfies(xs, r.body):
            continue
        for l in positive_literals(r.body):
            if l in xs:
                edges.add((l, r.head))
    return Digraph(xs, frozenset(edges))


def positive_dependency_graph(program: Program) -> Digraph:
    """Positive dependencies of a program: body literal to head literal."""
    vertices = set()
    edges = set()
    for r in program.rules:
        vertices |= regular_literals(r.body)
        if r.head is not None:
            vertices.add(r.head)
            for l in positive_literals(r.body):
                edges.add((l, r.head))
    return Digraph(frozenset(vertices), frozenset(edges))


def is_tight_on(program: Program, x: Iterable[Literal]) -> bool:
    """No cycle in the parent relation relative to (program, x)."""
    return parent_graph(program, x).is_acyclic()


def is_absolutely_tight(program: Program) -> bool:
    """No cycle in the positive dependency graph."""
    return positive_dependency_graph(program).is_acyclic()


def lambda_witness(program: Program, x: Iterable[Literal]) -> dict[Literal, int] | None:
    """Level mapping with lambda(L) < lambda(Head) for every applicable rule.

    None when the program is not tight on x.  A returned witness is validated
    against that condition before being handed back.
    """
    xs = frozenset(x)
    graph = parent_graph(program, xs)
    if not graph.is_acyclic():
        return None
    depths = graph.longest_path_depths()
    for r in program.rules:
        if r.head is None or r.head not in xs or not satisfies(xs, r.body):
            continue
        for l in positive_literals(r.body):
            if l in xs and not depths[l] < depths[r.head]:
                raise RuntimeError("witness validation failed")
    return depths


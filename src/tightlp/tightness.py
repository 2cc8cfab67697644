"""Parent and dependency graphs, tightness checks, and ranking witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable

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
    """Finite directed graph with deterministic traversal order."""

    vertices: frozenset
    edges: frozenset[tuple]

    @cached_property
    def _adjacency(self) -> dict:
        adj: dict = {v: [] for v in self.vertices}
        for u, w in self.edges:
            adj[u].append(w)
        return adj

    @cached_property
    def _predecessors(self) -> dict:
        pred: dict = {v: [] for v in self.vertices}
        for u, w in self.edges:
            pred[w].append(u)
        return pred

    def find_cycle(self, key: Callable = literal_key) -> list | None:
        """Some cycle as [v0, ..., vk, v0], or None; self-loops count."""
        adj = {v: sorted(ws, key=key) for v, ws in self._adjacency.items()}
        color: dict = {}
        parent: dict = {}
        for root in sorted(self.vertices, key=key):
            if root in color:
                continue
            color[root] = 1
            stack = [(root, iter(adj[root]))]
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    mark = color.get(nxt, 0)
                    if mark == 0:
                        color[nxt] = 1
                        parent[nxt] = node
                        stack.append((nxt, iter(adj[nxt])))
                        advanced = True
                        break
                    if mark == 1:
                        path = [node]
                        while path[-1] != nxt:
                            path.append(parent[path[-1]])
                        path.reverse()
                        path.append(nxt)
                        return path
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return None

    def is_acyclic(self, key: Callable = literal_key) -> bool:
        return self.find_cycle(key) is None

    def longest_path_depths(self, key: Callable = literal_key) -> dict:
        """Longest incoming path length per vertex, in key order; requires
        acyclicity."""
        depths = {v: 0 for v in sorted(self.vertices, key=key)}
        waiting = {v: len(us) for v, us in self._predecessors.items()}
        ready = [v for v in depths if not waiting[v]]
        for v in ready:  # Kahn's order: every vertex after its predecessors
            for w in self._adjacency[v]:
                depths[w] = max(depths[w], depths[v] + 1)
                waiting[w] -= 1
                if not waiting[w]:
                    ready.append(w)
        if len(ready) != len(depths):
            raise ValueError("longest path depths need an acyclic graph")
        return depths

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
        if r.head is None or r.head not in xs:
            continue
        if not satisfies(xs, r.body):
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


def program_positive_literals(program: Program) -> frozenset[Literal]:
    """Union of the positive body literals over all non-constraint rules."""
    out: set[Literal] = set()
    for r in program.rules:
        if r.head is not None:
            out |= positive_literals(r.body)
    return frozenset(out)


def is_tight_on(program: Program, x: Iterable[Literal]) -> bool:
    """No cycle in the parent relation relative to (program, x)."""
    return parent_graph(program, x).find_cycle() is None


def is_absolutely_tight(program: Program) -> bool:
    """No cycle in the positive dependency graph."""
    return positive_dependency_graph(program).find_cycle() is None


def lambda_witness(program: Program, x: Iterable[Literal]) -> dict[Literal, int] | None:
    """Level mapping with lambda(L) < lambda(Head) for every applicable rule.

    None when the program is not tight on x.  A returned witness is validated
    against that condition before being handed back.
    """
    xs = frozenset(x)
    graph = parent_graph(program, xs)
    if graph.find_cycle() is not None:
        return None
    depths = graph.longest_path_depths()
    for r in program.rules:
        if r.head is None or r.head not in xs or not satisfies(xs, r.body):
            continue
        for l in positive_literals(r.body):
            if l in xs and not depths[l] < depths[r.head]:
                raise RuntimeError("witness validation failed")
    return depths


def ancestors(literal: Literal, program: Program, x: Iterable[Literal]) -> frozenset[Literal]:
    """Literals reachable from the given one by one or more parent steps."""
    return parent_graph(program, x).ancestors(literal)

"""Ground transitive closure definitions and the checks that govern them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .syntax import (
    And,
    Atom,
    Literal,
    Program,
    Rule,
    Term,
    is_term,
    merge_programs,
    term_key,
)
from .semantics import is_closed, is_consistent
from .tightness import Digraph, is_tight_on, parent_graph

Pair = tuple[Term, Term]


@dataclass(frozen=True)
class DefSpec:
    """Names a base relation p and its closure tc over finite constants.

    extra_args are appended to every atom, which lets one family of
    time-sliced predicates like on(x, y, t) act as the base relation.
    """

    constants: tuple[Term, ...]
    p_name: str = "p"
    tc_name: str = "tc"
    p_extra_args: tuple[Term, ...] = ()
    tc_extra_args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.constants:
            raise ValueError("constants must be nonempty")
        if len(set(self.constants)) != len(self.constants):
            raise ValueError("constants must be distinct")
        if self.p_name == self.tc_name:
            raise ValueError("base and closure predicates must differ")
        for t in (*self.constants, *self.p_extra_args, *self.tc_extra_args):
            if not is_term(t):
                raise ValueError(f"invalid term: {t!r}")
        object.__setattr__(
            self, "constants", tuple(sorted(self.constants, key=term_key))
        )

    def p_atom(self, x: Term, y: Term) -> Atom:
        return Atom(self.p_name, (x, y) + self.p_extra_args)

    def tc_atom(self, x: Term, y: Term) -> Atom:
        return Atom(self.tc_name, (x, y) + self.tc_extra_args)


@lru_cache(maxsize=16)
def _pair_literals(spec: DefSpec) -> tuple[dict[Pair, Literal], dict[Pair, Literal]]:
    """The p literal and the tc literal of each pair, built once per spec."""
    pairs = tuple(itertools.product(spec.constants, repeat=2))
    return (
        {pair: Literal(spec.p_atom(*pair)) for pair in pairs},
        {pair: Literal(spec.tc_atom(*pair)) for pair in pairs},
    )


@lru_cache(maxsize=16)
def def_rules(spec: DefSpec) -> Program:
    """tc as the transitive closure of p, ground over the constants:
    tc(x,y) :- p(x,y) and tc(x,y) :- p(x,v), tc(v,y)."""
    p, tc = _pair_literals(spec)
    c = spec.constants
    rules = [Rule(tc[x, y], p[x, y]) for x, y in itertools.product(c, c)]
    rules.extend(
        Rule(tc[x, y], And(p[x, v], tc[v, y])) for x, y, v in itertools.product(c, c, c)
    )
    return Program(tuple(rules))


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


def _extent(x: Iterable[Literal], literals: dict[Pair, Literal]) -> frozenset[Pair]:
    xs = frozenset(x)
    return frozenset(pair for pair, l in literals.items() if l in xs)


def p_extent(x: Iterable[Literal], spec: DefSpec) -> frozenset[Pair]:
    return _extent(x, _pair_literals(spec)[0])


def tc_extent(x: Iterable[Literal], spec: DefSpec) -> frozenset[Pair]:
    return _extent(x, _pair_literals(spec)[1])


def check_tc_extent(x: Iterable[Literal], spec: DefSpec) -> bool:
    """The tc atoms of x are exactly the closure of its p atoms."""
    return tc_extent(x, spec) == warshall(p_extent(x, spec))


def is_wellfounded(pairs: Iterable[Pair]) -> bool:
    """No cycle in the finite relation (infinite descent is impossible)."""
    edges = frozenset(pairs)
    nodes = frozenset(x for p in edges for x in p)
    return Digraph(nodes, edges).is_acyclic()


@dataclass(frozen=True)
class TightnessPreservationReport:
    """Conditions under which adding the closure definition keeps tightness:
    the program tight on x, the reversed base relation well-founded, and no
    closure atom an ancestor of a base atom."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool

    @property
    def conclusion_applicable(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def check_tightness_preservation(
    program: Program, x: Iterable[Literal], spec: DefSpec
) -> TightnessPreservationReport:
    """Evaluate the three conditions; when all hold, verify directly that the
    program plus the closure definition is tight on x."""
    xs = frozenset(x)
    p_lits, tc_lits = _pair_literals(spec)
    tc_atoms = {l.atom for l in tc_lits.values()}
    for r in program.rules:
        if r.head is not None and r.head.atom in tc_atoms:
            raise ValueError(
                f"program must not define {spec.tc_name!r}: "
                f"rule with head {r.head} found"
            )
    graph = parent_graph(program, xs)
    pairs = _extent(xs, p_lits)
    cond_i = graph.is_acyclic()
    cond_ii = is_wellfounded({(a, b) for (b, a) in pairs})
    cond_iii = all(
        graph.ancestors(p_lits[pair]).isdisjoint(tc_lits.values()) for pair in pairs
    )
    report = TightnessPreservationReport(cond_i, cond_ii, cond_iii)
    if report.conclusion_applicable:
        if not is_tight_on(merge_programs(program, def_rules(spec)), xs):
            raise RuntimeError("preservation conditions held but tightness failed")
    return report


def check_constrained_acyclicity(
    program: Program, spec: DefSpec, x: Iterable[Literal]
) -> bool:
    """With every irreflexivity constraint ``:- tc(c,c)`` present, a
    consistent closed set of the program plus the definition can only induce
    an acyclic base relation.  Verifies the preconditions, then asserts and
    returns the well-foundedness."""
    xs = frozenset(x)
    rule_set = program.rule_set
    tc = _pair_literals(spec)[1]
    for c in spec.constants:
        needed = Rule(None, tc[c, c])
        if needed not in rule_set:
            raise ValueError(f"missing irreflexivity constraint: {needed}")
    if not is_consistent(xs):
        raise ValueError("x must be consistent")
    if not is_closed(xs, merge_programs(program, def_rules(spec))):
        raise ValueError("x must be closed under the program plus the definition")
    result = is_wellfounded({(a, b) for (b, a) in p_extent(xs, spec)})
    assert result, "closed set induced a cyclic base relation"
    return result

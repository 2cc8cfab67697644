"""Supportedness and the completion of finite normal programs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .syntax import (
    COMPLETION_STYLE,
    Atom,
    Formula,
    Literal,
    Program,
    atom_key,
    disj_of,
    is_normal,
    render_formula,
)
from .semantics import satisfies


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


@dataclass(frozen=True)
class Completion:
    """Per-atom body disjunctions plus the body of each constraint.

    The bodies are the rule bodies themselves, read classically: ``not`` as
    negation, ``,`` as conjunction and ``;`` as disjunction.  An atom heading
    no rule gets the empty disjunction (false).  Constraints are the
    requirement that none of their bodies hold.
    """

    entries: tuple[tuple[Atom, Formula], ...]
    constraint_bodies: tuple[Formula, ...]

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a, _ in self.entries)


def completion(program: Program) -> Completion:
    if not is_normal(program):
        raise ValueError(
            "completion is defined for normal programs only; "
            "apply eliminate_classical_negation first"
        )
    atoms = sorted({l.atom for l in program.universe}, key=atom_key)
    bodies: dict[Atom, list[Formula]] = {a: [] for a in atoms}
    constraint_bodies: list[Formula] = []
    for r in program.rules:
        if r.head is None:
            constraint_bodies.append(r.body)
        else:
            bodies[r.head.atom].append(r.body)
    entries = tuple((a, disj_of(bodies[a])) for a in atoms)
    return Completion(entries, tuple(constraint_bodies))


def satisfies_completion(atoms: Iterable[Atom], comp: Completion) -> bool:
    xs = frozenset(atoms)
    x = frozenset(Literal(a) for a in xs)
    for a, d in comp.entries:
        if (a in xs) != satisfies(x, d):
            return False
    return not any(satisfies(x, b) for b in comp.constraint_bodies)


def render_completion(comp: Completion) -> str:
    lines = [
        "%s <-> %s" % (a, render_formula(d, COMPLETION_STYLE)) for a, d in comp.entries
    ]
    if comp.constraint_bodies:
        lines.append(
            "false <-> %s" % render_formula(disj_of(comp.constraint_bodies), COMPLETION_STYLE)
        )
    return "\n".join(lines)

"""The completion of finite normal programs."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    COMPLETION_STYLE,
    Atom,
    Formula,
    Program,
    atom_key,
    disj_of,
    is_normal,
    render_formula,
)


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


def render_completion(comp: Completion) -> str:
    lines = [
        "%s <-> %s" % (a, render_formula(d, COMPLETION_STYLE)) for a, d in comp.entries
    ]
    if comp.constraint_bodies:
        lines.append(
            "false <-> %s" % render_formula(disj_of(comp.constraint_bodies), COMPLETION_STYLE)
        )
    return "\n".join(lines)

"""Shared helpers: seeded random program generation and exhaustive sweeps."""

import itertools
import random

from tightlp import (
    FALSE,
    TRUE,
    And,
    Atom,
    Literal,
    Not,
    Or,
    Program,
    Rule,
    atom_key,
)

ATOMS = tuple(Atom(name) for name in "abcde")


def random_formula(rng: random.Random, literals, depth: int):
    """Random nested body over the given literals."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.06:
            return TRUE
        if roll < 0.12:
            return FALSE
        return rng.choice(literals)
    kind = rng.choice(("not", "and", "and", "or"))
    if kind == "not":
        return Not(random_formula(rng, literals, depth - 1))
    left = random_formula(rng, literals, depth - 1)
    right = random_formula(rng, literals, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def random_program(
    rng: random.Random,
    n_atoms: int = 4,
    max_rules: int = 8,
    depth: int = 2,
    classical: bool = False,
    constraint_chance: float = 0.15,
) -> Program:
    atoms = ATOMS[:n_atoms]
    literals = [Literal(a) for a in atoms]
    if classical:
        literals += [Literal(a, True) for a in atoms]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        body = random_formula(rng, literals, depth)
        head = None if rng.random() < constraint_chance else rng.choice(literals)
        rules.append(Rule(head, body))
    return Program(tuple(rules))


def consistent_subsets(literals):
    """Every consistent subset of the given literals, one atom at a time."""
    by_atom = {}
    for l in literals:
        by_atom.setdefault(l.atom, set()).add(l)
    groups = []
    for atom in sorted(by_atom, key=atom_key):
        options = [()]
        options.extend((l,) for l in sorted(by_atom[atom], key=lambda l: l.negated))
        groups.append(options)
    for combo in itertools.product(*groups):
        yield frozenset(l for part in combo for l in part)


def same_program(a: Program, b: Program) -> bool:
    return a.rule_set == b.rule_set and a.declared == b.declared

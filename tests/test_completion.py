"""Program completion: structure, rendering and the supported-model reading."""

import hashlib
import random

import pytest

from conftest import random_program
from reference import is_supported, satisfies_completion
from tightlp import (
    FALSE,
    And,
    Atom,
    Literal,
    Not,
    Or,
    completion,
    enumerate_answer_sets_bruteforce,
    is_closed,
    parse_literals,
    parse_program,
    render_completion,
    render_formula,
)
from tightlp.syntax import COMPLETION_STYLE


def atoms_of(x):
    return frozenset(l.atom for l in x)


class TestIsSupported:
    def test_each_member_needs_a_firing_rule(self):
        prog = parse_program("p :- not not p.\np :- p, q.")
        assert is_supported(parse_literals("p"), prog)
        assert is_supported(frozenset(), prog)
        assert not is_supported(parse_literals("p, q"), prog)

    def test_works_on_literals_not_just_atoms(self):
        prog = parse_program("p :- not -q.\n-q :- not p.")
        assert is_supported(parse_literals("p"), prog)
        assert is_supported(parse_literals("-q"), prog)
        assert not is_supported(parse_literals("p, -q"), prog)


class TestCompletionStructure:
    def test_bodies_group_by_head(self):
        comp = completion(parse_program("p :- q.\np :- not r.\n:- p, q."))
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert tuple(a for a, _ in comp.entries) == (p, q, r)
        lp, lq, lr = (Literal(a) for a in (p, q, r))
        entries = dict(comp.entries)
        assert entries[p] == Or(lq, Not(lr))
        assert entries[q] == FALSE
        assert entries[r] == FALSE
        assert comp.constraint_bodies == (And(lp, lq),)

    def test_declared_atoms_get_entries(self):
        comp = completion(parse_program("#universe t.\np."))
        assert Atom("t") in dict(comp.entries)

    def test_requires_a_normal_program(self):
        with pytest.raises(ValueError, match="eliminate_classical_negation"):
            completion(parse_program("p :- -q."))


class TestRendering:
    def test_double_negation_stays_visible(self):
        comp = completion(parse_program("p :- not not p.\np :- p, q."))
        assert render_completion(comp) == "p <-> -(-p) | (p & q)\nq <-> false"

    def test_constraints_render_as_a_false_entry(self):
        comp = completion(parse_program("p :- q. p :- not r.\n:- p, q.\n:- r."))
        assert render_completion(comp) == (
            "p <-> q | -r\nq <-> false\nr <-> false\nfalse <-> (p & q) | r"
        )

    def test_render_prop_parenthesizes_mixed_operators(self):
        p, q, r = (Literal(Atom(n)) for n in "pqr")

        def show(f):
            return render_formula(f, COMPLETION_STYLE)

        assert show(Or(Or(p, q), r)) == "p | q | r"
        assert show(Or(p, Or(q, r))) == "p | (q | r)"
        assert show(And(p, Or(q, r))) == "p & (q | r)"
        assert show(Or(And(p, q), r)) == "(p & q) | r"
        assert show(Not(And(p, Not(q)))) == "-(p & -q)"

    def test_rendering_is_pinned_on_random_programs(self):
        # any drift in the completion's text changes this digest
        rng = random.Random(2003)
        texts = [
            render_completion(
                completion(random_program(rng, n_atoms=5, max_rules=8, depth=3))
            )
            for _ in range(300)
        ]
        digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
        assert digest == (
            "cca46d96538b95d26dec4ef95ee0717d9ec2c29a4f533d9878e8ee2319f48150"
        )


class TestModelsOfTheCompletion:
    def test_satisfies_completion_examples(self):
        comp = completion(parse_program("p :- not not p.\np :- p, q."))
        assert satisfies_completion(frozenset(), comp)
        assert satisfies_completion(frozenset({Atom("p")}), comp)
        assert not satisfies_completion(frozenset({Atom("p"), Atom("q")}), comp)

    def test_models_are_exactly_closed_supported_sets(self):
        rng = random.Random(23)
        for _ in range(80):
            prog = random_program(rng, n_atoms=4, max_rules=6)
            comp = completion(prog)
            atom_pool = sorted({l.atom for l in prog.universe}, key=str)
            for bits in range(2 ** len(atom_pool)):
                atoms = frozenset(
                    a for i, a in enumerate(atom_pool) if bits >> i & 1
                )
                x = frozenset(Literal(a) for a in atoms)
                assert satisfies_completion(atoms, comp) is (
                    is_closed(x, prog) and is_supported(x, prog)
                )

    def test_answer_sets_are_models_of_the_completion(self):
        rng = random.Random(29)
        for _ in range(80):
            prog = random_program(rng, n_atoms=4, max_rules=6)
            comp = completion(prog)
            for x in enumerate_answer_sets_bruteforce(prog):
                assert satisfies_completion(atoms_of(x), comp)

"""Satisfaction, closure, reducts and answer sets checked by definition."""

import random

import pytest

from conftest import consistent_subsets, random_formula, random_program
from tightlp import (
    FALSE,
    TRUE,
    And,
    Atom,
    CapacityError,
    EnumerationBoundError,
    Literal,
    Program,
    Rule,
    enumerate_answer_sets_bruteforce,
    is_answer_set,
    is_closed,
    is_consistent,
    minimal_closed_set,
    parse_literals,
    parse_program,
    reduct,
    reduct_formula,
    satisfies,
)


def body(text: str):
    return parse_program("x :- %s." % text).rules[0].body


X_P = parse_literals("p")
X_PQ = parse_literals("p, q")
X_PNQ = parse_literals("p, -q")


class TestSatisfies:
    @pytest.mark.parametrize(
        "x,text,expect",
        [
            (X_P, "p", True),
            (X_P, "q", False),
            (X_P, "not q", True),
            (X_P, "not not p", True),
            (X_P, "p, q", False),
            (X_P, "p; q", True),
            (X_P, "true", True),
            (X_P, "false", False),
            (X_P, "not false", True),
            (X_PNQ, "-q", True),
            (X_PNQ, "not -q", False),
            (X_PQ, "-q", False),
            (X_PQ, "not (p, q)", False),
            (X_PQ, "not p; not q", False),
        ],
    )
    def test_cases(self, x, text, expect):
        assert satisfies(x, body(text)) is expect

    def test_negative_literal_needs_membership(self):
        # -q holds only when -q itself is in the set, never by q's absence
        assert not satisfies(frozenset(), body("-q"))
        assert satisfies(frozenset(), body("not q"))

    def test_is_consistent(self):
        assert is_consistent(X_PNQ)
        assert not is_consistent(parse_literals("q, -q"))


class TestIsClosed:
    def test_closure_requires_heads(self):
        prog = parse_program("p :- q.")
        assert is_closed(parse_literals("p, q"), prog)
        assert is_closed(frozenset(), prog)
        assert not is_closed(parse_literals("q"), prog)

    def test_constraint_body_must_fail(self):
        prog = parse_program(":- p.")
        assert is_closed(frozenset(), prog)
        assert not is_closed(X_P, prog)

    def test_double_negation_body(self):
        prog = parse_program("p :- not not p.\np :- p, q.")
        head = Literal(Atom("p"))
        for x in consistent_subsets(prog.universe):
            fired = any(satisfies(x, r.body) for r in prog.rules)
            assert is_closed(x, prog) is (head in x or not fired)


class TestReduct:
    def test_maximal_not_subformulas_become_constants(self):
        prog = parse_program("p :- not not p.\np :- p, q.")
        on_p = reduct(prog, X_P)
        assert on_p.rule_set == parse_program("p.\np :- p, q.").rule_set
        on_empty = reduct(prog, frozenset())
        assert on_empty.rule_set == parse_program("p :- false.\np :- p, q.").rule_set

    def test_inner_negations_are_not_touched(self):
        # the whole "not (q, not r)" flips at once, not its inner "not r"
        f = body("not (q, not r)")
        assert reduct_formula(f, parse_literals("q")) == FALSE
        assert reduct_formula(f, parse_literals("q, r")) == TRUE
        assert reduct_formula(f, frozenset()) == TRUE

    def test_not_free_formula_is_unchanged(self):
        f = body("p, (q; -r)")
        assert reduct_formula(f, X_PQ) == f
        assert reduct_formula(f, frozenset()) == f

    def test_reduct_preserves_satisfaction(self):
        rng = random.Random(11)
        atoms = [Atom(n) for n in "abc"]
        literals = [Literal(a) for a in atoms] + [Literal(a, True) for a in atoms]
        for _ in range(300):
            f = random_formula(rng, literals, 3)
            for x in consistent_subsets(rng.sample(literals, 4)):
                assert satisfies(x, f) == satisfies(x, reduct_formula(f, x))


class TestMinimalClosedSet:
    def test_least_model_of_definite_rules(self):
        prog = parse_program("p.\nq :- p.\nr :- s.")
        assert minimal_closed_set(prog) == parse_literals("p, q")

    def test_violated_constraint_means_no_model(self):
        assert minimal_closed_set(parse_program("p.\n:- p.")) is None

    def test_complementary_pair_means_no_model(self):
        assert minimal_closed_set(parse_program("p.\n-p.")) is None
        assert minimal_closed_set(parse_program("p.\n-q :- p; r.")) is not None

    def test_rejects_negation_as_failure(self):
        with pytest.raises(ValueError):
            minimal_closed_set(parse_program("p :- not q."))

    def test_result_is_least_among_closed_sets(self):
        rng = random.Random(13)
        for _ in range(60):
            prog = reduct(random_program(rng, n_atoms=3, max_rules=5), frozenset())
            least = minimal_closed_set(prog)
            if least is None:
                continue
            assert is_closed(least, prog)
            for x in consistent_subsets(prog.universe):
                if is_closed(x, prog):
                    assert least <= x


class TestAnswerSets:
    def test_double_negation_supports_itself(self):
        prog = parse_program("p :- not not p.\np :- p, q.")
        assert is_answer_set(frozenset(), prog)
        assert is_answer_set(X_P, prog)
        assert not is_answer_set(X_PQ, prog)
        assert enumerate_answer_sets_bruteforce(prog) == (frozenset(), X_P)

    def test_two_answer_sets_under_classical_negation(self):
        prog = parse_program("p :- not -q.\n-q :- not p.")
        assert enumerate_answer_sets_bruteforce(prog) == (
            parse_literals("p"),
            parse_literals("-q"),
        )
        assert not is_answer_set(parse_literals("p, -q"), prog)

    def test_positive_loop_is_not_self_supporting(self):
        prog = parse_program("p :- p.")
        assert is_answer_set(frozenset(), prog)
        assert not is_answer_set(X_P, prog)

    def test_constraints_prune_answer_sets(self):
        prog = parse_program("{a}.\n:- not a.")
        assert enumerate_answer_sets_bruteforce(prog) == (parse_literals("a"),)

    def test_enumeration_matches_per_candidate_checks(self):
        rng = random.Random(17)
        for _ in range(40):
            prog = random_program(rng, n_atoms=3, max_rules=6, classical=True)
            got = enumerate_answer_sets_bruteforce(prog)
            expect = {
                x
                for x in consistent_subsets(prog.universe)
                if minimal_closed_set(reduct(prog, x)) == x
            }
            assert set(got) == expect
            assert len(got) == len(expect)

    def test_inconsistent_set_is_never_an_answer_set(self):
        prog = parse_program("p.\n-p.")
        x = parse_literals("p, -p")
        assert minimal_closed_set(reduct(prog, x)) is None
        assert not is_answer_set(x, prog)
        assert enumerate_answer_sets_bruteforce(prog) == ()

    def test_matches_the_definition_on_every_set(self):
        # inconsistent sets included: every subset of the universe is tried
        rng = random.Random(37)
        for _ in range(60):
            prog = random_program(rng, n_atoms=3, max_rules=6, classical=True)
            universe = sorted(prog.universe, key=str)
            for bits in range(2 ** len(universe)):
                x = frozenset(l for i, l in enumerate(universe) if bits >> i & 1)
                expect = minimal_closed_set(reduct(prog, x)) == x
                assert is_answer_set(x, prog) is expect

    def test_enumeration_bound(self):
        facts = Program(
            tuple(Rule(Literal(Atom("p", (i,))), TRUE) for i in range(5))
        )
        with pytest.raises(EnumerationBoundError, match="above the bound"):
            enumerate_answer_sets_bruteforce(facts, bound=4)
        assert issubclass(EnumerationBoundError, CapacityError)
        assert len(enumerate_answer_sets_bruteforce(facts, bound=5)) == 1

    def test_default_bound_refuses_large_universes(self):
        facts = Program(
            tuple(Rule(Literal(Atom("p", (i,))), TRUE) for i in range(25))
        )
        with pytest.raises(EnumerationBoundError):
            enumerate_answer_sets_bruteforce(facts)


def test_answer_sets_are_closed_and_consistent():
    rng = random.Random(19)
    for _ in range(40):
        prog = random_program(rng, n_atoms=4, classical=rng.random() < 0.5)
        for x in enumerate_answer_sets_bruteforce(prog):
            assert is_consistent(x)
            assert is_closed(x, prog)

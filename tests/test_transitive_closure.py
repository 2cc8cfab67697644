"""Ground closure definitions and the conditions for adding them safely."""

import itertools
import random

import pytest

from reference import (
    check_tc_extent,
    is_supported,
    minimal_closed_set,
    tc_extent,
    warshall,
)
from tightlp import (
    And,
    Atom,
    DefSpec,
    Literal,
    Program,
    Rule,
    check_constrained_acyclicity,
    check_tightness_preservation,
    def_rules,
    enumerate_answer_sets_bruteforce,
    is_absolutely_tight,
    is_answer_set,
    is_closed,
    is_tight_on,
    is_wellfounded,
    merge_programs,
    p_extent,
    parse_program,
    render,
)
from tightlp.transitive_closure import _pair_literals

SPEC12 = DefSpec(constants=(1, 2))


def plit(spec, a, b):
    return Literal(spec.p_atom(a, b))


def tclit(spec, a, b):
    return Literal(spec.tc_atom(a, b))


def facts_program(spec, pairs):
    return Program(tuple(Rule(plit(spec, a, b)) for a, b in sorted(pairs)))


class TestDefSpec:
    def test_constants_are_sorted_and_validated(self):
        assert DefSpec(constants=(2, 1)).constants == (1, 2)
        with pytest.raises(ValueError):
            DefSpec(constants=())
        with pytest.raises(ValueError):
            DefSpec(constants=(1, 1))
        with pytest.raises(ValueError):
            DefSpec(constants=(1,), p_name="p", tc_name="p")

    @pytest.mark.parametrize(
        "fields",
        [
            {"constants": ("A", "b")},
            {"constants": (1, -1)},
            {"constants": ("not",)},
            {"constants": (True,)},
            {"constants": (1.5,)},
            {"constants": (1,), "p_extra_args": ("X",)},
            {"constants": (1,), "tc_extra_args": ("true",)},
        ],
    )
    def test_terms_must_read_back(self, fields):
        with pytest.raises(ValueError, match="invalid term"):
            DefSpec(**fields)

    @pytest.mark.parametrize(
        "spec",
        [
            DefSpec(constants=(1,)),
            DefSpec(constants=(0, "a", 12, "b_C2")),
            DefSpec(constants=("x", "y"), p_name="on", tc_name="above",
                    p_extra_args=(0,), tc_extra_args=("t2", 3)),
        ],
    )
    def test_rendered_rules_parse_back(self, spec):
        assert parse_program(render(def_rules(spec))) == def_rules(spec)

    def test_extra_args_reach_every_atom(self):
        spec = DefSpec(constants=("a", "b"), p_name="on", tc_name="above",
                       p_extra_args=(3,), tc_extra_args=(3,))
        assert spec.p_atom("a", "b") == Atom("on", ("a", "b", 3))
        assert spec.tc_atom("b", "b") == Atom("above", ("b", "b", 3))


class TestDefRules:
    def test_rule_count_is_quadratic_plus_cubic(self):
        assert len(def_rules(SPEC12).rules) == 4 + 8
        spec3 = DefSpec(constants=(1, 2, 3))
        assert len(def_rules(spec3).rules) == 9 + 27

    def test_base_and_step_shapes(self):
        rules = def_rules(SPEC12).rule_set
        assert Rule(tclit(SPEC12, 1, 2), plit(SPEC12, 1, 2)) in rules
        step = parse_program("tc(1,2) :- p(1,1), tc(1,2).").rules[0]
        assert step in rules

    def test_rules_are_built_from_the_pair_literals(self):
        spec = DefSpec(constants=(1, 2, "x"))
        p_lits, tc_lits = _pair_literals(spec)
        own = {id(l) for l in (*p_lits.values(), *tc_lits.values())}
        for r in def_rules(spec).rules:
            parts = r.body.parts if isinstance(r.body, And) else (r.body,)
            assert all(id(l) in own for l in (r.head, *parts)), r

    def test_definition_is_never_absolutely_tight_but_text_is_stable(self):
        prog = def_rules(SPEC12)
        assert not is_absolutely_tight(prog)
        text = render(prog)
        assert text.splitlines()[0] == "tc(1,1) :- p(1,1)."
        assert len(text.splitlines()) == 12


class TestWarshall:
    def test_small_cases(self):
        assert warshall([]) == frozenset()
        assert warshall([(1, 2), (2, 3)]) == {(1, 2), (2, 3), (1, 3)}
        assert warshall([(1, 1)]) == {(1, 1)}
        assert warshall([(1, 2), (2, 1)]) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_matches_iterated_composition(self):
        rng = random.Random(59)
        nodes = list(range(4))
        for _ in range(50):
            pairs = {
                (a, b)
                for a in nodes
                for b in nodes
                if rng.random() < 0.3
            }
            closure = set(pairs)
            while True:
                extra = {
                    (a, d)
                    for (a, b) in closure
                    for (c, d) in closure
                    if b == c
                } - closure
                if not extra:
                    break
                closure |= extra
            assert warshall(pairs) == closure


class TestExtents:
    def test_extents_read_positive_literals_only(self):
        x = frozenset({
            plit(SPEC12, 1, 2),
            Literal(SPEC12.p_atom(2, 1), True),
            tclit(SPEC12, 1, 2),
        })
        assert p_extent(x, SPEC12) == {(1, 2)}
        assert tc_extent(x, SPEC12) == {(1, 2)}

    def test_check_tc_extent(self):
        x = frozenset({plit(SPEC12, 1, 2), tclit(SPEC12, 1, 2)})
        assert check_tc_extent(x, SPEC12)
        assert not check_tc_extent(x | {tclit(SPEC12, 2, 1)}, SPEC12)

    def test_least_model_of_facts_plus_definition(self):
        rng = random.Random(61)
        spec = DefSpec(constants=(1, 2, 3))
        pairs_pool = list(itertools.product(spec.constants, repeat=2))
        for _ in range(200):
            pairs = {p for p in pairs_pool if rng.random() < 0.35}
            prog = merge_programs(facts_program(spec, pairs), def_rules(spec))
            least = minimal_closed_set(prog)
            assert least is not None
            assert tc_extent(least, spec) == warshall(pairs)
            assert check_tc_extent(least, spec)
            assert is_answer_set(least, prog)


class TestWellFounded:
    def test_cases(self):
        assert is_wellfounded([])
        assert is_wellfounded([(1, 2), (2, 3)])
        assert not is_wellfounded([(1, 1)])
        assert not is_wellfounded([(1, 2), (2, 1)])


class TestTightnessPreservation:
    def test_definition_must_stay_out_of_the_program(self):
        prog = parse_program("tc(1,1) :- p(1,1).")
        with pytest.raises(ValueError, match="must not define 'tc'"):
            check_tightness_preservation(prog, frozenset(), SPEC12)

    def test_overfull_closure_fails_wellfoundedness_condition(self):
        # x claims tc(1,2) although only p(1,1) holds; the self-pair
        # p(1,1) makes the reversed base relation non-wellfounded
        prog = parse_program("p(1,1).")
        x = frozenset({plit(SPEC12, 1, 1), tclit(SPEC12, 1, 1), tclit(SPEC12, 1, 2)})
        report = check_tightness_preservation(prog, x, SPEC12)
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, False, True)
        assert not report.conclusion_applicable
        merged = merge_programs(prog, def_rules(SPEC12))
        assert is_closed(x, merged) and is_supported(x, merged)
        assert not is_answer_set(x, merged)
        assert not is_tight_on(merged, x)

    def test_closure_feeding_the_base_fails_ancestor_condition(self):
        rules = tuple(
            Rule(plit(SPEC12, a, b), tclit(SPEC12, a, b))
            for a, b in itertools.product((1, 2), repeat=2)
        )
        prog = Program(rules)
        x = frozenset({plit(SPEC12, 2, 1), tclit(SPEC12, 2, 1)})
        report = check_tightness_preservation(prog, x, SPEC12)
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, True, False)
        merged = merge_programs(prog, def_rules(SPEC12))
        assert is_closed(x, merged) and is_supported(x, merged)
        assert not is_answer_set(x, merged)
        assert enumerate_answer_sets_bruteforce(merged) == (frozenset(),)

    def test_acyclic_extents_pass_all_three_conditions(self):
        rng = random.Random(67)
        spec = DefSpec(constants=(1, 2, 3))
        seen_applicable = 0
        for _ in range(200):
            pairs = {
                (a, b)
                for a, b in itertools.product(spec.constants, repeat=2)
                if rng.random() < 0.3
            }
            prog = facts_program(spec, pairs)
            x = frozenset(
                {plit(spec, a, b) for a, b in pairs}
                | {tclit(spec, a, b) for a, b in warshall(pairs)}
            )
            report = check_tightness_preservation(prog, x, spec)
            assert report.cond_i
            assert report.cond_ii is is_wellfounded(pairs)
            if report.conclusion_applicable:
                seen_applicable += 1
                assert is_tight_on(merge_programs(prog, def_rules(spec)), x)
        assert seen_applicable > 25


class TestConstrainedAcyclicity:
    CONSTRAINTS = ":- tc(1,1).\n:- tc(2,2).\n"

    def test_accepts_an_acyclic_closed_set(self):
        prog = parse_program("p(1,2).\n" + self.CONSTRAINTS)
        x = frozenset({plit(SPEC12, 1, 2), tclit(SPEC12, 1, 2)})
        assert check_constrained_acyclicity(prog, SPEC12, x) is True

    def test_a_cyclic_verdict_raises_even_without_asserts(self, monkeypatch):
        # the theorem makes this unreachable, so stand in a wrong verdict;
        # the check is an exception, not an assert that python -O removes
        monkeypatch.setattr("tightlp.transitive_closure.is_wellfounded", lambda pairs: False)
        prog = parse_program("p(1,2).\n" + self.CONSTRAINTS)
        x = frozenset({plit(SPEC12, 1, 2), tclit(SPEC12, 1, 2)})
        with pytest.raises(RuntimeError, match="cyclic base relation"):
            check_constrained_acyclicity(prog, SPEC12, x)

    def test_missing_constraint_is_rejected(self):
        prog = parse_program("p(1,2).\n:- tc(1,1).")
        with pytest.raises(ValueError, match="missing irreflexivity constraint"):
            check_constrained_acyclicity(prog, SPEC12, frozenset())

    def test_inconsistent_x_is_rejected(self):
        prog = parse_program("p(1,2).\n" + self.CONSTRAINTS)
        x = frozenset({plit(SPEC12, 1, 2), Literal(SPEC12.p_atom(1, 2), True)})
        with pytest.raises(ValueError, match="consistent"):
            check_constrained_acyclicity(prog, SPEC12, x)

    def test_unclosed_x_is_rejected(self):
        prog = parse_program("p(1,2).\n" + self.CONSTRAINTS)
        with pytest.raises(ValueError, match="closed"):
            check_constrained_acyclicity(prog, SPEC12, frozenset())

    def test_cyclic_base_cannot_reach_a_closed_consistent_set(self):
        # with the constraints in force, closure of cyclic facts fires
        # :- tc(c,c), so no candidate set ever meets the preconditions
        prog = parse_program("p(1,2).\np(2,1).\n" + self.CONSTRAINTS)
        merged = merge_programs(prog, def_rules(SPEC12))
        assert minimal_closed_set(merged) is None
        assert enumerate_answer_sets_bruteforce(merged) == ()
        full = frozenset(
            {plit(SPEC12, 1, 2), plit(SPEC12, 2, 1)}
            | {tclit(SPEC12, a, b) for a, b in warshall({(1, 2), (2, 1)})}
        )
        with pytest.raises(ValueError, match="closed"):
            check_constrained_acyclicity(prog, SPEC12, full)

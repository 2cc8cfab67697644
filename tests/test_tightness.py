"""Dependency graphs, tightness on a set, absolute tightness, level witnesses."""

import random

import pytest

from conftest import consistent_subsets, random_program
from tightlp import (
    Atom,
    Digraph,
    Literal,
    ancestors,
    is_absolutely_tight,
    is_tight_on,
    lambda_witness,
    parent_graph,
    parse_literals,
    parse_program,
    positive_dependency_graph,
    positive_literals,
    program_positive_literals,
    reduct,
    satisfies,
)


def lits(text: str):
    return parse_literals(text)


class TestDigraph:
    def test_find_cycle_returns_a_closed_walk(self):
        g = Digraph(frozenset("abc"), frozenset({("a", "b"), ("b", "a")}), )
        cycle = g.find_cycle(key=str)
        assert cycle in (["a", "b", "a"], ["b", "a", "b"])
        assert not g.is_acyclic(key=str)

    def test_self_loop_counts(self):
        g = Digraph(frozenset("a"), frozenset({("a", "a")}))
        assert g.find_cycle(key=str) == ["a", "a"]

    def test_longest_path_depths(self):
        g = Digraph(
            frozenset("abcd"),
            frozenset({("a", "b"), ("b", "c"), ("a", "c")}),
        )
        assert g.longest_path_depths(key=str) == {"a": 0, "b": 1, "c": 2, "d": 0}

    def test_longest_path_depths_refuse_a_cycle(self):
        g = Digraph(frozenset("abc"), frozenset({("a", "b"), ("b", "c"), ("c", "b")}))
        with pytest.raises(ValueError, match="acyclic"):
            g.longest_path_depths(key=str)


class TestParentGraph:
    def test_edges_need_a_satisfied_body(self):
        prog = parse_program("p :- q, not r.\nq.\nr :- r.")
        g = parent_graph(prog, lits("p, q"))
        assert g.vertices == lits("p, q")
        assert g.edges == {(Literal(Atom("q")), Literal(Atom("p")))}

    def test_vertex_outside_x_never_appears(self):
        prog = parse_program("p :- q, not r.\nq.\nr :- r.")
        g = parent_graph(prog, lits("p, q, r"))
        # r's rule fires, so r -> r; p's body now fails, dropping q -> p
        assert g.edges == {(Literal(Atom("r")), Literal(Atom("r")))}

    def test_constraints_contribute_no_edges(self):
        prog = parse_program("p.\nq.\n:- p, q.")
        assert parent_graph(prog, lits("p, q")).edges == frozenset()


class TestTightOn:
    def test_restriction_to_x_can_break_a_loop(self):
        prog = parse_program("p.\nq.\np :- p, not q.")
        assert not is_absolutely_tight(prog)
        assert is_tight_on(prog, lits("p, q"))
        assert not is_tight_on(prog, lits("p"))

    def test_double_negation_loop(self):
        prog = parse_program("p :- not not p.\np :- p, q.")
        assert is_tight_on(prog, frozenset())
        assert is_tight_on(prog, lits("p"))
        assert not is_tight_on(prog, lits("p, q"))

    def test_reduct_has_the_same_parent_graph(self):
        rng = random.Random(31)
        for _ in range(60):
            prog = random_program(rng, n_atoms=4, classical=rng.random() < 0.4)
            for x in list(consistent_subsets(prog.universe))[::7]:
                left = parent_graph(prog, x)
                right = parent_graph(reduct(prog, x), x)
                assert (left.vertices, left.edges) == (right.vertices, right.edges)


class TestAbsoluteTightness:
    def test_chains_are_tight_and_loops_are_not(self):
        assert is_absolutely_tight(parse_program("p :- q.\nq :- r."))
        assert not is_absolutely_tight(parse_program("p :- q.\nq :- p."))
        assert not is_absolutely_tight(parse_program("p :- p."))

    def test_negation_does_not_create_edges(self):
        assert is_absolutely_tight(parse_program("p :- not p."))
        assert is_absolutely_tight(parse_program("p :- not not p."))

    def test_constraint_bodies_add_vertices_but_no_edges(self):
        prog = parse_program("p :- q.\n:- r, p.")
        g = positive_dependency_graph(prog)
        assert Literal(Atom("r")) in g.vertices
        assert g.edges == {(Literal(Atom("q")), Literal(Atom("p")))}

    def test_program_positive_literals(self):
        # body literals outside negation; heads and constraint bodies excluded
        prog = parse_program("p :- q, not r.\n-s :- not p, -t.\n:- u.")
        assert program_positive_literals(prog) == lits("q, -t")

    def test_cycle_is_reported(self):
        g = positive_dependency_graph(parse_program("p :- q.\nq :- p."))
        cycle = g.find_cycle()
        assert cycle[0] == cycle[-1]
        assert len(cycle) == 3


class TestLambdaWitness:
    def test_levels_follow_rule_order(self):
        w = lambda_witness(parse_program("p :- q, not r.\nq."), lits("p, q"))
        assert w == {Literal(Atom("q")): 0, Literal(Atom("p")): 1}

    def test_cyclic_case_has_no_witness(self):
        assert lambda_witness(parse_program("p :- p."), lits("p")) is None

    def test_witness_exists_exactly_when_tight(self):
        rng = random.Random(37)
        seen_tight = seen_loose = 0
        for _ in range(120):
            prog = random_program(rng, n_atoms=4, classical=rng.random() < 0.4)
            for x in list(consistent_subsets(prog.universe))[::5]:
                w = lambda_witness(prog, x)
                tight = is_tight_on(prog, x)
                assert (w is not None) is tight
                if not tight:
                    seen_loose += 1
                    continue
                seen_tight += 1
                assert set(w) == set(x)
                for r in prog.rules:
                    if r.head is None or r.head not in x:
                        continue
                    if not satisfies(x, r.body):
                        continue
                    for l in positive_literals(r.body) & x:
                        assert w[l] < w[r.head]
        assert seen_tight and seen_loose


class TestAncestors:
    def test_chain(self):
        prog = parse_program("p :- q.\nq :- r.\nr.")
        x = lits("p, q, r")
        assert ancestors(Literal(Atom("p")), prog, x) == lits("q, r")
        assert ancestors(Literal(Atom("r")), prog, x) == frozenset()

    def test_self_loop_is_its_own_ancestor(self):
        prog = parse_program("p :- p.")
        assert ancestors(Literal(Atom("p")), prog, lits("p")) == lits("p")

    def test_literal_outside_x(self):
        prog = parse_program("p :- q.\nq.")
        assert ancestors(Literal(Atom("p")), prog, frozenset()) == frozenset()

    def test_tightness_means_no_literal_is_its_own_ancestor(self):
        rng = random.Random(41)
        for _ in range(60):
            prog = random_program(rng, n_atoms=4)
            for x in list(consistent_subsets(prog.universe))[::6]:
                loops = [l for l in x if l in ancestors(l, prog, x)]
                assert is_tight_on(prog, x) is (not loops)

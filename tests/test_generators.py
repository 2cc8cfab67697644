"""Queens and blocks world generators checked against independent oracles."""

import pytest

from reference import (
    blocksworld_above_slices,
    blocksworld_history_count_oracle,
    check_tc_extent,
    queens_count_oracle,
)
from tightlp import (
    Atom,
    BlocksSpec,
    DefSpec,
    Literal,
    QueensSpec,
    answer_sets_via_completion,
    blocksworld_program,
    def_rules,
    enumerate_answer_sets_bruteforce,
    is_absolutely_tight,
    is_tight_on,
    is_wellfounded,
    p_extent,
    parse_program,
    queens_program,
    regular_literals,
)


def queen(r, c):
    return Literal(Atom("queen", (r, c)))


class TestQueens:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QueensSpec(0)

    def test_rule_families_at_size_two(self):
        prog = queens_program(QueensSpec(2))
        choices = [r for r in prog.rules if r.head is not None]
        constraints = [r for r in prog.rules if r.head is None]
        assert len(choices) == 4
        assert len(constraints) == 8
        # one at-least-one constraint per column
        per_column = [
            r for r in constraints
            if not (regular_literals(r.body) - {queen(1, 1), queen(2, 1)})
            or not (regular_literals(r.body) - {queen(1, 2), queen(2, 2)})
        ]
        assert len(per_column) >= 2

    def test_choice_rules_use_double_negation(self):
        prog = queens_program(QueensSpec(1))
        assert parse_program(
            "queen(1,1) :- not not queen(1,1)."
        ).rules[0] in prog.rule_set

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 0), (3, 0), (4, 2), (5, 10)])
    def test_oracle_counts(self, n, count):
        assert queens_count_oracle(n) == count

    def test_oracle_bounds(self):
        with pytest.raises(ValueError):
            queens_count_oracle(0)
        with pytest.raises(ValueError):
            queens_count_oracle(11)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_solver_agrees_with_oracle(self, n):
        result = answer_sets_via_completion(queens_program(QueensSpec(n)))
        assert len(result.answer_sets) == queens_count_oracle(n)
        assert all(tag == "absolutely-tight" for tag in result.tags)

    def test_solutions_place_one_queen_per_line(self):
        for x in answer_sets_via_completion(queens_program(QueensSpec(4))).answer_sets:
            rows = sorted(l.atom.args[0] for l in x)
            cols = sorted(l.atom.args[1] for l in x)
            assert rows == [1, 2, 3, 4]
            assert cols == [1, 2, 3, 4]

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_absolutely_tight_for_any_size(self, n):
        assert is_absolutely_tight(queens_program(QueensSpec(n)))

    def test_brute_force_agrees_on_tiny_boards(self):
        for n in (1, 2, 3):
            prog = queens_program(QueensSpec(n))
            assert (
                len(enumerate_answer_sets_bruteforce(prog))
                == queens_count_oracle(n)
            )


class TestBlocksSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlocksSpec((), 1)
        with pytest.raises(ValueError):
            BlocksSpec(("table",), 1)
        with pytest.raises(ValueError):
            BlocksSpec(("a", "a"), 1)
        with pytest.raises(ValueError):
            BlocksSpec(("a",), -1)

    def test_block_names_must_read_back_as_terms(self):
        for names in (("B1", "b2"), ("b1", "2"), ("not",), ("b-1",)):
            with pytest.raises(ValueError, match="invalid block name"):
                BlocksSpec(names, 1)

    def test_locations_append_the_table(self):
        assert BlocksSpec(("b", "a"), 0).locations == ("a", "b", "table")


class TestBlocksWorld:
    def test_zero_horizon_has_no_moves(self):
        prog = blocksworld_program(BlocksSpec(("b1",), 0))
        assert not any(l.atom.predicate == "move" for l in prog.universe)
        assert len(prog.universe) == 6

    def test_never_absolutely_tight(self):
        # above's recursive step always leaves a positive loop
        assert not is_absolutely_tight(blocksworld_program(BlocksSpec(("b1",), 0)))

    @pytest.mark.parametrize(
        "blocks,horizon,count",
        [(("b1",), 0, 1), (("b1",), 1, 2), (("b1", "b2"), 0, 3), (("b1", "b2"), 1, 11)],
    )
    def test_history_oracle(self, blocks, horizon, count):
        assert blocksworld_history_count_oracle(BlocksSpec(blocks, horizon)) == count

    def test_solver_counts_match_the_history_oracle(self):
        for blocks, horizon in [(("b1",), 0), (("b1",), 1), (("b1", "b2"), 0),
                                (("b1", "b2"), 1)]:
            spec = BlocksSpec(blocks, horizon)
            result = answer_sets_via_completion(blocksworld_program(spec))
            assert len(result.answer_sets) == blocksworld_history_count_oracle(spec)
            assert result.dropped == ()
            assert all(tag == "tight-on-model" for tag in result.tags)

    def test_brute_force_agrees_at_zero_horizon(self):
        spec = BlocksSpec(("b1",), 0)
        prog = blocksworld_program(spec)
        assert (
            enumerate_answer_sets_bruteforce(prog)
            == answer_sets_via_completion(prog).answer_sets
        )

    def test_states_are_physical(self):
        spec = BlocksSpec(("b1", "b2"), 0)
        for x in answer_sets_via_completion(blocksworld_program(spec)).answer_sets:
            ons = {
                l.atom.args[:2] for l in x
                if l.atom.predicate == "on" and not l.negated
            }
            # every block sits somewhere, exactly once
            assert sorted(b for b, _ in ons) == ["b1", "b2"]
            # nothing sits on a block that is itself missing a place
            for b, loc in ons:
                assert loc == "table" or loc in ("b1", "b2")


class TestAboveSlices:
    def test_one_slice_per_time_step(self):
        spec = BlocksSpec(("b1", "b2"), 1)
        slices = blocksworld_above_slices(spec)
        assert len(slices) == 2
        assert all(isinstance(s, DefSpec) for s in slices)
        assert slices[0].p_extra_args == (0,)
        assert slices[1].tc_extra_args == (1,)
        assert slices[0].constants == ("b1", "b2", "table")

    def test_above_rules_instantiate_the_closure_definition(self):
        spec = BlocksSpec(("b1", "b2"), 1)
        prog = blocksworld_program(spec)
        for t, sl in enumerate(blocksworld_above_slices(spec)):
            definition = def_rules(sl).rule_set
            above_headed = [
                r for r in prog.rules
                if r.head is not None
                and r.head.atom.predicate == "above"
                and r.head.atom.args[-1] == t
            ]
            assert above_headed
            assert all(r in definition for r in above_headed)

    def test_answer_sets_carry_the_closure_at_every_step(self):
        spec = BlocksSpec(("b1", "b2"), 1)
        result = answer_sets_via_completion(blocksworld_program(spec))
        slices = blocksworld_above_slices(spec)
        for x in result.answer_sets:
            for sl in slices:
                assert check_tc_extent(x, sl)
                assert is_wellfounded(p_extent(x, sl))


def test_blocks_histories_verify_individually():
    spec = BlocksSpec(("b1", "b2"), 1)
    prog = blocksworld_program(spec)
    result = answer_sets_via_completion(prog)
    for x in result.answer_sets:
        assert is_tight_on(prog, x)

"""Acceptance checklist: eight end-to-end guarantees, one verdict line each.

Run with -s to see the verdict lines; each test also enforces its own
wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import consistent_subsets, random_program
from reference import (
    blocksworld_above_slices,
    blocksworld_history_count_oracle,
    check_tc_extent,
    is_supported,
    minimal_closed_set,
    queens_count_oracle,
    satisfies_completion,
    warshall,
)
from tightlp import (
    Atom,
    BlocksSpec,
    DefSpec,
    Literal,
    Program,
    QueensSpec,
    Rule,
    TAG_ABSOLUTELY_TIGHT,
    TAG_TIGHT_ON_MODEL,
    answer_sets_via_completion,
    blocksworld_program,
    check_constrained_acyclicity,
    check_tightness_preservation,
    completion,
    def_rules,
    eliminate_classical_negation,
    enumerate_answer_sets_bruteforce,
    is_absolutely_tight,
    is_answer_set,
    is_closed,
    is_consistent,
    is_normal,
    is_tight_on,
    lambda_witness,
    merge_programs,
    parse_literals,
    parse_program,
    positive_literals,
    queens_program,
    render_completion,
    satisfies,
)
from tightlp.cli import run


@contextmanager
def criterion(number: int, budget_s: float, what: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL  %s" % (number, what))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        "criterion %d finished correct but took %.1fs (budget %.0fs)"
        % (number, elapsed, budget_s)
    )
    print("criterion %d: PASS  %s (%.2fs)" % (number, what, elapsed))


def atoms_of(x):
    return frozenset(l.atom for l in x)


def completion_model_sweep(prog):
    """Models of the completion found by exhaustive assignment."""
    comp = completion(prog)
    pool = sorted((a for a, _ in comp.entries), key=str)
    models = []
    for bits in range(2 ** len(pool)):
        atoms = frozenset(a for i, a in enumerate(pool) if bits >> i & 1)
        if satisfies_completion(atoms, comp):
            models.append(frozenset(Literal(a) for a in atoms))
    return models


def test_criterion_1_double_negation_choice():
    with criterion(1, 1.0, "double negation golden program"):
        prog = parse_program("p :- not not p.\np :- p, q.")
        result = answer_sets_via_completion(prog)
        assert result.answer_sets == (frozenset(), parse_literals("p"))
        assert enumerate_answer_sets_bruteforce(prog) == result.answer_sets
        assert set(result.completion_models) == set(result.answer_sets)
        assert render_completion(completion(prog)) == (
            "p <-> -(-p) | (p & q)\nq <-> false"
        )
        assert not is_absolutely_tight(prog)
        assert result.tags == (TAG_TIGHT_ON_MODEL, TAG_TIGHT_ON_MODEL)


def test_criterion_2_classical_negation_choice():
    with criterion(2, 1.0, "contrary literal golden program"):
        prog = parse_program("p :- not -q.\n-q :- not p.")
        normal, mapping = eliminate_classical_negation(prog)
        assert is_normal(normal)
        assert mapping == {Atom("q_neg"): Literal(Atom("q"), True)}
        result = answer_sets_via_completion(prog)
        assert result.answer_sets == (parse_literals("p"), parse_literals("-q"))
        assert result.tags == (TAG_ABSOLUTELY_TIGHT, TAG_ABSOLUTELY_TIGHT)
        assert enumerate_answer_sets_bruteforce(prog) == result.answer_sets
        union = parse_literals("p, -q")
        assert is_consistent(union) and is_closed(union, prog)
        assert not is_supported(union, prog)
        assert not is_answer_set(union, prog)


def test_criterion_3_positive_loop_filter(tmp_path, capsys):
    with criterion(3, 1.0, "positive loop model is filtered"):
        result = answer_sets_via_completion(parse_program("p :- p."))
        assert len(result.completion_models) == 2
        assert result.answer_sets == (frozenset(),)
        assert result.dropped == (parse_literals("p"),)
        path = tmp_path / "loop.lp"
        path.write_text("p :- p.\n")
        assert run(["solve", str(path), "--trace"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "{}\n"
        assert "trace: {p} dropped" in captured.err


def test_criterion_4_tightness_theorem_sweep():
    with criterion(4, 120.0, "random program sweep of the tightness guarantees"):
        rng = random.Random(2026)
        checked = 0
        tight_model_hits = 0
        for _ in range(1200):
            classical = rng.random() < 0.4
            prog = random_program(
                rng,
                n_atoms=rng.choice((3, 4, 5)),
                max_rules=8,
                depth=3,
                classical=classical,
            )
            answer_sets = enumerate_answer_sets_bruteforce(prog)
            for x in answer_sets:
                assert is_closed(x, prog) and is_supported(x, prog)
            assert answer_sets_via_completion(prog).answer_sets == answer_sets
            if not is_normal(prog):
                checked += 1
                continue
            comp = completion(prog)
            for x in answer_sets:
                assert satisfies_completion(atoms_of(x), comp)
            models = completion_model_sweep(prog)
            for x in consistent_subsets(prog.universe):
                in_models = x in models
                assert in_models is (is_closed(x, prog) and is_supported(x, prog))
            for x in models:
                if is_tight_on(prog, x):
                    tight_model_hits += 1
                    assert is_answer_set(x, prog)
            if is_absolutely_tight(prog):
                assert set(models) == set(answer_sets)
            checked += 1
        assert checked >= 1000
        assert tight_model_hits > 300


def test_criterion_5_queens_counts_and_tightness():
    with criterion(5, 60.0, "queens solution counts and absolute tightness"):
        for n, expected in [(4, 2), (5, 10), (6, 4)]:
            assert queens_count_oracle(n) == expected
            result = answer_sets_via_completion(queens_program(QueensSpec(n)))
            assert len(result.answer_sets) == expected
            assert set(result.tags) == {TAG_ABSOLUTELY_TIGHT}
        for n in range(1, 9):
            assert is_absolutely_tight(queens_program(QueensSpec(n)))


def test_criterion_6_transitive_closure_suite():
    with criterion(6, 60.0, "closure extent, preservation and acyclicity checks"):
        rng = random.Random(77)

        # (a) fact-sets: the least model carries exactly the Warshall closure
        for trial in range(200):
            size = rng.choice((2, 3, 4))
            spec = DefSpec(constants=tuple(range(1, size + 1)))
            pairs = {
                (a, b)
                for a, b in itertools.product(spec.constants, repeat=2)
                if rng.random() < 0.3
            }
            facts = Program(
                tuple(Rule(Literal(spec.p_atom(a, b))) for a, b in sorted(pairs))
            )
            prog = merge_programs(facts, def_rules(spec))
            least = minimal_closed_set(prog)
            assert least is not None and is_answer_set(least, prog)
            assert check_tc_extent(least, spec)
            assert warshall(pairs) == {
                pair for pair in itertools.product(spec.constants, repeat=2)
                if Literal(spec.tc_atom(*pair)) in least
            }

        # (a) programs with negation: every answer set still carries the closure
        negation_sets_checked = 0
        for trial in range(200):
            size = rng.choice((2, 3))
            spec = DefSpec(constants=tuple(range(1, size + 1)))
            rules = []
            pool = list(itertools.product(spec.constants, repeat=2))
            rng.shuffle(pool)
            for a, b in pool[:4]:
                lit = Literal(spec.p_atom(a, b))
                # a rule negating its own head would kill every answer set,
                # so diagonal pairs become choices instead
                if a == b or rng.random() < 0.5:
                    rules.append(parse_program("{%s}." % lit).rules[0])
                else:
                    rules.append(
                        parse_program(
                            "%s :- not %s." % (lit, Literal(spec.p_atom(b, a)))
                        ).rules[0]
                    )
            prog = merge_programs(Program(tuple(rules)), def_rules(spec))
            result = answer_sets_via_completion(prog)
            assert result.answer_sets
            for x in result.answer_sets:
                assert check_tc_extent(x, spec)
                negation_sets_checked += 1
        assert negation_sets_checked >= 400

        # (b) closed and supported does not make an answer set
        spec2 = DefSpec(constants=(1, 2))
        prog_b1 = parse_program("p(1,1).")
        x_b1 = parse_literals("p(1,1), tc(1,1), tc(1,2)")
        merged_b1 = merge_programs(prog_b1, def_rules(spec2))
        assert is_closed(x_b1, merged_b1) and is_supported(x_b1, merged_b1)
        assert not is_answer_set(x_b1, merged_b1)
        report = check_tightness_preservation(prog_b1, x_b1, spec2)
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, False, True)

        prog_b2 = Program(
            tuple(
                Rule(Literal(spec2.p_atom(a, b)), Literal(spec2.tc_atom(a, b)))
                for a, b in itertools.product((1, 2), repeat=2)
            )
        )
        x_b2 = parse_literals("p(2,1), tc(2,1)")
        merged_b2 = merge_programs(prog_b2, def_rules(spec2))
        assert is_closed(x_b2, merged_b2) and is_supported(x_b2, merged_b2)
        assert not is_answer_set(x_b2, merged_b2)
        report = check_tightness_preservation(prog_b2, x_b2, spec2)
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, True, False)
        assert enumerate_answer_sets_bruteforce(merged_b2) == (frozenset(),)

        # (c) irreflexivity constraints force acyclic base relations
        constraints = parse_program(":- tc(1,1).\n:- tc(2,2).")
        for bits in range(16):
            pairs = {
                pair
                for i, pair in enumerate(itertools.product((1, 2), repeat=2))
                if bits >> i & 1
            }
            facts = Program(
                tuple(Rule(Literal(spec2.p_atom(a, b))) for a, b in sorted(pairs))
            )
            prog = merge_programs(facts, constraints)
            merged = merge_programs(prog, def_rules(spec2))
            closed_sets = [
                x for x in consistent_subsets(merged.universe)
                if is_closed(x, merged)
            ]
            if any((a, b) in pairs and (b, a) in pairs for a, b in pairs):
                assert closed_sets == []
            for x in closed_sets:
                assert check_constrained_acyclicity(prog, spec2, x)


def test_criterion_7_blocks_world():
    with criterion(7, 120.0, "blocks world histories at horizons zero and one"):
        spec0 = BlocksSpec(("b1", "b2"), 0)
        prog0 = blocksworld_program(spec0)
        assert not is_absolutely_tight(prog0)
        result0 = answer_sets_via_completion(prog0)
        for x in result0.completion_models:
            assert is_tight_on(prog0, x)
        assert result0.dropped == ()
        # zero horizon is small enough to sweep outright
        assert enumerate_answer_sets_bruteforce(prog0) == result0.answer_sets
        assert len(result0.answer_sets) == 3
        assert blocksworld_history_count_oracle(spec0) == 3

        spec1 = BlocksSpec(("b1", "b2"), 1)
        prog1 = blocksworld_program(spec1)
        assert not is_absolutely_tight(prog1)
        result1 = answer_sets_via_completion(prog1)
        for x in result1.completion_models:
            assert is_tight_on(prog1, x)
        assert result1.dropped == ()
        # the one-step universe is too large to sweep; verify each model
        # individually and match the count against the state-space oracle
        for x in result1.answer_sets:
            assert is_answer_set(x, prog1)
        assert len(result1.answer_sets) == blocksworld_history_count_oracle(spec1)
        for x in result1.answer_sets:
            for sl in blocksworld_above_slices(spec1):
                assert check_tc_extent(x, sl)


def test_criterion_8_witness_round_trip():
    with criterion(8, 60.0, "level witnesses match tightness everywhere"):
        rng = random.Random(88)
        pairs_checked = 0
        witnesses_seen = 0

        def check(prog, x):
            nonlocal pairs_checked, witnesses_seen
            pairs_checked += 1
            w = lambda_witness(prog, x)
            assert (w is not None) is is_tight_on(prog, x)
            if w is None:
                return
            witnesses_seen += 1
            assert set(w) == set(x)
            for r in prog.rules:
                if r.head is None or r.head not in x:
                    continue
                if not satisfies(x, r.body):
                    continue
                for l in positive_literals(r.body) & x:
                    assert w[l] < w[r.head]

        for _ in range(400):
            prog = random_program(
                rng, n_atoms=4, max_rules=7, depth=3, classical=rng.random() < 0.4
            )
            subsets = list(consistent_subsets(prog.universe))
            for x in rng.sample(subsets, min(6, len(subsets))):
                check(prog, x)
        named = [
            parse_program("p :- not not p.\np :- p, q."),
            parse_program("p :- not -q.\n-q :- not p."),
            parse_program("p :- p."),
            queens_program(QueensSpec(3)),
            blocksworld_program(BlocksSpec(("b1",), 0)),
        ]
        for prog in named:
            for x in answer_sets_via_completion(prog).completion_models:
                check(prog, x)
        assert pairs_checked >= 1000
        assert witnesses_seen >= 400

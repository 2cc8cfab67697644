"""Clausification, the all-models backend, and solving through the completion."""

import random
import time
from collections import Counter

import pytest

from conftest import ATOMS, consistent_subsets, random_formula, random_program
from reference import minimal_closed_set, reduct, satisfies_completion
from tightlp import (
    And,
    Atom,
    BlocksSpec,
    CapacityError,
    Cnf,
    Literal,
    ModelCapError,
    Program,
    QueensSpec,
    Rule,
    TAG_ABSOLUTELY_TIGHT,
    TAG_TIGHT_ON_MODEL,
    TAG_VERIFIED,
    answer_sets_via_completion,
    clausify,
    DefSpec,
    completion,
    blocksworld_program,
    def_rules,
    eliminate_classical_negation,
    enumerate_answer_sets_bruteforce,
    is_absolutely_tight,
    is_answer_set,
    is_tight_on,
    merge_programs,
    parse_literals,
    parse_program,
    queens_program,
    solve_all,
    to_dimacs,
)
from tightlp.semantics import AnswerSetChecker


class TestClausify:
    def test_original_atoms_are_a_variable_prefix(self):
        cnf = clausify(completion(parse_program("p :- q.\nq :- not r.")))
        assert cnf.varmap == {Atom("p"): 1, Atom("q"): 2, Atom("r"): 3}
        assert cnf.num_vars >= 3
        assert all(
            lit != 0 and abs(lit) <= cnf.num_vars
            for clause in cnf.clauses
            for lit in clause
        )

    def test_negation_is_a_literal(self):
        cnf = clausify(completion(parse_program("p :- not not p.\np :- p, q.")))
        # p, q and the and-node; not not p is p itself, and the or-node is p
        assert cnf.num_vars == 3
        assert len(cnf.clauses) == 5

    def test_identical_subformulas_share_variables(self):
        cnf = clausify(completion(parse_program("p :- q, r.\ns :- q, r.")))
        # p's variable is the and-node, and s's entry ties s to it
        assert cnf.num_vars == 4
        assert cnf.clauses[-2:] == ((-4, 1), (4, -1))

    def test_solver_sees_completion_models(self):
        cnf = clausify(completion(parse_program("p :- p.")))
        report = solve_all(cnf)
        assert report.models == (frozenset(), frozenset({Atom("p")}))

    def test_dimacs_golden(self):
        cnf = clausify(completion(parse_program("q.\np :- q.")))
        assert to_dimacs(cnf) == (
            "c var 1 = p\n"
            "c var 2 = q\n"
            "p cnf 2 3\n"
            "-1 2 0\n"
            "1 -2 0\n"
            "2 0\n"
        )

    def test_nary_disjunction_is_one_gate(self):
        cnf = clausify(completion(parse_program("h :- a ; b ; c.")))
        # a, b and c head no rule, so each is a unit clause; h's variable
        # is the one or-node: three binary clauses and one long clause,
        # with no variable of its own and no equivalence clauses
        assert to_dimacs(cnf) == (
            "c var 1 = a\n"
            "c var 2 = b\n"
            "c var 3 = c\n"
            "c var 4 = h\n"
            "p cnf 4 7\n"
            "-1 0\n"
            "-2 0\n"
            "-3 0\n"
            "4 -1 0\n"
            "4 -2 0\n"
            "4 -3 0\n"
            "-4 1 2 3 0\n"
        )

    def test_unit_propagation_decides_every_atom_assignment(self):
        # every auxiliary variable is fully defined: from any total
        # assignment of the atoms, unit propagation alone reaches a total
        # model exactly when the assignment is a completion model
        rng = random.Random(71)
        kinds = Counter()
        for _ in range(300):
            prog = random_program(
                rng,
                n_atoms=4,
                max_rules=7,
                depth=3,
                classical=rng.random() < 0.5,
                constraint_chance=0.2,
            )
            if rng.random() < 0.5:
                # a second head for some rule's body, so a gate is met again
                extra = Rule(Literal(rng.choice(ATOMS[:4])), rng.choice(prog.rules).body)
                prog = Program(prog.rules + (extra,))
            comp = completion(eliminate_classical_negation(prog)[0])
            cnf = clausify(comp)
            for bits in range(2 ** len(comp.atoms)):
                true = {a for k, a in enumerate(comp.atoms) if bits >> k & 1}
                start = {v if a in true else -v for a, v in cnf.varmap.items()}
                derived = _unit_propagate(cnf.clauses, start)
                if satisfies_completion(true, comp):
                    assert derived is not None
                    assert {abs(l) for l in derived} == set(range(1, cnf.num_vars + 1))
                    assert all(any(l in derived for l in c) for c in cnf.clauses)
                else:
                    assert derived is None
                kinds[derived is None] += 1
        assert min(kinds.values()) >= 200


def _unit_propagate(clauses, assigned: set[int]) -> set[int] | None:
    """The literals that unit propagation from assigned reaches, or None
    when it falsifies a clause."""
    assigned = set(assigned)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(l in assigned for l in clause):
                continue
            open_lits = [l for l in clause if -l not in assigned]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                assigned.add(open_lits[0])
                changed = True
    return assigned


class TestSolveAll:
    def test_exclusive_or(self):
        cnf = Cnf(2, ((1, 2), (-1, -2)), {Atom("a"): 1, Atom("b"): 2})
        report = solve_all(cnf)
        assert set(report.models) == {frozenset({Atom("a")}), frozenset({Atom("b")})}
        assert len(report.models) == 2
        assert report.stats.decisions >= 1

    def test_unsatisfiable(self):
        conflicting_units = Cnf(1, ((1,), (-1,)), {Atom("a"): 1})
        assert solve_all(conflicting_units).models == ()
        empty_clause = Cnf(2, ((1, 2), ()), {Atom("a"): 1})
        assert solve_all(empty_clause).models == ()

    def test_empty_varmap_is_an_existence_check(self):
        sat = Cnf(2, ((1, 2), (-1, -2)), {})
        assert solve_all(sat).models == (frozenset(),)
        unsat = Cnf(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)), {})
        assert solve_all(unsat).models == ()

    def test_auxiliary_variables_are_projected_out(self):
        # var 2 is auxiliary: both values satisfy the clause set
        cnf = Cnf(2, ((1, 2), (1, -2)), {Atom("a"): 1})
        assert solve_all(cnf).models == (frozenset({Atom("a")}),)

    def test_deterministic_across_runs(self):
        cnf = clausify(completion(parse_program("{a}.\n{b}.\n{c}.")))
        first = solve_all(cnf)
        second = solve_all(cnf)
        assert first.models == second.models
        assert len(first.models) == 8

    def test_model_cap(self):
        cnf = clausify(completion(parse_program("{a}.\n{b}.\n{c}.")))
        assert len(solve_all(cnf, max_models=8).models) == 8
        with pytest.raises(ModelCapError):
            solve_all(cnf, max_models=7)
        assert issubclass(ModelCapError, CapacityError)

    def test_clauses_are_left_as_given(self):
        # mutable clauses, so that reordering them in place would show
        clauses = [[1, 2, 3], [-1, -2], [-3, 1], [2, 2]]
        cnf = Cnf(3, clauses, {Atom("a"): 1, Atom("b"): 2})
        assert solve_all(cnf).models == (frozenset({Atom("b")}),)
        assert cnf.clauses == [[1, 2, 3], [-1, -2], [-3, 1], [2, 2]]

    def test_matches_bruteforce_on_random_cnfs(self):
        rng = random.Random(59)
        for _ in range(300):
            n = rng.randint(1, 8)
            projected = [(Atom("x%d" % v), v) for v in range(1, rng.randint(0, n) + 1)]
            # varmap order need not follow variable numbers
            varmap = dict(rng.sample(projected, len(projected)))
            clauses = tuple(
                tuple(
                    rng.choice((-1, 1)) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(rng.randint(0, 3 * n))
            )
            expected = set()
            for bits in range(2**n):
                true = {v for v in range(1, n + 1) if bits >> (v - 1) & 1}
                if all(any((l > 0) == (abs(l) in true) for l in c) for c in clauses):
                    expected.add(frozenset(a for a, v in varmap.items() if v in true))
            report = solve_all(Cnf(n, clauses, varmap))
            assert set(report.models) == expected
            assert len(report.models) == len(expected)


class TestAnswerSetsViaCompletion:
    def test_double_negation_choice(self):
        result = answer_sets_via_completion(
            parse_program("p :- not not p.\np :- p, q.")
        )
        assert result.answer_sets == (frozenset(), parse_literals("p"))
        assert result.tags == (TAG_TIGHT_ON_MODEL, TAG_TIGHT_ON_MODEL)
        assert result.dropped == ()

    def test_absolute_tightness_is_certified_once(self):
        result = answer_sets_via_completion(parse_program("p :- not -q.\n-q :- not p."))
        assert result.answer_sets == (parse_literals("p"), parse_literals("-q"))
        assert result.tags == (TAG_ABSOLUTELY_TIGHT, TAG_ABSOLUTELY_TIGHT)

    def test_positive_loop_model_is_dropped(self):
        result = answer_sets_via_completion(parse_program("p :- p."))
        assert result.answer_sets == (frozenset(),)
        assert result.dropped == (parse_literals("p"),)
        assert result.completion_models == (frozenset(), parse_literals("p"))

    def test_verified_tag_backs_up_untight_models(self):
        # tight neither absolutely nor on {p, q}, yet {p, q} is an answer set
        prog = parse_program("p :- q.\nq :- p.\np :- not not q.")
        result = answer_sets_via_completion(prog)
        assert parse_literals("p, q") in result.answer_sets
        i = result.answer_sets.index(parse_literals("p, q"))
        assert result.tags[i] == TAG_VERIFIED
        assert not is_tight_on(prog, parse_literals("p, q"))

    def test_queens_7_within_budget(self):
        # 40 models; a search that restarts from the root per model took 20 s
        start = time.perf_counter()
        result = answer_sets_via_completion(queens_program(QueensSpec(7)))
        elapsed = time.perf_counter() - start
        assert len(result.answer_sets) == 40
        assert elapsed < 5.0, "queens 7 took %.1fs (budget 5s)" % elapsed

    def test_model_cap_propagates(self):
        with pytest.raises(ModelCapError):
            answer_sets_via_completion(parse_program("{a}.\n{b}."), max_models=3)

    def test_matches_bruteforce_on_random_programs(self):
        rng = random.Random(47)
        for _ in range(200):
            prog = random_program(
                rng,
                n_atoms=4,
                max_rules=7,
                depth=3,
                classical=rng.random() < 0.5,
            )
            result = answer_sets_via_completion(prog)
            assert result.answer_sets == enumerate_answer_sets_bruteforce(prog)

    def test_tags_are_sound(self):
        rng = random.Random(53)
        tags_seen = set()
        for _ in range(150):
            prog = random_program(rng, n_atoms=4, max_rules=6, depth=3)
            result = answer_sets_via_completion(prog)
            tags_seen.update(result.tags)
            for x, tag in zip(result.answer_sets, result.tags):
                assert is_answer_set(x, prog)
                if tag == TAG_ABSOLUTELY_TIGHT:
                    assert is_absolutely_tight(prog)
                elif tag == TAG_TIGHT_ON_MODEL:
                    assert is_tight_on(prog, x)
            for x in result.dropped:
                assert not is_answer_set(x, prog)
            comp = completion(prog)
            for x in result.completion_models:
                assert satisfies_completion(frozenset(l.atom for l in x), comp)
        assert TAG_ABSOLUTELY_TIGHT in tags_seen
        assert TAG_TIGHT_ON_MODEL in tags_seen

    def test_admission_matches_the_definitions(self):
        # every completion model's (accepted, tag) against is_tight_on, then
        # the least model of the reduct
        rng = random.Random(61)
        seen = Counter()
        for _ in range(300):
            prog = random_program(
                rng,
                n_atoms=4,
                max_rules=8,
                depth=3,
                classical=rng.random() < 0.5,
                constraint_chance=0.2,
            )
            result = answer_sets_via_completion(prog)
            got = dict(zip(result.answer_sets, result.tags))
            got.update((x, None) for x in result.dropped)
            assert len(got) == len(result.completion_models)
            for x in result.completion_models:
                if is_tight_on(prog, x):
                    tight = is_absolutely_tight(prog)
                    expect = TAG_ABSOLUTELY_TIGHT if tight else TAG_TIGHT_ON_MODEL
                elif minimal_closed_set(reduct(prog, x)) == x:
                    expect = TAG_VERIFIED
                else:
                    expect = None
                assert got[x] == expect
                seen[expect] += 1
        assert min(seen[t] for t in (TAG_TIGHT_ON_MODEL, TAG_VERIFIED, None)) >= 10

    def test_checker_matches_the_definitions_on_every_consistent_set(self):
        rng = random.Random(67)
        walks = Counter()  # walks that ran to the end, and that stopped early
        for _ in range(100):
            prog = random_program(
                rng, n_atoms=3, max_rules=7, depth=3, classical=rng.random() < 0.5
            )
            checker = AnswerSetChecker(prog)
            for x in consistent_subsets(prog.universe):
                assert checker.is_tight_on(x) is is_tight_on(prog, x)
                least = minimal_closed_set(reduct(prog, x))
                fixpoint = least == x
                assert checker.is_reduct_fixpoint(x) is fixpoint
                derived = checker.reduct_fixpoint(x)
                if derived is None:
                    # a derived head left x, or a constraint fired
                    assert least is None or not least <= x
                else:
                    assert {checker.literals[i] for i in derived} == least
                walks[derived is None] += 1
        assert min(walks.values()) >= 100

    def test_checker_matches_the_definition_across_components(self):
        rng = random.Random(71)
        verdicts = Counter()
        restricted = 0
        for _ in range(60):
            prog = component_program(rng)
            checker = AnswerSetChecker(prog)
            kept = sum(map(len, checker.cyclic_rules.values()))
            restricted += kept < sum(r.head is not None for r in prog.rules)
            for x in consistent_subsets(prog.universe):
                tight = checker.is_tight_on(x)
                assert tight is is_tight_on(prog, x)
                verdicts[tight] += 1
        assert min(verdicts.values()) >= 1000
        assert restricted >= 30

    @pytest.mark.parametrize(
        "name", ["blocks-2-2", "blocks-3-0", "closure-3", "closure-3-irreflexive"]
    )
    def test_checker_matches_the_definition_on_completion_models(self, name):
        prog = NAMED_PROGRAMS[name]()
        checker = AnswerSetChecker(prog)
        if name == "blocks-2-2":  # the components leave most rules out
            assert sum(map(len, checker.cyclic_rules.values())) < len(prog.rules) // 2
        models = answer_sets_via_completion(prog).completion_models
        assert models
        for x in models:
            assert checker.is_tight_on(x) is is_tight_on(prog, x)

    def test_free_closure_3_counts(self):
        choices = "".join("{p(%d,%d)}.\n" % (a, b) for a in (1, 2, 3) for b in (1, 2, 3))
        prog = merge_programs(parse_program(choices), def_rules(DefSpec((1, 2, 3))))
        result = answer_sets_via_completion(prog)
        assert len(result.completion_models) == 1667
        assert len(result.answer_sets) == 512
        assert result.tags.count(TAG_TIGHT_ON_MODEL) == 25
        assert result.tags.count(TAG_VERIFIED) == 487


def component_program(rng: random.Random) -> Program:
    """6-8 atoms in two to four groups, in order.  A group of one has a
    self-loop (``p :- p.`` or ``p :- q, p.``) or no rule of its own, and a
    larger group a positive cycle; rules lead from earlier groups into later
    ones, and random nested rules and constraints, some with classical
    negation, may join groups or add cycles across them."""
    atoms = [Atom("a", (i,)) for i in range(rng.randint(6, 8))]
    literals = [Literal(a) for a in atoms]
    contrary = [Literal(a, True) for a in rng.sample(atoms, rng.randint(0, 2))]
    pool = literals + contrary
    rng.shuffle(literals)
    cuts = sorted(rng.sample(range(1, len(literals)), rng.randint(1, 3)))
    groups = [literals[i:j] for i, j in zip([0, *cuts], [*cuts, len(literals)])]
    rules = []
    for k, group in enumerate(groups):
        if len(group) == 1 and rng.random() < 0.6:
            (p,) = group
            rules.append(Rule(p, p if rng.random() < 0.5 else And(rng.choice(pool), p)))
        for head, parent in zip(group, group[1:] + group[:1]):
            if len(group) > 1:
                extra = random_formula(rng, pool, 2)
                rules.append(Rule(head, parent if rng.random() < 0.4 else And(parent, extra)))
        for earlier in groups[:k]:
            if rng.random() < 0.7:
                rules.append(Rule(rng.choice(group), rng.choice(earlier)))
    for _ in range(rng.randint(0, 4)):
        head = None if rng.random() < 0.25 else rng.choice(pool)
        rules.append(Rule(head, random_formula(rng, pool, 3)))
    return Program(tuple(rules))


def _closure_3(irreflexive: bool) -> Program:
    constants = (1, 2, 3)
    text = "".join("{p(%d,%d)}.\n" % (a, b) for a in constants for b in constants)
    if irreflexive:
        text += "".join(":- tc(%d,%d).\n" % (c, c) for c in constants)
    return merge_programs(parse_program(text), def_rules(DefSpec(constants)))


NAMED_PROGRAMS = {
    "blocks-2-2": lambda: blocksworld_program(BlocksSpec(("b1", "b2"), 2)),
    "blocks-3-0": lambda: blocksworld_program(BlocksSpec(("b1", "b2", "b3"), 0)),
    "closure-3": lambda: _closure_3(False),
    "closure-3-irreflexive": lambda: _closure_3(True),
}

"""Structure-preserving clausification and an all-models search that uses
two watched literals per clause and backtracks chronologically."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice

from .syntax import And, Bottom, Literal, Not, Or, Program, Top, ranked_set_key
from .semantics import AnswerSetChecker, CapacityError, is_answer_set
# unused here but rebound by perfbench/tracing.py: completion,
# eliminate_classical_negation, is_absolutely_tight, is_answer_set and is_tight_on
from .completion import completion
from .syntax import eliminate_classical_negation
from .tightness import is_absolutely_tight, is_tight_on

TAG_ABSOLUTELY_TIGHT = "absolutely-tight"
TAG_TIGHT_ON_MODEL = "tight-on-model"
TAG_VERIFIED = "verified"


class ModelCapError(CapacityError):
    """More models exist than the configured cap allows."""


@dataclass
class Cnf:
    """Clauses over variables 1..num_vars; variable i + 1 names literals[i]."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    literals: tuple[Literal, ...]


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


@dataclass
class SolveReport:
    """The projected models, in the order the search found them, each as the
    ascending numbers of its true named variables, less one (``ids``)."""

    ids: tuple[tuple[int, ...], ...]
    literals: tuple[Literal, ...]
    stats: SolveStats

    @cached_property
    def models(self) -> tuple[frozenset[Literal], ...]:
        """Each model as the set of its true literals."""
        literals = self.literals
        return tuple(frozenset(map(literals.__getitem__, m)) for m in self.ids)


def clausify(checker: AnswerSetChecker) -> Cnf:
    """Tseitin translation of the completion of a program, read from the
    nodes of its checker: every And or Or node is a gate whose variable is
    equivalent to it, and a negation is the negated literal of its operand.
    Literal id i is variable i + 1, ``-a`` included, and a clause keeps each
    literal apart from its contrary; literal_key puts ``a`` right before ``-a``.

    An n-ary gate takes n binary clauses that tie its variable to each part
    and one long clause that ties the parts back to it.  A completion entry
    ``a <-> D`` whose D is a new gate uses a's variable as the gate's, so it
    needs no equivalence clauses; D = true or false gives a unit clause.  A
    constraint whose body is a new And is one clause of the negated parts.
    Every auxiliary variable is still fully defined, so unit propagation from
    a total assignment of the literals fixes all of them.
    """
    nodes, parts, n, literals = checker.nodes, checker.parts, checker.sink, checker.literals
    clauses: list[tuple[int, ...]] = []
    # the CNF literal of each node, 0 until walked; literal id i is variable i + 1
    lit_of = [*range(1, n + 1)] + [0] * (len(nodes) - n)
    state = {"next": n, "true": 0}

    def fresh() -> int:
        state["next"] += 1
        return state["next"]

    def emit(lits: tuple[int, ...]) -> None:
        out = []
        seen = set()
        for l in lits:
            if -l in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        clauses.append(tuple(out))

    def walk(k: int, out: int = 0) -> int:
        """The literal equivalent to node k; a new gate takes out, if given."""
        if lit_of[k]:
            return lit_of[k]
        kind = type(nodes[k])
        if kind is Top or kind is Bottom:
            if not state["true"]:  # the constant variable, made at first use
                state["true"] = fresh()
                clauses.append((state["true"],))
            out = state["true"] if kind is Top else -state["true"]
        elif kind is Not:
            out = -walk(parts[k][0])
        else:
            ps = [walk(p) for p in parts[k]]
            out = out or fresh()
            s = 1 if kind is And else -1  # an Or is an And of the negations, negated
            for p in ps:
                emit((-s * out, s * p))
            emit((s * out, *[-s * p for p in ps]))
        lit_of[k] = out
        return out

    for v, d in enumerate(checker.disj, 1):
        kind = type(nodes[d])
        if kind is Top or kind is Bottom:
            emit((v if kind is Top else -v,))
        elif (kind is And or kind is Or) and not lit_of[d]:
            walk(d, v)
        else:
            d = walk(d)
            emit((-v, d))
            emit((v, -d))
    for d in checker.constraints:
        if type(nodes[d]) is And and not lit_of[d]:
            emit(tuple(-walk(p) for p in parts[d]))
        else:
            emit((-walk(d),))
    for v in range(1, n):
        if literals[v].negated and literals[v].atom == literals[v - 1].atom:
            clauses.append((-v, -(v + 1)))
    # walk reaches itself through its closure cell; left in place, that cycle
    # would hold nodes, parts and clauses until the cyclic collector ran
    del walk
    return Cnf(state["next"], tuple(clauses), tuple(literals))


def solve_all(cnf: Cnf, max_models: int = 10000) -> SolveReport:
    """All models projected onto the named variables 1..k; on clausify's
    CNF, a model's ids are its checker's literal ids.

    Decisions go to the variables in number order, false before true: the
    named ones first, then any auxiliary one that propagation left open.
    After a model or a conflict the search backtracks chronologically to the
    last decision not yet flipped and flips it; after a model, auxiliary
    decisions are dropped first, since they only showed that some extension
    exists.  So each projected model is found once, with no blocking clauses
    and no restarts, and the models come back unsorted, in that order, fixed
    for a given CNF.
    """
    stats = SolveStats()
    n, k = cnf.num_vars, len(cnf.literals)
    # Indexed by literal: entry -v sits at 2n+1-v, so both polarities fit.
    val = [0] * (2 * n + 1)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
    trail: list[int] = []
    qhead = 0

    def assign(lit: int) -> None:
        val[lit] = 1
        val[-lit] = -1
        trail.append(lit)

    def propagate() -> bool:
        """Two-watched-literal unit propagation of the unprocessed trail."""
        nonlocal qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            watches[false_lit] = kept = []
            for i, c in enumerate(ws):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if val[first] == 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if val[lit] != -1:
                        c[1], c[k] = lit, false_lit
                        watches[lit].append(c)
                        break
                else:
                    kept.append(c)
                    if val[first] == -1:
                        stats.conflicts += 1
                        kept.extend(ws[i + 1 :])
                        return False
                    assign(first)
                    stats.propagations += 1
        return True

    for clause in cnf.clauses:
        lits = list(clause)  # the solver reorders its own copy
        if len(lits) > 1:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        elif not lits or val[lits[0]] == -1:
            return SolveReport((), cnf.literals, stats)
        elif val[lits[0]] == 0:
            assign(lits[0])
            stats.propagations += 1

    levels: list[list] = []  # [trail index of the decision, its variable, flipped]
    models: list[tuple[int, ...]] = []
    ids, is_true = range(k), (1).__eq__
    consistent = propagate()
    v = 1
    while True:
        if consistent:
            while v <= n and val[v]:
                v += 1
            if v <= n:
                stats.decisions += 1
                levels.append([len(trail), v, False])
                assign(-v)
                consistent = propagate()
                continue
            # the ids whose variable is true, by C-level iterators over val[1..k]
            models.append(tuple(compress(ids, map(is_true, islice(val, 1, k + 1)))))
            if len(models) > max_models:
                raise ModelCapError(f"more than {max_models} completion models")
        # a flipped level is exhausted; after a model, so is an auxiliary one
        while levels and (levels[-1][2] or (consistent and levels[-1][1] > k)):
            levels.pop()
        if not levels:
            break
        level = levels[-1]
        start, v = level[0], level[1]
        for undone in trail[start:]:
            val[undone] = val[-undone] = 0
        del trail[start:]
        qhead = start
        level[2] = True
        assign(v)
        consistent = propagate()
    return SolveReport(tuple(models), cnf.literals, stats)


def to_dimacs(cnf: Cnf) -> str:
    lines = ["c var %d = %s" % vl for vl in enumerate(cnf.literals, 1)]
    lines.append("p cnf %d %d" % (cnf.num_vars, len(cnf.clauses)))
    lines += ["%s 0" % " ".join(map(str, clause)) for clause in cnf.clauses]
    return "\n".join(lines) + "\n"


class CompletionSolveResult:
    """Answer sets found through the completion, with how each was admitted.

    ``literals`` lists the program's literals in literal_key order, and a
    set's ranks are the ascending positions of its literals there.  Each list
    comes sorted by ranked_set_key: ``accepted`` holds the answer sets' ranks,
    with ``tags`` saying how each was admitted, and ``rejected`` pairs the
    ranks of each dropped model (one that failed the answer set check) with
    those of its least reduct fixpoint.  answer_sets, dropped and
    completion_models, as sets of literals, are built on first read.
    """

    def __init__(self, literals, accepted, tags, rejected, stats: SolveStats):
        self.literals, self.accepted, self.tags = literals, tuple(accepted), tuple(tags)
        self.rejected, self.stats = tuple(rejected), stats

    def _literal_set(self, ranks) -> frozenset[Literal]:
        return frozenset(map(self.literals.__getitem__, ranks))

    @cached_property
    def answer_sets(self) -> tuple[frozenset[Literal], ...]:
        return tuple(map(self._literal_set, self.accepted))

    @cached_property
    def dropped(self) -> tuple[frozenset[Literal], ...]:
        return tuple(self._literal_set(ranks) for ranks, _ in self.rejected)

    @cached_property
    def completion_models(self) -> tuple[frozenset[Literal], ...]:
        ranks = self.accepted + tuple(ranks for ranks, _ in self.rejected)
        return tuple(map(self._literal_set, sorted(ranks, key=ranked_set_key)))


def answer_sets_via_completion(
    program: Program, max_models: int = 10000
) -> CompletionSolveResult:
    """Completion, clausification, all-models search, then admission.

    The program, contraries included, is compiled once, into the
    AnswerSetChecker that the encoding and admission read.  Admission reads
    the search's id sets.  An absolutely tight program admits every model
    outright.  Else a model is admitted if the program is tight on it (by
    the paper's theorem), failing that if its reduct fixpoint is all of it;
    remaining models are dropped.  The models are sorted once, before
    admission, so every list comes out in order.
    """
    checker = AnswerSetChecker(program)
    report = solve_all(clausify(checker), max_models=max_models)
    # an id is its rank, and the search's id sets ascend
    models = sorted(report.ids, key=ranked_set_key)
    accepted, tags, rejected = [], [], []
    if not checker.cyclic_rules:
        accepted, tags = models, [TAG_ABSOLUTELY_TIGHT] * len(models)
    else:
        for m in models:
            xs = frozenset(m)
            tight = checker.is_tight_on(xs)
            # a completion model is a model of the program, so the walk runs
            # to the end and derives a subset of it
            derived = None if tight else checker.reduct_fixpoint(xs)
            if tight or len(derived) == len(xs):
                accepted.append(m)
                tags.append(TAG_TIGHT_ON_MODEL if tight else TAG_VERIFIED)
            else:
                rejected.append((m, tuple(sorted(derived))))
    return CompletionSolveResult(checker.literals, accepted, tags, rejected, report.stats)

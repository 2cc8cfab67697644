"""Structure-preserving clausification and an all-models search that uses
two watched literals per clause and backtracks chronologically."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Atom,
    Bottom,
    Formula,
    Literal,
    Not,
    Or,
    Program,
    Top,
    eliminate_classical_negation,
    sorted_literal_sets,
)
from .semantics import AnswerSetChecker, CapacityError, is_answer_set
from .completion import Completion, completion
# is_answer_set and is_tight_on are unused here; perfbench's tracer rebinds them
from .tightness import is_absolutely_tight, is_tight_on

TAG_ABSOLUTELY_TIGHT = "absolutely-tight"
TAG_TIGHT_ON_MODEL = "tight-on-model"
TAG_VERIFIED = "verified"


class ModelCapError(CapacityError):
    """More models exist than the configured cap allows."""


@dataclass
class Cnf:
    """Clauses over variables 1..num_vars; original atoms form a prefix."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    varmap: dict[Atom, int]


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


@dataclass
class SolveReport:
    """The projected models, in the order the search found them."""

    models: tuple[frozenset[Atom], ...]
    stats: SolveStats


def clausify(comp: Completion) -> Cnf:
    """Tseitin translation: every And or Or node is a gate whose variable
    is equivalent to it, and a negation is the negated literal of its operand.

    An n-ary gate takes n binary clauses that tie its variable to each part
    and one long clause that ties the parts back to it.  A completion entry
    ``a <-> D`` whose D is a new gate uses a's variable as the gate's, so it
    needs no equivalence clauses; D = true or false gives a unit clause.  A
    constraint whose body is a new And is one clause of the negated parts.
    Every auxiliary variable is still fully defined, so unit propagation from
    a total assignment of the atoms fixes all of them.
    """
    atoms = [a for a, _ in comp.entries]
    varmap = {a: i + 1 for i, a in enumerate(atoms)}
    clauses: list[tuple[int, ...]] = []
    cache: dict[Formula, int] = {}
    state = {"next": len(atoms), "true": 0}

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

    def const_true() -> int:
        if not state["true"]:
            state["true"] = fresh()
            clauses.append((state["true"],))
        return state["true"]

    def walk(f: Formula, out: int = 0) -> int:
        """The literal equivalent to f; a new gate takes out, if given."""
        got = cache.get(f)
        if got is not None:
            return got
        if isinstance(f, Literal):
            out = varmap[f.atom]
        elif isinstance(f, Top):
            out = const_true()
        elif isinstance(f, Bottom):
            out = -const_true()
        elif isinstance(f, Not):
            out = -walk(f.operand)
        elif isinstance(f, (And, Or)):
            parts = [walk(part) for part in f.parts]
            out = out or fresh()
            if isinstance(f, And):
                for p in parts:
                    emit((-out, p))
                emit((out, *[-p for p in parts]))
            else:
                for p in parts:
                    emit((out, -p))
                emit((-out, *parts))
        else:
            raise TypeError(f"cannot clausify {f!r}")
        cache[f] = out
        return out

    for atom, disj in comp.entries:
        v = varmap[atom]
        if isinstance(disj, (Top, Bottom)):
            emit((v if isinstance(disj, Top) else -v,))
        elif isinstance(disj, (And, Or)) and disj not in cache:
            walk(disj, v)
        else:
            d = walk(disj)
            emit((-v, d))
            emit((v, -d))
    for body in comp.constraint_bodies:
        if isinstance(body, And) and body not in cache:
            emit(tuple(-walk(part) for part in body.parts))
        else:
            emit((-walk(body),))
    return Cnf(state["next"], tuple(clauses), varmap)


def solve_all(cnf: Cnf, max_models: int = 10000) -> SolveReport:
    """All models projected onto the original atoms.

    Decisions go to the atoms in varmap order, false before true, and then to
    any auxiliary variable that propagation left open.  After a model or a
    conflict the search backtracks chronologically to the last decision not
    yet flipped and flips it; after a model, auxiliary decisions are dropped
    first, since they only showed that some extension exists.  So each
    projected model is found once, with no blocking clauses and no restarts,
    and the models come back unsorted, in that order, fixed for a given CNF.
    """
    stats = SolveStats()
    n = cnf.num_vars
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
            return SolveReport((), stats)
        elif val[lits[0]] == 0:
            assign(lits[0])
            stats.propagations += 1

    proj = list(cnf.varmap.items())
    order = [v for _, v in proj]
    projected = set(order)
    order += [v for v in range(1, n + 1) if v not in projected]
    levels: list[list] = []  # [trail index of the decision, order index, flipped]
    models: list[frozenset[Atom]] = []
    consistent = propagate()
    i = 0
    while True:
        if consistent:
            while i < len(order) and val[order[i]]:
                i += 1
            if i < len(order):
                stats.decisions += 1
                levels.append([len(trail), i, False])
                assign(-order[i])
                consistent = propagate()
                continue
            models.append(frozenset(a for a, v in proj if val[v] == 1))
            if len(models) > max_models:
                raise ModelCapError(f"more than {max_models} models")
        # a flipped level is exhausted; after a model, so is an auxiliary one
        while levels and (levels[-1][2] or (consistent and levels[-1][1] >= len(proj))):
            levels.pop()
        if not levels:
            break
        level = levels[-1]
        start, i = level[0], level[1]
        lit = trail[start]
        for undone in trail[start:]:
            val[undone] = val[-undone] = 0
        del trail[start:]
        qhead = start
        level[2] = True
        assign(-lit)
        consistent = propagate()
    return SolveReport(tuple(models), stats)


def to_dimacs(cnf: Cnf) -> str:
    lines = [
        "c var %d = %s" % (v, a)
        for a, v in sorted(cnf.varmap.items(), key=lambda kv: kv[1])
    ]
    lines.append("p cnf %d %d" % (cnf.num_vars, len(cnf.clauses)))
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class CompletionSolveResult:
    """Answer sets found through the completion, with how each was admitted.

    completion_models holds every projected model (translated back to
    literals); dropped holds the models that failed the answer set check.
    """

    answer_sets: tuple[frozenset[Literal], ...]
    tags: tuple[str, ...]
    dropped: tuple[frozenset[Literal], ...]
    completion_models: tuple[frozenset[Literal], ...]
    stats: SolveStats


def answer_sets_via_completion(
    program: Program, max_models: int = 10000
) -> CompletionSolveResult:
    """Completion, clausification, all-models search, then admission.

    Classical negation is eliminated up front, and models are mapped back and
    sorted.  An absolutely tight program admits every model outright.  Else
    one AnswerSetChecker admits a model if the program is tight on it (by the
    paper's theorem), failing that if it passes the reduct fixpoint check;
    remaining models are dropped.
    """
    target, mapping = eliminate_classical_negation(program)
    comp = completion(target)
    cnf = clausify(comp)
    report = solve_all(cnf, max_models=max_models)
    # the program's own literals, so that set lookups meet the same objects
    own = {l.atom: l for l in target.universe}
    literals = {a: mapping.get(a) or own[a] for a in set().union(*report.models)}
    models = sorted_literal_sets(
        frozenset(map(literals.__getitem__, m)) for m in report.models
    )
    accepted: list[frozenset[Literal]] = []
    tags: list[str] = []
    dropped: list[frozenset[Literal]] = []
    if is_absolutely_tight(program):
        accepted = models
        tags = [TAG_ABSOLUTELY_TIGHT] * len(models)
    else:
        checker = AnswerSetChecker(program)
        for x in models:
            if checker.is_tight_on(x):
                accepted.append(x)
                tags.append(TAG_TIGHT_ON_MODEL)
            elif checker.is_reduct_fixpoint(x):
                accepted.append(x)
                tags.append(TAG_VERIFIED)
            else:
                dropped.append(x)
    return CompletionSolveResult(
        tuple(accepted), tuple(tags), tuple(dropped), tuple(models), report.stats
    )

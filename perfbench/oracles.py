"""Expected outputs for the benchmark's requests, computed without tightlp.

Every function here is plain Python over tuples and strings.  Output text is
rebuilt from the CLI's documented format: a literal set prints as
``{l1, l2, ...}`` ordered by predicate, arity and arguments (integers before
names), and answer sets print one per line ordered by size, then by their
sorted literals.
"""

from __future__ import annotations

import itertools
import re

_LITERAL_RE = re.compile(r"(-?)([a-z][A-Za-z0-9_]*)(?:\(([^()]*)\))?")


def _term(text):
    return int(text) if text.isdigit() else text


def _term_key(t):
    return (0, t, "") if isinstance(t, int) else (1, 0, t)


def lit_key(lit):
    """Sort key of a literal given as (negated, predicate, args)."""
    neg, pred, args = lit
    return (pred, len(args), tuple(_term_key(a) for a in args), neg)


def lit_text(lit):
    neg, pred, args = lit
    body = pred if not args else "%s(%s)" % (pred, ",".join(str(a) for a in args))
    return "-" + body if neg else body


def atom(pred, *args):
    return (False, pred, tuple(args))


def set_text(lits):
    return "{%s}" % ", ".join(lit_text(l) for l in sorted(lits, key=lit_key))


def answer_sets_text(sets):
    """The ``solve`` output for the given answer sets."""
    keyed = sorted(
        (len(s), sorted(lit_key(l) for l in s), set_text(s)) for s in sets
    )
    return "".join(text + "\n" for _, _, text in keyed)


def parse_set(line):
    """Literals of one printed set, as (negated, predicate, args) tuples."""
    line = line.strip()
    if not (line.startswith("{") and line.endswith("}")):
        raise ValueError("not a literal set: %r" % line[:80])
    inner = line[1:-1]
    out = set()
    pos = 0
    while pos < len(inner):
        m = _LITERAL_RE.match(inner, pos)
        if m is None:
            raise ValueError("bad literal at %r" % inner[pos : pos + 40])
        args = tuple(_term(a) for a in m.group(3).split(",")) if m.group(3) else ()
        out.add((m.group(1) == "-", m.group(2), args))
        pos = m.end()
        if inner.startswith(", ", pos):
            pos += 2
        elif pos != len(inner):
            raise ValueError("bad separator in %r" % line[:80])
    return frozenset(out)


def warshall(pairs):
    closure = set(pairs)
    nodes = sorted({x for p in closure for x in p}, key=_term_key)
    for v in nodes:
        for x in nodes:
            if (x, v) in closure:
                for y in nodes:
                    if (v, y) in closure:
                        closure.add((x, y))
    return frozenset(closure)


def longest_path_depths(vertices, edges):
    """Longest incoming path length per vertex of an acyclic graph."""
    preds = {v: [] for v in vertices}
    for u, w in edges:
        preds[w].append(u)
    depth = {}
    for root in vertices:
        stack = [root]
        while stack:
            v = stack[-1]
            if v in depth:
                stack.pop()
                continue
            todo = [u for u in preds[v] if u not in depth]
            if todo:
                stack.extend(todo)
            else:
                depth[v] = 1 + max((depth[u] for u in preds[v]), default=-1)
                stack.pop()
    return depth


def witness_line(depths):
    items = sorted(depths.items(), key=lambda kv: lit_key(kv[0]))
    return "lambda: " + ", ".join("%s=%d" % (lit_text(l), d) for l, d in items)


# ---------------------------------------------------------------------------
# tight: n-queens and blocks world


def queens_solutions(n):
    """Every placement as a tuple of (row, column), by backtracking."""
    found = []

    def extend(cols):
        row = len(cols)
        if row == n:
            found.append(tuple((r + 1, c + 1) for r, c in enumerate(cols)))
            return
        for col in range(n):
            if all(col != c and abs(col - c) != row - r for r, c in enumerate(cols)):
                extend(cols + (col,))

    extend(())
    return found


def queens_solve_text(n):
    return answer_sets_text(
        [frozenset(atom("queen", r, c) for r, c in sol) for sol in queens_solutions(n)]
    )


def _grounded(cfg, blocks):
    placed = dict(zip(blocks, cfg))
    used = [l for l in cfg if l != "table"]
    if len(used) != len(set(used)):
        return False
    for b in blocks:
        seen = set()
        while b != "table":
            if b in seen:
                return False
            seen.add(b)
            b = placed[b]
    return True


def blocks_history_count(blocks, horizon):
    """Legal histories: a legal start, then per step no move or one move of a
    clear block to any location that leaves the configuration legal."""
    locs = tuple(blocks) + ("table",)
    counts = {
        cfg: 1
        for cfg in itertools.product(locs, repeat=len(blocks))
        if _grounded(cfg, blocks)
    }
    for _ in range(horizon):
        nxt = {}
        for cfg, ways in counts.items():
            succ = [cfg]
            for i, b in enumerate(blocks):
                if b in cfg:
                    continue  # something sits on b
                for l in locs:
                    moved = cfg[:i] + (l,) + cfg[i + 1 :]
                    if _grounded(moved, blocks):
                        succ.append(moved)
            for s in succ:
                nxt[s] = nxt.get(s, 0) + ways
        counts = nxt
    return sum(counts.values())


def blocks_history_ok(lits, blocks, horizon):
    """One answer set of the blocks world program encodes a legal history:
    each block on exactly one location (with ``-on`` elsewhere), ``above``
    the Warshall closure of ``on`` at every time, at most one move per step,
    moves applied by the next time, and no literal outside these families."""
    locs = tuple(blocks) + ("table",)
    expected = set()
    cfgs = []
    for t in range(horizon + 1):
        on = {(b, l) for b in blocks for l in locs if atom("on", b, l, t) in lits}
        cfg = tuple(next((l for l in locs if (b, l) in on), None) for b in blocks)
        if len(on) != len(blocks) or None in cfg or not _grounded(cfg, blocks):
            return False
        cfgs.append(cfg)
        for b in blocks:
            for l in locs:
                expected.add(((b, l) not in on, "on", (b, l, t)))
        for x, y in warshall(on):
            expected.add(atom("above", x, y, t))
    for t in range(horizon):
        moves = [(b, l) for b in blocks for l in locs if atom("move", b, l, t) in lits]
        if len(moves) > 1:
            return False
        nxt = list(cfgs[t])
        for b, l in moves:
            if b in cfgs[t]:
                return False  # moved a block that was not clear
            nxt[blocks.index(b)] = l
        if tuple(nxt) != cfgs[t + 1]:
            return False
        for b in blocks:
            for l in locs:
                expected.add(((b, l) not in moves, "move", (b, l, t)))
    return set(lits) == expected


# ---------------------------------------------------------------------------
# closure: free base pairs over {1,2,3} plus the ground closure definition


def closure_answer_sets(free, constrained):
    """S plus tc(Warshall(S)) for every subset S of the free pairs, without
    those whose closure is reflexive when the constraints are present."""
    out = []
    for k in range(len(free) + 1):
        for s in itertools.combinations(free, k):
            if constrained and not is_acyclic(s):
                continue
            out.append(
                frozenset([atom("p", *p) for p in s] + [atom("tc", *p) for p in warshall(s)])
            )
    return out


def closure_parent_edges(x, constants):
    """Parent graph of the closure definition relative to x.  The choice
    rules for p have no positive body literal, so only tc rules add edges."""
    edges = set()
    for a, b in itertools.product(constants, constants):
        head = atom("tc", a, b)
        if head not in x:
            continue
        if atom("p", a, b) in x:
            edges.add((atom("p", a, b), head))
        for v in constants:
            if atom("p", a, v) in x and atom("tc", v, b) in x:
                edges.add((atom("p", a, v), head))
                edges.add((atom("tc", v, b), head))
    return edges


def base_pairs(x):
    return {l[2] for l in x if l[1] == "p"}


def is_acyclic(pairs):
    return not any(a == b for a, b in warshall(pairs))


def check_tight_on(output, x, constants):
    """``tight --on x`` verdict: tight exactly when the base relation in x is
    acyclic, with the longest-path level mapping; otherwise a real cycle of
    the parent graph."""
    shown = set_text(x)
    edges = closure_parent_edges(x, constants)
    if is_acyclic(base_pairs(x)):
        expected = "tight on %s\n" % shown
        if x:
            expected += witness_line(longest_path_depths(sorted(x, key=lit_key), edges)) + "\n"
        return output == expected
    prefix = "not tight on %s; cycle: " % shown
    if not output.startswith(prefix) or not output.endswith("\n") or output.count("\n") != 1:
        return False
    names = {lit_text(l): l for l in x}
    try:
        cycle = [names[t] for t in output[len(prefix) : -1].split(" -> ")]
    except KeyError:
        return False
    return (
        len(cycle) >= 2
        and cycle[0] == cycle[-1]
        and all((u, w) in edges for u, w in zip(cycle, cycle[1:]))
    )


def preservation_text(x):
    """check_tightness_preservation for a base of choice rules: the base is
    tight on x and no tc literal is a parent of a p literal, so only the
    well-foundedness of the reversed base relation can fail."""
    return "cond_i=True cond_ii=%s cond_iii=True\n" % is_acyclic(base_pairs(x))


# ---------------------------------------------------------------------------
# wide: one construct of n elements plus random facts


def wide_expected(shape, n, facts):
    """(answer set, {atom: completion right-hand side}, positive dependency
    edges, vertices) of a wide program, derived from its construction."""
    rng1 = range(1, n + 1)
    if shape == "head":
        atoms = [atom("a", i) for i in rng1] + [atom("b", i) for i in rng1]
        bodies = {atom("h"): " | ".join("(a(%d) & -b(%d))" % (i, i) for i in rng1)}
        holds = any(atom("a", i) in facts and atom("b", i) not in facts for i in rng1)
        derived = {atom("h")} if holds else set()
        edges = {(atom("a", i), atom("h")) for i in rng1}
    elif shape == "or":
        atoms = [atom("a", i) for i in rng1]
        bodies = {atom("h"): " | ".join("a(%d)" % i for i in rng1)}
        derived = {atom("h")} if facts else set()
        edges = {(atom("a", i), atom("h")) for i in rng1}
    elif shape == "andnot":
        atoms = [atom("b", i) for i in rng1]
        bodies = {atom("h"): " & ".join("-b(%d)" % i for i in rng1)}
        derived = set() if facts else {atom("h")}
        edges = set()
    elif shape == "chain":
        atoms = [atom("a", 1)] + [atom("c", i) for i in rng1]
        bodies = {atom("a", i + 1): "a(%d) & -c(%d)" % (i, i) for i in rng1}
        stop = min((i for i in rng1 if atom("c", i) in facts), default=n + 1)
        derived = {atom("a", i) for i in range(2, stop + 1)}
        edges = {(atom("a", i), atom("a", i + 1)) for i in rng1}
    else:
        raise ValueError(shape)
    rhs = {a: "true" if a in facts else "false" for a in atoms}
    rhs.update(bodies)
    return frozenset(facts | derived), rhs, edges


def wide_complete_text(rhs):
    lines = ["%s <-> %s" % (lit_text(a), rhs[a]) for a in sorted(rhs, key=lit_key)]
    return "\n".join(lines) + "\n"


def wide_tight_text(rhs, edges):
    vertices = sorted(rhs, key=lit_key)
    return "absolutely tight\n" + witness_line(longest_path_depths(vertices, edges)) + "\n"


def check_dimacs(text, model, rhs):
    """The DIMACS output names every atom in order, and its clauses are
    satisfied by the expected answer set extended by unit propagation, while
    flipping any one derived atom of it leads to a conflict."""
    lines = text.splitlines()
    atoms = sorted(rhs, key=lit_key)
    names = ["c var %d = %s" % (i + 1, lit_text(a)) for i, a in enumerate(atoms)]
    if lines[: len(atoms)] != names:
        return False
    header = lines[len(atoms)].split()
    if header[:2] != ["p", "cnf"] or len(header) != 4:
        return False
    num_vars, num_clauses = int(header[2]), int(header[3])
    body = lines[len(atoms) + 1 :]
    if len(body) != num_clauses:
        return False
    clauses = []
    for line in body:
        lits = [int(t) for t in line.split()]
        if not lits or lits[-1] != 0 or any(abs(l) > num_vars or l == 0 for l in lits[:-1]):
            return False
        clauses.append(lits[:-1])
    start = {i + 1: (a in model) for i, a in enumerate(atoms)}
    if not _propagates_to_model(num_vars, clauses, start):
        return False
    flips = [i + 1 for i, a in enumerate(atoms) if rhs[a] not in ("true", "false")]
    return all(
        not _propagates_to_model(num_vars, clauses, {**start, v: not start[v]})
        for v in {flips[0], flips[-1]}
    )


def _propagates_to_model(num_vars, clauses, start):
    """Unit propagation from the atom assignment reaches a total assignment
    that satisfies every clause."""
    value = [None] * (num_vars + 1)
    occurs = [[] for _ in range(num_vars + 1)]
    for ci, clause in enumerate(clauses):
        for l in clause:
            occurs[abs(l)].append(ci)
    queue = []
    for v, b in start.items():
        value[v] = b
        queue.append(v)
    pending = list(range(len(clauses)))
    while True:
        while queue:
            v = queue.pop()
            pending.extend(occurs[v])
        if not pending:
            break
        ci = pending.pop()
        free, sat = [], False
        for l in clauses[ci]:
            b = value[abs(l)]
            if b is None:
                free.append(l)
            elif b == (l > 0):
                sat = True
                break
        if sat:
            continue
        if not free:
            return False
        if len(free) == 1:
            l = free[0]
            value[abs(l)] = l > 0
            queue.append(abs(l))
    return None not in value[1:] and all(
        any(value[abs(l)] == (l > 0) for l in clause) for clause in clauses
    )

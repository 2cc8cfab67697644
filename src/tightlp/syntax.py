"""Abstract syntax, text format, and classical-negation elimination.

A program is a finite sequence of rules ``Head :- Body`` where the head is a
literal (or absent, for an integrity constraint) and the body is a formula
built from literals, ``true``/``false``, ``not``, ``,`` (conjunction) and
``;`` (disjunction), with arbitrary nesting.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

Term = Union[str, int]

_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_KEYWORDS = frozenset({"not", "true", "false"})


class ParseError(ValueError):
    """Syntax error in program text, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ArityWarning(UserWarning):
    """A predicate is used with more than one arity."""


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not _IDENT_RE.match(self.predicate) or self.predicate in _KEYWORDS:
            raise ValueError(f"invalid predicate name: {self.predicate!r}")
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(str(a) for a in self.args))


@dataclass(frozen=True)
class Literal:
    """An atom or its classical negation (rendered with a ``-`` prefix)."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return "-" + str(self.atom) if self.negated else str(self.atom)


def complement(literal: Literal) -> Literal:
    return Literal(literal.atom, not literal.negated)


def term_key(t: Term):
    # integers sort before identifiers, each kind by its own order
    return (0, t, "") if isinstance(t, int) else (1, 0, t)


def atom_key(a: Atom):
    return (a.predicate, len(a.args), tuple(term_key(t) for t in a.args))


def literal_key(l: Literal):
    return (*atom_key(l.atom), l.negated)


def literal_set_key(x: Iterable[Literal]):
    lits = sorted(literal_key(l) for l in x)
    return (len(lits), lits)


def atom_set_key(x: Iterable[Atom]):
    atoms = sorted(atom_key(a) for a in x)
    return (len(atoms), atoms)


def format_literal_set(x: Iterable[Literal]) -> str:
    return "{%s}" % ", ".join(str(l) for l in sorted(x, key=literal_key))


class Formula:
    """Base class for rule bodies."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_formula(self)


@dataclass(frozen=True)
class Lit(Formula):
    literal: Literal

    # The recursive walkers reach the literals at their deepest stack level,
    # and clausify hashes every subformula it meets, so hashing (and
    # rendering) a Lit skips the Literal method.  A literal and its
    # complement share a hash; == tells them apart.
    def __hash__(self) -> int:
        return hash(self.literal.atom)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


def conj_of(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; TRUE when empty."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def disj_of(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; FALSE when empty."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def regular_literals(formula: Formula) -> frozenset[Literal]:
    """All literals occurring in the formula.

    Every literal occurrence counts: within a classically negated literal only
    the atom's occurrence is singular, the literal itself occurs regularly.
    """
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Lit):
            out.add(f.literal)
        elif isinstance(f, Not):
            stack.append(f.operand)
        elif isinstance(f, (And, Or)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


def positive_literals(formula: Formula) -> frozenset[Literal]:
    """Literals occurring outside the scope of every ``not``."""
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Lit):
            out.add(f.literal)
        elif isinstance(f, (And, Or)):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


@dataclass(frozen=True)
class Rule:
    """``head :- body``; head None encodes an integrity constraint."""

    head: Literal | None
    body: Formula = TRUE

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    @property
    def is_fact(self) -> bool:
        return self.head is not None and self.body == TRUE

    def __str__(self) -> str:
        return render_rule(self)


@dataclass(frozen=True)
class Program:
    """Rules in presentation order plus explicitly declared extra literals."""

    rules: tuple[Rule, ...] = ()
    declared: frozenset[Literal] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "declared", frozenset(self.declared))

    @cached_property
    def rule_set(self) -> frozenset[Rule]:
        return frozenset(self.rules)

    @cached_property
    def universe(self) -> frozenset[Literal]:
        out = set(self.declared)
        for r in self.rules:
            if r.head is not None:
                out.add(r.head)
            out |= regular_literals(r.body)
        return frozenset(out)

    def __str__(self) -> str:
        return render(self)


def merge_programs(*programs: Program) -> Program:
    rules: list[Rule] = []
    declared: set[Literal] = set()
    for p in programs:
        rules.extend(p.rules)
        declared |= p.declared
    return Program(tuple(rules), frozenset(declared))


# ---------------------------------------------------------------------------
# rendering

# One row per reading of a body: the prefix of a negation, the operands that a
# negation leaves bare, and the infix text and binding strength of And and Or.
# A rule body reads ``not``/``,``/``;`` with And binding tighter; the
# completion reads the same formula classically, with neither binding tighter.
RULE_STYLE = ("not ", (Lit, Top, Bottom, Not), {And: (", ", 2), Or: ("; ", 1)})
COMPLETION_STYLE = ("-", (Lit, Top, Bottom), {And: (" & ", 1), Or: (" | ", 1)})


def render_formula(f: Formula, style: tuple = RULE_STYLE) -> str:
    """Text of a formula; a binary operand is parenthesized unless it binds
    tighter than its parent, or is the left operand of the same connective."""
    if isinstance(f, Lit):
        return ("-%s" if f.literal.negated else "%s") % f.literal.atom
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    neg, bare, infix = style
    if isinstance(f, Not):
        text = render_formula(f.operand, style)
        return neg + (text if isinstance(f.operand, bare) else "(%s)" % text)
    if type(f) not in infix:
        raise TypeError(f"not a formula: {f!r}")
    op, strength = infix[type(f)]
    left = render_formula(f.left, style)
    right = render_formula(f.right, style)
    inner = infix.get(type(f.left))
    if inner and inner[1] <= strength and type(f.left) is not type(f):
        left = "(%s)" % left
    inner = infix.get(type(f.right))
    if inner and inner[1] <= strength:
        right = "(%s)" % right
    return left + op + right


def render_rule(r: Rule) -> str:
    if r.head is None:
        return ":- %s." % render_formula(r.body)
    if r.body == TRUE:
        return "%s." % r.head
    return "%s :- %s." % (r.head, render_formula(r.body))


def render(program: Program) -> str:
    lines = []
    if program.declared:
        decls = ", ".join(str(l) for l in sorted(program.declared, key=literal_key))
        lines.append("#universe %s." % decls)
    lines.extend(render_rule(r) for r in program.rules)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "punct", "decl", "eof"
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == "#":
            m = re.match(r"#[a-z]+", text[i:])
            word = m.group(0) if m else "#"
            if word != "#universe":
                raise ParseError(f"unknown declaration {word!r}", start_line, start_col)
            tokens.append(_Token("decl", word, start_line, start_col))
            i += len(word)
            col += len(word)
            continue
        if c == ":":
            if text[i : i + 2] != ":-":
                raise ParseError("expected ':-'", start_line, start_col)
            tokens.append(_Token("punct", ":-", start_line, start_col))
            i += 2
            col += 2
            continue
        if c in ".,;()-{}":
            tokens.append(_Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            m = re.match(r"\d+", text[i:])
            tokens.append(_Token("int", m.group(0), start_line, start_col))
            i += len(m.group(0))
            col += len(m.group(0))
            continue
        if c.isalpha() and c.islower():
            m = re.match(r"[a-z][A-Za-z0-9_]*", text[i:])
            tokens.append(_Token("ident", m.group(0), start_line, start_col))
            i += len(m.group(0))
            col += len(m.group(0))
            continue
        if c.isalpha() or c == "_":
            raise ParseError(
                f"unexpected character {c!r} (identifiers start with a lowercase "
                "letter; variables are not supported)",
                start_line,
                start_col,
            )
        raise ParseError(f"unexpected character {c!r}", start_line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.arity_warned: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == value:
            return self.take()
        shown = tok.value if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected {value!r}, found {shown!r}", tok.line, tok.column)

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    # grammar entry points -------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        declared: set[Literal] = set()
        while self.peek().kind != "eof":
            if self.peek().kind == "decl":
                self.take()
                declared.update(self.literal_list())
                self.expect(".")
            elif self.at_punct("{"):
                rules.append(self.choice_rule())
            elif self.peek().kind == "int":
                raise self.fail("weight constraints are not supported")
            else:
                rules.append(self.rule())
        return Program(tuple(rules), frozenset(declared))

    def literal_list(self) -> list[Literal]:
        out = [self.literal()]
        while self.at_punct(","):
            self.take()
            out.append(self.literal())
        return out

    def choice_rule(self) -> Rule:
        self.expect("{")
        if self.at_punct("-"):
            raise self.fail("classical negation is not allowed inside a choice")
        atom = self.atom()
        if self.at_punct(",") or self.at_punct(";"):
            raise self.fail(
                "only a single atom is allowed inside a choice "
                "(weight constraints are not supported)"
            )
        self.expect("}")
        if self.at_punct(":-"):
            raise self.fail("a choice rule cannot have a body")
        self.expect(".")
        lit = Literal(atom)
        return Rule(lit, Not(Not(Lit(lit))))

    def rule(self) -> Rule:
        if self.at_punct(":-"):
            self.take()
            body = self.body()
            self.expect(".")
            return Rule(None, body)
        head = self.literal()
        if self.at_punct("."):
            self.take()
            return Rule(head, TRUE)
        self.expect(":-")
        body = self.body()
        self.expect(".")
        return Rule(head, body)

    def body(self) -> Formula:
        out = self.conjunction()
        while self.at_punct(";"):
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.at_punct(","):
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.at_keyword("not"):
            self.take()
            return Not(self.unary())
        if self.at_punct("("):
            self.take()
            out = self.body()
            self.expect(")")
            return out
        if self.at_keyword("true"):
            self.take()
            return TRUE
        if self.at_keyword("false"):
            self.take()
            return FALSE
        return Lit(self.literal())

    def literal(self) -> Literal:
        negated = False
        if self.at_punct("-"):
            self.take()
            negated = True
        return Literal(self.atom(), negated)

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in _KEYWORDS:
            shown = tok.value if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected an atom, found {shown!r}", tok.line, tok.column)
        self.take()
        args: list[Term] = []
        if self.at_punct("("):
            self.take()
            args.append(self.term())
            while self.at_punct(","):
                self.take()
                args.append(self.term())
            self.expect(")")
        self.record_arity(tok, len(args))
        return Atom(tok.value, tuple(args))

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return int(tok.value)
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            self.take()
            return tok.value
        shown = tok.value if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected a term, found {shown!r}", tok.line, tok.column)

    def record_arity(self, tok: _Token, arity: int) -> None:
        seen = self.arities.setdefault(tok.value, arity)
        if seen != arity and tok.value not in self.arity_warned:
            self.arity_warned.add(tok.value)
            warnings.warn(
                f"predicate {tok.value!r} used with arities {seen} and {arity} "
                f"(line {tok.line})",
                ArityWarning,
                stacklevel=4,
            )


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_literals(text: str) -> frozenset[Literal]:
    """Parse a comma-separated literal list, e.g. for a CLI ``--on`` value.

    Braces around the list are optional, so the set syntax the CLI prints
    (``{p, -q}``) parses back unchanged.
    """
    parser = _Parser(text)
    braced = parser.at_punct("{")
    if braced:
        parser.take()
    lits: list[Literal] = []
    if parser.peek().kind != "eof" and not parser.at_punct("}"):
        lits = parser.literal_list()
    if braced:
        parser.expect("}")
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.value!r} after literal list", tok.line, tok.column)
    return frozenset(lits)


# ---------------------------------------------------------------------------
# classical negation

def is_normal(program: Program) -> bool:
    """True when no classical negation occurs in rules or declarations."""
    return not any(l.negated for l in program.universe)


def _map_formula(f: Formula, table: dict[Literal, Literal]) -> Formula:
    if isinstance(f, Lit):
        return Lit(table.get(f.literal, f.literal))
    if isinstance(f, Not):
        return Not(_map_formula(f.operand, table))
    if isinstance(f, And):
        return And(_map_formula(f.left, table), _map_formula(f.right, table))
    if isinstance(f, Or):
        return Or(_map_formula(f.left, table), _map_formula(f.right, table))
    return f


def eliminate_classical_negation(program: Program) -> tuple[Program, dict[Atom, Literal]]:
    """Rewrite ``-a`` to a fresh positive atom ``a_neg`` plus ``:- a, a_neg.``

    Returns the rewritten program and a mapping from each fresh atom back to
    the literal it replaced.  A normal program comes back unchanged with an
    empty mapping.  Answer sets of the result, translated back through the
    mapping, are exactly the consistent answer sets of the input.
    """
    negated_atoms = sorted(
        {l.atom for l in program.universe if l.negated}, key=atom_key
    )
    if not negated_atoms:
        return program, {}

    existing = {l.atom.predicate for l in program.universe}
    fresh_preds: dict[str, str] = {}
    for atom in negated_atoms:
        fresh = atom.predicate + "_neg"
        if fresh in existing:
            raise ValueError(
                f"cannot eliminate classical negation: fresh predicate {fresh!r} "
                "collides with an existing predicate"
            )
        fresh_preds[atom.predicate] = fresh

    table: dict[Literal, Literal] = {}
    mapping: dict[Atom, Literal] = {}
    for atom in negated_atoms:
        primed = Atom(fresh_preds[atom.predicate], atom.args)
        table[Literal(atom, True)] = Literal(primed)
        mapping[primed] = Literal(atom, True)

    rules = [
        Rule(
            table.get(r.head, r.head) if r.head is not None else None,
            _map_formula(r.body, table),
        )
        for r in program.rules
    ]
    for atom in negated_atoms:
        primed = table[Literal(atom, True)].atom
        rules.append(Rule(None, And(Lit(Literal(atom)), Lit(Literal(primed)))))
    declared = frozenset(table.get(l, l) for l in program.declared)
    return Program(tuple(rules), declared), mapping

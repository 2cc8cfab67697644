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
        m = _TOKEN_RE.fullmatch(self.predicate)
        if m is None or m.lastgroup != "ident" or self.predicate in _KEYWORDS:
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

# One alternative per token kind, tried at a position so the text is never
# sliced; ASCII only, so a letter or digit outside ASCII is an unexpected
# character.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<comment>%[^\n]*)|(?P<ident>[a-z][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)|(?P<punct>:-|[.,;()\-{}])|(?P<decl>#[a-z]*)"
)
_SKIPPED = frozenset({"space", "comment"})


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of an offset."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens, closed by an ``eof`` token whose text
    is what error messages show for it."""
    tokens = []
    pos, n = 0, len(text)
    m = kind = None
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            c = text[pos]
            if c == ":":
                message = "expected ':-'"
            elif c == "_" or "A" <= c <= "Z":
                message = (
                    f"unexpected character {c!r} (identifiers start with a lowercase "
                    "letter; variables are not supported)"
                )
            else:
                message = f"unexpected character {c!r}"
            raise ParseError(message, *_position(text, pos))
        kind = m.lastgroup
        if kind not in _SKIPPED:
            if kind == "decl" and m.group() != "#universe":
                raise ParseError(f"unknown declaration {m.group()!r}", *_position(text, pos))
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    # input that ends in a comment ends where the comment starts
    tokens.append(("eof", "end of input", m.start() if kind == "comment" else n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.arity_warned: set[str] = set()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def at(self, value: str) -> bool:
        # punctuation, keyword and other token texts never coincide
        return self.tokens[self.pos][1] == value

    def accept(self, value: str) -> bool:
        """Consume the next token if its text is value."""
        if self.tokens[self.pos][1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            raise self.fail(f"expected {value!r}, found {self.peek()[1]!r}")

    def fail(self, message: str) -> ParseError:
        return ParseError(message, *_position(self.text, self.peek()[2]))

    # grammar entry points -------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        declared: set[Literal] = set()
        while self.peek()[0] != "eof":
            if self.accept("#universe"):
                declared.update(self.literal_list())
                self.expect(".")
            elif self.at("{"):
                rules.append(self.choice_rule())
            elif self.peek()[0] == "int":
                raise self.fail("weight constraints are not supported")
            else:
                rules.append(self.rule())
        return Program(tuple(rules), frozenset(declared))

    def literal_list(self) -> list[Literal]:
        out = [self.literal()]
        while self.accept(","):
            out.append(self.literal())
        return out

    def choice_rule(self) -> Rule:
        self.expect("{")
        if self.at("-"):
            raise self.fail("classical negation is not allowed inside a choice")
        atom = self.atom()
        if self.at(",") or self.at(";"):
            raise self.fail(
                "only a single atom is allowed inside a choice "
                "(weight constraints are not supported)"
            )
        self.expect("}")
        if self.at(":-"):
            raise self.fail("a choice rule cannot have a body")
        self.expect(".")
        lit = Literal(atom)
        return Rule(lit, Not(Not(Lit(lit))))

    def rule(self) -> Rule:
        if self.accept(":-"):
            body = self.body()
            self.expect(".")
            return Rule(None, body)
        head = self.literal()
        if self.accept("."):
            return Rule(head, TRUE)
        self.expect(":-")
        body = self.body()
        self.expect(".")
        return Rule(head, body)

    def body(self) -> Formula:
        out = self.conjunction()
        while self.accept(";"):
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.accept(","):
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.accept("not"):
            return Not(self.unary())
        if self.accept("("):
            out = self.body()
            self.expect(")")
            return out
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        return Lit(self.literal())

    def literal(self) -> Literal:
        negated = self.accept("-")
        return Literal(self.atom(), negated)

    def atom(self) -> Atom:
        kind, name, offset = self.peek()
        if kind != "ident" or name in _KEYWORDS:
            raise self.fail(f"expected an atom, found {name!r}")
        self.pos += 1
        args: list[Term] = []
        if self.accept("("):
            args.append(self.term())
            while self.accept(","):
                args.append(self.term())
            self.expect(")")
        self.record_arity(name, offset, len(args))
        return Atom(name, tuple(args))

    def term(self) -> Term:
        kind, value, _ = self.peek()
        if kind == "int":
            self.pos += 1
            return int(value)
        if kind == "ident" and value not in _KEYWORDS:
            self.pos += 1
            return value
        raise self.fail(f"expected a term, found {value!r}")

    def record_arity(self, name: str, offset: int, arity: int) -> None:
        seen = self.arities.setdefault(name, arity)
        if seen != arity and name not in self.arity_warned:
            self.arity_warned.add(name)
            line = _position(self.text, offset)[0]
            warnings.warn(
                f"predicate {name!r} used with arities {seen} and {arity} (line {line})",
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
    braced = parser.accept("{")
    lits: list[Literal] = []
    if parser.peek()[0] != "eof" and not parser.at("}"):
        lits = parser.literal_list()
    if braced:
        parser.expect("}")
    kind, value, _ = parser.peek()
    if kind != "eof":
        raise parser.fail(f"unexpected {value!r} after literal list")
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

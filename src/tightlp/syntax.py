"""Abstract syntax, text format, and classical-negation elimination.

A program is a finite sequence of rules ``Head :- Body`` where the head is a
literal (or absent, for an integrity constraint) and the body is a formula
built from literals, ``true``/``false``, ``not``, ``,`` (conjunction) and
``;`` (disjunction), with arbitrary nesting.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Union

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


class _Value:
    """An immutable value.  Fields are set once, in __init__, and a node of
    a formula stores its hash there too; equality checks identity, then
    type and hash, then fields.  A class that defines __eq__ names __hash__
    again, since Python drops the inherited one there."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash


_set = object.__setattr__


class Formula(_Value):
    """Base class for rule bodies: a literal, true, false, or a connective."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_formula(self)


class Atom(_Value):
    __slots__ = ("predicate", "args", "_hash")

    def __init__(self, predicate: str, args: Iterable[Term] = ()):
        if not _is_predicate_name(predicate):
            raise ValueError(f"invalid predicate name: {predicate!r}")
        args = tuple(args)
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "_hash", hash((predicate, args)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Atom:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.predicate == other.predicate
            and self.args == other.args
        )

    __hash__ = _Value.__hash__

    def __reduce__(self):  # rebuilt on unpickling, so the hash is this process's
        return Atom, (self.predicate, self.args)

    def __repr__(self) -> str:
        return f"Atom(predicate={self.predicate!r}, args={self.args!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ",".join(str(a) for a in self.args))


class Literal(Formula):
    """An atom or its classical negation (rendered with a ``-`` prefix)."""

    __slots__ = ("atom", "negated", "_hash")

    def __init__(self, atom: Atom, negated: bool = False):
        _set(self, "atom", atom)
        _set(self, "negated", negated)
        _set(self, "_hash", hash((atom, negated)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Literal:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.atom == other.atom
            and self.negated == other.negated
        )

    __hash__ = _Value.__hash__

    def __reduce__(self):  # as Atom's
        return Literal, (self.atom, self.negated)

    def __repr__(self) -> str:
        return f"Literal(atom={self.atom!r}, negated={self.negated!r})"

    def __str__(self) -> str:
        return "-" + str(self.atom) if self.negated else str(self.atom)


def complement(literal: Literal) -> Literal:
    return Literal(literal.atom, not literal.negated)


def is_term(t) -> bool:
    """An int >= 0, or an identifier other than a keyword: a term that reads back."""
    return _is_predicate_name(t) if isinstance(t, str) else type(t) is int and t >= 0


def term_key(t: Term):
    # integers sort before identifiers, each kind by its own order
    return (0, t, "") if isinstance(t, int) else (1, 0, t)


def atom_key(a: Atom):
    return (a.predicate, len(a.args), tuple(term_key(t) for t in a.args))


def literal_key(l: Literal):
    return (*atom_key(l.atom), l.negated)


def format_literal_set(x: Iterable[Literal]) -> str:
    return "{%s}" % ", ".join(str(l) for l in sorted(x, key=literal_key))


def format_ranked_sets(literals: list[Literal], sets: Iterable[Iterable[int]]) -> list[str]:
    """format_literal_set of each set given by its ranks, the ascending
    positions of its literals in literals, a list in literal_key order; each
    literal is rendered once for all of them."""
    sets = list(sets)
    text = {r: str(literals[r]) for r in set().union(*sets)}
    return ["{%s}" % ", ".join(map(text.__getitem__, s)) for s in sets]


def ranked_set_key(ranks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The order of every list of answer sets: by size, then by ranks, the
    ascending positions of a set's literals in literal_key order."""
    return len(ranks), ranks


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


TRUE = Top()
FALSE = Bottom()


class Not(Formula):
    __slots__ = ("operand", "_hash")

    # The hash is stored, so that hashing a deeply nested formula (clausify's
    # cache does) never recurses.
    def __init__(self, operand: Formula):
        _set(self, "operand", operand)
        _set(self, "_hash", hash((operand,)))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Not:
            return NotImplemented
        return self._hash == other._hash and self.operand == other.operand

    __hash__ = _Value.__hash__

    def __reduce__(self):  # as Atom's
        return Not, (self.operand,)

    def __repr__(self) -> str:
        return f"Not(operand={self.operand!r})"


class _Junction(Formula):
    """An n-ary connective over two or more parts.  A first part with the
    same connective is spliced in, so ``(a, b), c`` is ``a, b, c``, as the
    left-associating parser reads it; a later one stays nested."""

    __slots__ = ("parts", "_hash")

    def __init__(self, *parts: Formula):
        if len(parts) < 2:
            raise TypeError(f"{type(self).__name__} needs at least two parts")
        if type(parts[0]) is type(self):
            parts = parts[0].parts + parts[1:]
        _set(self, "parts", parts)
        _set(self, "_hash", hash((parts,)))  # as Not's

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts

    __hash__ = _Value.__hash__

    def __reduce__(self):
        return type(self), self.parts

    def __repr__(self) -> str:
        return f"{type(self).__name__}(parts={self.parts!r})"


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


def conj_of(parts: Iterable[Formula]) -> Formula:
    """Conjunction of the parts; the part itself when there is one, TRUE
    when there are none."""
    parts = tuple(parts)
    return And(*parts) if len(parts) > 1 else parts[0] if parts else TRUE


def disj_of(parts: Iterable[Formula]) -> Formula:
    """Disjunction of the parts; the part itself when there is one, FALSE
    when there are none."""
    parts = tuple(parts)
    return Or(*parts) if len(parts) > 1 else parts[0] if parts else FALSE


def regular_literals(formula: Formula) -> frozenset[Literal]:
    """All literals occurring in the formula.

    Every literal occurrence counts: within a classically negated literal only
    the atom's occurrence is singular, the literal itself occurs regularly.
    """
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Literal):
            out.add(f)
        elif isinstance(f, Not):
            stack.append(f.operand)
        elif isinstance(f, (And, Or)):
            stack.extend(f.parts)
    return frozenset(out)


def positive_literals(formula: Formula) -> frozenset[Literal]:
    """Literals occurring outside the scope of every ``not``."""
    out = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Literal):
            out.add(f)
        elif isinstance(f, (And, Or)):
            stack.extend(f.parts)
    return frozenset(out)


class Rule(_Value):
    """``head :- body``; head None encodes an integrity constraint.  The
    hash is computed when asked for: few callers build a set of rules."""

    __slots__ = ("head", "body")

    def __init__(self, head: Literal | None, body: Formula = TRUE):
        _set(self, "head", head)
        _set(self, "body", body)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Rule:
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __reduce__(self):
        return Rule, (self.head, self.body)

    def __repr__(self) -> str:
        return f"Rule(head={self.head!r}, body={self.body!r})"

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
RULE_STYLE = ("not ", (Literal, Top, Bottom, Not), {And: (", ", 2), Or: ("; ", 1)})
COMPLETION_STYLE = ("-", (Literal, Top, Bottom), {And: (" & ", 1), Or: (" | ", 1)})


def render_formula(f: Formula, style: tuple = RULE_STYLE) -> str:
    """Text of a formula; a part of And or Or is parenthesized unless it binds
    tighter than its parent (only a later part can have the same connective,
    so ``a, (b, c)`` keeps its parentheses)."""
    if isinstance(f, Literal):
        return str(f)
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
    texts = []
    for part in f.parts:
        text = render_formula(part, style)
        inner = infix.get(type(part))
        texts.append("(%s)" % text if inner and inner[1] <= strength else text)
    return op.join(texts)


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

# An identifier.  ASCII only, so a letter or digit outside ASCII is an
# unexpected character.
_IDENT = r"[a-z][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)
_TERM = rf"(?:[0-9]+|(?!(?:not|true|false)[,)]){_IDENT})"
# Whitespace and comments, then one token: a punctuation character, ':-', a
# whole ground atom without spaces (its name and terms identifiers other than
# keywords, or integers; any other shape of atom is read token by token), an
# identifier, an integer, a declaration, any other single character, or "" at
# the end of the input.  The first alternative that matches is taken, so the
# common short tokens come first.  One findall reads every token string;
# offsets are found again only for a message.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*)*("
    r"[-.,;(){}]|:-"
    rf"|(?!(?:not|true|false)\(){_IDENT}\({_TERM}(?:,{_TERM})*\)"
    rf"|{_IDENT}|[0-9]+|#[a-z]*|.|\Z)"
)


@lru_cache(maxsize=1024)
def _is_predicate_name(name: str) -> bool:
    return _IDENT_RE.fullmatch(name) is not None and name not in _KEYWORDS


def _position(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of an offset."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_offset(text: str, index: int) -> int:
    """Offset of the index-th token.  Input that ends in a comment ends
    where that comment starts."""
    token = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    if token[1]:
        return token.start(1)
    comment = text.find("%", text.rfind("\n") + 1)
    return comment if comment >= 0 else len(text)


def _token_error(token: str) -> str | None:
    """What is wrong with a token that no grammar rule reads, else None."""
    if token[:1] == "#":
        return None if token == "#universe" else f"unknown declaration {token!r}"
    if len(token) != 1 or token in ".,;()-{}" or "a" <= token <= "z" or "0" <= token <= "9":
        return None
    if token == ":":
        return "expected ':-'"
    if token == "_" or "A" <= token <= "Z":
        return (
            f"unexpected character {token!r} (identifiers start with a lowercase "
            "letter; variables are not supported)"
        )
    return f"unexpected character {token!r}"


def _tokenize(text: str) -> list[str]:
    """The token strings, closed by "" (twice when the input ends in
    whitespace or a comment; the parser never reads past the first)."""
    tokens = _TOKEN_RE.findall(text)
    if any(map(_token_error, set(tokens))):
        for m in _TOKEN_RE.finditer(text):
            message = _token_error(m[1])
            if message:
                raise ParseError(message, *_position(text, m.start(1)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}
        self.arity_warned: set[str] = set()
        # The one Atom and Literal of each value in this parse, so that later
        # set lookups meet the same object.  The types never compare equal,
        # so one table holds both; a Literal is also found by its text, a
        # str, when one token names its atom: a positive one by that token,
        # a contrary by "-" and the token.
        self.seen: dict = {}

    def accept(self, value: str) -> bool:
        """Consume the next token if it is value."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        if self.tokens[self.pos] != value:
            raise self.fail(f"expected {value!r}, found {self.found()!r}")
        self.pos += 1

    def found(self) -> str:
        """The next token as messages show it; an atom token by its name."""
        token = self.tokens[self.pos]
        return token.partition("(")[0] or token if token else "end of input"

    def fail(self, message: str, shift: int = 0) -> ParseError:
        offset = _token_offset(self.text, self.pos) + shift
        return ParseError(message, *_position(self.text, offset))

    # grammar entry points -------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        declared: set[Literal] = set()
        while token := self.tokens[self.pos]:
            if token == "{":
                rules.append(self.choice_rule())
            elif token == "#universe":
                self.pos += 1
                declared.update(self.literal_list())
                self.expect(".")
            elif token.isdigit():
                raise self.fail("weight constraints are not supported")
            else:
                rules.append(self.rule())
        program = Program(tuple(rules), frozenset(declared))
        # every literal of the program was read, so the table holds its universe
        program.__dict__["universe"] = frozenset(x for x in self.seen if type(x) is Literal)
        return program

    def literal_list(self) -> list[Literal]:
        out = [self.lit()]
        while self.accept(","):
            out.append(self.lit())
        return out

    def choice_rule(self) -> Rule:
        self.expect("{")
        if self.tokens[self.pos] == "-":
            raise self.fail("classical negation is not allowed inside a choice")
        lit = self.lit()
        if self.tokens[self.pos] in (",", ";"):
            raise self.fail(
                "only a single atom is allowed inside a choice "
                "(weight constraints are not supported)"
            )
        self.expect("}")
        if self.tokens[self.pos] == ":-":
            raise self.fail("a choice rule cannot have a body")
        self.expect(".")
        return Rule(lit, Not(Not(lit)))

    def rule(self) -> Rule:
        tokens, pos = self.tokens, self.pos
        head = None
        if tokens[pos] != ":-":
            head = self.seen.get(tokens[pos])  # read before: as in body()
            if head is None or tokens[pos + 1] == "(":
                head = self.lit()
                pos = self.pos
            else:
                pos += 1
            if tokens[pos] == ".":
                self.pos = pos + 1
                return Rule(head, TRUE)
            if tokens[pos] != ":-":
                self.pos = pos
                self.expect(":-")  # raises
        self.pos = pos + 1
        body = self.body()
        if tokens[self.pos] != ".":
            self.expect(".")  # raises
        self.pos += 1
        return Rule(head, body)

    def body(self) -> Formula:
        tokens, seen, pos = self.tokens, self.seen, self.pos
        disjuncts = []
        while True:
            parts = []
            while True:
                # A positive literal read before and named by one token is
                # taken from the table, as lit() would take it.
                lit = seen.get(tokens[pos])
                if lit is None or tokens[pos + 1] == "(":
                    self.pos = pos
                    lit = self.unary()
                    pos = self.pos
                else:
                    pos += 1
                parts.append(lit)
                if tokens[pos] != ",":
                    break
                pos += 1
            disjuncts.append(And(*parts) if len(parts) > 1 else parts[0])
            if tokens[pos] != ";":
                self.pos = pos
                return Or(*disjuncts) if len(disjuncts) > 1 else disjuncts[0]
            pos += 1

    def unary(self) -> Formula:
        token = self.tokens[self.pos]
        if token == "not":
            self.pos += 1
            return Not(self.unary())
        if token == "(":
            self.pos += 1
            out = self.body()
            self.expect(")")
            return out
        if token == "true" or token == "false":
            self.pos += 1
            return TRUE if token == "true" else FALSE
        return self.lit()

    def lit(self) -> Literal:
        """The one Literal at the next tokens."""
        negated = self.tokens[self.pos] == "-"
        index = self.pos = self.pos + negated
        token = self.tokens[index]
        key = "-" + token if negated else token
        lit = self.seen.get(key)
        if lit is None or self.tokens[index + 1] == "(":
            lit = Literal(self.atom(), negated)
            lit = self.seen.setdefault(lit, lit)
            if self.pos == index + 1:  # the one token names the atom
                self.seen[key] = lit
        else:
            self.pos += 1
        return lit

    def atom(self) -> Atom:
        token = self.tokens[self.pos]
        if not "a" <= token[:1] <= "z" or token in _KEYWORDS:
            raise self.fail(f"expected an atom, found {self.found()!r}")
        index = self.pos
        self.pos += 1
        if token[-1] == ")":  # a whole ground atom
            known = self.seen.get(token)  # read before, as a positive literal
            if known is not None:
                return known.atom
            name, _, terms = token[:-1].partition("(")
            args = tuple([int(t) if t < "a" else t for t in terms.split(",")])
        else:
            name, args = token, []
            if self.accept("("):
                args.append(self.term())
                while self.accept(","):
                    args.append(self.term())
                self.expect(")")
            args = tuple(args)
        arity = len(args)
        if self.arities.setdefault(name, arity) != arity:
            self.arity_clash(name, index, arity)
        atom = Atom(name, args)
        return self.seen.setdefault(atom, atom)

    def term(self) -> Term:
        token = self.tokens[self.pos]
        if token.isdigit():
            self.pos += 1
            return int(token)
        if "a" <= token[:1] <= "z" and token not in _KEYWORDS:
            if token[-1] == ")":
                # Terms take no arguments, so reading token by token fails
                # at the atom token's own '('.
                raise self.fail("expected ')', found '('", token.index("("))
            self.pos += 1
            return token
        raise self.fail(f"expected a term, found {self.found()!r}")

    def arity_clash(self, name: str, index: int, arity: int) -> None:
        """Warn, once per name, that the atom at token index has another
        arity than the name's first use."""
        seen = self.arities[name]
        if name not in self.arity_warned:
            self.arity_warned.add(name)
            line = _position(self.text, _token_offset(self.text, index))[0]
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
    if parser.tokens[parser.pos] not in ("", "}"):
        lits = parser.literal_list()
    if braced:
        parser.expect("}")
    if parser.tokens[parser.pos]:
        raise parser.fail(f"unexpected {parser.found()!r} after literal list")
    return frozenset(lits)


# ---------------------------------------------------------------------------
# classical negation

def is_normal(program: Program) -> bool:
    """True when no classical negation occurs in rules or declarations."""
    return not any(l.negated for l in program.universe)


def _map_formula(f: Formula, table: dict[Literal, Literal]) -> Formula:
    """f with each literal of table replaced; f itself when none occurs."""
    if isinstance(f, Literal):
        return table.get(f, f)
    if isinstance(f, Not):
        operand = _map_formula(f.operand, table)
        return f if operand is f.operand else Not(operand)
    if isinstance(f, (And, Or)):
        parts = [_map_formula(part, table) for part in f.parts]
        return f if all(map(operator.is_, parts, f.parts)) else type(f)(*parts)
    return f


def eliminate_classical_negation(program: Program) -> tuple[Program, dict[Atom, Literal]]:
    """Rewrite ``-a`` to a fresh positive atom ``a_neg`` plus ``:- a, a_neg.``

    Returns the rewritten program and a mapping from each fresh atom back to
    the literal it replaced.  A normal program comes back unchanged with an
    empty mapping, and so does each rule without a classically negated
    literal.  Answer sets of the result, translated back through the
    mapping, are exactly the consistent answer sets of the input.
    """
    negated = {l.atom: l for l in program.universe if l.negated}
    if not negated:
        return program, {}

    existing = {l.atom.predicate for l in program.universe}
    table: dict[Literal, Literal] = {}
    mapping: dict[Atom, Literal] = {}
    constraints: list[Rule] = []
    for atom in sorted(negated, key=atom_key):
        fresh = atom.predicate + "_neg"
        if fresh in existing:
            raise ValueError(
                f"cannot eliminate classical negation: fresh predicate {fresh!r} "
                "collides with an existing predicate"
            )
        primed = Literal(Atom(fresh, atom.args))
        table[negated[atom]] = primed
        mapping[primed.atom] = negated[atom]
        constraints.append(Rule(None, And(Literal(atom), primed)))

    rules = []
    for r in program.rules:
        head = table.get(r.head, r.head)
        body = _map_formula(r.body, table)
        rules.append(r if head is r.head and body is r.body else Rule(head, body))
    declared = frozenset(table.get(l, l) for l in program.declared)
    return Program(tuple(rules + constraints), declared), mapping

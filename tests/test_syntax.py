"""Parsing, rendering, literal classifiers and classical negation removal."""

import hashlib
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import consistent_subsets, random_program, same_program
from reference import literal_set_key
from tightlp import (
    FALSE,
    TRUE,
    And,
    ArityWarning,
    Atom,
    BlocksSpec,
    Bottom,
    DefSpec,
    Literal,
    Not,
    Or,
    ParseError,
    Program,
    QueensSpec,
    Rule,
    Top,
    blocksworld_program,
    complement,
    def_rules,
    eliminate_classical_negation,
    enumerate_answer_sets_bruteforce,
    format_literal_set,
    is_normal,
    literal_key,
    merge_programs,
    parse_literals,
    parse_program,
    positive_literals,
    queens_program,
    regular_literals,
    render,
    render_rule,
)
from tightlp.syntax import _token_literal, ranked_set_key


def p(text: str) -> Program:
    return parse_program(text)


def body(text: str):
    return p("x :- %s." % text).rules[0].body


class TestAtomsAndLiterals:
    def test_unpickling_in_another_process_rehashes(self):
        # Atom, Literal, Not, And and Or store their hash, Top and Bottom
        # hold one in the class, and str hashes differ from process to process
        text = "p(1) :- not q, (r ; -s(a)).\nq.\nr :- true.\n:- q, false."
        head = "import pickle, sys; from tightlp import parse_program; "
        dump = head + "print(pickle.dumps(parse_program(%r)).hex())" % text
        load = head + (
            "prog = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "fresh = parse_program(%r); "
            "print(all(r in prog.rule_set for r in fresh.rules), fresh.universe == prog.universe)"
        ) % text
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = ""
        for seed, code in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", code], input=out, env=env,
                capture_output=True, text=True, check=True,
            ).stdout
        assert out == "True True\n"

    def test_nodes_are_values(self):
        # each node built twice apart: equal, hashed alike, and never assigned
        def build():
            a, q = Atom("p", (1, "x")), Literal(Atom("q"))
            lit = Literal(a, True)
            return [
                (a, "predicate", "q"),
                (lit, "negated", False),
                (Not(lit), "operand", q),
                (And(lit, q), "parts", (q, lit)),
                (Or(q, lit, TRUE), "parts", (q, lit)),
                (Rule(q, Not(lit)), "head", None),
                (Top(), "_hash", 0),
                (Bottom(), "_hash", 0),
            ]

        for (node, field, value), (other, _, _) in zip(build(), build()):
            assert node is not other and node == other and hash(node) == hash(other)
            assert not node != other
            for change in (
                lambda: setattr(node, field, value),
                lambda: delattr(node, field),
                lambda: setattr(node, "extra", value),
            ):
                with pytest.raises(AttributeError):
                    change()
            assert node == other
        lq, lp = Literal(Atom("q")), Literal(Atom("p"))
        assert Atom("p", (1, "x")) != Atom("p", (1, "y")) and Atom("p") != lp
        assert And(lq, lp) != Or(lq, lp) and Not(lq) != Not(lp) and lp != complement(lp)
        assert Rule(lq) != Rule(lp) and Rule(lq) != Rule(lq, lp) and Rule(None) != lq
        assert [repr(node) for node, _, _ in build()] == [
            "Atom(predicate='p', args=(1, 'x'))",
            "Literal(atom=Atom(predicate='p', args=(1, 'x')), negated=True)",
            "Not(operand=Literal(atom=Atom(predicate='p', args=(1, 'x')), negated=True))",
            "And(parts=(Literal(atom=Atom(predicate='p', args=(1, 'x')), negated=True), "
            "Literal(atom=Atom(predicate='q', args=()), negated=False)))",
            "Or(parts=(Literal(atom=Atom(predicate='q', args=()), negated=False), "
            "Literal(atom=Atom(predicate='p', args=(1, 'x')), negated=True), Top()))",
            "Rule(head=Literal(atom=Atom(predicate='q', args=()), negated=False), "
            "body=Not(operand=Literal(atom=Atom(predicate='p', args=(1, 'x')), negated=True)))",
            "Top()",
            "Bottom()",
        ]
        # the constants are values of the same kind: any Top is TRUE
        assert Top() == TRUE and hash(Top()) == hash(TRUE) and not Top() != TRUE
        assert Bottom() == FALSE and hash(Bottom()) == hash(FALSE)
        assert Top() != Bottom() and TRUE != FALSE and TRUE != lq and Rule(lq) == Rule(lq, Top())

    def test_atom_renders_with_args(self):
        assert str(Atom("on", ("b1", "table", 0))) == "on(b1,table,0)"
        assert str(Atom("p")) == "p"

    @pytest.mark.parametrize("name", ["P", "1p", "not", "_x", "", "Bad", "p q", " p", "p(1)"])
    def test_bad_predicate_rejected(self, name):
        for _ in range(2):  # names are checked once each, but refused every time
            with pytest.raises(ValueError):
                Atom(name)

    def test_literal_sign(self):
        lit = Literal(Atom("q"), True)
        assert str(lit) == "-q"
        assert complement(lit) == Literal(Atom("q"))
        assert complement(complement(lit)) == lit

    def test_complementary_lits_stay_distinct(self):
        pos, neg = Literal(Atom("q")), Literal(Atom("q"), True)
        assert pos == Literal(Atom("q"))
        assert hash(pos) == hash(Literal(Atom("q")))
        assert pos != neg
        assert len({pos, neg, Literal(Atom("q"))}) == 2

    def test_format_literal_set(self):
        lits = [Literal(Atom("q"), True), Literal(Atom("p"))]
        assert format_literal_set(lits) == "{p, -q}"
        assert format_literal_set([]) == "{}"


class TestParsing:
    def test_fact(self):
        prog = p("p.")
        assert prog.rules == (Rule(Literal(Atom("p")), TRUE),)
        assert prog.rules[0].body == TRUE

    def test_constraint(self):
        prog = p(":- p, q.")
        (rule,) = prog.rules
        assert rule.head is None
        assert rule.body == And(Literal(Atom("p")), Literal(Atom("q")))

    def test_nested_body_structure(self):
        a, b, c = (Literal(Atom(n)) for n in "abc")
        assert body("not (a; not b), c") == And(Not(Or(a, Not(b))), c)
        assert body("not not a") == Not(Not(a))
        assert body("true, false") == And(TRUE, FALSE)

    def test_connectives_associate_left(self):
        a, b, c = (Literal(Atom(n)) for n in "abc")
        assert body("a, b, c") == And(And(a, b), c)
        assert body("a; b; c") == Or(Or(a, b), c)

    def test_a_list_is_one_node(self):
        a, b, c = (Literal(Atom(n)) for n in "abc")
        assert And(And(a, b), c) == And(a, b, c)
        assert And(And(a, b), c).parts == (a, b, c)
        assert body("a; b; c").parts == (a, b, c)
        assert body("(a, b), c") == And(a, b, c)
        with pytest.raises(TypeError):
            Or(a)

    def test_a_later_part_stays_nested(self):
        a, b, c = (Literal(Atom(n)) for n in "abc")
        right = And(a, And(b, c))
        assert right.parts == (a, And(b, c))
        assert right != And(a, b, c)
        assert str(right) == "a, (b, c)"
        assert body("a, (b, c)") == right

    def test_classical_negation_in_head_and_body(self):
        prog = p("-q :- not p.")
        (rule,) = prog.rules
        assert rule.head == Literal(Atom("q"), True)
        assert rule.body == Not(Literal(Atom("p")))

    def test_choice_expands_to_double_negation(self):
        prog = p("{a}.")
        lit = Literal(Atom("a"))
        assert prog.rules == (Rule(lit, Not(Not(lit))),)
        assert render(prog) == "a :- not not a."

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{-a}.", "classical negation"),
            ("{a, b}.", "single atom"),
            ("{a} :- b.", "cannot have a body"),
            ("1 {a} 2.", "weight constraints"),
        ],
    )
    def test_choice_restrictions(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            p(text)

    def test_universe_declaration(self):
        prog = p("#universe p, -q.\np :- not q.")
        assert prog.declared == {Literal(Atom("p")), Literal(Atom("q"), True)}
        assert prog.universe == {
            Literal(Atom("p")),
            Literal(Atom("q")),
            Literal(Atom("q"), True),
        }

    def test_comments_and_blank_lines(self):
        prog = p("% header\np. % trailing\n\nq :- p.\n")
        assert len(prog.rules) == 2

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            p("p :- .")
        assert str(info.value) == "line 1, column 6: expected an atom, found '.'"
        assert (info.value.line, info.value.column) == (1, 6)

    def test_error_on_variables(self):
        with pytest.raises(ParseError, match="variables are not supported"):
            p("p(X).")

    @pytest.mark.parametrize("text", ["é.", "p(²).", "p(٣)."])
    def test_non_ascii_is_an_unexpected_character(self, text):
        with pytest.raises(ParseError, match="unexpected character") as info:
            p(text)
        assert "identifiers start" not in str(info.value)

    def test_error_on_unterminated_rule(self):
        with pytest.raises(ParseError, match="end of input"):
            p("p :- not")

    def test_arity_warning_once(self):
        with pytest.warns(ArityWarning, match="arities 1 and 2"):
            p("p(1). p(1,2). p(1,2,3).")

    def test_parse_literals_forms(self):
        expect = frozenset({Literal(Atom("p")), Literal(Atom("q"), True)})
        assert parse_literals("p, -q") == expect
        assert parse_literals("{p, -q}") == expect
        assert parse_literals("{}") == frozenset()
        assert parse_literals("") == frozenset()
        with pytest.raises(ParseError):
            parse_literals("p q")


def lits_of(prog: Program) -> list[Literal]:
    """Every ``Literal`` occurrence in the rule bodies."""
    out = []
    stack = [r.body for r in prog.rules]
    while stack:
        f = stack.pop()
        if isinstance(f, Literal):
            out.append(f)
        stack.extend([f.operand] if isinstance(f, Not) else getattr(f, "parts", ()))
    return out


# What the parser makes of atoms and of bad atoms, as rendered text or error.
PINNED_RESULTS = [
    ("p(a(b)).", "line 1, column 4: expected ')', found '('"),
    ("p(1,a(b)).", "line 1, column 6: expected ')', found '('"),
    ("p( a(b)).", "line 1, column 5: expected ')', found '('"),
    ("p(not).", "line 1, column 3: expected a term, found 'not'"),
    ("not(1).", "line 1, column 1: expected an atom, found 'not'"),
    ("true(1).", "line 1, column 1: expected an atom, found 'true'"),
    ("p(1)(2).", "line 1, column 5: expected ':-', found '('"),
    ("p(1)q(2).", "line 1, column 5: expected ':-', found 'q'"),
    ("p(-1).", "line 1, column 3: expected a term, found '-'"),
    ("q :- p(1,true).", "line 1, column 10: expected a term, found 'true'"),
    ("p(1,).", "line 1, column 5: expected a term, found ')'"),
    ("p(1,2", "line 1, column 6: expected ')', found 'end of input'"),
    ("p( 1 ,2 ).", "p(1,2)."),
    ("p(007,x) :- not q(1,2).", "p(7,x) :- not q(1,2)."),
]
PINNED_LIST_ERRORS = [
    ("{p(a(b))}", "line 1, column 5: expected ')', found '('"),
    ("p(1), q(2) r(3)", "line 1, column 12: unexpected 'r' after literal list"),
]


class TestAtomTokens:
    """A ground atom without spaces is read as one token; any other shape is
    read token by token, with the same result and the same errors."""

    def test_same_program_as_token_by_token(self):
        rng = random.Random(8)
        args = {"a": "(1,x)", "b": "(007)", "c": "(y,2,zZ_9)", "d": "(nothing,trues)"}
        for _ in range(300):
            text = render(random_program(rng, n_atoms=5, classical=True, depth=3))
            text = re.sub(r"\b[a-d]\b", lambda m: m.group() + args[m.group()], text)
            spaced = text.replace("(", "( ").replace(",", ", ")
            assert parse_program(text) == parse_program(spaced), text

    def test_generated_programs_read_back(self):
        prog = merge_programs(
            queens_program(QueensSpec(4)),
            blocksworld_program(BlocksSpec(("b1", "b2"), 1)),
            def_rules(DefSpec((1, 2))),
        )
        text = render(prog)
        assert parse_program(text) == prog
        assert parse_program(text.replace("(", "( ")) == prog

    def test_equal_atoms_and_literals_are_one_object(self):
        prog = p(
            "#universe p(1,2), -q(1).\n"
            "q(1) :- p(1,2), p( 1, 2 ), not p(01,2), -q(1); r.\n"
            "-q(1) :- not not r, p(1,2).\n{p(1,2)}.\nr :- -q(1), r."
        )
        lits = lits_of(prog)
        literals = [*prog.declared, *(r.head for r in prog.rules if r.head), *lits]
        for objects in (lits, literals, [l.atom for l in literals]):
            for x in objects:
                assert all(x is y for y in objects if x == y), x
        x = parse_literals("p(1,2), -q(1), p(1, 2), p(1,2), -q(1)")
        assert len(x) == 2
        assert len({id(l.atom) for l in x}) == 2

    def test_a_head_and_its_body_occurrences_are_one_object(self):
        (rule,) = p("p :- p, not p.").rules
        assert rule.head is rule.body.parts[0] is rule.body.parts[1].operand
        (choice,) = p("{p}.").rules
        assert choice.head is choice.body.operand.operand

    def test_an_atom_token_read_again_is_the_same_object(self):
        with pytest.warns(ArityWarning):
            r1, r2, r3 = p(
                "p(1,2) :- p(1,2), not p(1,2), q.\n"
                "q :- p( 1,2 ), -p(1,2), not -p(1,2), p(1,2).\n"
                "-p(1,2) :- not p(1,2), q, q (1)."
            ).rules
        pos, neg = r1.body.parts[0], r2.body.parts[1]
        assert pos == Literal(Atom("p", (1, 2)))
        assert neg == Literal(Atom("p", (1, 2)), True)
        for lit in (r1.body.parts[1].operand, r2.body.parts[0], r2.body.parts[3], r3.body.parts[0].operand):
            assert lit is pos
        assert r2.body.parts[2].operand is neg
        assert r1.head is pos and r3.head is neg
        assert neg.atom is pos.atom
        # a name without arguments is one object too, and not the atom q(1)
        q, q1 = r3.body.parts[1:]
        assert q is r1.body.parts[2] is r2.head
        assert q1 == Literal(Atom("q", (1,)))

    def test_equal_parts_are_one_object_in_random_programs(self):
        rng = random.Random(14)
        args = {"a": "(1,x)", "b": "(7)", "c": "", "d": "(y,20,z)", "e": ""}
        name = lambda atom: atom + args[atom]
        for _ in range(300):
            prog = random_program(rng, n_atoms=5, classical=True, depth=3)
            picked = [l for l in sorted(prog.universe, key=literal_key) if rng.random() < 0.3]
            choices = rng.sample("abcde", rng.randint(0, 2))
            text = "".join(
                ["#universe %s.\n" % ", ".join(map(str, picked))] * bool(picked)
                + [render(prog) + "\n"]
                + ["{%s}.\n" % c for c in choices]
            )
            text = re.sub(r"\b[a-e]\b", lambda m: name(m.group()), text)
            negated_first = ":- %s.\n" % ", ".join("-" + name(c) for c in rng.sample("abcde", 3))
            plain = parse_program(text)
            for variant in (
                text,
                text.replace("(", "( ").replace(",", ", ").replace(")", " )"),
                re.sub(r"\b([0-9]+)\b", r"00\1", text),
                negated_first + text,
            ):
                parsed = parse_program(variant)
                assert parsed.universe == Program(parsed.rules, parsed.declared).universe
                assert parsed.rules[-len(plain.rules) :] == plain.rules, variant
                assert parsed.declared == plain.declared
                lits = lits_of(parsed)
                literals = [*parsed.declared, *(r.head for r in parsed.rules if r.head)]
                literals += lits
                for objects in (lits, literals, [l.atom for l in literals]):
                    first = {}
                    assert all(first.setdefault(x, x) is x for x in objects), variant

    def test_a_literal_list_with_repeats_gives_one_object_per_value(self):
        rng = random.Random(15)
        pool = ["p(1,x)", "p( 1, x )", "p(01,x)", "-p(1,x)", "- p(1,x)", "q", "-q", "q(1)", "q( 1 )", "-q (1)"]
        for _ in range(300):
            picked = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ArityWarning)
                x = parse_literals(", ".join(picked))
            assert x == {l for s in picked for l in parse_literals(s)}
            atoms = [l.atom for l in x]
            assert len({id(a) for a in atoms}) == len(set(atoms))

    @pytest.mark.parametrize("text, expected", PINNED_RESULTS)
    def test_results_are_pinned(self, text, expected):
        try:
            got = render(parse_program(text))
        except ParseError as e:
            got = str(e)
        assert got == expected

    def test_literal_list_errors_are_pinned(self):
        for text, expected in PINNED_LIST_ERRORS:
            with pytest.raises(ParseError) as e:
                parse_literals(text)
            assert str(e.value) == expected


class TestSharedLiterals:
    """Parses take the literals that one token names from one bounded table,
    so later parses meet the objects that earlier ones built; all else is
    per parse, as if every parse were the first."""

    def test_two_parses_share_their_one_token_literals(self):
        _token_literal.cache_clear()
        (first,) = p("p(1,2) :- q, not -r(x).").rules
        second, fact = p("s :- -r(x), p(1,2). q.").rules
        neg, pos = second.body.parts
        assert pos is first.head and neg is first.body.parts[1].operand
        assert fact.head is first.body.parts[0]
        # a spelling over several tokens is this parse's own
        spaced = p("s :- p( 1, 2 ).").rules[0].body
        assert spaced == pos and spaced is not pos

    def test_parse_literals_returns_the_programs_own_objects(self):
        _token_literal.cache_clear()
        prog = p("{p(1,2)}. tc(1,2) :- p(1,2). -q :- not tc(1,2).")
        own = {l: l for l in prog.universe}
        x = parse_literals("{p(1,2), tc(1,2), -q}")
        assert x == set(own) and all(own[l] is l for l in x)

    @pytest.mark.parametrize("cold", [True, False])
    def test_arity_warnings_are_per_parse(self, cold):
        mixed = "q :- p(1).\np(1,2) :- q."
        message = r"^predicate 'p' used with arities 1 and 2 \(line 2\)$"
        if cold:
            _token_literal.cache_clear()
        for _ in range(2):  # the second parse meets every literal in the table
            with pytest.warns(ArityWarning, match=message):
                p(mixed)
            with pytest.warns(ArityWarning, match="arities 2 and 1"):
                parse_literals("p(1,2), -p(1)")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ArityWarning)
            p("p(1,2). q :- p(1,2), -p(1,2).")
            p("p(1) :- not p(1).")
            parse_literals("p(1), -p(1)")

    def test_pinned_results_hold_with_the_table_warm(self):
        # enter every ground atom that the texts spell, and its contrary
        for text, _ in PINNED_RESULTS + PINNED_LIST_ERRORS:
            for atom in re.findall(r"[a-z]\w*(?:\([\w,]*\))?", text):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ArityWarning)
                    try:
                        parse_literals("%s, -%s" % (atom, atom))
                    except ParseError:
                        pass
        for text, expected in PINNED_RESULTS:
            TestAtomTokens.test_results_are_pinned(self, text, expected)
        TestAtomTokens.test_literal_list_errors_are_pinned(self)

    def test_one_object_per_value_past_the_table_size(self):
        size = _token_literal.cache_info().maxsize
        _token_literal.cache_clear()
        # p(1,2) enters the table before its contrary, then goes out first
        parse_literals("-p(1,2)")
        parse_literals(", ".join("f(%d)" % i for i in range(size - 1)))
        assert _token_literal("-p(1,2)").atom is not _token_literal("p(1,2)").atom
        for text in ("q :- p(1,2), -p(1,2).", "q :- p( 1, 2 ), -p(1,2), p(1,2)."):
            (rule,) = p(text).rules
            lits = rule.body.parts
            assert lits[0].atom is lits[1].atom and all(l is lits[0] for l in lits[2:])

    def test_one_object_per_value_in_a_parse_that_overflows_the_table(self):
        size = _token_literal.cache_info().maxsize
        rng = random.Random(32)
        names = ["p(%d,%d)" % (i, i % 7) for i in range(size + size // 2)]
        spellings = lambda a: (a, "-" + a, "- " + a, a.replace("(", "( ").replace(",", " , "))
        for _ in range(3):
            picked = [rng.choice(spellings(a)) for a in names for _ in range(rng.randint(1, 3))]
            rng.shuffle(picked)
            (rule,) = p("q :- %s." % ", ".join(picked)).rules
            lits = rule.body.parts
            for objects in (lits, [l.atom for l in lits]):
                first = {}
                assert all(first.setdefault(x, x) is x for x in objects)

    def test_results_do_not_depend_on_the_parse_order(self):
        rng = random.Random(33)
        args = {"a": "(1,x)", "b": "(7)", "c": "", "d": "(y,20,z)", "e": ""}

        def text():
            t = render(random_program(rng, n_atoms=5, classical=True, depth=3))
            t = re.sub(r"\b[a-e]\b", lambda m: m.group() + args[m.group()], t)
            # another arity for b at one occurrence, in some programs
            return re.sub(r"\bb\(7\)", "b", t, count=1) if rng.random() < 0.3 else t

        def results(texts):
            _token_literal.cache_clear()
            out = {}
            for t in texts:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    prog = parse_program(t)
                out[t] = (render(prog), prog.universe, [str(w.message) for w in caught])
            return out

        for _ in range(100):
            pair = [text(), text()]
            assert results(pair) == results(pair[::-1])


class TestInputEdges:
    """Where the end of the input is, and which error or warning comes first."""

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("p :- q % c", 1, 8),  # input that ends in a comment ends where it starts
            ("p :- q % c\n", 2, 1),
            ("p :- q   ", 1, 10),
            ("p :- q\r\n% c", 2, 1),
        ],
    )
    def test_end_of_input(self, text, line, column):
        with pytest.raises(ParseError) as e:
            parse_program(text)
        assert str(e.value) == f"line {line}, column {column}: expected '.', found 'end of input'"

    @pytest.mark.parametrize("text", ["", "% only", " \n", "% a\n% b\n"])
    def test_empty_inputs(self, text):
        assert parse_program(text) == Program()
        assert parse_literals(text) == frozenset()

    def test_a_bad_character_comes_before_any_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match="^line 1, column 10: unexpected character 'X' "):
                parse_program("p. p(1). X.")
        assert caught == []

    def test_a_grammar_error_comes_after_the_warnings_before_it(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match=r"^line 1, column 13: expected an atom, found '\.'$"):
                parse_program("p. p(1). :- .")
        assert [type(w.message) for w in caught] == [ArityWarning]


class TestRendering:
    CANONICAL = [
        "p.",
        ":- p, q.",
        "p :- not not p.",
        "p :- q, r; s.",
        "p :- not (q; r), s.",
        "p :- q, (r, s).",
        "p :- q; (r; s).",
        "p :- true, q.",
        "p :- false.",
        "-q :- not p, -r.",
        "#universe p, -q.\np :- q.",
        "on(b1,table,0) :- not -on(b1,table,0).",
    ]

    @pytest.mark.parametrize("text", CANONICAL)
    def test_round_trip(self, text):
        assert render(p(text)) == text

    def test_parentheses_only_where_needed(self):
        assert render_rule(p("p :- (q, r); s.").rules[0]) == "p :- q, r; s."
        assert render_rule(p("p :- q, (r; s).").rules[0]) == "p :- q, (r; s)."

    def test_random_programs_round_trip(self):
        rng = random.Random(20)
        for _ in range(60):
            prog = random_program(rng, classical=rng.random() < 0.5, depth=3)
            assert same_program(parse_program(render(prog)), prog)


# Pieces that reach every token kind and every error the parser reports; a
# piece may also be any single ASCII character.
TEXT_PIECES = (
    "p", "q", "r1", "aB_9", "not", "true", "false", "1", "42", "007",
    ":-", ":", ".", ",", ";", "(", ")", "-", "{", "}",
    "#universe", "#", "#nope", " ", "\t", "\n", "\r\n", "% c\n", "% end",
    "X", "_", "a(1)", "b(2,c)", "c(x,3)",
)


def random_text(rng: random.Random, seed_text: str) -> str:
    """A rendered program or set with a few random edits, or loose pieces."""
    if rng.random() < 0.3:
        return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randint(0, 12)))
    text = seed_text
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(text))
        piece = rng.choice(TEXT_PIECES) if rng.random() < 0.7 else chr(rng.randrange(128))
        cut = rng.randint(0, 2)
        text = text[:i] + piece + text[i + cut :]
    return text


def front_end_trace(parse, seed_texts, rng) -> str:
    """What the parser makes of each text: the rendered result or the
    exception, followed by any warning texts."""
    lines = []
    for seed_text in seed_texts:
        text = random_text(rng, seed_text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                lines.append(parse(text))
            except Exception as e:  # the digest pins the type and message
                lines.append("%s: %s" % (type(e).__name__, e))
        lines.extend("warning: %s" % w.message for w in caught)
    return "\n".join(lines)


class TestFrontEndDigest:
    # Any drift in what the parser accepts, renders or reports on ASCII text
    # changes these digests.
    def test_parse_program_is_pinned(self):
        rng = random.Random(6)
        seeds = []
        for _ in range(2000):
            text = render(random_program(rng, classical=True, depth=3))
            # give one occurrence of b arguments, so that arities can clash
            seeds.append(re.sub(r"\bb\b", "b(1,x)", text, count=1) if rng.random() < 0.3 else text)
        trace = front_end_trace(lambda t: render(parse_program(t)), seeds, rng)
        assert hashlib.sha256(trace.encode()).hexdigest() == (
            "5362ea8b49e007a3cd6efb2429cd007b99e76b04fe17eda9037e6993e31787d1"
        )

    def test_parse_literals_is_pinned(self):
        rng = random.Random(7)
        seeds = []
        for _ in range(2000):
            prog = random_program(rng, classical=True)
            picked = [l for l in sorted(prog.universe, key=literal_key) if rng.random() < 0.6]
            braced = rng.random() < 0.5
            seeds.append(format_literal_set(picked) if braced else ", ".join(map(str, picked)))
        trace = front_end_trace(lambda t: format_literal_set(parse_literals(t)), seeds, rng)
        assert hashlib.sha256(trace.encode()).hexdigest() == (
            "b9096b2694c30c55572344d5108235148da3741da9a6f9e92086245d20efb79c"
        )


class TestClassifiers:
    def test_regular_and_positive_literals(self):
        f = body("p, not q, (not not r; -s)")
        lp, lq, lr, ls = (
            Literal(Atom("p")),
            Literal(Atom("q")),
            Literal(Atom("r")),
            Literal(Atom("s"), True),
        )
        assert regular_literals(f) == {lp, lq, lr, ls}
        assert positive_literals(f) == {lp, ls}

    def test_constants_have_no_literals(self):
        assert regular_literals(TRUE) == frozenset()
        assert positive_literals(body("not not false")) == frozenset()

    def test_universe_covers_heads_bodies_and_declared(self):
        prog = p("#universe t.\np :- q.\n:- not r.")
        names = {str(l) for l in prog.universe}
        assert names == {"p", "q", "r", "t"}


class TestClassicalNegationRemoval:
    def test_two_sided_choice_between_contrary_literals(self):
        prog = p("p :- not -q.\n-q :- not p.")
        out, mapping = eliminate_classical_negation(prog)
        assert render(out) == "p :- not q_neg.\nq_neg :- not p.\n:- q, q_neg."
        assert mapping == {Atom("q_neg"): Literal(Atom("q"), True)}
        assert is_normal(out)

    def test_normal_program_is_unchanged(self):
        prog = p("p :- q.\nq.")
        out, mapping = eliminate_classical_negation(prog)
        assert same_program(out, prog)
        assert mapping == {}

    def test_fresh_atom_collision_rejected(self):
        with pytest.raises(ValueError, match="q_neg"):
            eliminate_classical_negation(p("q_neg.\np :- -q."))

    def test_declared_negative_literals_are_mapped(self):
        prog = p("#universe -r.\np.")
        out, mapping = eliminate_classical_negation(prog)
        assert Literal(Atom("r_neg")) in out.declared
        assert mapping[Atom("r_neg")] == Literal(Atom("r"), True)

    def test_answer_sets_survive_the_rewrite(self):
        rng = random.Random(7)
        for _ in range(40):
            prog = random_program(rng, n_atoms=3, max_rules=5, classical=True)
            out, mapping = eliminate_classical_negation(prog)
            got = {
                frozenset(mapping.get(l.atom, l) for l in y)
                for y in enumerate_answer_sets_bruteforce(out)
            }
            expect = set(enumerate_answer_sets_bruteforce(prog))
            assert got == expect

    def test_rules_without_negated_literals_are_kept_as_they_are(self):
        prog = p("p :- q, not (r ; not s).\n-q :- not p.\nr :- not not -q.\n#universe -t.")
        out, _ = eliminate_classical_negation(prog)
        assert out.rules[0] is prog.rules[0]
        assert out.rules[1] is not prog.rules[1] and out.rules[2] is not prog.rules[2]
        assert render(out).splitlines()[1:4] == [
            "p :- q, not (r; not s).",
            "q_neg :- not p.",
            "r :- not not q_neg.",
        ]

    @pytest.mark.parametrize(
        "seed, count, shape",
        [
            (47, 200, dict(n_atoms=4, max_rules=7, depth=3)),
            (61, 300, dict(n_atoms=4, max_rules=8, depth=3, constraint_chance=0.2)),
        ],
    )
    def test_derived_universe_is_the_rewritten_rules_universe(self, seed, count, shape):
        # the sweeps of test_sat, every program with classical negation
        rng = random.Random(seed)
        kept = 0
        for _ in range(count):
            prog = random_program(rng, classical=True, **shape)
            out, _ = eliminate_classical_negation(prog)
            assert out.universe == Program(out.rules, out.declared).universe
            for r, rewritten in zip(prog.rules, out.rules):
                plain = not any(l.negated for l in regular_literals(r.body))
                if plain and (r.head is None or not r.head.negated):
                    assert rewritten is r
                    kept += 1
                else:
                    assert rewritten != r
        assert kept >= 100


def test_merge_programs_concatenates():
    left = p("#universe x.\np.")
    right = p("q :- p.")
    merged = merge_programs(left, right)
    assert merged.rules == left.rules + right.rules
    assert merged.declared == {Literal(Atom("x"))}


def test_consistent_subsets_helper():
    lits = [Literal(Atom("a")), Literal(Atom("a"), True), Literal(Atom("b"))]
    subsets = list(consistent_subsets(lits))
    assert len(subsets) == 6
    assert all(
        not (Literal(Atom("a")) in s and Literal(Atom("a"), True) in s)
        for s in subsets
    )


def test_literal_set_key_orders_by_size_then_atoms():
    small = frozenset({Literal(Atom("z"))})
    big = frozenset({Literal(Atom("a")), Literal(Atom("b"))})
    assert literal_set_key(small) < literal_set_key(big)


def test_sorted_literal_sets_follows_literal_set_key():
    # a family ranked by literal_key position and sorted by ranked_set_key, as
    # solve and enumerate sort their answer sets
    rng = random.Random(41)
    universe = [
        Literal(Atom(name, args), negated)
        for name in ("a", "b")
        for args in ((), (1,), (10,), ("c",), (2, "c"))
        for negated in (False, True)
    ]
    for _ in range(400):
        family = [frozenset()] + [
            frozenset(rng.sample(universe, rng.randint(0, 4)))
            for _ in range(rng.randint(0, 12))
        ]
        rng.shuffle(family)
        literals = sorted(set().union(*family), key=literal_key)
        rank = {l: r for r, l in enumerate(literals)}
        ranks = [tuple(sorted(map(rank.__getitem__, x))) for x in family]
        ranked = sorted(ranks, key=ranked_set_key)
        got = [frozenset(map(literals.__getitem__, r)) for r in ranked]
        assert got == sorted(family, key=literal_set_key)

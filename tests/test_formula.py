"""Parser, printer, desugaring and formula measures."""

import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_full_formula
from nbhdmc.formula import (CORE, FULL, MAX_NESTING, Announce, And, Atom, Bot,
                            Box, Bullet, Circ, Iff, Imp, Not, Or, ParseError,
                            Top, Wrong, atoms_of, children, desugar,
                            has_announcement, modal_depth, parse, pretty,
                            replace_at, subformula_at)
from nbhdmc.search import SplitMix64

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# --- parsing ----------------------------------------------------------------

@pytest.mark.parametrize("text, ast", [
    ("p", P),
    ("true", Top()),
    ("false", Bot()),
    ("U p", Bullet(P)),
    ("O p", Circ(P)),
    ("W p", Wrong(P)),
    ("K p", Box(P)),
    ("! p", Not(P)),
    ("!p", Not(P)),
    ("U U p", Bullet(Bullet(P))),
    ("[U p] ! U p", Announce(Bullet(P), Not(Bullet(P)))),
    ("W p & ! q -> K r", Imp(And(Wrong(P), Not(Q)), Box(R))),
    ("p -> q -> r", Imp(P, Imp(Q, R))),
    ("(p -> q) -> r", Imp(Imp(P, Q), R)),
    ("p <-> q <-> r", Iff(Iff(P, Q), R)),
    ("p | q & r", Or(P, And(Q, R))),
    ("(p | q) & r", And(Or(P, Q), R)),
    ("p & q & r", And(And(P, Q), R)),
    ("U (p & q)", Bullet(And(P, Q))),
    ("[p -> q] U p", Announce(Imp(P, Q), Bullet(P))),
    ("[p] [q] r", Announce(P, Announce(Q, R))),
    ("K [p] q", Box(Announce(P, Q))),
    ("! W p", Not(Wrong(P))),
    ("O p & p -> O (p | q)", Imp(And(Circ(P), P), Circ(Or(P, Q)))),
])
def test_parse(text, ast):
    assert parse(text) == ast


def test_parse_ident_names():
    assert parse("p1_x") == Atom("p1_x")
    assert parse("while_b") == Atom("while_b")


@pytest.mark.parametrize("text, offset", [
    ("", 0),
    ("p &", 3),
    ("(p", 2),
    ("p q", 2),
    ("[p q", 3),
    ("p -> -> q", 5),
    ("p ∧ q", 2),
    ("* p", 0),
])
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_parse_error_expected_sets():
    with pytest.raises(ParseError) as exc:
        parse("(p")
    assert exc.value.expected == frozenset((")",))
    with pytest.raises(ParseError) as exc:
        parse("p q")
    assert exc.value.expected == frozenset(("eof",))
    with pytest.raises(ParseError) as exc:
        parse("p &")
    assert "(" in exc.value.expected and "ident" in exc.value.expected


OPERAND = frozenset(("!", "(", "K", "O", "U", "W", "[", "false", "ident",
                     "true"))
_OPERAND_LIST = "!, (, K, O, U, W, [, false, ident, true"


@pytest.mark.parametrize("text, message, offset, expected", [
    ("", f"unexpected end of input at byte 0; expected one of: {_OPERAND_LIST}",
     0, OPERAND),
    ("p q", "unexpected 'q' at byte 2; expected one of: eof", 2,
     frozenset(("eof",))),
    ("p )", "unexpected ')' at byte 2; expected one of: eof", 2,
     frozenset(("eof",))),
    ("(p", "unexpected end of input at byte 2; expected one of: )", 2,
     frozenset((")",))),
    ("[p", "unexpected end of input at byte 2; expected one of: ]", 2,
     frozenset(("]",))),
    ("[p q] r", "unexpected 'q' at byte 3; expected one of: ]", 3,
     frozenset(("]",))),
    ("[p]", f"unexpected end of input at byte 3; expected one of: {_OPERAND_LIST}",
     3, OPERAND),
    ("p &", f"unexpected end of input at byte 3; expected one of: {_OPERAND_LIST}",
     3, OPERAND),
    ("p ->", f"unexpected end of input at byte 4; expected one of: {_OPERAND_LIST}",
     4, OPERAND),
    ("p <->", f"unexpected end of input at byte 5; expected one of: {_OPERAND_LIST}",
     5, OPERAND),
    ("p -> -> q", f"unexpected '->' at byte 5; expected one of: {_OPERAND_LIST}",
     5, OPERAND),
    ("U", f"unexpected end of input at byte 1; expected one of: {_OPERAND_LIST}",
     1, OPERAND),
    ("p <- q", "unexpected character '<' at byte 2", 2, OPERAND),
    ("-", "unexpected character '-' at byte 0", 0, OPERAND),
    ("A", "unexpected character 'A' at byte 0", 0, OPERAND),
    ("é", "unexpected character 'é' at byte 0", 0, OPERAND),
    ("p ∧ q", "unexpected character '∧' at byte 2", 2, OPERAND),
    ("\u00a0(p", "unexpected end of input at byte 4; expected one of: )", 4,
     frozenset((")",))),
    ("\u3000p q", "unexpected 'q' at byte 5; expected one of: eof", 5,
     frozenset(("eof",))),
])
def test_parse_error_pinned(text, message, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.offset, exc.value.expected) == \
        (message, offset, expected)


def test_parse_error_message_names_byte():
    with pytest.raises(ParseError, match="byte 2"):
        parse("p ∧ q")


# symbols, words, characters no token starts with, and spaces, ASCII or not
_TOKEN_PIECES = ("!", "U", "O", "W", "K", "<->", "->", "|", "&", "(", ")", "[",
                 "]", "p", "q", "true", "false", "p1_x", "truex", "-", "<", "A",
                 "1", "_", "é", "∧", " ", "  ", "\t", "\n", "\u00a0",
                 "\u3000", "")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=30))
def test_token_strings_parse_or_name_their_byte(pieces):
    text = "".join(pieces)
    try:
        f = parse(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text.encode())
        assert f" at byte {exc.offset}" in str(exc)
    else:
        assert parse(pretty(f)) == f


def test_equal_atom_names_share_one_node():
    f = parse("p & (q | p)")
    assert f.left is f.right.right
    assert f.right.left is not f.left


# text nesting k levels, per shape: every operator and every pair of
# parentheses is one level
NESTED = {
    "parentheses": lambda k: "(" * k + "p" + ")" * k,
    "prefix": lambda k: "! " * k + "p",
    "left chain": lambda k: " & ".join(["p"] * (k + 1)),
    "right chain": lambda k: " -> ".join(["p"] * (k + 1)),
    "announcements": lambda k: "[p] " * k + "p",
    "mixed": lambda k: ("(U " * (k // 2) + "p" + ")" * (k // 2)
                        + " | q" * (k % 2)),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_cap(shape):
    f = parse(NESTED[shape](MAX_NESTING))
    assert parse(pretty(f)) == f
    assert pretty(desugar(f))  # the recursive walks keep within the stack
    with pytest.raises(ParseError) as exc:
        parse(NESTED[shape](MAX_NESTING + 1))
    assert str(exc.value).startswith(
        f"formula nests deeper than {MAX_NESTING} levels at byte ")
    assert exc.value.expected == frozenset()


def test_nesting_cap_refuses_deep_text_without_recursing():
    for text in ("(" * 5000 + "p" + ")" * 5000, "! " * 5000 + "p",
                 " & ".join(["p"] * 5000)):
        with pytest.raises(ParseError, match="nests deeper"):
            parse(text)


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("true")
    with pytest.raises(ValueError):
        Atom("false")
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Atom("")


@pytest.mark.parametrize("name", [None, 5, b"p", ("p",)])
def test_atom_refuses_names_that_are_not_strings(name):
    # the same ValueError as a string no formula can mention, not the
    # TypeError of matching a non-string
    with pytest.raises(ValueError, match="bad atom name"):
        Atom(name)


# --- printing ---------------------------------------------------------------

@pytest.mark.parametrize("ast, text", [
    (Imp(Imp(P, Q), R), "(p -> q) -> r"),
    (Imp(P, Imp(Q, R)), "p -> q -> r"),
    (Iff(Iff(P, Q), R), "p <-> q <-> r"),
    (Iff(P, Iff(Q, R)), "p <-> (q <-> r)"),
    (And(Or(P, Q), R), "(p | q) & r"),
    (Or(And(P, Q), R), "p & q | r"),
    (And(And(P, Q), R), "p & q & r"),
    (And(P, And(Q, R)), "p & (q & r)"),
    (Not(And(P, Q)), "! (p & q)"),
    (Bullet(Imp(P, Q)), "U (p -> q)"),
    (Announce(Imp(P, Q), Bullet(P)), "[p -> q] U p"),
    (Announce(P, And(Q, R)), "[p] (q & r)"),
    (Box(Announce(P, Q)), "K [p] q"),
    (Not(Not(P)), "! ! p"),
    (Wrong(Top()), "W true"),
])
def test_pretty(ast, text):
    assert pretty(ast) == text


def test_pretty_golden():
    """pretty(f) and pretty(desugar(f)) for seeded random formulas, one
    line each, tab-separated, as recorded in tests/golden/pretty.txt."""
    rng = SplitMix64(2024)
    lines = []
    for _ in range(300):
        f = random_full_formula(rng, 1 + rng.below(5), rng.below(3))
        lines.append(f"{pretty(f)}\t{pretty(desugar(f))}\n")
    assert "".join(lines) == (Path(__file__).parent / "golden" /
                              "pretty.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("text", [
    "U p -> ! U (U p -> p)",
    "W p -> W (W p -> p)",
    "O p & O q -> O (p & q)",
    "[U p] W p",
    "! (! p & ! q)",
])
def test_pretty_fixed_point(text):
    assert pretty(parse(text)) == text


# --- desugaring -------------------------------------------------------------

@pytest.mark.parametrize("text, core_text", [
    ("false", "! true"),
    ("p | q", "! (! p & ! q)"),
    ("p -> q", "! (p & ! q)"),
    ("p <-> q", "! (p & ! q) & ! (q & ! p)"),
    ("O p", "! U p"),
    ("K p", "! (! W p & ! (! U p & p))"),
    ("[p | q] O r", "[! (! p & ! q)] ! U r"),
])
def test_desugar_core(text, core_text):
    assert pretty(desugar(parse(text))) == core_text


def test_desugar_core_ast():
    assert desugar(Box(P)) == Not(And(Not(Wrong(P)),
                                      Not(And(Not(Bullet(P)), P))))
    assert desugar(Bot()) == Not(Top())
    assert desugar(Circ(P)) == Not(Bullet(P))


def test_desugar_full_is_identity():
    f = parse("K p <-> [p | q] O r")
    assert desugar(f, FULL) is f


def test_desugar_rejects_unknown_target():
    with pytest.raises(ValueError):
        desugar(P, "most")


CORE_TYPES = (Atom, Top, Not, And, Bullet, Wrong, Announce)


def _all_nodes(f):
    yield f
    for c in children(f):
        yield from _all_nodes(c)


# --- measures and node access -----------------------------------------------

def test_modal_depth():
    assert modal_depth(parse("p & q")) == 0
    assert modal_depth(parse("U p")) == 1
    assert modal_depth(parse("U p -> ! U (U p -> p)")) == 2
    assert modal_depth(parse("[U p] W p")) == 2
    assert modal_depth(parse("[p] q")) == 1


def test_atoms_of():
    assert atoms_of(parse("W q & p | r2 -> p")) == ("p", "q", "r2")
    assert atoms_of(Top()) == ()


def test_has_announcement():
    assert has_announcement(parse("K [p] q"))
    assert not has_announcement(parse("K p & W q"))


def test_measures_visit_shared_subtrees_once():
    # desugaring K reads its argument three times, so 40 nested K make a
    # tree of 3^40 paths over a few hundred distinct nodes
    f = desugar(parse("K " * 40 + "p"))
    g = desugar(parse("[q] " + "K " * 40 + "p"))
    for measure, formula, expected in [(atoms_of, f, ("p",)),
                                       (modal_depth, f, 40),
                                       (has_announcement, f, False),
                                       (has_announcement, g, True)]:
        start = time.perf_counter()
        assert measure(formula) == expected, measure
        assert time.perf_counter() - start < 1, measure


def test_node_access():
    f = Announce(Imp(P, Q), Bullet(P))
    assert children(f) == (Imp(P, Q), Bullet(P))
    assert subformula_at(f, (0, 1)) == Q
    assert subformula_at(f, ()) is f
    assert replace_at(f, (1, 0), R) == Announce(Imp(P, Q), Bullet(R))
    assert replace_at(f, (), R) == R


# --- round trips ------------------------------------------------------------

_leaves = st.one_of(
    st.sampled_from(["p", "q", "r"]).map(Atom),
    st.just(Top()), st.just(Bot()))


def _extend(kids):
    return st.one_of(
        st.builds(Not, kids), st.builds(Bullet, kids), st.builds(Circ, kids),
        st.builds(Wrong, kids), st.builds(Box, kids),
        st.builds(And, kids, kids), st.builds(Or, kids, kids),
        st.builds(Imp, kids, kids), st.builds(Iff, kids, kids),
        st.builds(Announce, kids, kids))


formulas = st.recursive(_leaves, _extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_pretty_parse_round_trip(f):
    assert parse(pretty(f)) == f


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_desugar_lands_in_core_and_is_idempotent(f):
    g = desugar(f)
    assert all(isinstance(node, CORE_TYPES) for node in _all_nodes(g))
    assert desugar(g) == g
    assert parse(pretty(g)) == g


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_desugar_preserves_modal_depth_and_atoms(f):
    g = desugar(f)
    assert modal_depth(g) == modal_depth(f)
    assert atoms_of(g) == atoms_of(f)

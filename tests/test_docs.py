"""README agrees with the code on the limits and channels it documents."""

import re
from pathlib import Path

from nbhdmc import cli, search
from nbhdmc.formula import MAX_NESTING, Atom, children, parse
from nbhdmc.model import MAX_STATES
from nbhdmc.semantics import VALUATION_SPACE_CAP

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_state_cap_is_max_states():
    caps = re.findall(r"States are nonempty, at most (\d+)", README)
    assert caps == [str(MAX_STATES)]


def test_readme_nesting_cap_is_max_nesting():
    caps = re.findall(r"A formula nests at most (\d+) levels", README)
    assert caps == [str(MAX_NESTING)]


def test_readme_desugar_cap_is_max_desugared_nodes():
    caps = re.findall(r"subcommand therefore prints at most (\d+)\s+nodes",
                      README)
    assert caps == [str(cli.MAX_DESUGARED_NODES)]


def test_readme_reduce_cap_is_max_desugared_nodes():
    caps = re.findall(r"to the same cap of (\d+)\s+nodes", README)
    assert caps == [str(cli.MAX_DESUGARED_NODES)]


def test_readme_frame_valid_cap_is_valuation_space_cap():
    caps = re.findall(r"when atoms ×\s+states exceeds (\d+)", README)
    assert caps == [str(VALUATION_SPACE_CAP)]


def test_readme_chunk_cap_is_chunk_cap():
    caps = re.findall(r"doubling up to\s+(\d+)|"
                      r"chunks double up to (\d+) lanes", README)
    assert [a or b for a, b in caps] == [str(search._CHUNK_CAP)] * 2


def test_readme_table_lanes_are_table_lanes():
    caps = re.findall(r"Past (\d+) such lanes|more than its (\d+)\s+lanes",
                      README)
    assert [a or b for a, b in caps] == [str(search._TABLE_LANES)] * 3


def test_readme_lists_every_error_channel():
    listing = re.search(r"prefixed by a channel:\n(.*?\.)\n", README, re.S)
    assert listing, "README lost its list of error channels"
    listed = re.findall(r"`error: ([a-z-]+):`", listing.group(1))
    assert sorted(listed) == sorted(channel for _, channel in cli._CHANNELS)


def _grammar_block():
    block = re.search(r"## Formula language\n+```\n(.*?)```", README, re.S)
    assert block, "README lost its formula grammar"
    return block.group(1)


def _binding_order():
    line = re.search(r"Binding strength, tightest first: unary operators, "
                     r"(.*?)\.\n", README)
    assert line, "README lost its binding-strength line"
    return re.findall(r"`([^`]+)`", line.group(1))


def _unary_operators():
    rule = re.search(r"^unary\s*(:=.*?)\n(?=\S)", _grammar_block(), re.S | re.M)
    assert rule, "README lost its unary rule"
    return re.findall(r'(?::=|\|)\s*"([^"]+)"\s+unary', rule.group(1))


def _node(op):
    """The node class the parser builds for binary operator op."""
    return type(parse(f"p {op} q"))


def test_readme_binding_strength_is_the_parsers():
    binary = _binding_order()
    assert binary, "no binary operators listed"
    for u in _unary_operators():
        assert parse(f"{u} p {binary[0]} q") == \
            _node(binary[0])(parse(f"{u} p"), Atom("q")), u
    for tight, loose in zip(binary, binary[1:]):
        assert parse(f"p {loose} q {tight} r") == \
            _node(loose)(Atom("p"), parse(f"q {tight} r")), (tight, loose)
        assert parse(f"p {tight} q {loose} r") == \
            _node(loose)(parse(f"p {tight} q"), Atom("r")), (tight, loose)


def test_readme_associativity_is_the_parsers():
    rules = re.findall(r'\("(\S+)" \w+\)[*?]\s+(left|right) associative',
                       _grammar_block())
    assert sorted(op for op, _ in rules) == sorted(_binding_order())
    for op, side in rules:
        node = _node(op)
        if side == "right":
            want = node(Atom("p"), node(Atom("q"), Atom("r")))
        else:
            want = node(node(Atom("p"), Atom("q")), Atom("r"))
        assert parse(f"p {op} q {op} r") == want, op


def test_readme_unary_operators_take_one_operand():
    ops = _unary_operators()
    assert ops, "no unary operators listed"
    for op in ops:
        assert children(parse(f"{op} p")) == (Atom("p"),), op

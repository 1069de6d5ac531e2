"""Formula syntax: AST nodes, parser, printer, desugaring, modal depth.

The surface syntax (ASCII) is stated only in two tables, _PREFIX and
_INFIX; the tokenizer, the parser and the printer are derived from them.
_PREFIX maps each prefix operator to its node class.  _INFIX lists the
binary operators loosest first, so an entry's index is its binding
level, each with its node class and associativity.  Prefix operators and
the announcement "[psi] phi" bind tighter than every binary operator.
The other operands are "true", "false", identifiers (_ATOM_RE) and
parenthesized formulas.

parse tokenizes with one _TOKEN_RE.findall (after optional whitespace,
a symbol, a word or any other character) and classifies the tokens
through the kind table _KINDS; a character no token starts with is
refused before any parsing.  Tokens carry no positions: only the error
path recomputes the offending token's byte offset, with finditer over
the same regex.

Parsed text nests at most MAX_NESTING levels: every operator and every
pair of parentheses counts one level around its operands.  This bounds
the recursion of the parser and of every walk over a parsed formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

__all__ = [
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Imp", "Iff",
    "Bullet", "Circ", "Wrong", "Box", "Announce",
    "ParseError", "MAX_NESTING", "parse", "pretty", "desugar", "modal_depth",
    "atoms_of", "has_announcement", "children", "subformula_at", "replace_at",
]

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")
MAX_NESTING = 100  # levels of operators and parentheses parse accepts


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not is_atom_name(self.name):
            msg = f"bad atom name: {self.name!r}"
            raise ValueError(msg)


def is_atom_name(name) -> bool:
    """Whether a formula can mention an atom of this name: an identifier
    other than the constants true and false."""
    return (isinstance(name, str) and bool(_ATOM_RE.fullmatch(name))
            and name not in ("true", "false"))


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bullet(Formula):
    """Unknown truth: the child is true here but its extension is no neighborhood."""

    child: Formula


@dataclass(frozen=True)
class Circ(Formula):
    """Dual of Bullet: if the child is true here, its extension is a neighborhood."""

    child: Formula


@dataclass(frozen=True)
class Wrong(Formula):
    """False belief: the child's extension is a neighborhood but the child fails here."""

    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class Announce(Formula):
    announced: Formula
    body: Formula


# The names of each node class's formula fields, in field order.
_KIDS = {cls: tuple(fld.name for fld in fields(cls) if fld.type == "Formula")
         for cls in Formula.__subclasses__()}


def children(f: Formula) -> tuple[Formula, ...]:
    """Formula children of a node, in field order."""
    return tuple([getattr(f, name) for name in _KIDS[type(f)]])


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        f = children(f)[i]
    return f


def replace_at(f: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    """Copy of f with the subformula at path replaced by new."""
    if not path:
        return new
    kids = list(children(f))
    i = path[0]
    kids[i] = replace_at(kids[i], path[1:], new)
    return type(f)(*kids)


# --- parsing ---------------------------------------------------------------

class ParseError(Exception):
    """Malformed formula text.

    offset is the byte offset of the offending token in the UTF-8 input;
    expected is the set of token kinds acceptable at that point.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


_KEYWORDS = {"true": Top, "false": Bot}

# The surface syntax, stated once (see the module docstring).
_PREFIX = {"!": Not, "U": Bullet, "O": Circ, "W": Wrong, "K": Box}
_INFIX = (("<->", Iff, "left"), ("->", Imp, "right"), ("|", Or, "left"),
          ("&", And, "left"))

_UNARY = len(_INFIX)  # binding level of prefix operators and announcements
_ATOMIC = _UNARY + 1
_INFIX_BY_SYMBOL = {sym: (level, cls, assoc == "right")
                    for level, (sym, cls, assoc) in enumerate(_INFIX)}
_INFIX_BY_CLASS = {cls: (level, sym, assoc == "right")
                   for level, (sym, cls, assoc) in enumerate(_INFIX)}
_PREFIX_BY_CLASS = {cls: sym for sym, cls in _PREFIX.items()}
_SYMBOLS = (*_PREFIX, *_INFIX_BY_SYMBOL, "(", ")", "[", "]")
# after optional whitespace: a symbol, a word, or any other character
_TOKEN_RE = re.compile(r"\s*(%s|%s|\S)" % (
    "|".join(map(re.escape, _SYMBOLS)), _ATOM_RE.pattern))
# a token's kind: itself for symbols and keywords, else "ident" for a word
_KINDS = {t: t for t in (*_SYMBOLS, *_KEYWORDS)}
# token kinds that may start an operand
_STARTERS = frozenset((*_PREFIX, "[", "(", "ident", *_KEYWORDS))


def _byte_offset(text: str, i: int) -> int:
    """Byte offset in text's UTF-8 of its token i, or of its end past the
    last token: the error path alone recomputes where tokens start."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]
    return len(text[:starts[i]].encode("utf-8"))


def parse(text: str) -> Formula:
    """Parse surface text into a Formula; raises ParseError on bad input.

    Recursive descent by precedence climbing over the token list: binary
    and unary return (formula, nesting), the levels of operators and
    parentheses in their text, and take `depth`, the levels open around
    them, so text nesting too deep is refused before the recursion
    follows it.  Equal atom names share one Atom node.
    """
    toks = _TOKEN_RE.findall(text)
    kinds = [_KINDS.get(t) or ("ident" if "a" <= t[0] <= "z" else None)
             for t in toks]
    if None in kinds:
        bad = kinds.index(None)
        off = _byte_offset(text, bad)
        msg = f"unexpected character {toks[bad]!r} at byte {off}"
        raise ParseError(msg, off, _STARTERS)
    kinds.append("eof")
    atoms: dict[str, Atom] = {}
    i = 0  # the next token

    def fail(expected: frozenset[str]) -> ParseError:
        off = _byte_offset(text, i)
        what = "end of input" if kinds[i] == "eof" else repr(toks[i])
        opts = ", ".join(sorted(expected))
        msg = f"unexpected {what} at byte {off}; expected one of: {opts}"
        return ParseError(msg, off, expected)

    def too_deep() -> ParseError:
        off = _byte_offset(text, i)
        msg = f"formula nests deeper than {MAX_NESTING} levels at byte {off}"
        return ParseError(msg, off, frozenset())

    def binary(min_level: int, depth: int) -> tuple[Formula, int]:
        """A unary operand followed by infix operators of level min_level
        or tighter."""
        nonlocal i
        if depth > MAX_NESTING:
            raise too_deep()
        f, nesting = unary(depth)
        while kinds[i] in _INFIX_BY_SYMBOL:
            level, cls, right = _INFIX_BY_SYMBOL[kinds[i]]
            if level < min_level:
                break
            i += 1
            g, inner = binary(level if right else level + 1, depth + 1)
            f, nesting = cls(f, g), max(nesting, inner) + 1
            if nesting > MAX_NESTING:
                raise too_deep()
        return f, nesting

    def unary(depth: int) -> tuple[Formula, int]:
        nonlocal i
        if depth > MAX_NESTING:
            raise too_deep()
        kind = kinds[i]
        if kind == "ident":
            name = toks[i]
            i += 1
            return atoms.get(name) or atoms.setdefault(name, Atom(name)), 0
        if kind in _PREFIX:
            i += 1
            f, nesting = unary(depth + 1)
            f, nesting = _PREFIX[kind](f), nesting + 1
        elif kind == "[":
            i += 1
            announced, outer = binary(0, depth + 1)
            if kinds[i] != "]":
                raise fail(frozenset(("]",)))
            i += 1
            body, inner = unary(depth + 1)
            f, nesting = Announce(announced, body), max(outer, inner) + 1
        elif kind == "(":
            i += 1
            f, nesting = binary(0, depth + 1)
            if kinds[i] != ")":
                raise fail(frozenset((")",)))
            i += 1
            nesting += 1
        elif kind in _KEYWORDS:
            i += 1
            return _KEYWORDS[kind](), 0
        else:
            raise fail(_STARTERS)
        if nesting > MAX_NESTING:
            raise too_deep()
        return f, nesting

    f, _ = binary(0, 0)
    if kinds[i] != "eof":
        raise fail(frozenset(("eof",)))
    return f


# --- printing --------------------------------------------------------------

def pretty(f: Formula) -> str:
    """Minimal-parenthesis rendering; round-trips through parse."""
    return _render(f)[0]


def _operand(f: Formula, need: int) -> str:
    text, level = _render(f)
    return f"({text})" if level < need else text


def _render(f: Formula) -> tuple[str, int]:
    """f's text and the binding level of its outermost operator."""
    cls = type(f)
    if cls in _PREFIX_BY_CLASS:
        return f"{_PREFIX_BY_CLASS[cls]} {_operand(f.child, _UNARY)}", _UNARY
    if cls in _INFIX_BY_CLASS:
        level, sym, right = _INFIX_BY_CLASS[cls]
        # an operand of the same level goes bare on the associative side only
        return (f"{_operand(f.left, level + right)} {sym} "
                f"{_operand(f.right, level + (not right))}"), level
    if cls is Announce:
        return f"[{pretty(f.announced)}] {_operand(f.body, _UNARY)}", _UNARY
    if cls is Atom:
        return f.name, _ATOMIC
    if cls is Top:
        return "true", _ATOMIC
    if cls is Bot:
        return "false", _ATOMIC
    msg = f"not a formula: {f!r}"
    raise TypeError(msg)


# --- desugaring ------------------------------------------------------------

CORE = "core"
FULL = "full"


def desugar(f: Formula, target: str = CORE) -> Formula:
    """Rewrite into the target fragment.

    "core" keeps only Atom, Top, Not, And, Bullet, Wrong and Announce:
    Bot becomes ! true, Or/Imp/Iff expand through !,&, O phi becomes
    ! U phi, and K phi becomes the Or-free unfolding of
    W phi | (O phi & phi).  "full" returns the formula unchanged.
    """
    if target == FULL:
        return f
    if target != CORE:
        msg = f"unknown desugar target: {target!r}"
        raise ValueError(msg)
    return _core(f)


def _core(f: Formula) -> Formula:
    if isinstance(f, (Atom, Top)):
        return f
    if isinstance(f, Bot):
        return Not(Top())
    if isinstance(f, Not):
        return Not(_core(f.child))
    if isinstance(f, And):
        return And(_core(f.left), _core(f.right))
    if isinstance(f, Or):
        return Not(And(Not(_core(f.left)), Not(_core(f.right))))
    if isinstance(f, Imp):
        return Not(And(_core(f.left), Not(_core(f.right))))
    if isinstance(f, Iff):
        left, right = _core(f.left), _core(f.right)
        return And(Not(And(left, Not(right))), Not(And(right, Not(left))))
    if isinstance(f, Bullet):
        return Bullet(_core(f.child))
    if isinstance(f, Circ):
        return Not(Bullet(_core(f.child)))
    if isinstance(f, Wrong):
        return Wrong(_core(f.child))
    if isinstance(f, Box):
        c = _core(f.child)
        return Not(And(Not(Wrong(c)), Not(And(Not(Bullet(c)), c))))
    if isinstance(f, Announce):
        return Announce(_core(f.announced), _core(f.body))
    msg = f"not a formula: {f!r}"
    raise TypeError(msg)


# --- measures --------------------------------------------------------------

_MODAL = (Bullet, Circ, Wrong, Box, Announce)


def _distinct_nodes(f: Formula, found=None) -> dict[int, Formula]:
    """The distinct nodes of f by id, each after its children, so shared
    subtrees (as desugaring makes) are visited once."""
    found = {} if found is None else found
    if id(f) not in found:
        for c in children(f):
            _distinct_nodes(c, found)
        found[id(f)] = f
    return found


def modal_depth(f: Formula) -> int:
    """Nesting depth of U/O/W/K/announcement operators."""
    depth: dict[int, int] = {}
    for key, g in _distinct_nodes(f).items():
        depth[key] = (max((depth[id(c)] for c in children(g)), default=0)
                      + isinstance(g, _MODAL))
    return depth[id(f)]


def atoms_of(f: Formula) -> tuple[str, ...]:
    """Sorted atom names occurring in f."""
    return tuple(sorted({g.name for g in _distinct_nodes(f).values()
                         if isinstance(g, Atom)}))


def has_announcement(f: Formula) -> bool:
    return any(isinstance(g, Announce) for g in _distinct_nodes(f).values())

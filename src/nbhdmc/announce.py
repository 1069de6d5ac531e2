"""Rewrite announcements away using the reduction axioms, with a step trace.

Axiom table, writing a for the announced formula:

    AP   [a] p        ==>  a -> p           (p an atom)
    AN   [a] ! b      ==>  a -> ! [a] b
    AC   [a] (b & c)  ==>  [a] b & [a] c
    AA   [a] [b] c    ==>  [a & [a] b] c
    AU   [a] U b      ==>  a -> U [a] b
    AW   [a] W b      ==>  a -> W [a] b
    AT   [a] true     ==>  true             (derived convention)
    AB   [a] false    ==>  a -> false       (derived convention)

Inputs must stay inside the core fragment (atoms, constants, !, &, U,
W, announcements); K, O, |, ->, <-> must be desugared away first.  The
rewriting always fires on the outermost, leftmost announcement, so
directly nested announcements go through AA before their bodies are
touched.  Each trace step records the whole formula before and after,
which makes the printed trace replay textbook derivations line by line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (And, Announce, Atom, Bot, Box, Bullet, Circ, Formula,
                      Iff, Imp, Not, Or, Top, Wrong, children, pretty,
                      replace_at, subformula_at)

__all__ = ["ReductionInputError", "ReductionStep", "reduce", "format_trace",
           "replay"]


class ReductionInputError(ValueError):
    """Input outside the reducible fragment."""


@dataclass(frozen=True)
class ReductionStep:
    axiom: str
    path: tuple[int, ...]
    before: Formula
    after: Formula


def _check_fragment(f: Formula) -> None:
    if isinstance(f, (Box, Circ, Or, Imp, Iff)):
        msg = (f"cannot reduce through {type(f).__name__}; "
               "desugar to the core fragment first")
        raise ReductionInputError(msg)
    for c in children(f):
        _check_fragment(c)


def _find_announce(f: Formula, prefix: tuple[int, ...] = ()):
    """Path of the outermost leftmost announcement, or None."""
    if isinstance(f, Announce):
        return prefix
    for i, c in enumerate(children(f)):
        found = _find_announce(c, prefix + (i,))
        if found is not None:
            return found
    return None


def _apply_axiom(node: Announce) -> tuple[str, Formula]:
    a, body = node.announced, node.body
    if isinstance(body, Atom):
        return "AP", Imp(a, body)
    if isinstance(body, Top):
        return "AT", Top()
    if isinstance(body, Bot):
        return "AB", Imp(a, Bot())
    if isinstance(body, Not):
        return "AN", Imp(a, Not(Announce(a, body.child)))
    if isinstance(body, And):
        return "AC", And(Announce(a, body.left), Announce(a, body.right))
    if isinstance(body, Announce):
        return "AA", Announce(And(a, Announce(a, body.announced)), body.body)
    if isinstance(body, Bullet):
        return "AU", Imp(a, Bullet(Announce(a, body.child)))
    if isinstance(body, Wrong):
        return "AW", Imp(a, Wrong(Announce(a, body.child)))
    msg = f"no reduction axiom for announcement body {type(body).__name__}"
    raise ReductionInputError(msg)


def reduce(f: Formula) -> tuple[Formula, tuple[ReductionStep, ...]]:
    """Announcement-free equivalent of f plus the rewrite trace."""
    steps = tuple(_steps(f))
    return (steps[-1].after if steps else f), steps


def _steps(f: Formula):
    """The steps of reduce's trace, each yielded once it is made, so a
    caller can stop the rewriting at any step."""
    _check_fragment(f)
    cur = f
    while (path := _find_announce(cur)) is not None:
        axiom, replacement = _apply_axiom(subformula_at(cur, path))
        nxt = replace_at(cur, path, replacement)
        yield ReductionStep(axiom, path, cur, nxt)
        cur = nxt


def _path_str(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "root"


def format_trace(steps: tuple[ReductionStep, ...]) -> str:
    """Numbered lines: k. <axiom> @ <position>: <before> ==> <after>."""
    return "\n".join(
        f"{k}. {st.axiom} @ {_path_str(st.path)}: "
        f"{pretty(st.before)} ==> {pretty(st.after)}"
        for k, st in enumerate(steps, start=1))


def replay(f: Formula, steps: tuple[ReductionStep, ...]) -> Formula:
    """Re-apply a recorded trace to f, verifying every step."""
    cur = f
    for k, st in enumerate(steps, start=1):
        if cur != st.before:
            msg = f"step {k}: formula does not match the recorded 'before'"
            raise ValueError(msg)
        node = subformula_at(cur, st.path)
        if not isinstance(node, Announce):
            msg = f"step {k}: no announcement at path {_path_str(st.path)}"
            raise ValueError(msg)
        axiom, replacement = _apply_axiom(node)
        if axiom != st.axiom:
            msg = f"step {k}: axiom {st.axiom} recorded, {axiom} applies"
            raise ValueError(msg)
        cur = replace_at(cur, st.path, replacement)
        if cur != st.after:
            msg = f"step {k}: result does not match the recorded 'after'"
            raise ValueError(msg)
    return cur

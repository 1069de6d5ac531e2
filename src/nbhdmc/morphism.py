"""Morphism checks between finite neighborhood models, plus invariance replay.

A state map is checked against one of two biconditional conditions,
quantified over every subset X of the source universe:

    bullet kind:  s in X and X not in N(s)
                  iff  f(s) in f[X] and f[X] not in N'(f(s))
    wrong kind:   X in N(s) and s not in X
                  iff  f[X] in N'(f(s)) and f(s) not in f[X]

together with atom agreement: s in V(p) iff f(s) in V'(p) for every
atom named in either valuation.  Witnesses are reported in canonical
order: states by index, then subsets by bit-vector value, then atoms
lexicographically (at each state the subset scan runs before the atom
scan).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Bullet, Formula, Wrong
from .model import NeighborhoodModel, StateSet, _members
from .semantics import extension

__all__ = ["FRAGMENTS", "StateMap", "check_bullet_morphism",
           "check_w_morphism", "verify_invariance"]


@dataclass(frozen=True)
class StateMap:
    """A total function between the state spaces of two models."""

    source: NeighborhoodModel
    target: NeighborhoodModel
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.source.size:
            msg = (f"mapping covers {len(self.mapping)} states, source has "
                   f"{self.source.size}")
            raise ValueError(msg)
        for s, t in enumerate(self.mapping):
            if not 0 <= t < self.target.size:
                msg = f"image of state {s} is {t}, outside the target"
                raise ValueError(msg)
        object.__setattr__(self, "mapping", tuple(self.mapping))

    @classmethod
    def from_names(cls, source: NeighborhoodModel, target: NeighborhoodModel,
                   pairs: dict[str, str]) -> StateMap:
        mapping = []
        for s in source.states:
            if s not in pairs:
                msg = f"map gives no image for state {s!r}"
                raise ValueError(msg)
            mapping.append(target.frame.index(pairs[s]))
        unknown = set(pairs) - set(source.states)
        if unknown:
            msg = f"map names states outside the source: {sorted(unknown)}"
            raise ValueError(msg)
        return cls(source, target, tuple(mapping))

    def image_mask(self, mask: int) -> int:
        return sum({1 << self.mapping[s] for s in _members(mask)})


def _atom_names(sm: StateMap) -> tuple[str, ...]:
    names = {name for name, _ in sm.source.valuation}
    names.update(name for name, _ in sm.target.valuation)
    return tuple(sorted(names))


def _check(sm: StateMap, kind: str):
    n = sm.source.size
    src_codes = sm.source.frame.family_codes()
    tgt_codes = sm.target.frame.family_codes()
    atoms = _atom_names(sm)
    images = [0]  # images[x] is f[x]; state s doubles the list with f(s) added
    for t in sm.mapping:
        images += [im | 1 << t for im in images]
    for s in range(n):
        fs = sm.mapping[s]
        code, tgt = src_codes[s], tgt_codes[fs]
        for x in range(1 << n):
            fx = images[x]
            if kind == "bullet":
                lhs = x >> s & 1 and not code >> x & 1
                rhs = fx >> fs & 1 and not tgt >> fx & 1
            else:
                lhs = code >> x & 1 and not x >> s & 1
                rhs = tgt >> fx & 1 and not fx >> fs & 1
            if lhs != rhs:
                return False, (s, StateSet(n, x))
        for atom in atoms:
            here = sm.source.atom_extension(atom).contains(s)
            there = sm.target.atom_extension(atom).contains(fs)
            if here != there:
                return False, (s, atom)
    return True, None


def check_bullet_morphism(sm: StateMap):
    """(ok, witness): ok iff the bullet condition and atom agreement hold."""
    return _check(sm, "bullet")


def check_w_morphism(sm: StateMap):
    """(ok, witness): ok iff the wrong condition and atom agreement hold."""
    return _check(sm, "wrong")


# kind -> (CLI short name, modality, morphism check) of each fragment
FRAGMENTS = {"bullet": ("bullet", Bullet, check_bullet_morphism),
             "wrong": ("w", Wrong, check_w_morphism)}


def verify_invariance(sm: StateMap, kind: str,
                      formulas: list[Formula]) -> list[tuple[Formula, int]]:
    """Replay truth preservation along a checked morphism.

    Requires the morphism check of the given kind to pass; returns every
    (formula, source-state) pair whose truth differs between the source
    state and its image.  A nonempty report indicates a bug, since
    checked morphisms preserve truth of their fragment.
    """
    if kind not in FRAGMENTS:
        msg = f"kind must be {' or '.join(map(repr, FRAGMENTS))}, got {kind!r}"
        raise ValueError(msg)
    ok, witness = FRAGMENTS[kind][2](sm)
    if not ok:
        msg = f"{kind} morphism check fails at witness {witness!r}"
        raise ValueError(msg)
    report = []
    for f in formulas:
        src = extension(sm.source, f)
        tgt = extension(sm.target, f)
        for s in range(sm.source.size):
            if src.contains(s) != tgt.contains(sm.mapping[s]):
                report.append((f, s))
    return report

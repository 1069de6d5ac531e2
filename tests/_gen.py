"""Deterministic random test-case generators.

All draws go through SplitMix64 so every sweep in the suite replays
byte-for-byte on any platform.
"""

from __future__ import annotations

from nbhdmc.formula import (Announce, And, Box, Bullet, Circ, Iff, Imp, Not,
                            Or, Wrong, parse)
from nbhdmc.model import NeighborhoodModel, model_from_json, supplementation
from nbhdmc.search import SplitMix64

STATE_NAMES = ("s", "t", "u", "v", "w", "x")

# frame classes the differential sweeps cover
CLASSES = ((), ("m",), ("c",), ("n",), ("r",), ("neg-suppl",), ("m", "c"),
           ("m", "n"), ("c", "n", "r"))


def random_model_doc(rng: SplitMix64, n: int, atoms=("p", "q")) -> dict:
    """Random n-state JSON model document (arbitrary frame class)."""
    states = list(STATE_NAMES[:n])
    subsets = [[states[i] for i in range(n) if mask >> i & 1]
               for mask in range(1 << n)]
    nbhd = {}
    for s in states:
        code = rng.below(1 << (1 << n))
        nbhd[s] = [subsets[m] for m in range(1 << n) if code >> m & 1]
    val = {}
    for a in atoms:
        mask = rng.below(1 << n)
        val[a] = [states[i] for i in range(n) if mask >> i & 1]
    return {"states": states, "neighborhoods": nbhd, "valuation": val}


def random_model(rng: SplitMix64, n: int, atoms=("p", "q")) -> NeighborhoodModel:
    return model_from_json(random_model_doc(rng, n, atoms))


def random_monotone_model(rng: SplitMix64, n: int,
                          atoms=("p", "q")) -> NeighborhoodModel:
    """Random n-state model whose frame is closed under supersets."""
    return supplementation(random_model(rng, n, atoms))


_LEAVES = ("p", "q", "true")


def random_formula(rng: SplitMix64, depth: int, announce_budget: int = 0):
    """Random core-fragment formula: atoms, true, !, &, U, W, [.]."""
    if depth <= 0:
        return parse(_LEAVES[rng.below(len(_LEAVES))])
    top = 5 + (1 if announce_budget > 0 else 0)
    pick = rng.below(top)
    if pick == 0:
        return parse(_LEAVES[rng.below(len(_LEAVES))])
    if pick == 1:
        return Not(random_formula(rng, depth - 1, announce_budget))
    if pick == 2:
        return And(random_formula(rng, depth - 1, announce_budget),
                   random_formula(rng, depth - 1, announce_budget))
    if pick == 3:
        return Bullet(random_formula(rng, depth - 1, announce_budget))
    if pick == 4:
        return Wrong(random_formula(rng, depth - 1, announce_budget))
    return Announce(random_formula(rng, depth - 1, announce_budget - 1),
                    random_formula(rng, depth - 1, announce_budget - 1))


def random_announcement_formula(rng: SplitMix64, depth: int = 3,
                                announce_budget: int = 2):
    """Like random_formula but guaranteed to contain an announcement."""
    body = random_formula(rng, depth - 1, announce_budget - 1)
    announced = random_formula(rng, depth - 1, announce_budget - 1)
    f = Announce(announced, body)
    if rng.below(2):
        f = Not(f)
    return f


_FULL_LEAVES = ("p", "q", "true", "false")
_FULL_UNARY = (Not, Bullet, Circ, Wrong, Box)
_FULL_BINARY = (And, Or, Imp, Iff)


def random_full_formula(rng: SplitMix64, depth: int, announce_budget: int = 0):
    """Random formula over the whole language: atoms, true, false, all
    connectives, U, O, W, K and (within the budget) announcements."""
    if depth <= 0:
        return parse(_FULL_LEAVES[rng.below(len(_FULL_LEAVES))])
    pick = rng.below(4 if announce_budget > 0 else 3)
    if pick == 0:
        return parse(_FULL_LEAVES[rng.below(len(_FULL_LEAVES))])
    if pick == 1:
        op = _FULL_UNARY[rng.below(len(_FULL_UNARY))]
        return op(random_full_formula(rng, depth - 1, announce_budget))
    if pick == 2:
        op = _FULL_BINARY[rng.below(len(_FULL_BINARY))]
        return op(random_full_formula(rng, depth - 1, announce_budget),
                  random_full_formula(rng, depth - 1, announce_budget))
    return Announce(random_full_formula(rng, depth - 1, announce_budget - 1),
                    random_full_formula(rng, depth - 1, announce_budget - 1))


def _random_static_formula(rng: SplitMix64, depth: int):
    """Random formula of atoms, constants and Boolean connectives."""
    if depth <= 0 or rng.below(3) == 0:
        return parse(_FULL_LEAVES[rng.below(len(_FULL_LEAVES))])
    if rng.below(3) == 0:
        return Not(_random_static_formula(rng, depth - 1))
    op = _FULL_BINARY[rng.below(len(_FULL_BINARY))]
    return op(_random_static_formula(rng, depth - 1),
              _random_static_formula(rng, depth - 1))


def random_local_formula(rng: SplitMix64, depth: int, announce: bool = False):
    """Random depth-1 formula: Boolean combinations of atoms, constants and
    U, O, W, K over modal-free arguments, and, when announce is set,
    announcements of modal-free formulas around such combinations."""
    pick = rng.below(6) if depth > 0 else 0
    if pick == 0:
        return parse(_FULL_LEAVES[rng.below(len(_FULL_LEAVES))])
    if pick <= 2:
        op = _FULL_UNARY[1 + rng.below(len(_FULL_UNARY) - 1)]
        return op(_random_static_formula(rng, 2))
    if pick == 3:
        return Not(random_local_formula(rng, depth - 1, announce))
    if pick == 4 and announce:
        return Announce(_random_static_formula(rng, 1),
                        random_local_formula(rng, depth - 1, announce))
    op = _FULL_BINARY[rng.below(len(_FULL_BINARY))]
    return op(random_local_formula(rng, depth - 1, announce),
              random_local_formula(rng, depth - 1, announce))

"""Deterministic random test-case generators.

All draws go through SplitMix64 so every sweep in the suite replays
byte-for-byte on any platform.
"""

from __future__ import annotations

from copy import deepcopy

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


def random_pmap_doc(rng: SplitMix64, states) -> dict:
    """Random perturbation-map document over the state names, its sets
    drawn among those that keep its kind legal at each state, or among
    all sets (rarely legal)."""
    n = len(states)
    kind = ("bullet", "wrong")[rng.below(2)]
    legal = rng.below(2)
    fams = {}
    for i, s in enumerate(states):
        masks = [m for m in range(1 << n)
                 if not legal or (m >> i & 1) == (kind == "wrong")]
        fams[s] = [[states[j] for j in range(n) if m >> j & 1]
                   for m in masks if rng.below(3) == 0]
    return {"kind": kind, "sign": ("add", "remove")[rng.below(2)],
            "families": fams}


# what a broken document puts in place of a part of a good one: values
# of every JSON type, state names known, unknown, empty, non-ASCII and
# repeated, sets listed twice, and atom names no formula can mention
_JUNK = (None, 0, 7, True, 1.5, "", "s", "t", "x", "\u00e9", "P", "true", "p",
         [], {}, [[]], [""], ["s"], ["t", "s"], ["x"], ["s", "s"], [["s"]],
         [["s", "s"], ["s"]], [[], []], [None], [[None]], [{"a": 1}],
         {"s": []}, {"x": []}, {"a": 1})
_KEYS = ("states", "neighborhoods", "valuation", "kind", "sign", "families",
         "points", "s", "t", "x", "", "\u00e9", "p", "P", "true")


def _parts(node, out: list) -> list:
    """(container, key) for every part of the JSON value node, depth
    first, appended to out."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        out.append((node, key))
        _parts(value, out)
    return out


def _renamed(node, old: str, new: str):
    """The JSON value node with every string old, key or value, made new."""
    if isinstance(node, dict):
        return {new if k == old else k: _renamed(v, old, new)
                for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


def broken_doc(rng: SplitMix64, doc):
    """A copy of the JSON document doc after one to three random edits,
    each at a random part: replace it by junk, delete it, list it twice,
    wrap it in an array or add a key or item beside it; or rename a
    state throughout, to an empty, non-ASCII, quote, backslash or newline
    name, or grow the states past 16; or replace the whole document by
    junk."""
    doc = deepcopy(doc)
    for _ in range(1 + rng.below(3)):
        parts = _parts(doc, [])
        if not parts or rng.below(40) == 0:
            return deepcopy(_JUNK[rng.below(len(_JUNK))])
        node, key = parts[rng.below(len(parts))]
        junk = deepcopy(_JUNK[rng.below(len(_JUNK))])
        edit = rng.below(6)
        if edit == 0:
            node[key] = junk
        elif edit == 1:
            del node[key]
        elif edit == 2 and isinstance(node, list):
            node.insert(key, deepcopy(node[key]))
        elif edit == 3:
            node[key] = [node[key]]
        elif edit == 5 and isinstance(doc, dict) \
                and isinstance(doc.get("states"), list) and doc["states"]:
            if rng.below(4):
                old = doc["states"][rng.below(len(doc["states"]))]
                doc = _renamed(doc, old, ("", "\u00e9", '"', "\\", "\n")[
                    rng.below(5)])
            else:
                doc["states"] += [f"w{i}" for i in range(17)]
        elif isinstance(node, list):
            node.append(junk)
        else:
            node[_KEYS[rng.below(len(_KEYS))]] = junk
    return doc


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

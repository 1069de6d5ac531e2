"""Independent reference implementations used as test oracles.

Everything here works on the JSON model shape with name-keyed Python
sets and direct recursion, deliberately avoiding the package's bitmask
and memoization machinery, so a bug on either side shows up as a
disagreement instead of being mirrored.
"""

from __future__ import annotations

from itertools import combinations

from nbhdmc.formula import (Announce, And, Atom, Bot, Box, Bullet, Circ, Iff,
                            Imp, Not, Or, Top, Wrong)


def load(doc):
    """JSON model document -> (states, neighborhoods, valuation)."""
    states = list(doc["states"])
    nbhd = {s: {frozenset(xs) for xs in doc["neighborhoods"][s]}
            for s in states}
    val = {a: frozenset(xs) for a, xs in doc.get("valuation", {}).items()}
    return states, nbhd, val


def holds(doc, state, f) -> bool:
    states, nbhd, val = load(doc)
    return _holds(states, nbhd, val, state, f)


def ext(doc, f) -> frozenset:
    states, nbhd, val = load(doc)
    return frozenset(s for s in states if _holds(states, nbhd, val, s, f))


def _ext(states, nbhd, val, f) -> frozenset:
    return frozenset(s for s in states if _holds(states, nbhd, val, s, f))


def _holds(states, nbhd, val, s, f) -> bool:
    if isinstance(f, Atom):
        return s in val.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _holds(states, nbhd, val, s, f.child)
    if isinstance(f, And):
        return _holds(states, nbhd, val, s, f.left) and \
            _holds(states, nbhd, val, s, f.right)
    if isinstance(f, Or):
        return _holds(states, nbhd, val, s, f.left) or \
            _holds(states, nbhd, val, s, f.right)
    if isinstance(f, Imp):
        return (not _holds(states, nbhd, val, s, f.left)) or \
            _holds(states, nbhd, val, s, f.right)
    if isinstance(f, Iff):
        return _holds(states, nbhd, val, s, f.left) == \
            _holds(states, nbhd, val, s, f.right)
    if isinstance(f, Bullet):
        return _holds(states, nbhd, val, s, f.child) and \
            _ext(states, nbhd, val, f.child) not in nbhd[s]
    if isinstance(f, Circ):
        return (not _holds(states, nbhd, val, s, f.child)) or \
            _ext(states, nbhd, val, f.child) in nbhd[s]
    if isinstance(f, Wrong):
        return _ext(states, nbhd, val, f.child) in nbhd[s] and \
            not _holds(states, nbhd, val, s, f.child)
    if isinstance(f, Box):
        return _ext(states, nbhd, val, f.child) in nbhd[s]
    if isinstance(f, Announce):
        if not _holds(states, nbhd, val, s, f.announced):
            return True
        kept = _ext(states, nbhd, val, f.announced)
        sub_states = [x for x in states if x in kept]
        sub_nbhd = {x: {p & kept for p in nbhd[x]} for x in sub_states}
        sub_val = {a: v & kept for a, v in val.items()}
        return _holds(sub_states, sub_nbhd, sub_val, s, f.body)
    msg = f"not a formula: {f!r}"
    raise TypeError(msg)


def restrict(doc, names) -> dict:
    """JSON model document of the submodel on the named states: each
    kept neighborhood P becomes P & names, and so does each atom."""
    states, nbhd, val = load(doc)
    kept = frozenset(names)
    order = [s for s in states if s in kept]

    def listed(xs):
        return [s for s in order if s in xs]

    return {"states": order,
            "neighborhoods": {s: [listed(q) for q in {p & kept
                                                      for p in nbhd[s]}]
                              for s in order},
            "valuation": {a: listed(v & kept) for a, v in val.items()}}


def _powerset(states):
    items = list(states)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


def check_prop(doc, prop: str) -> bool:
    """Frame property by the literal set-theoretic definition."""
    states, nbhd, _ = load(doc)
    universe = frozenset(states)
    subsets = _powerset(states)
    if prop == "filter":
        return all(check_prop(doc, p) for p in ("m", "c", "n"))
    for s in states:
        fam = nbhd[s]
        if prop == "m":
            for x in fam:
                for y in subsets:
                    if x <= y and y not in fam:
                        return False
        elif prop == "c":
            for x in fam:
                for y in fam:
                    if x & y not in fam:
                        return False
        elif prop == "n":
            if universe not in fam:
                return False
        elif prop == "r":
            core = universe
            for x in fam:
                core = core & x
            if core not in fam:
                return False
        elif prop == "neg-suppl":
            for x in fam:
                for y in subsets:
                    if x <= y and s not in y and y not in fam:
                        return False
        else:
            msg = f"unknown property: {prop}"
            raise ValueError(msg)
    return True


def supplement_families(doc) -> dict:
    """Superset closure computed by direct subset tests.

    Returns {state: set of frozensets of state names}.
    """
    states, nbhd, _ = load(doc)
    subsets = _powerset(states)
    return {s: {y for y in subsets if any(x <= y for x in nbhd[s])}
            for s in states}


def families(doc) -> dict:
    """{state: set of frozensets} view of a JSON model document."""
    _, nbhd, _ = load(doc)
    return nbhd

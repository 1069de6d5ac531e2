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


def perturb_families(doc, pdoc) -> dict:
    """{state: set of frozensets} after adding ("add") or removing the
    perturbation document's per-state sets, by set union or difference."""
    states, nbhd, _ = load(doc)
    delta = {s: {frozenset(xs) for xs in pdoc["families"].get(s, [])}
             for s in states}
    if pdoc["sign"] == "add":
        return {s: nbhd[s] | delta[s] for s in states}
    return {s: nbhd[s] - delta[s] for s in states}


def closure_families(doc) -> dict:
    """{state: set of frozensets} of the transitive closure: every round
    adds, to each N(w), the set {z | X in N(z)} for each X in N(w), read
    off the previous round, until nothing changes."""
    states, nbhd, _ = load(doc)
    fams = {s: set(nbhd[s]) for s in states}
    while True:
        new = {w: fams[w] | {frozenset(z for z in states if x in fams[z])
                             for x in fams[w]}
               for w in states}
        if new == fams:
            return fams
        fams = new


def _subsets_by_mask(states):
    """Subsets of the listed states in bit-vector order, the first state
    being the low bit."""
    for mask in range(1 << len(states)):
        yield frozenset(s for i, s in enumerate(states) if mask >> i & 1)


def morphism(source, target, mapping, kind: str):
    """(ok, witness) of the bullet or wrong condition plus atom agreement
    along the map {source state: target state}, by the definitions.  The
    witness is the first failure, (state, frozenset) or (state, atom):
    states in order, at each state the subsets by bit-vector value, then
    the atoms by name."""
    states, nbhd, val = load(source)
    _, tnbhd, tval = load(target)
    atoms = sorted(set(val) | set(tval))
    for s in states:
        fs = mapping[s]
        for x in _subsets_by_mask(states):
            fx = frozenset(mapping[y] for y in x)
            if kind == "bullet":
                lhs = s in x and x not in nbhd[s]
                rhs = fs in fx and fx not in tnbhd[fs]
            else:
                lhs = x in nbhd[s] and s not in x
                rhs = fx in tnbhd[fs] and fs not in fx
            if lhs != rhs:
                return False, (s, x)
        for a in atoms:
            if (s in val.get(a, ())) != (fs in tval.get(a, ())):
                return False, (s, a)
    return True, None


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

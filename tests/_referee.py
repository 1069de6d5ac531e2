"""Referees for the one-step emptiness question and the fragment closure.

search._some_code_fails asks whether some family code allowed at a
state fails a local program there.  It answers from one kernel pass over
read patterns, on one valuation per orbit of the state renamings,
matched against the class's code columns.  The referee uses none of
that: every code allowed at some state takes its own lane, a frame
giving every state that code, and the program runs on those lanes once
per valuation, valuation by valuation, on the frames' own neighborhood
tables.  A mistake on either side shows up as a disagreement.

search._representatives grows the fragment closure one modal depth per
round and offers each pair of representatives once.  Two referees check
it.  `_representatives` below is the closure it replaced, kept as it
was: it offers every pair in every round, tracks each representative's
least known depth and loops until a round changes nothing, so it fixes
the order of discovery.  `signature_closure` fixes the set alone: it
closes the atom signatures under the operators' set definitions, on
signature tuples, with no formula or kernel node built.

model.model_from_json and model.pmap_from_json map the state names to
bits once per document and build the model without checking it again.
`model_from_json` and `pmap_from_json` below are the decoders they
replaced, kept as they were: they look each name up in a dict of
positions, test for duplicate sets with a set of masks, and build the
model through its checking constructor.  They fix which documents are
accepted, which exception and message a broken one raises, and which
check fires first.
"""

from __future__ import annotations

from itertools import product

from nbhdmc.formula import (And, Atom, Box, Bullet, Circ, Not, Top, Wrong,
                            is_atom_name)
from nbhdmc.model import (MAX_STATES, ModelFormatError, NeighborhoodModel,
                          PerturbationError, PerturbationMap, StateSet,
                          frame_from_codes)
from nbhdmc.search import allowed_family_codes
from nbhdmc.semantics import _Closure, _exec, _Frame


def failing_code_masks(prog, n: int, props) -> list[int]:
    """Per state s, the mask over allowed_family_codes(n, props, s) of
    the codes at which the local program prog fails at s under some
    valuation of its atoms."""
    props = frozenset(props)
    allowed = [allowed_family_codes(n, props, s) for s in range(n)]
    codes = sorted(set().union(*allowed))
    lanes = _Frame(n, [code for code in codes for _ in range(n)])
    failing = 0
    for masks in product(range(1 << n), repeat=len(prog.atoms)):
        vals = [0] * prog.size
        _exec(prog.code, vals, [mask * lanes.rep for mask in masks], lanes,
              lanes.V, lanes.ALL)
        failing |= lanes.ALL ^ vals[prog.root]
    first = {code: lane * n for lane, code in enumerate(codes)}
    return [sum((failing >> first[code] + s & 1) << i
                for i, code in enumerate(options))
            for s, options in enumerate(allowed)]


def _representatives(models, atoms, operators, max_depth: int):
    """The closure of fragment_representatives, yielding the
    representatives in order as they are appended: at the latest at the
    end of the row of conjunctions, or the sweep of modal operators,
    that found them.  Representatives are only appended, and a formula
    once kept never changes, so what is yielded is final, and a consumer
    may stop at any point."""
    if max_depth < 0:
        msg = f"depth must be at least 0, got {max_depth}"
        raise ValueError(msg)
    names = tuple(sorted(set(atoms)))
    closure = _Closure(models, names)
    reps: list[list] = []  # [formula, signature, best known depth, slot]
    index: dict[tuple, int] = {}
    emitted = 0

    def offer(node, depth: int, make, *parts) -> bool:
        slot, sig = node
        pos = index.get(sig)
        if pos is None:
            index[sig] = len(reps)
            reps.append([make(*parts), sig, depth, slot])
            return True
        if depth < reps[pos][2]:
            reps[pos][2] = depth
            return True
        return False

    def fresh():
        nonlocal emitted
        for f, sig, _, _ in reps[emitted:]:
            yield f, sig
        emitted = len(reps)

    for name in names:
        offer(closure.atom(name), 0, Atom, name)
    if not names:  # the constants are reached from an atom, else from true
        offer(closure.node(Top), 0, Top)
    yield from fresh()
    changed = True
    while changed:
        changed = False
        for f, _, d, a in reps:  # the loops reach rows appended in them
            if offer(closure.node(Not, a), d, Not, f):
                changed = True
            for g, _, dg, b in reps:
                if offer(closure.node(And, a, b), max(d, dg), And, f, g):
                    changed = True
            yield from fresh()
        for pos in range(len(reps)):
            f, _, d, a = reps[pos]
            if d < max_depth:
                for op in operators:
                    if offer(closure.node(op, a), d + 1, op, f):
                        changed = True
        yield from fresh()


def _known(codes, x: int, n: int) -> int:
    """The states of an n-state model at which X is a neighborhood, X
    given by its mask x and the model by its family codes."""
    return sum(1 << s for s in range(n) if codes[s] >> x & 1)


# each operator's extension from its argument's extension x, the full
# mask and the extension of K x; U x = x & ! K x, W x = K x & ! x and
# O x = x -> K x
_SETWISE = {Box: lambda x, full, k: k,
            Bullet: lambda x, full, k: x & ~k,
            Wrong: lambda x, full, k: k & ~x,
            Circ: lambda x, full, k: (full ^ x) | k}


def signature_closure(models, atoms, operators, max_depth: int) -> set:
    """The joint signatures of the formulas built from the atoms, or
    from true where there are none, with negation, conjunction and the
    operators nested at most max_depth deep: closed under negation and
    conjunction at each depth, then one more level of operators."""
    sizes = [m.size for m in models]
    fulls = [(1 << n) - 1 for n in sizes]
    codes = [m.frame.family_codes() for m in models]
    if atoms:
        found = {tuple(m.atom_extension(a).bits for m in models)
                 for a in atoms}
    else:
        found = {tuple(fulls)}
    for depth in range(max_depth + 1):
        while True:  # the Boolean closure of found
            grown = {tuple(f ^ x for f, x in zip(fulls, sig)) for sig in found}
            grown |= {tuple(x & y for x, y in zip(s, t))
                      for s in found for t in found}
            if grown <= found:
                break
            found |= grown
        if depth < max_depth:
            found |= {tuple(_SETWISE[op](x, full, _known(c, x, n))
                            for x, full, c, n in zip(sig, fulls, codes, sizes))
                      for sig in found for op in operators}
    return found


def _names_to_mask(index: dict[str, int], names, where: str) -> int:
    """The mask of the named states; index maps each state name to its
    position."""
    bits = 0
    if not isinstance(names, list):
        msg = f"{where}: expected an array of state names"
        raise ModelFormatError(msg)
    for name in names:
        if not isinstance(name, str) or name not in index:
            msg = f"{where}: unknown state name {name!r}"
            raise ModelFormatError(msg)
        bits |= 1 << index[name]
    return bits


def _families_from_json(data: dict, key: str, index: dict[str, int]):
    """Yield (state, member masks) for data[key], state by state (index
    maps each state name to its position), so a caller's per-state check
    fires before the next state's entries are decoded."""
    fam_data = data.get(key, {})
    if not isinstance(fam_data, dict):
        msg = f"'{key}' must be an object"
        raise ModelFormatError(msg)
    for name in fam_data:
        if name not in index:
            msg = f"{key}: unknown state name {name!r}"
            raise ModelFormatError(msg)
    for s in index:
        entries = fam_data.get(s, [])
        if not isinstance(entries, list):
            msg = f"{key} of {s!r} must be an array of arrays"
            raise ModelFormatError(msg)
        yield s, [_names_to_mask(index, e, f"{key} of {s!r}") for e in entries]


def model_from_json(data) -> NeighborhoodModel:
    """Decode the wire format; rejects unknown names and duplicate sets."""
    if not isinstance(data, dict):
        raise ModelFormatError("model JSON must be an object")
    extra = set(data) - {"states", "neighborhoods", "valuation"}
    if extra:
        msg = f"unknown model keys: {sorted(extra)}"
        raise ModelFormatError(msg)
    states = data.get("states")
    if (not isinstance(states, list) or not states
            or any(not isinstance(s, str) for s in states)):
        raise ModelFormatError("'states' must be a nonempty array of names")
    if len(set(states)) != len(states):
        raise ModelFormatError("duplicate state names")
    if len(states) > MAX_STATES:
        msg = f"at most {MAX_STATES} states supported, got {len(states)}"
        raise ModelFormatError(msg)
    states = tuple(states)
    index = {s: i for i, s in enumerate(states)}
    codes = []
    for s, masks in _families_from_json(data, "neighborhoods", index):
        if len(set(masks)) != len(masks):
            msg = f"duplicate neighborhood set at state {s!r}"
            raise ModelFormatError(msg)
        codes.append(sum(1 << x for x in masks))
    val_data = data.get("valuation", {})
    if not isinstance(val_data, dict):
        raise ModelFormatError("'valuation' must be an object")
    valuation = {}
    for atom, names in val_data.items():
        if not is_atom_name(atom):
            msg = f"bad atom name in valuation: {atom!r}"
            raise ModelFormatError(msg)
        valuation[atom] = StateSet(
            len(index), _names_to_mask(index, names, f"valuation of {atom!r}"))
    try:
        return NeighborhoodModel(frame_from_codes(states, codes), valuation)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def pmap_from_json(data, states: tuple[str, ...]) -> PerturbationMap:
    """Decode {"kind": .., "sign": .., "families": {state: [[names]...]}}."""
    if not isinstance(data, dict):
        raise ModelFormatError("perturbation JSON must be an object")
    extra = set(data) - {"kind", "sign", "families"}
    if extra:
        msg = f"unknown perturbation keys: {sorted(extra)}"
        raise ModelFormatError(msg)
    index = {s: i for i, s in enumerate(states)}
    fams = tuple(tuple(StateSet(len(index), x) for x in masks)
                 for _, masks in _families_from_json(data, "families", index))
    try:
        return PerturbationMap(data.get("kind", ""), data.get("sign", ""), fams)
    except PerturbationError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

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
"""

from __future__ import annotations

from itertools import product

from nbhdmc.formula import And, Atom, Box, Bullet, Circ, Not, Top, Wrong
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

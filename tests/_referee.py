"""A per-code referee for the one-step emptiness question.

search._some_code_fails asks whether some family code allowed at a
state fails a local program there.  It answers from one kernel pass over
read patterns, on one valuation per orbit of the state renamings,
matched against the class's code columns.  The referee uses none of
that: every code allowed at some state takes its own lane, a frame
giving every state that code, and the program runs on those lanes once
per valuation, valuation by valuation, on the frames' own neighborhood
tables.  A mistake on either side shows up as a disagreement.
"""

from __future__ import annotations

from itertools import product

from nbhdmc.search import allowed_family_codes
from nbhdmc.semantics import _exec, _Frame


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

"""Shipped model reconstructions and the replay suite behind `paper-suite`.

The suite (ROWS) is a table of rows (claim, check, *arguments), each
replayed as check(*arguments); rows of one shape share a check.  The
row keys are the source material's result numbers, kept verbatim so a
reader can line each row up with the claim it replays; everything else
here is stated operationally.  Where the source fixes a model only
partially, the builders fill the remaining freedom and the rows verify
every stated constraint, so the fixtures are reconstructions rather
than copies.
"""

from __future__ import annotations

from itertools import product

from .announce import reduce as reduce_announcements
from .formula import Atom, Wrong, parse, pretty
from .model import (NeighborhoodFrame, NeighborhoodModel, PerturbationMap,
                    PointedModel, StateSet, _lacking, check_property,
                    intersection_submodel, perturb, supplementation,
                    transitive_closure)
from .morphism import FRAGMENTS, StateMap, check_w_morphism, verify_invariance
from .search import (ClassSpec, Countermodel, NoCounterexampleUpTo,
                     distinguish, enumerate_frames, find_countermodel,
                     fragment_representatives)
from .semantics import evaluate, extension, frame_valid

__all__ = [
    "moore_model", "pair_w_separation", "pair_bullet_separation",
    "frame_pair_intersection_core", "frame_pair_monotone",
    "frame_pair_unit", "frame_pair_w_intersection_core", "tc_model",
    "AXIOM_ROWS", "ROWS", "run_row", "run_suite",
]


def _model(states, families, valuation=None) -> NeighborhoodModel:
    n = len(states)
    frame = NeighborhoodFrame(
        tuple(states),
        tuple(tuple(StateSet.from_indices(n, ixs) for ixs in fam)
              for fam in families))
    val = {a: StateSet.from_indices(n, ixs)
           for a, ixs in (valuation or {}).items()}
    return NeighborhoodModel(frame, val)


def _pmap(kind, sign, n, families) -> PerturbationMap:
    return PerturbationMap(
        kind, sign,
        tuple(tuple(StateSet.from_indices(n, ixs) for ixs in fam)
              for fam in families))


def _identity(src: NeighborhoodModel, tgt: NeighborhoodModel) -> StateMap:
    return StateMap.from_names(src, tgt, {s: s for s in src.states})


def moore_model() -> NeighborhoodModel:
    """One state s, no neighborhoods, p true: the unknown-truth seed."""
    return _model(("s",), ((),), {"p": (0,)})


def pair_w_separation():
    """(base, extended, pmap): W p separates them at s, bullet can't.

    Both states see only the universe; the extension additionally gives
    s the neighborhood {t}, a set avoiding s, so only the W clause
    notices.  p holds exactly at t.
    """
    base = _model(("s", "t"), (((0, 1),), ((0, 1),)), {"p": (1,)})
    pmap = _pmap("bullet", "add", 2, (((1,),), ()))
    return base, perturb(base, pmap), pmap


def pair_bullet_separation():
    """(base, extended, pmap): U p separates them at s, W can't.

    Mirror image of pair_w_separation: the extension gives s the
    neighborhood {s}, a set containing s, visible only to the bullet
    clause.  p holds exactly at s.
    """
    base = _model(("s", "t"), (((0, 1),), ((0, 1),)), {"p": (0,)})
    pmap = _pmap("wrong", "add", 2, (((0,),), ()))
    return base, perturb(base, pmap), pmap


def frame_pair_intersection_core():
    """(base, extended, pmap): adding the empty set creates (c) and (r).

    The base frame has N(s) = {{s},{t}}, N(t) = {}; the bullet-legal
    addition of {} at both states yields a frame with (c) and (r) while
    the base has neither, so neither property is bullet-definable.
    """
    base = _model(("s", "t"), (((0,), (1,)), ()))
    pmap = _pmap("bullet", "add", 2, (((),), ((),)))
    return base, perturb(base, pmap), pmap


def frame_pair_monotone():
    """(base, extended, pmap): adding the empty set destroys (m)."""
    base = _model(("s", "t"), ((), ()))
    pmap = _pmap("bullet", "add", 2, (((),), ()))
    return base, perturb(base, pmap), pmap


def frame_pair_unit():
    """(base, extended, pmap): one state; adding {s} creates (m) and (n).

    The addition contains its state, so it is wrong-legal and invisible
    to the W fragment.
    """
    base = _model(("s",), (((),),))
    pmap = _pmap("wrong", "add", 1, (((0,),),))
    return base, perturb(base, pmap), pmap


def frame_pair_w_intersection_core():
    """(base, extended, pmap): wrong-legal additions destroy (c) and (r)."""
    base = _model(("s", "t"), (((1,), (0, 1)), ((1,), (0, 1))))
    pmap = _pmap("wrong", "add", 2, (((0,),), ((0, 1),)))
    return base, perturb(base, pmap), pmap


def tc_model() -> NeighborhoodModel:
    """N(s) = {{t}} closes to {{t},{s}}: the added set contains s."""
    return _model(("s", "t"), (((1,),), ()), {"p": (1,)})


# --- axiom schemas, instantiated at p, q --------------------------------------

# row id -> (axiom name, schema instance, frame class that makes it valid)
AXIOM_ROWS = {
    "5.6": ("oE", "U p -> p", frozenset()),
    "5.7": ("oC", "O p & O q -> O (p & q)", frozenset({"c"})),
    "5.8": ("oN", "O true", frozenset({"n"})),
    "5.12": ("oM", "O p & p -> O (p | q)", frozenset({"m"})),
    "5.21": ("WE", "W p -> ! p", frozenset()),
    "5.22": ("WC", "W p & W q -> W (p & q)", frozenset({"c"})),
    "5.26": ("WM", "W (p & q) & ! q -> W q", frozenset({"m"})),
    "5.27": ("WM", "W (p & q) & ! q -> W q", frozenset({"neg-suppl"})),
}

THEOREM_SCHEMAS = {
    "5.2": ("U p -> U U p", frozenset({"m"})),
    "5.17": ("W p -> ! W W p", frozenset()),
}


def _all_models(n: int, atoms: tuple[str, ...]):
    for frame in enumerate_frames(n):
        for masks in product(range(1 << n), repeat=len(atoms)):
            yield NeighborhoodModel(
                frame, {a: StateSet(n, m) for a, m in zip(atoms, masks)})


def _no_cex(text: str, properties: frozenset, max_states: int) -> bool:
    verdict = find_countermodel(parse(text), ClassSpec(properties, max_states))
    return isinstance(verdict, NoCounterexampleUpTo)


def _fragment_formulas(models, atoms, operators, depth):
    return [f for f, _ in fragment_representatives(models, atoms, operators,
                                                   depth)]


# --- rows ----------------------------------------------------------------------


def _separation_row(builder, kind: str, other: str, witness: int,
                    summary: str):
    """The kind's modality on p separates the pair at s; the identity is
    an other-morphism and fails the kind's check at (s, {witness})."""
    base, ext, pmap = builder()
    errs = []
    if perturb(base, pmap) != ext:
        errs.append("perturbation does not rebuild the extended model")
    short, modality, check = FRAGMENTS[kind]
    found = distinguish(PointedModel(base, 0), PointedModel(ext, 0), kind, 1)
    if found != modality(Atom("p")):
        errs.append(f"{kind}-fragment distinguisher is "
                    f"{pretty(found) if found else 'missing'}")
    other_short, _, other_check = FRAGMENTS[other]
    ok, _ = other_check(_identity(base, ext))
    if not ok:
        errs.append(f"identity fails the {other_short}-morphism check")
    ok, wit = check(_identity(base, ext))
    if ok or wit != (0, StateSet.from_indices(2, (witness,))):
        errs.append(f"{short}-morphism witness is {wit!r}, "
                    f"wanted (s, {{{base.states[witness]}}})")
    for tag, m in (("base", base), ("extended", ext)):
        missing = [p for p in ("m", "c", "n", "r")
                   if not check_property(m.frame, p)]
        if missing:
            errs.append(f"{tag} model lacks {missing}")
    return not errs, "; ".join(errs) or summary


def _row_3_5():
    texts = ("U p <-> p & ! K p", "W p <-> K p & ! p",
             "O p <-> (p -> K p)", "K p <-> W p | (O p & p)")
    bad = [t for t in texts if not _no_cex(t, frozenset(), 2)]
    return not bad, ("; ".join(f"refuted: {t}" for t in bad) or
                     "4 interdefinability equivalences hold, n <= 2 exhaustive")


def _invariance_row(builders, kind: str, summary: str):
    """Each builder's addition is kind-legal and keeps the identity a kind
    morphism that preserves the kind's fragment; the summary is told the
    additions and the representatives checked."""
    short, modality, check = FRAGMENTS[kind]
    checked = 0
    for builder in builders:
        base, ext, pmap = builder()
        if pmap.kind != kind:
            return False, f"fixture perturbation is not {kind}-legal"
        sm = _identity(base, ext)
        ok, wit = check(sm)
        if not ok:
            return False, f"identity fails the {short} check at {wit!r}"
        formulas = _fragment_formulas((base, ext), ("p",), (modality,), 2)
        if verify_invariance(sm, kind, formulas):
            return False, "truth not preserved under a legal addition"
        checked += len(formulas)
    return True, summary.format(additions=len(builders), checked=checked)


def _frame_pair_row(builder, created: tuple[str, ...], lost: tuple[str, ...],
                    kind: str):
    base, ext, pmap = builder()
    errs = []
    for p in created:
        if check_property(base.frame, p):
            errs.append(f"base already has ({p})")
        if not check_property(ext.frame, p):
            errs.append(f"extension lacks ({p})")
    for p in lost:
        if not check_property(base.frame, p):
            errs.append(f"base lacks ({p})")
        if check_property(ext.frame, p):
            errs.append(f"extension still has ({p})")
    ok, wit = FRAGMENTS[kind][2](_identity(base, ext))
    if not ok:
        errs.append(f"identity fails the {kind} check at {wit!r}")
    if kind == "bullet":
        sample = ("U p", "O p", "U p -> p", "U U p", "U (p & q)",
                  "O p & p -> O (p | q)")
    else:
        sample = ("W p", "W p -> ! p", "W W p", "W (p & q)",
                  "W p & W q -> W (p & q)")
    for text in sample:
        f = parse(text)
        if frame_valid(base.frame, f) != frame_valid(ext.frame, f):
            errs.append(f"frames disagree on validity of {text}")
    moved = ", ".join(created + lost)
    return not errs, "; ".join(errs) or \
        (f"({moved}) changes while the identity stays a {kind} morphism; "
         f"{len(sample)} sampled validities agree across the pair")


def _row_4_7():
    target = parse("O true")
    total = 0
    for n in (1, 2):
        for frame in enumerate_frames(n):
            total += 1
            if frame_valid(frame, target) != check_property(frame, "n"):
                return False, f"disagreement on a {n}-state frame"
    return True, f"O true is valid exactly on the (n)-frames ({total} frames)"


def _row_4_15():
    fixture = tc_model()
    closed = transitive_closure(fixture.frame)
    want = (StateSet.from_indices(2, (0,)), StateSet.from_indices(2, (1,)))
    if closed.family(0) != want or closed.family(1) != ():
        return False, "fixture closure differs from {{s},{t}} at s"
    for frame in enumerate_frames(2):
        tc = transitive_closure(frame)
        if transitive_closure(tc) != tc:
            return False, "closure is not a fixpoint on a 2-state frame"
        for w, (old, new) in enumerate(zip(frame.family_codes(),
                                           tc.family_codes())):
            if new & ~old & _lacking(2)[w]:
                return False, "closure added a set missing its state"
    return True, "every added set contains its state; closure idempotent " \
                 "(fixture + 256 frames)"


def _row_4_16():
    fixture = tc_model()
    count = 0
    for frame in enumerate_frames(2):
        model = NeighborhoodModel(frame, fixture.valuation)
        target = NeighborhoodModel(transitive_closure(frame), model.valuation)
        sm = _identity(model, target)
        ok, wit = check_w_morphism(sm)
        if not ok:
            return False, f"identity into the closure fails at {wit!r}"
        formulas = _fragment_formulas((model, target), ("p",), (Wrong,), 2)
        if verify_invariance(sm, "wrong", formulas):
            return False, "closure changed a W-fragment truth value"
        count += 1
    return True, f"identity into the closure is a w-morphism on {count} frames"


def _axiom_row(row_id: str, refutable: bool = False):
    """The row's axiom has no countermodel over its class; if refutable,
    the unrestricted class has one."""
    name, text, props = AXIOM_ROWS[row_id]
    if not _no_cex(text, props, 2):
        return False, f"{name} refuted over its class"
    detail = f"{name}: {text} has no countermodel, n <= 2 exhaustive"
    if refutable:
        loose = find_countermodel(parse(text), ClassSpec(frozenset(), 2))
        if not isinstance(loose, Countermodel):
            return False, f"{name} unexpectedly valid without the class"
        detail += "; unrestricted class yields a countermodel"
    return True, detail


def _theorem_row(row_id: str):
    text, props = THEOREM_SCHEMAS[row_id]
    ok = _no_cex(text, props, 2)
    return ok, (f"{text} has no countermodel over its class, n <= 2"
                if ok else f"refuted: {text}")


def _row_5_11():
    count = 0
    for frame in enumerate_frames(2):
        model = NeighborhoodModel(frame)
        sup = supplementation(model)
        if not check_property(sup.frame, "m"):
            return False, "supplementation missed (m)"
        if supplementation(sup) != sup:
            return False, "supplementation is not idempotent"
        for p in ("c", "n"):
            if check_property(frame, p) and not check_property(sup.frame, p):
                return False, f"supplementation lost ({p})"
        count += 1
    return True, f"(m) created, (c)/(n) kept, idempotent on {count} frames"


def _row_5_29():
    for n in (1, 2):
        unit = ((tuple(range(n)),),)
        pmap = _pmap("wrong", "add", n, unit * n)
        for frame in enumerate_frames(n):
            model = NeighborhoodModel(frame)
            bumped = perturb(model, pmap)
            if not check_property(bumped.frame, "n"):
                return False, "adding the universe did not create (n)"
            ok, wit = check_w_morphism(_identity(model, bumped))
            if not ok:
                return False, f"identity into the unit-add fails at {wit!r}"
    return True, "adding the universe everywhere creates (n) and is " \
                 "W-invisible (260 frames)"


def _row_6_2():
    checked = 0
    for model in _all_models(2, ("p",)):
        if not check_property(model.frame, "m"):
            continue
        x = extension(model, Atom("p"))
        if x.is_empty():
            continue
        sub = intersection_submodel(model, x)
        if not check_property(sub.frame, "m"):
            return False, "an intersection submodel lost (m)"
        checked += 1
    return True, f"(m) survives intersection on {checked} submodels"


_MOORE_TRACE = (
    ("AN", "U p -> ! [U p] U p"),
    ("AU", "U p -> ! (U p -> U [U p] p)"),
    ("AP", "U p -> ! (U p -> U (U p -> p))"),
)


def _row_6_4():
    errs = []
    moore = moore_model()
    for text in ("U p", "U (U p -> p)"):
        if not evaluate(PointedModel(moore, 0), parse(text)):
            errs.append(f"{text} fails at s on the one-state fixture")
    reduced, steps = reduce_announcements(parse("[U p] ! U p"))
    got = tuple((st.axiom, pretty(st.after)) for st in steps)
    if got != _MOORE_TRACE:
        errs.append("reduction trace differs from the recorded lines")
    target = parse("U p -> ! U (U p -> p)")
    verdict = find_countermodel(target, ClassSpec(frozenset({"m"}), 3))
    if not isinstance(verdict, Countermodel):
        errs.append("no countermodel found for the reduced target")
    elif (verdict.pointed.model != moore or verdict.pointed.point != 0):
        errs.append("canonical countermodel is not the one-state fixture")
    return not errs, "; ".join(errs) or \
        "self-refutation fails over (m): canonical countermodel is the " \
        "one-state fixture"


def _row_6_5():
    reduced, _ = reduce_announcements(parse("[! U p] ! U p"))
    want = "! U p -> ! (! U p -> U (! U p -> p))"
    if pretty(reduced) != want:
        return False, f"reduced form is {pretty(reduced)}"
    if not _no_cex(want, frozenset({"m"}), 3):
        return False, "reduced form refuted over (m)"
    return True, "negated announcement is successful: reduced form has no " \
                 "countermodel over (m), n <= 3"


def _row_6_6():
    reduced, steps = reduce_announcements(parse("[W p] W p"))
    want = "W p -> W (W p -> p)"
    got = tuple((st.axiom, pretty(st.after)) for st in steps)
    if pretty(reduced) != want:
        return False, f"reduced form is {pretty(reduced)}"
    if got != (("AW", "W p -> W [W p] p"), ("AP", want)):
        return False, "reduction trace differs from the recorded lines"
    if not _no_cex(want, frozenset({"m"}), 3):
        return False, "reduced form refuted over (m)"
    return True, "announced false belief survives: reduced form has no " \
                 "countermodel over (m), n <= 3"


# row id -> (claim, check, *arguments); the row replays check(*arguments)
ROWS = {
    "3.2": ("W fragment separates a pair the bullet fragment cannot",
            _separation_row, pair_w_separation, "wrong", "bullet", 1,
            "W p separates at s; identity is a bullet morphism; "
            "both models m,c,n,r"),
    "3.3": ("bullet fragment separates a pair the W fragment cannot",
            _separation_row, pair_bullet_separation, "bullet", "wrong", 0,
            "U p separates at s; identity is a w-morphism; "
            "both models m,c,n,r"),
    "3.5": ("interdefinability equivalences over all frames", _row_3_5),
    "4.2": ("bullet morphisms preserve bullet-fragment truth",
            _invariance_row, (pair_w_separation,), "bullet",
            "{checked} bullet-fragment representatives preserved along "
            "the identity"),
    "4.3": ("bullet-legal additions preserve bullet-fragment truth",
            _invariance_row, (pair_w_separation, frame_pair_intersection_core,
                              frame_pair_monotone), "bullet",
            "{additions} legal additions leave {checked} representatives "
            "invariant"),
    "4.5": ("(c) and (r) are not bullet-definable", _frame_pair_row,
            frame_pair_intersection_core, ("c", "r"), (), "bullet"),
    "4.6": ("(m) is not bullet-definable", _frame_pair_row,
            frame_pair_monotone, (), ("m",), "bullet"),
    "4.7": ("O true defines (n)", _row_4_7),
    "4.9": ("w-morphisms preserve W-fragment truth",
            _invariance_row, (pair_bullet_separation,), "wrong",
            "{checked} w-fragment representatives preserved along "
            "the identity"),
    "4.10": ("wrong-legal additions preserve W-fragment truth",
             _invariance_row, (pair_bullet_separation, frame_pair_unit,
                               frame_pair_w_intersection_core), "wrong",
             "{additions} legal additions leave {checked} representatives "
             "invariant"),
    "4.12": ("(m) and (n) are not W-definable", _frame_pair_row,
             frame_pair_unit, ("m", "n"), (), "wrong"),
    "4.13": ("(c) and (r) are not W-definable", _frame_pair_row,
             frame_pair_w_intersection_core, (), ("c", "r"), "wrong"),
    "4.15": ("closure only adds sets containing their state", _row_4_15),
    "4.16": ("identity into the transitive closure is a w-morphism",
             _row_4_16),
    "5.2": ("unknown truths iterate over (m)", _theorem_row, "5.2"),
    "5.6": ("oE sound over all frames", _axiom_row, "5.6"),
    "5.7": ("oC sound over (c)", _axiom_row, "5.7"),
    "5.8": ("oN sound over (n)", _axiom_row, "5.8"),
    "5.11": ("supplementation yields (m), keeps (c)/(n), idempotent",
             _row_5_11),
    "5.12": ("oM sound over (m), refutable without it",
             _axiom_row, "5.12", True),
    "5.17": ("false beliefs never iterate", _theorem_row, "5.17"),
    "5.21": ("WE sound over all frames", _axiom_row, "5.21"),
    "5.22": ("WC sound over (c)", _axiom_row, "5.22"),
    "5.26": ("WM sound over (m), refutable without it",
             _axiom_row, "5.26", True),
    "5.27": ("WM sound over negatively supplemented frames",
             _axiom_row, "5.27"),
    "5.29": ("adding the universe creates (n) invisibly to W", _row_5_29),
    "6.2": ("intersection submodels of monotone models stay monotone",
            _row_6_2),
    "6.4": ("announced unknown truth is not self-refuting over (m)",
            _row_6_4),
    "6.5": ("negated announced unknown truth is successful", _row_6_5),
    "6.6": ("announced false belief persists", _row_6_6),
}


def run_row(row_id: str):
    """(ok, detail) for one suite row."""
    if row_id not in ROWS:
        msg = f"unknown suite row: {row_id!r}"
        raise ValueError(msg)
    _, check, *args = ROWS[row_id]
    return check(*args)


def run_suite():
    """[(row_id, claim, ok, detail)] for every row, in table order."""
    return [(row_id, ROWS[row_id][0], *run_row(row_id)) for row_id in ROWS]

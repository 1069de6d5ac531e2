"""Acceptance criteria, each returning a deterministic report string.

Every criterionN function asserts its claim and returns a canonical
multi-line report; the determinism criterion byte-compares those
reports across repeated runs and across --jobs settings.  Criteria
that call find_countermodel pass jobs on to it (it starts no processes
and never changes the verdict); the others accept and ignore a jobs
argument so the harness can treat them uniformly.

Quantifier compression used below, replayed rather than assumed: the
modal clauses read an argument formula only through its extension, so
"for all fragment formulas" collapses to "for all extension masks"
(checked per mask through clause tables or through frame validity,
which sweeps every valuation of the atom), and fragment
representatives supply one real-evaluator witness per reachable
extension signature.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

from nbhdmc.announce import format_trace, reduce as reduce_announcements
from nbhdmc.fixtures import AXIOM_ROWS, THEOREM_SCHEMAS
from nbhdmc.formula import (And, Box, Bullet, Circ, Iff, Imp, Not, Or, Wrong,
                            desugar, parse, pretty)
from nbhdmc.model import (NeighborhoodFrame, NeighborhoodModel,
                          PerturbationMap, PointedModel, StateSet,
                          check_property, intersection_submodel,
                          model_from_text, perturb, pmap_from_json,
                          supplementation, transitive_closure)
from nbhdmc.morphism import (StateMap, check_bullet_morphism,
                             check_w_morphism, verify_invariance)
from nbhdmc.search import (ClassSpec, Countermodel, NoCounterexampleUpTo,
                           SplitMix64, count_frames, distinguish,
                           enumerate_frames, find_countermodel,
                           fragment_representatives, verdict_to_text)
from nbhdmc.semantics import evaluate, extension, frame_valid

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
STATE_NAMES = ("s", "t", "u")
MOORE_TARGET = "U p -> ! U (U p -> p)"


def _frame_from_codes(n, codes):
    return NeighborhoodFrame(
        STATE_NAMES[:n],
        tuple(tuple(StateSet(n, x) for x in range(1 << n) if code >> x & 1)
              for code in codes))


def _all_models(n, atoms):
    for frame in enumerate_frames(n):
        for masks in product(range(1 << n), repeat=len(atoms)):
            yield NeighborhoodModel(
                frame, {a: StateSet(n, m) for a, m in zip(atoms, masks)})


def _random_model(rng, n, atoms=("p", "q")):
    codes = tuple(rng.below(1 << (1 << n)) for _ in range(n))
    val = {a: StateSet(n, rng.below(1 << n)) for a in atoms}
    return NeighborhoodModel(_frame_from_codes(n, codes), val)


def _load_model(name):
    return model_from_text((MODELS_DIR / name).read_text())


# --- 1: validity of "O true" coincides with property n -------------------------

def criterion1(jobs: int = 1) -> str:
    del jobs  # this criterion makes no find_countermodel call
    f = parse("O true")
    lines = []
    for n in (1, 2):
        total = 0
        for frame in enumerate_frames(n):
            assert frame_valid(frame, f) == check_property(frame, "n")
            total += 1
        assert total == count_frames(n)
        lines.append(f"n={n} frames={total} mismatches=0")

    # n=3, step one: every family code through the real path, on frames
    # where all three states carry the same code; collect one bit vector
    # per side so the composition below compares them independently
    pv = pp = 0
    for code in range(256):
        frame = _frame_from_codes(3, (code, code, code))
        if frame_valid(frame, f):
            pv |= 1 << code
        if check_property(frame, "n"):
            pp |= 1 << code
    assert pv == pp

    # step two: seeded mixed frames through the real path, cross checked
    # against the per-code bits
    rng = SplitMix64(2468)
    sampled = 20_000
    for _ in range(sampled):
        codes = (rng.below(256), rng.below(256), rng.below(256))
        frame = _frame_from_codes(3, codes)
        v = frame_valid(frame, f)
        assert v == check_property(frame, "n")
        assert v == all(pv >> c & 1 for c in codes)

    # step three: the formula is atom free and its truth at a state reads
    # only that state's family, so a frame validates it iff every state's
    # code does; the property quantifies per state the same way.  Compose
    # each side's per-code bits over all 256^3 code triples and compare.
    mismatches = 0
    composed = 0
    for c0 in range(256):
        v0, p0 = pv >> c0 & 1, pp >> c0 & 1
        for c1 in range(256):
            col_v = pv if v0 and pv >> c1 & 1 else 0
            col_p = pp if p0 and pp >> c1 & 1 else 0
            mismatches += (col_v ^ col_p).bit_count()
            composed += 256
    assert composed == count_frames(3) == 16_777_216
    assert mismatches == 0
    lines.append(f"n=3 uniform-real=256 sampled-real={sampled} "
                 f"composed={composed} mismatches={mismatches}")
    return "\n".join(lines)


# --- 2: the four interdefinability equivalences ---------------------------------

def _equivalences(g):
    return (Iff(Bullet(g), And(g, Not(Box(g)))),
            Iff(Wrong(g), And(Box(g), Not(g))),
            Iff(Circ(g), Imp(g, Box(g))),
            Iff(Box(g), Or(Wrong(g), And(Circ(g), g))))


def criterion2(jobs: int = 1) -> str:
    del jobs
    eqs_at_p = [desugar(eq) for eq in _equivalences(parse("p"))]

    # n <= 2: frame validity sweeps every valuation of p, covering every
    # candidate extension of any argument formula
    frames_checked = 0
    for n in (1, 2):
        for frame in enumerate_frames(n):
            for eq in eqs_at_p:
                assert frame_valid(frame, eq)
            frames_checked += 1

    # n = 2, formula level: every depth <= 2 argument over {p}, one
    # representative per extension signature, through the evaluator
    rep_instances = 0
    for model in _all_models(2, ("p",)):
        reps = fragment_representatives((model,), ("p",),
                                        (Bullet, Circ, Wrong, Box), 2)
        for g, _sig in reps:
            for eq in _equivalences(g):
                assert extension(model, eq) == StateSet.full(2)
                rep_instances += 1

    # n = 3: seeded (frame, valuation) samples through the evaluator
    rng = SplitMix64(13579)
    samples = 100_000
    full3 = StateSet.full(3)
    for _ in range(samples):
        codes = (rng.below(256), rng.below(256), rng.below(256))
        model = NeighborhoodModel(_frame_from_codes(3, codes),
                                  {"p": StateSet(3, rng.below(8))})
        for eq in eqs_at_p:
            assert extension(model, eq) == full3
    return (f"n<=2 frames={frames_checked} equivalences=4\n"
            f"n=2 representative instances={rep_instances}\n"
            f"n=3 samples={samples} equivalences=4")


# --- 3: soundness of the axiom rows over their frame classes --------------------

def criterion3(jobs: int = 1) -> str:
    lines = []
    rows = [(rid, name, text, props)
            for rid, (name, text, props) in AXIOM_ROWS.items()]
    rows += [(rid, "thm", text, props)
             for rid, (text, props) in THEOREM_SCHEMAS.items()]
    for rid, name, text, props in rows:
        f = parse(text)
        label = ",".join(sorted(props)) if props else "all"
        small = find_countermodel(f, ClassSpec(props, 2), jobs=jobs)
        assert small == NoCounterexampleUpTo(2, "exhaustive"), (rid, small)
        big = find_countermodel(f, ClassSpec(props, 3), mode="sampled",
                                seed=0, samples=100_000)
        assert big == NoCounterexampleUpTo(3, "sampled", 100_000, 0), (rid, big)
        lines.append(f"{rid} {name} [{label}]: no counterexample, "
                     f"exhaustive n<=2 and 100000 samples at n=3")
    for rid in ("5.12", "5.26"):
        name, text, _ = AXIOM_ROWS[rid]
        verdict = find_countermodel(parse(text), ClassSpec(frozenset(), 2),
                                    jobs=jobs)
        assert isinstance(verdict, Countermodel), rid
        assert not evaluate(verdict.pointed, parse(text))
        lines.append(f"{rid} {name} off class: {verdict_to_text(verdict)}")
    return "\n".join(lines)


# --- 4: legal perturbations keep fragment truth ----------------------------------

def _legal_pmap(rng, n, kind):
    fams = []
    for w in range(n):
        fam = []
        for _ in range(rng.below(4)):
            mask = rng.below(1 << n)
            mask = mask & ~(1 << w) if kind == "bullet" else mask | 1 << w
            if mask:
                fam.append(StateSet(n, mask))
        fams.append(tuple(fam))
    return PerturbationMap(kind, "add", tuple(fams))


def _clause_table(model, kind):
    """Per-extension-mask output of the modal clause, one bit per state."""
    fams = model.frame.family_masks()
    n = model.size
    out = []
    for e in range(1 << n):
        box = sum(1 << s for s in range(n) if e in fams[s])
        out.append(e & ~box if kind == "bullet" else box & ~e)
    return out


def criterion4(jobs: int = 1) -> str:
    del jobs
    counts = {"bullet": 0, "wrong": 0}
    rep_checked = 0
    for kind, seed, op in (("bullet", 1001, Bullet), ("wrong", 1002, Wrong)):
        check = check_bullet_morphism if kind == "bullet" else check_w_morphism
        rng = SplitMix64(seed)
        for i in range(1000):
            n = 1 + rng.below(3)
            model = _random_model(rng, n)
            bigger = perturb(model, _legal_pmap(rng, n, kind))
            sm = StateMap(model, bigger, tuple(range(n)))
            assert check(sm) == (True, None)
            # the clause agrees on every candidate extension, which pins
            # truth of every fragment formula of any depth at every state
            assert _clause_table(model, kind) == _clause_table(bigger, kind)
            assert model.valuation == bigger.valuation
            if i < 100:
                reps = fragment_representatives((model, bigger), ("p", "q"),
                                                (op,), 2)
                for _g, (e1, e2) in reps:
                    assert e1 == e2
                rep_checked += len(reps)
                assert verify_invariance(sm, kind,
                                         [g for g, _ in reps]) == []
            counts[kind] += 1
    return (f"bullet pairs={counts['bullet']} wrong pairs={counts['wrong']} "
            f"representative formulas rechecked={rep_checked}")


# --- 5: transitive closure shape and W-fragment preservation ---------------------

def _closure_checks(model):
    frame = model.frame
    closed = transitive_closure(frame)
    assert transitive_closure(closed) == closed
    for w, (before, after) in enumerate(zip(frame.family_masks(),
                                            closed.family_masks())):
        assert before <= after
        for x in after - before:
            assert x >> w & 1
    closed_model = NeighborhoodModel(closed, model.valuation)
    sm = StateMap(model, closed_model, tuple(range(model.size)))
    assert check_w_morphism(sm) == (True, None)
    assert _clause_table(model, "wrong") == _clause_table(closed_model,
                                                          "wrong")
    return closed_model


def criterion5(jobs: int = 1) -> str:
    del jobs
    exhaustive = 0
    rep_checked = 0
    for n in (1, 2):
        for model in _all_models(n, ("p",)):
            closed_model = _closure_checks(model)
            reps = fragment_representatives((model, closed_model), ("p",),
                                            (Wrong,), 2)
            for _g, (e1, e2) in reps:
                assert e1 == e2
            rep_checked += len(reps)
            exhaustive += 1
    rng = SplitMix64(5150)
    sampled = 10_000
    for _ in range(sampled):
        _closure_checks(_random_model(rng, 3, ("p",)))
    return (f"exhaustive models={exhaustive} "
            f"representative formulas rechecked={rep_checked}\n"
            f"sampled 3-state models={sampled}")


# --- 6: the unknowability target and its announcement reductions -----------------

def criterion6(jobs: int = 1) -> str:
    m3 = ClassSpec(frozenset(("m",)), 3)
    lines = []

    verdict = find_countermodel(parse(MOORE_TARGET), m3, jobs=jobs)
    want = ('{"verdict": "countermodel", "model": {"states": ["s"], '
            '"neighborhoods": {"s": []}, "valuation": {"p": ["s"]}}, '
            '"state": "s"}')
    assert verdict_to_text(verdict) == want
    lines.append(f"target countermodel: {verdict_to_text(verdict)}")

    reduced_neg, _ = reduce_announcements(parse("[! U p] ! U p"))
    assert pretty(reduced_neg) == "! U p -> ! (! U p -> U (! U p -> p))"
    lines.append(f"reduce [! U p] ! U p: {pretty(reduced_neg)}")
    reduced_w, _ = reduce_announcements(parse("[W p] W p"))
    assert pretty(reduced_w) == "W p -> W (W p -> p)"
    lines.append(f"reduce [W p] W p: {pretty(reduced_w)}")
    for g in (reduced_neg, reduced_w):
        v = find_countermodel(g, m3, jobs=jobs)
        assert v == NoCounterexampleUpTo(3, "exhaustive")
        lines.append(f"no countermodel over m up to 3 states: {pretty(g)}")

    _, steps = reduce_announcements(parse("[U p] ! U p"))
    trace = format_trace(steps)
    assert trace == (
        "1. AN @ root: [U p] ! U p ==> U p -> ! [U p] U p\n"
        "2. AU @ 1.0: U p -> ! [U p] U p ==> U p -> ! (U p -> U [U p] p)\n"
        "3. AP @ 1.0.1.0: U p -> ! (U p -> U [U p] p) ==> "
        "U p -> ! (U p -> U (U p -> p))")
    lines.append(trace)
    return "\n".join(lines)


# --- 7: reduction preserves evaluation on monotone models ------------------------

def _monotone_models():
    out = []
    for n in (1, 2):
        cls = ClassSpec(frozenset(("m",)), n)
        for frame in enumerate_frames(n, cls):
            for masks in product(range(1 << n), repeat=2):
                out.append(NeighborhoodModel(
                    frame, {"p": StateSet(n, masks[0]),
                            "q": StateSet(n, masks[1])}))
    return out


def criterion7(jobs: int = 1) -> str:
    del jobs
    from _gen import random_announcement_formula
    models = _monotone_models()
    assert len(models) == 3 * 4 + 36 * 16
    rng = SplitMix64(606)
    formulas = 500
    for _ in range(formulas):
        f = random_announcement_formula(rng, depth=2)
        reduced, _steps = reduce_announcements(f)
        for model in models:
            assert extension(model, f) == extension(model, reduced), pretty(f)
    return f"formulas={formulas} monotone models checked={len(models)}"


# --- 8: the shipped separation pairs ---------------------------------------------

def criterion8(jobs: int = 1) -> str:
    del jobs
    lines = []
    for base_name, ext_name, pmap_name, fragment, want, check in (
            ("w_separation_base.json", "w_separation_extended.json",
             "w_separation_gamma.json", "wrong", "W p",
             check_bullet_morphism),
            ("bullet_separation_base.json", "bullet_separation_extended.json",
             "bullet_separation_sigma.json", "bullet", "U p",
             check_w_morphism)):
        base = _load_model(base_name)
        extended = _load_model(ext_name)
        pmap = pmap_from_json(
            json.loads((MODELS_DIR / pmap_name).read_text()), base.states)
        assert perturb(base, pmap) == extended
        found = distinguish(PointedModel(base, 0), PointedModel(extended, 0),
                            fragment, 1)
        assert found == parse(want)
        sm = StateMap(base, extended, tuple(range(base.size)))
        assert check(sm) == (True, None)
        for m in (base, extended):
            for prop in ("m", "c", "n", "r"):
                assert check_property(m.frame, prop), (base_name, prop)
        lines.append(f"{fragment} pair: separated by {want} at depth 1, "
                     f"opposite morphism passes, both frames are m,c,n,r")
    return "\n".join(lines)


# --- 9: supplementation laws and monotone submodels -------------------------------

def criterion9(jobs: int = 1) -> str:
    del jobs
    frames = 0
    for frame in enumerate_frames(2):
        model = NeighborhoodModel(frame)
        out = supplementation(model)
        assert check_property(out.frame, "m")
        assert supplementation(out) == out
        if check_property(frame, "c"):
            assert check_property(out.frame, "c")
        if check_property(frame, "n"):
            assert check_property(out.frame, "n")
        frames += 1
    submodels = 0
    for n in (1, 2):
        cls = ClassSpec(frozenset(("m",)), n)
        for frame in enumerate_frames(n, cls):
            model = NeighborhoodModel(frame)
            for bits in range(1, 1 << n):
                sub = intersection_submodel(model, StateSet(n, bits))
                assert check_property(sub.frame, "m")
                submodels += 1
    return (f"supplementation checked on {frames} two-state frames\n"
            f"monotone intersection submodels checked: {submodels}")

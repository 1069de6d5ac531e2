"""State sets, frames, models, frame properties, transformers, wire format."""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle
import _referee
from _gen import STATE_NAMES, broken_doc, random_model_doc, random_pmap_doc
from nbhdmc.formula import is_atom_name
from nbhdmc.model import (MAX_STATES, PROPERTY_IDS, ModelFormatError,
                          NeighborhoodFrame, NeighborhoodModel,
                          NonMonotoneError, PerturbationError, PerturbationMap,
                          PointedModel, StateSet, _compress, _members,
                          check_property, code_has_property, frame_from_codes,
                          intersection_submodel, model_from_json,
                          model_from_text, model_to_json, model_to_text,
                          perturb, pmap_from_json, project, restrict_codes,
                          supplementation, transitive_closure)
from nbhdmc.search import ClassSpec, SplitMix64, enumerate_frames

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def _frame(states, families):
    n = len(states)
    return NeighborhoodFrame(
        tuple(states),
        tuple(tuple(StateSet(n, b) for b in fam) for fam in families))


def _model(states, families, valuation=()):
    n = len(states)
    val = {a: StateSet(n, b) for a, b in valuation}
    return NeighborhoodModel(_frame(states, families), val)


# --- StateSet -----------------------------------------------------------------

def test_stateset_basics():
    a = StateSet.from_indices(3, (0, 2))
    assert a.bits == 0b101
    assert a.indices() == (0, 2)
    assert a.contains(2) and not a.contains(1)
    assert a.size() == 2
    assert StateSet.empty(3).is_empty()
    assert StateSet.full(3) == StateSet(3, 0b111)


def test_stateset_algebra():
    a, b = StateSet(3, 0b101), StateSet(3, 0b011)
    assert (a | b) == StateSet(3, 0b111)
    assert (a & b) == StateSet(3, 0b001)
    assert (a - b) == StateSet(3, 0b100)
    assert a.complement() == StateSet(3, 0b010)
    assert StateSet(3, 0b001).issubset(a)
    assert not a.issubset(b)


def test_stateset_ordering_is_by_bits():
    sets = [StateSet(2, b) for b in (3, 0, 2, 1)]
    assert sorted(sets) == [StateSet(2, b) for b in (0, 1, 2, 3)]


def test_stateset_range_errors():
    with pytest.raises(ValueError):
        StateSet(2, 4)
    with pytest.raises(ValueError):
        StateSet(17, 0)
    with pytest.raises(ValueError):
        StateSet.from_indices(2, (2,))


# --- frames and models ---------------------------------------------------------

def test_frame_canonicalizes_families():
    f = NeighborhoodFrame(
        ("s", "t"),
        ((StateSet(2, 2), StateSet(2, 1), StateSet(2, 2)), ()))
    assert f.neighborhoods == ((StateSet(2, 1), StateSet(2, 2)), ())
    assert f.family_masks() == (frozenset((1, 2)), frozenset())


def test_frame_index():
    f = _frame(("s", "t"), ((), ()))
    assert f.index("t") == 1
    with pytest.raises(ValueError, match="unknown state name"):
        f.index("x")


@pytest.mark.parametrize("states, families", [
    ((), ()),
    (("s",) * 2, ((), ())),
    (("s", "t"), ((),)),
    (tuple(f"w{i}" for i in range(17)), ((),) * 17),
    (("s", ""), ((), ())),
])
def test_frame_rejects_bad_shapes(states, families):
    with pytest.raises(ValueError):
        NeighborhoodFrame(states, families)


def test_frame_from_codes_checks_names_and_codes():
    assert frame_from_codes(("s", "t"), (6, 0)) == _frame(("s", "t"),
                                                          ((1, 2), ()))
    for states, codes in ((("s", "s"), (0, 0)), (("s", "t"), (0,)),
                          (("s", ""), (0, 0)), (("s", "t"), (16, 0)),
                          (("s",), (-1,))):
        with pytest.raises(ValueError):
            frame_from_codes(states, codes)


def test_members_match_a_bit_by_bit_scan():
    # family codes of 4 to 2^16 bits (one to four states): random ones,
    # every bit (the dense code), the top bit alone and none, against a
    # scan of each bit
    rng = random.Random(21)
    for n in range(1, 5):
        bits = 1 << (1 << n)
        for code in (rng.getrandbits(bits), rng.getrandbits(bits) >> 1,
                     (1 << bits) - 1, 1 << bits - 1, 0):
            assert list(_members(code)) == [
                x for x, bit in enumerate(bin(code)[:1:-1]) if bit == "1"]


def test_model_valuation_canonicalization():
    m = _model(("s", "t"), ((), ()), (("q", 1), ("p", 2), ("r", 0)))
    assert m.valuation == (("p", StateSet(2, 2)), ("q", StateSet(2, 1)))
    assert m.atom_extension("r") == StateSet.empty(2)
    assert m.atom_extension("q") == StateSet(2, 1)


def test_model_rejects_bad_valuation():
    f = _frame(("s",), ((),))
    with pytest.raises(ValueError):
        NeighborhoodModel(f, {"True": StateSet(1, 1)})
    with pytest.raises(ValueError):
        NeighborhoodModel(f, {"p": StateSet(2, 1)})


@pytest.mark.parametrize("name", ["true", "false", "P", "1p", "", None, 5])
def test_valuation_refuses_atom_names_no_formula_can_mention(name):
    """A valuation names only atoms that a formula can read: `false`
    parses as the constant, never as an atom."""
    f = _frame(("s",), ((),))
    with pytest.raises(ValueError, match="bad atom name in valuation"):
        NeighborhoodModel(f, {name: StateSet(1, 1)})
    doc = {"states": ["s"], "valuation": {name: ["s"]}}
    if isinstance(name, str):  # JSON object keys are strings
        with pytest.raises(ModelFormatError, match="bad atom name"):
            model_from_json(doc)


def test_pointed_model_range():
    m = _model(("s",), ((),))
    assert PointedModel(m, 0).point_name == "s"
    with pytest.raises(ValueError):
        PointedModel(m, 1)


# --- frame properties -----------------------------------------------------------

def test_check_property_examples():
    full_only = _model(("s", "t"), ((3,), (3,)))
    assert all(check_property(full_only.frame, p) for p in PROPERTY_IDS)
    empty = _frame(("s", "t"), ((), ()))
    assert check_property(empty, "m")
    assert check_property(empty, "c")
    assert not check_property(empty, "n")
    assert not check_property(empty, "r")  # empty intersection reads as S
    assert check_property(empty, "neg-suppl")
    holey = _frame(("s", "t"), ((1,), ()))  # {s} there, {s,t} missing
    assert not check_property(holey, "m")
    assert check_property(holey, "neg-suppl")  # the missing superset has s
    assert not check_property(_frame(("s", "t"), ((0,), ())), "neg-suppl")
    assert check_property(_frame(("s", "t"), ((0, 2), ())), "neg-suppl")


def test_check_property_rejects_unknown_id():
    with pytest.raises(ValueError):
        check_property(_frame(("s",), ((),)), "k")


def test_check_property_matches_set_oracle_exhaustively():
    for n in (1, 2):
        for frame in enumerate_frames(n):
            doc = model_to_json(NeighborhoodModel(frame))
            for prop in PROPERTY_IDS:
                assert check_property(frame, prop) == \
                    _oracle.check_prop(doc, prop), (doc, prop)


def test_check_property_matches_set_oracle_sampled():
    rng = SplitMix64(2024)
    for _ in range(150):
        doc = random_model_doc(rng, 3)
        frame = model_from_json(doc).frame
        for prop in PROPERTY_IDS:
            assert check_property(frame, prop) == \
                _oracle.check_prop(doc, prop), (doc, prop)


def _meets_pairwise(code: int) -> bool:
    """(c) on a family code by its definition: the meet of every pair
    of members is a member."""
    members = list(_members(code))
    return all(code >> (x & y) & 1
               for i, x in enumerate(members) for y in members[i + 1:])


def test_intersection_closure_matches_the_pairwise_check():
    """Random codes at one to five states, half of them closed under
    intersection and then given or stripped one member, so that both
    answers are common."""
    rng = random.Random(3131)
    answers = set()
    for _ in range(3000):
        n = rng.randint(1, 5)
        code = rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
        if rng.random() < 0.5:
            members = set(_members(code))
            while True:
                meets = {x & y for x in members for y in members}
                if meets <= members:
                    break
                members |= meets
            members.symmetric_difference_update({rng.randrange(1 << n)})
            code = sum(1 << x for x in members)
        expected = _meets_pairwise(code)
        answers.add(expected)
        assert code_has_property(n, code, "c") == expected, (n, code)
    assert answers == {True, False}


def test_check_property_at_max_states():
    # Few members per state keep this fast, as long as no helper table
    # grows as 2^n per subset.
    n = MAX_STATES
    full = (1 << n) - 1
    # name -> (family masks at state s, the ids that hold), by construction
    cases = {
        "universe only": (lambda s: (full,), set(PROPERTY_IDS)),
        "{s} and universe": (lambda s: (1 << s, full),
                             {"c", "n", "r", "neg-suppl"}),
        "empty set only": (lambda s: (0,), {"c", "r"}),
        "all but s": (lambda s: (full ^ 1 << s,), {"c", "r", "neg-suppl"}),
        "two sets through s": (lambda s: (1 << s | 2 << s % 15,
                                          1 << s | 4 << s % 14),
                               {"neg-suppl"}),
        "no neighborhoods": (lambda s: (), {"m", "c", "neg-suppl"}),
    }
    for name, (family, holding) in cases.items():
        frame = _frame(tuple(f"w{i}" for i in range(n)),
                       tuple(family(s) for s in range(n)))
        for prop in PROPERTY_IDS:
            assert check_property(frame, prop) == (prop in holding), \
                (name, prop)
    # a failure at the last state alone is seen
    fams = [(full,)] * (n - 1) + [(1 << (n - 1), full)]
    frame = _frame(tuple(f"w{i}" for i in range(n)), fams)
    assert not check_property(frame, "m")
    assert check_property(frame, "c")


# --- supplementation ------------------------------------------------------------

def test_supplementation_example():
    m = _model(("s", "t"), ((1,), ()), (("p", 2),))
    out = supplementation(m)
    assert out.frame.family_masks() == (frozenset((1, 3)), frozenset())
    assert out.valuation == m.valuation


def test_supplementation_laws_exhaustive():
    for frame in enumerate_frames(2):
        m = NeighborhoodModel(frame)
        out = supplementation(m)
        assert check_property(out.frame, "m")
        assert supplementation(out) == out
        for before, after in zip(frame.family_masks(),
                                 out.frame.family_masks()):
            assert before <= after
        if check_property(frame, "c"):
            assert check_property(out.frame, "c")
        if check_property(frame, "n"):
            assert check_property(out.frame, "n")


def test_supplementation_matches_set_oracle():
    rng = SplitMix64(99)
    for _ in range(60):
        doc = random_model_doc(rng, 3)
        out = supplementation(model_from_json(doc))
        assert _oracle.families(model_to_json(out)) == \
            _oracle.supplement_families(doc)


# --- perturbation ----------------------------------------------------------------

def test_perturb_add_then_remove_round_trips():
    m = _model(("s", "t"), ((3,), (3,)), (("p", 2),))
    gamma = PerturbationMap("bullet", "add", ((StateSet(2, 2),), ()))
    bigger = perturb(m, gamma)
    assert bigger.frame.family_masks() == (frozenset((2, 3)), frozenset((3,)))
    back = perturb(bigger, PerturbationMap("bullet", "remove",
                                           gamma.families))
    assert back == m


def test_perturb_remove_of_absent_set_is_noop():
    m = _model(("s", "t"), ((3,), ()))
    out = perturb(m, PerturbationMap("bullet", "remove", ((StateSet(2, 2),), ())))
    assert out == m


def test_perturbation_legality():
    with pytest.raises(PerturbationError):  # bullet set containing its state
        PerturbationMap("bullet", "add", ((StateSet(2, 1),), ()))
    with pytest.raises(PerturbationError):  # wrong set missing its state
        PerturbationMap("wrong", "add", ((), (StateSet(2, 1),)))
    PerturbationMap("wrong", "add", ((), (StateSet(2, 2),)))  # fine
    with pytest.raises(PerturbationError, match=r"^wrong perturbation at "
                       r"state 1 contains a set without 1: \[2\]$"):
        PerturbationMap("wrong", "add",  # the offender with the least mask
                        ((), (StateSet(3, 5), StateSet(3, 7), StateSet(3, 4)),
                         ()))
    with pytest.raises(PerturbationError):
        PerturbationMap("both", "add", ((),))
    with pytest.raises(PerturbationError):
        PerturbationMap("bullet", "toggle", ((),))


def test_perturb_size_mismatch():
    m = _model(("s",), ((),))
    with pytest.raises(PerturbationError):
        perturb(m, PerturbationMap("bullet", "add", ((), ())))


def _random_pmap_doc(rng, doc) -> dict:
    """Random legal perturbation document over the document's states."""
    states = doc["states"]
    n = len(states)
    kind = ("bullet", "wrong")[rng.below(2)]
    families = {}
    for w, s in enumerate(states):
        masks = [x for x in range(1 << n)
                 if (x >> w & 1) == (kind == "wrong") and not rng.below(3)]
        families[s] = [[states[i] for i in range(n) if x >> i & 1]
                       for x in masks]
    return {"kind": kind, "sign": ("add", "remove")[rng.below(2)],
            "families": families}


def test_perturb_matches_set_oracle():
    rng = SplitMix64(4141)
    for _ in range(300):
        doc = random_model_doc(rng, 1 + rng.below(4))
        pdoc = _random_pmap_doc(rng, doc)
        model = model_from_json(doc)
        out = perturb(model, pmap_from_json(pdoc, model.states))
        assert _oracle.families(model_to_json(out)) == \
            _oracle.perturb_families(doc, pdoc), (doc, pdoc)
        assert out.valuation == model.valuation


def _ring_doc(families) -> dict:
    """MAX_STATES-state document w0.. whose state i has the sets
    families(i), each given by state indices."""
    states = [f"w{i}" for i in range(MAX_STATES)]
    return {"states": states,
            "neighborhoods": {s: [[states[j % MAX_STATES] for j in sorted(xs)]
                                  for xs in families(i)]
                              for i, s in enumerate(states)},
            "valuation": {"p": states[::3]}}


def test_perturb_at_max_states():
    n = MAX_STATES
    doc = _ring_doc(lambda i: ({i, i + 1}, set(range(n)) - {i}))
    model = model_from_json(doc)
    sets = _ring_doc(lambda i: ({i + 3, i + 7}, set(range(n)) - {i}))
    for sign in ("add", "remove"):
        pdoc = {"kind": "bullet", "sign": sign,
                "families": sets["neighborhoods"]}
        out = perturb(model, pmap_from_json(pdoc, model.states))
        assert _oracle.families(model_to_json(out)) == \
            _oracle.perturb_families(doc, pdoc), sign


# --- transitive closure -----------------------------------------------------------

def test_transitive_closure_example():
    frame = _frame(("s", "t"), ((2,), ()))
    out = transitive_closure(frame)
    assert out.family_masks() == (frozenset((1, 2)), frozenset())


def test_transitive_closure_two_rounds():
    frame = _frame(("s", "t"), ((2,), (1,)))
    out = transitive_closure(frame)
    assert out.family_masks() == (frozenset((1, 2, 3)), frozenset((1, 2, 3)))


def test_transitive_closure_matches_set_oracle():
    rng = SplitMix64(5151)
    for _ in range(300):
        doc = random_model_doc(rng, 1 + rng.below(4))
        out = transitive_closure(model_from_json(doc).frame)
        assert _oracle.families(model_to_json(NeighborhoodModel(out))) == \
            _oracle.closure_families(doc), doc


def test_transitive_closure_at_max_states():
    # each state's family starts as the next state's singleton, so the
    # closure grows over many rounds
    doc = _ring_doc(lambda i: ({i + 1},))
    out = transitive_closure(model_from_json(doc).frame)
    want = _oracle.closure_families(doc)
    assert _oracle.families(model_to_json(NeighborhoodModel(out))) == want
    assert max(len(fam) for fam in want.values()) > 3


def test_transitive_closure_laws_exhaustive():
    for frame in enumerate_frames(2):
        out = transitive_closure(frame)
        assert transitive_closure(out) == out
        for w, (before, after) in enumerate(zip(frame.family_masks(),
                                                out.family_masks())):
            assert before <= after
            for x in after - before:
                assert x >> w & 1  # every added set contains its state


# --- intersection submodel ---------------------------------------------------------

def test_intersection_submodel_monotone_example():
    m = _model(("s", "t"), ((3,), (3,)), (("p", 2),))
    sub = intersection_submodel(m, StateSet(2, 2))
    assert sub.states == ("t",)
    assert sub.frame.family_masks() == (frozenset((1,)),)
    assert sub.atom_extension("p") == StateSet(1, 1)


def test_intersection_submodel_reindexes_noncontiguous():
    m = _model(("s", "t", "u"), ((7,), (7,), (7,)), (("p", 0b101),))
    sub = intersection_submodel(m, StateSet(3, 0b101))
    assert sub.states == ("s", "u")
    assert sub.frame.family_masks() == (frozenset((3,)),) * 2
    assert sub.atom_extension("p") == StateSet(2, 3)


def test_intersection_submodel_deduplicates():
    m = _model(("s", "t"), ((1, 3), (1, 3)))
    sub = intersection_submodel(m, StateSet(2, 1))
    assert sub.frame.family_masks() == (frozenset((1,)),)


def test_intersection_submodel_guards():
    m = _model(("s",), ((0,),))
    with pytest.raises(NonMonotoneError):
        intersection_submodel(m, StateSet(1, 1))
    forced = intersection_submodel(m, StateSet(1, 1), force=True)
    assert forced.frame.family_masks() == (frozenset((0,)),)
    mono = _model(("s", "t"), ((), ()))
    with pytest.raises(ValueError):
        intersection_submodel(mono, StateSet.empty(2))
    with pytest.raises(ValueError):
        intersection_submodel(mono, StateSet(3, 1))


def _atoms_as_sets(doc) -> dict:
    """Valuation of a document as sets, empty atoms left out."""
    return {a: v for a, v in _oracle.load(doc)[2].items() if v}


def test_intersection_submodel_matches_set_oracle():
    rng = SplitMix64(6262)
    for _ in range(300):
        n = 1 + rng.below(6)
        doc = random_model_doc(rng, n)
        model = model_from_json(doc)
        bits = 1 + rng.below((1 << n) - 1)
        names = [STATE_NAMES[i] for i in range(n) if bits >> i & 1]
        want = _oracle.restrict(doc, names)
        x = StateSet(n, bits)
        if _oracle.check_prop(doc, "m"):
            subs = [intersection_submodel(model, x)]
        else:
            with pytest.raises(NonMonotoneError):
                intersection_submodel(model, x)
            subs = []
        subs.append(intersection_submodel(model, x, force=True))
        for sub in subs:
            got = model_to_json(sub)
            assert got["states"] == want["states"]
            assert _oracle.families(got) == _oracle.families(want), doc
            assert _atoms_as_sets(got) == _atoms_as_sets(want), doc


def _restrict_by_compress(codes, kept: int) -> tuple[int, ...]:
    """restrict_codes as it was first written, the referee: project each
    kept state's code over the other states, keep the members within
    kept, and renumber them one at a time with _compress."""
    n, states = len(codes), tuple(_members(kept))
    within = project(n, 1 << kept, kept)
    projected = (project(n, codes[old], (1 << n) - 1 ^ kept) & within
                 for old in states)
    return tuple(sum(1 << _compress(y, states) for y in _members(code))
                 for code in projected)


def test_restrict_codes_matches_the_member_gather():
    rng = random.Random(1818)
    for _ in range(2000):
        n, k = rng.randint(1, 8), rng.randint(0, 3)
        codes = []
        for _ in range(n):  # each subset a member with probability 2^-k
            code = (1 << (1 << n)) - 1
            for _ in range(k):
                code &= rng.getrandbits(1 << n)
            codes.append(code)
        kept = rng.randint(1, (1 << n) - 1)
        assert restrict_codes(codes, kept) == \
            _restrict_by_compress(codes, kept), (codes, kept)


def test_dense_restriction_keeping_most_states_is_fast():
    """13 of 14 states, each subset a neighborhood with probability 1/2:
    the member gather took about 0.4 s on such a case."""
    rng = random.Random(14)
    n = 14
    codes = [rng.getrandbits(1 << n) for _ in range(n)]
    kept = (1 << n) - 1 ^ 1 << 5
    start = time.perf_counter()
    got = restrict_codes(codes, kept)
    assert time.perf_counter() - start < 0.1
    assert got == _restrict_by_compress(codes, kept)


# --- JSON wire format ---------------------------------------------------------------

def test_model_json_round_trip():
    doc = {"states": ["s", "t"],
           "neighborhoods": {"s": [["t"], ["s", "t"]], "t": []},
           "valuation": {"p": ["t"]}}
    m = model_from_json(doc)
    assert model_to_json(m) == doc
    assert model_from_text(model_to_text(m)) == m


def test_model_json_canonicalizes():
    doc = {"states": ["s", "t"],
           "neighborhoods": {"s": [["s", "t"], ["s"]]},
           "valuation": {"q": [], "p": ["s"]}}
    out = model_to_json(model_from_json(doc))
    assert out == {"states": ["s", "t"],
                   "neighborhoods": {"s": [["s"], ["s", "t"]], "t": []},
                   "valuation": {"p": ["s"]}}


@pytest.mark.parametrize("doc, fragment", [
    ({"states": []}, "nonempty"),
    ({"states": ["s", "s"]}, "duplicate state names"),
    ({"states": ["s"], "points": []}, "unknown model keys"),
    ({"states": ["s"], "neighborhoods": {"x": []}}, "unknown state name"),
    ({"states": ["s"], "neighborhoods": {"s": [["x"]]}}, "unknown state name"),
    ({"states": ["s"], "neighborhoods": {"s": [[], []]}},
     "duplicate neighborhood set"),
    ({"states": ["s"], "valuation": {"p": ["x"]}}, "unknown state name"),
    ({"states": ["s"], "valuation": {"P": ["s"]}}, "bad atom name"),
    ({"states": ["s"], "neighborhoods": []}, "must be an object"),
    ({"states": [f"w{i}" for i in range(17)]}, "at most 16"),
    ([], "must be an object"),
    ({"states": ["s"], "neighborhoods": {"s": [[["s"]]]}},
     "unknown state name \\['s'\\]"),
    ({"states": ["s"], "valuation": {"p": [{"a": 1}]}},
     "unknown state name \\{'a': 1\\}"),
])
def test_model_json_rejections(doc, fragment):
    with pytest.raises(ModelFormatError, match=fragment):
        model_from_json(doc)


def test_model_json_duplicate_check_precedes_later_states():
    doc = {"states": ["s", "t"], "neighborhoods": {"s": [["t"], ["t"]], "t": [5]}}
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(doc)
    assert str(exc.value) == "duplicate neighborhood set at state 's'"


def test_model_json_counts_a_repeated_name_once():
    """A name repeated within one set or one atom's states counts once,
    so [["t", "t"], ["t"]] lists the set {t} twice."""
    doc = {"states": ["s", "t"], "neighborhoods": {"s": [["t", "t"]]},
           "valuation": {"p": ["s", "s"]}}
    assert model_from_json(doc) == model_from_json(
        {"states": ["s", "t"], "neighborhoods": {"s": [["t"]]},
         "valuation": {"p": ["s"]}})
    doc["neighborhoods"]["s"].append(["t"])
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(doc)
    assert str(exc.value) == "duplicate neighborhood set at state 's'"


def _decoded(decode, *args):
    """What decode(*args) returns, or the type and message it raised."""
    try:
        return decode(*args)
    except Exception as exc:  # every exception compares, unexpected ones too
        return type(exc), str(exc)


def test_decoders_match_the_referee_on_broken_documents():
    """8000 seeded model documents of one to four states and a
    perturbation document over each, each broken by random edits, a
    perturbation's states sometimes grown past 16: the decoders accept
    what the referee accepts, with equal results, and reject the rest
    with the referee's exception and message."""
    rng = SplitMix64(32)
    outcomes, messages = Counter(), set()
    for k in range(8000):
        doc = random_model_doc(rng, 1 + rng.below(4),
                               ("p", "q", "r")[:rng.below(4)])
        pdoc = random_pmap_doc(rng, doc["states"])
        states = tuple(doc["states"]) + tuple(f"z{i}" for i in range(
            16 if k % 8 == 0 else 0))
        for decode, referee, data, args in (
                (model_from_json, _referee.model_from_json,
                 broken_doc(rng, doc), ()),
                (pmap_from_json, _referee.pmap_from_json,
                 broken_doc(rng, pdoc), (states,))):
            got = _decoded(decode, data, *args)
            assert got == _decoded(referee, data, *args), (data, args)
            raised = isinstance(got, tuple)
            outcomes[decode.__name__, got[0].__name__ if raised else None] += 1
            messages.add(got[1] if raised else None)
    assert set(outcomes) == {  # ValueError: a StateSet over 17+ states
        ("model_from_json", None), ("model_from_json", "ModelFormatError"),
        ("pmap_from_json", None), ("pmap_from_json", "ModelFormatError"),
        ("pmap_from_json", "PerturbationError"),
        ("pmap_from_json", "ValueError")}
    assert min(outcomes.values()) >= 300 and len(messages) >= 100, outcomes


def test_model_from_text_rejects_bad_json():
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        model_from_text("{nope")


def test_random_docs_round_trip():
    rng = SplitMix64(7)
    for _ in range(40):
        doc = random_model_doc(rng, 3)
        m = model_from_json(doc)
        assert model_from_json(model_to_json(m)) == m


def test_pmap_json():
    pmap = pmap_from_json(
        {"kind": "bullet", "sign": "add",
         "families": {"s": [["t"]], "t": []}},
        ("s", "t"))
    assert pmap == PerturbationMap("bullet", "add", ((StateSet(2, 2),), ()))
    with pytest.raises(ModelFormatError, match="unknown perturbation keys"):
        pmap_from_json({"kind": "bullet", "sign": "add", "extra": 1}, ("s",))
    with pytest.raises(ModelFormatError, match="unknown state name"):
        pmap_from_json({"kind": "bullet", "sign": "add",
                        "families": {"x": []}}, ("s",))
    with pytest.raises(PerturbationError):
        pmap_from_json({"kind": "wrong", "sign": "add",
                        "families": {"s": [[]]}}, ("s",))
    with pytest.raises(ModelFormatError, match="unknown state name \\['t'\\]"):
        pmap_from_json({"kind": "bullet", "sign": "add",
                        "families": {"s": [[["t"]]]}}, ("s", "t"))


def test_pmap_json_accepts_duplicate_sets():
    pmap = pmap_from_json(
        {"kind": "bullet", "sign": "add", "families": {"s": [["t"], ["t"]]}},
        ("s", "t"))
    assert pmap == PerturbationMap("bullet", "add", ((StateSet(2, 2),), ()))


# state names with non-ASCII, quote, backslash and control characters
_NAMES = st.text(st.one_of(
    st.sampled_from('s"\\\x00\x1f\n\t\x7f/\u00e9\u20ac\U0001f600'),
    st.characters()), min_size=1, max_size=4)
_ATOMS = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    is_atom_name)


@st.composite
def _models(draw):
    """A model of 1..MAX_STATES states with up to 4 sets per family and
    up to 3 atoms, any of them empty."""
    states = draw(st.lists(_NAMES, min_size=1, max_size=MAX_STATES,
                           unique=True))
    n = len(states)
    masks = st.integers(0, (1 << n) - 1)
    codes = [sum(1 << x for x in draw(st.sets(masks, max_size=4)))
             for _ in states]
    valuation = draw(st.dictionaries(_ATOMS, masks, max_size=3))
    return NeighborhoodModel(frame_from_codes(states, codes),
                             {a: StateSet(n, x) for a, x in valuation.items()})


@settings(max_examples=150, deadline=None)
@given(_models())
def test_model_text_is_the_indented_json_and_reads_back(model):
    text = model_to_text(model)
    assert text == json.dumps(model_to_json(model), indent=2) + "\n"
    assert model_from_text(text) == model


def test_shipped_model_files_are_canonical():
    pmap_files = {"w_separation_gamma.json", "bullet_separation_sigma.json"}
    seen = set()
    for path in sorted(MODELS_DIR.glob("*.json")):
        text = path.read_text()
        seen.add(path.name)
        if path.name in pmap_files:
            data = json.loads(text)
            pmap_from_json(data, ("s", "t"))
        else:
            m = model_from_text(text)
            assert model_to_text(m) == text, path.name
    assert "moore.json" in seen and pmap_files <= seen


# --- StateSets only where read -----------------------------------------------------

def _counted_statesets(monkeypatch) -> list:
    """The StateSets built from now on, one entry each."""
    built = []
    post_init = StateSet.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StateSet, "__post_init__", counted)
    return built


def test_family_operations_build_statesets_for_valuations_only(monkeypatch):
    """A frame is its codes: building, transforming, encoding and decoding
    frames builds no StateSet per family member, only one per valuation
    atom, also at MAX_STATES where w0's family {{w0}} closed under
    supersets has 32768 members."""
    states = [f"w{i}" for i in range(MAX_STATES)]
    seed = model_from_json({"states": states,
                            "neighborhoods": {"w0": [["w0"]]},
                            "valuation": {"p": ["w1", "w2"]}})
    ring = model_from_json(_ring_doc(lambda i: ({i + 1}, {i, i + 2})))
    pmap = PerturbationMap("bullet", "add",
                           ((StateSet(MAX_STATES, 2),),) + ((),) * 15)
    most = StateSet(MAX_STATES, (1 << MAX_STATES) - 2)
    w0 = StateSet(MAX_STATES, 1)
    built = _counted_statesets(monkeypatch)
    dense = supplementation(seed)
    assert len(dense.frame.family_masks()[0]) == 1 << (MAX_STATES - 1)
    assert frame_from_codes(states, dense.frame.codes) == dense.frame
    perturb(dense, pmap)
    transitive_closure(ring.frame)
    text = model_to_text(dense)
    assert built == []
    intersection_submodel(dense, most)  # the valuation of p
    assert len(built) == 1
    assert model_from_text(text) == dense  # p again
    assert len(built) == 2
    assert dense.frame.family(1) == ()
    assert len(built) == 2
    assert dense.frame.neighborhoods[0][0] == w0
    assert len(built) == 2 + (1 << (MAX_STATES - 1))

"""Frame enumeration, countermodel search, sampling, distinguishability."""

from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbhdmc.search as search

import _oracle
from _referee import (_representatives, failing_code_masks,
                      signature_closure)
from _gen import (CLASSES, random_announcement_formula, random_full_formula,
                  random_local_formula, random_model, random_model_doc)
from nbhdmc.formula import (And, Atom, Box, Bullet, Circ, Not, Or, Wrong,
                            atoms_of, modal_depth, parse)
from nbhdmc.model import (NeighborhoodFrame, NeighborhoodModel, PointedModel,
                          StateSet, check_property, model_from_json)
from nbhdmc.search import (ClassSpec, Countermodel, NoCounterexampleUpTo,
                           SplitMix64, allowed_family_codes, count_frames,
                           distinguish, enumerate_frames, find_countermodel,
                           fragment_representatives, verdict_to_json,
                           verdict_to_text, worker_count)
from nbhdmc.semantics import (_BOX, _BULLET, _CIRC, _IMP, _WRONG,
                              _block_atoms, _blocks, _exec, _Frame, _sweep,
                              compile_formula, evaluate, extension)

ALL2 = ClassSpec(frozenset(), 2)
M3 = ClassSpec(frozenset(("m",)), 3)


def _model(states, families, valuation=()):
    n = len(states)
    val = {a: StateSet(n, b) for a, b in valuation}
    frame = NeighborhoodFrame(
        tuple(states),
        tuple(tuple(StateSet(n, b) for b in fam) for fam in families))
    return NeighborhoodModel(frame, val)


# --- the seeded generator -----------------------------------------------------

def test_splitmix_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_below():
    rng = SplitMix64(1234567)
    assert [rng.below(10) for _ in range(8)] == [7, 3, 3, 1, 1, 4, 7, 7]


def test_splitmix_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next() == SplitMix64(0).next()


# --- enumeration ----------------------------------------------------------------

def test_frame_counts():
    assert count_frames(1) == 4
    assert count_frames(2) == 256
    assert count_frames(3) == 16_777_216
    m = frozenset(("m",))
    assert count_frames(1, ClassSpec(m, 1)) == 3
    assert count_frames(2, ClassSpec(m, 2)) == 36
    assert count_frames(3, ClassSpec(m, 3)) == 8000


@pytest.mark.parametrize("props", [
    frozenset(), frozenset(("m",)), frozenset(("c",)), frozenset(("n",)),
    frozenset(("r",)), frozenset(("neg-suppl",)), frozenset(("m", "c", "n")),
])
def test_counts_match_property_filter(props):
    for n in (1, 2):
        cls = ClassSpec(props, n)
        frames = list(enumerate_frames(n, cls))
        assert len(frames) == count_frames(n, cls)
        brute = [fr for fr in enumerate_frames(n)
                 if all(check_property(fr, p) for p in props)]
        assert frames == brute
        for fr in frames:
            json_doc = {"states": list(fr.states),
                        "neighborhoods": {
                            s: [[fr.states[i] for i in ss.indices()]
                                for ss in fam]
                            for s, fam in zip(fr.states, fr.neighborhoods)},
                        "valuation": {}}
            assert all(_oracle.check_prop(json_doc, p) for p in props)


def test_enumeration_order_endpoints():
    frames = list(enumerate_frames(2))
    assert frames[0].family_masks() == (frozenset(), frozenset())
    assert frames[-1].family_masks() == (frozenset((0, 1, 2, 3)),) * 2
    # state 0's code is the most significant digit
    assert frames[1].family_masks() == (frozenset(), frozenset((0,)))


def test_enumeration_range_errors():
    # neither has a sampled mode, so the refusal points to none
    refusal = r"^exhaustive enumeration supports 1\.\.3 states, got 4$"
    with pytest.raises(ValueError, match=refusal):
        list(enumerate_frames(4))
    with pytest.raises(ValueError, match=refusal):
        count_frames(4)


def test_allowed_family_codes_depend_on_state_only_for_neg_suppl():
    m = frozenset(("m",))
    assert allowed_family_codes(1, m, 0) == (0, 2, 3)
    ns = frozenset(("neg-suppl",))
    assert allowed_family_codes(2, ns, 0) != allowed_family_codes(2, ns, 1)


def _member_filter_ok(n, code, prop, state, sup):
    """The per-member property filter the class tables were first built
    with, kept as their reference; sup[x] is the family code of x's
    supersets."""
    full = (1 << n) - 1
    members = [x for x in range(1 << n) if code >> x & 1]
    if prop == "n":
        return bool(code >> full & 1)
    if prop == "m":
        return all(code & sup[x] == sup[x] for x in members)
    if prop == "c":
        return all(code >> (x & y) & 1 for x in members for y in members)
    if prop == "r":
        core = full
        for x in members:
            core &= x
        return bool(code >> core & 1)
    avoid = ~sum(1 << y for y in range(1 << n) if y >> state & 1)
    return all(code & (need := sup[x] & avoid) == need for x in members)


@pytest.mark.parametrize("n, props", [
    *[(n, frozenset((p,))) for n in (1, 2, 3)
      for p in ("m", "c", "n", "r", "neg-suppl")],
    (3, frozenset(("m", "c", "n"))), (3, frozenset(("neg-suppl", "r"))),
    *[(4, frozenset(props)) for props in (
        ("m",), ("c",), ("neg-suppl",), ("c", "r"), ("m", "n"),
        ("c", "neg-suppl"))],
])
def test_allowed_family_codes_match_the_member_filter(n, props):
    sup = [sum(1 << y for y in range(1 << n) if y & x == x)
           for x in range(1 << n)]
    reference = {}  # the filter reads the state for neg-suppl only
    for state in range(n):
        key = state if "neg-suppl" in props else 0
        if key not in reference:
            reference[key] = tuple(
                code for code in range(1 << (1 << n))
                if all(_member_filter_ok(n, code, p, key, sup)
                       for p in props))
        assert allowed_family_codes(n, props, state) == reference[key]


@pytest.mark.parametrize("n, upward, moore, neg_suppl", [
    (1, 3, 2, 4), (2, 6, 7, 12), (3, 20, 61, 96), (4, 168, 2480, 5120)])
def test_class_table_sizes_match_known_counts(n, upward, moore, neg_suppl):
    """Upward-closed families are counted by the Dedekind numbers M(n).
    The intersection-closed ones are the Moore families (those holding
    the full set) and the same families without it.  A neg-suppl family
    at s is an upward-closed family of subsets of the other n - 1 states
    plus any sets holding s: M(n - 1) * 2^(2^(n - 1)) of them."""
    assert len(allowed_family_codes(n, frozenset(("m",)), 0)) == upward
    assert len(allowed_family_codes(n, frozenset(("c",)), 0)) == 2 * moore
    dedekind = (2, 3, 6, 20)
    assert neg_suppl == dedekind[n - 1] * 2 ** 2 ** (n - 1)
    for state in range(n):
        assert len(allowed_family_codes(
            n, frozenset(("neg-suppl",)), state)) == neg_suppl


# --- class specs ------------------------------------------------------------------

def test_class_spec_validation():
    assert ClassSpec(("m", "m"), 2, ("q", "p", "q")).atoms == ("p", "q")
    with pytest.raises(ValueError, match="unknown class properties"):
        ClassSpec(frozenset(("filter",)), 2)
    with pytest.raises(ValueError, match="max_states"):
        ClassSpec(frozenset(), 0)
    with pytest.raises(ValueError, match="max_states"):
        ClassSpec(frozenset(), 17)


def test_class_spec_refuses_atom_names_no_formula_can_mention():
    # such a name would reach the scan's models, or be refused only once
    # a countermodel is built
    for name in ("P", "true", "false", "1p", "p q", ""):
        with pytest.raises(ValueError, match="bad atom name"):
            ClassSpec(frozenset(), 2, ("p", name))
    for name in (5, None):
        with pytest.raises(ValueError, match="bad atom name"):
            ClassSpec(frozenset(), 2, (name,))


# --- frozen countermodels ------------------------------------------------------------

MOORE_TARGET = "U p -> ! U (U p -> p)"


def test_moore_countermodel():
    verdict = find_countermodel(parse(MOORE_TARGET), M3)
    assert verdict_to_json(verdict) == {
        "verdict": "countermodel",
        "model": {"states": ["s"], "neighborhoods": {"s": []},
                  "valuation": {"p": ["s"]}},
        "state": "s"}


def test_bullet_axiom_has_no_small_countermodel():
    verdict = find_countermodel(parse("U p -> p"), ALL2)
    assert verdict == NoCounterexampleUpTo(2, "exhaustive")
    assert verdict_to_text(verdict) == (
        '{"verdict": "no-counterexample", "max_states": 2, '
        '"valuations": "exhaustive"}')


def test_monotone_only_axiom_fails_off_class():
    f = parse("O p & p -> O (p | q)")
    assert isinstance(find_countermodel(f, ClassSpec(frozenset(("m",)), 2)),
                      NoCounterexampleUpTo)
    verdict = find_countermodel(f, ALL2)
    assert verdict_to_json(verdict) == {
        "verdict": "countermodel",
        "model": {"states": ["s", "t"],
                  "neighborhoods": {"s": [], "t": [["t"]]},
                  "valuation": {"p": ["t"], "q": ["s"]}},
        "state": "t"}


def test_announcement_search_needs_monotone_class():
    with pytest.raises(ValueError, match="property m"):
        find_countermodel(parse("[p] U p"), ALL2)
    verdict = find_countermodel(parse("[true] U p"),
                                ClassSpec(frozenset(("m",)), 1))
    assert verdict_to_json(verdict) == {
        "verdict": "countermodel",
        "model": {"states": ["s"], "neighborhoods": {"s": []},
                  "valuation": {}},
        "state": "s"}


def test_exhaustive_state_cap():
    with pytest.raises(ValueError, match="sampled"):
        find_countermodel(parse("p"), ClassSpec(frozenset(), 4))
    with pytest.raises(ValueError, match="mode"):
        find_countermodel(parse("p"), ALL2, mode="heuristic")


# --- brute-force canonical-minimum oracle ---------------------------------------------

def _doc(n, codes, atoms, assignment):
    states = ["s", "t", "u"][:n]
    subsets = [[states[i] for i in range(n) if m >> i & 1]
               for m in range(1 << n)]
    return {"states": states,
            "neighborhoods": {
                states[w]: [subsets[m] for m in range(1 << n)
                            if codes[w] >> m & 1]
                for w in range(n)},
            "valuation": {a: subsets[mask]
                          for a, mask in zip(atoms, assignment) if mask}}


def _brute_minimum(f, max_states, properties=frozenset(), frames=None):
    """First falsifying (doc, state) in canonical order, by the oracle.

    frames(n) lists the candidate n-state frames in canonical order; by
    default every frame, each kept only when the oracle puts it in the
    class.
    """
    atoms = atoms_of(f)
    for n in range(1, max_states + 1):
        candidates = frames(n) if frames else product(range(1 << (1 << n)),
                                                      repeat=n)
        for codes in candidates:
            frame_doc = _doc(n, codes, (), ())
            if not all(_oracle.check_prop(frame_doc, p) for p in properties):
                continue
            for assignment in product(range(1 << n), repeat=len(atoms)):
                doc = _doc(n, codes, atoms, assignment)
                for state in doc["states"]:
                    if not _oracle.holds(doc, state, f):
                        return doc, state
    return None


EVERY_CLASS = [frozenset(props) for props in (
    (), ("m",), ("c",), ("n",), ("r",), ("neg-suppl",), ("m", "c", "n"))]


@pytest.mark.parametrize("text, properties", [
    ("O p & p -> O (p | q)", frozenset()),
    ("W (p & q) & ! q -> W q", frozenset()),
    ("! W p", frozenset()),
    ("U p -> p", frozenset()),
    ("U p -> U U p", frozenset(("m",))),
    # depth 1: minimum past frame 0, at state 1 (neg-suppl's tables
    # differ by state), or at the class's least frame
    *[("! K false & K p -> p", props) for props in EVERY_CLASS],
    ("O p & p -> O (p | q)", frozenset(("neg-suppl",))),
    ("O p & p -> O (p | q)", frozenset(("r",))),
    ("p -> K p", frozenset(("n",))),
    # depth 2, through the orbit-pruned scan
    *[("W W p -> p", props) for props in EVERY_CLASS],
    *[("K p -> K K p", props) for props in EVERY_CLASS],
    ("U p -> U U p", frozenset(("neg-suppl",))),
    # local announcements, through the candidate sweeps; the last is the
    # reduction axiom of K, valid over (m)
    ("[p] K q -> K q", frozenset(("m",))),
    ("[p] ! K q | K (q | p)", frozenset(("m",))),
    ("[p] K q <-> (p -> K (p -> q))", frozenset(("m",))),
])
def test_search_minimum_matches_brute_force(text, properties):
    f = parse(text)
    expected = _brute_minimum(f, 2, properties)
    verdict = find_countermodel(f, ClassSpec(properties, 2))
    if expected is None:
        assert verdict == NoCounterexampleUpTo(2, "exhaustive")
    else:
        doc, state = expected
        assert verdict_to_json(verdict) == {
            "verdict": "countermodel", "model": doc, "state": state}


def _oracle_class_frames(n, properties):
    """The class's n-state frames in canonical order, as products of the
    codes the oracle admits at each state, the other states holding
    every set (which no property excludes)."""
    every = (1 << (1 << n)) - 1
    per_state = [[code for code in range(every + 1)
                  if all(_oracle.check_prop(
                      _doc(n, [code if v == w else every for v in range(n)],
                           (), ()), p) for p in properties)]
                 for w in range(n)]
    return product(*per_state)


@pytest.mark.parametrize("text, depth", [
    # three pairwise disjoint neighborhoods of a state without the empty
    # set need three states
    ("! (! K false & K (p & ! q) & K (q & ! p) & K (! p & ! q))", 1),
    ("! (! K false & K (p & K p) & K (p & ! K p) & K ! p)", 2),
])
def test_three_state_minimum_matches_brute_force(text, depth):
    f = parse(text)
    assert compile_formula(f).local == (depth == 1)
    m = frozenset(("m",))
    doc, state = _brute_minimum(f, 3, m, lambda n: _oracle_class_frames(n, m))
    assert len(doc["states"]) == 3
    verdict = find_countermodel(f, ClassSpec(m, 3))
    assert verdict_to_json(verdict) == {
        "verdict": "countermodel", "model": doc, "state": state}
    assert verdict.pointed.model.frame != next(enumerate_frames(3, M3))


def test_local_flag_is_static_modal_arguments_and_contexts():
    # an announcement of a valuation-only formula gives its body's modal
    # operators a static context, so it keeps them local
    for text, local in [("p & q", True), ("K p -> U (p | ! q)", True),
                        ("O p & W p", True), ("U U p", False),
                        ("K (p & W q)", False), ("[p] q", True),
                        ("[p] K q", True), ("[p] [! q] (O p | W q)", True),
                        ("[p] K (q & W p)", False), ("[K p] K q", False),
                        ("[K p] q", True)]:
        assert compile_formula(parse(text)).local == local, text


def _permuted(n, codes, image):
    """The frame with state w renamed image[w], over sets of states."""
    moved = [sum(1 << image[i] for i in range(n) if x >> i & 1)
             for x in range(1 << n)]
    out = [0] * n
    for w, code in enumerate(codes):
        for x in range(1 << n):
            if code >> x & 1:
                out[image[w]] |= 1 << moved[x]
    return tuple(out)


@pytest.mark.parametrize("n, props", [
    *[(2, props) for props in EVERY_CLASS], (3, frozenset(("m",)))])
def test_orbit_pruning_keeps_each_orbit_once(n, props):
    allowed = [allowed_family_codes(n, props, w) for w in range(n)]
    frames = set(product(*allowed))
    kept = list(search._orbit_least_frames(n, props))
    assert kept == sorted(set(kept))
    orbits = {}
    for codes in frames:
        orbit = frozenset(_permuted(n, codes, image)
                          for image in permutations(range(n)))
        orbits[orbit] = min(orbit)
        assert orbit <= frames  # the class is closed under renaming
    assert sorted(orbits.values()) == kept
    if n == 3:
        assert (len(kept), len(frames)) == (1440, 8000)


# --- sampled mode -----------------------------------------------------------------------

def test_sampled_verdict_is_deterministic():
    f = parse("U p -> p")
    one = find_countermodel(f, ClassSpec(frozenset(), 3), "sampled",
                            seed=42, samples=500)
    two = find_countermodel(f, ClassSpec(frozenset(), 3), "sampled",
                            seed=42, samples=500)
    assert one == two == NoCounterexampleUpTo(3, "sampled", 500, 42)
    assert verdict_to_json(one) == {
        "verdict": "no-counterexample", "max_states": 3,
        "valuations": "sampled", "samples": 500, "seed": 42}


def test_sampled_mode_finds_easy_countermodels():
    f = parse("! U p")
    one = find_countermodel(f, ClassSpec(frozenset(), 3), "sampled",
                            seed=7, samples=200)
    two = find_countermodel(f, ClassSpec(frozenset(), 3), "sampled",
                            seed=7, samples=200)
    assert isinstance(one, Countermodel)
    assert one == two
    assert one.pointed.model.size == 3
    assert not evaluate(one.pointed, f)


def test_sampled_countermodel_golden():
    verdict = find_countermodel(parse("! U p"), ClassSpec(frozenset(), 3),
                                "sampled", seed=7, samples=200)
    assert verdict_to_text(verdict) == (
        '{"verdict": "countermodel", "model": {"states": ["s", "t", "u"], '
        '"neighborhoods": {"s": [[], ["s"], ["t"], ["u"], ["t", "u"], '
        '["s", "t", "u"]], "t": [["t"], ["s", "t"], ["u"]], "u": [["s"]]}, '
        '"valuation": {"p": ["s", "t"]}}, "state": "s"}')


def test_sampled_respects_class_properties():
    f = parse("false")
    verdict = find_countermodel(f, ClassSpec(frozenset(("m", "n")), 3),
                                "sampled", seed=3, samples=5)
    assert isinstance(verdict, Countermodel)
    assert check_property(verdict.pointed.model.frame, "m")
    assert check_property(verdict.pointed.model.frame, "n")


def test_sampled_supports_four_states():
    verdict = find_countermodel(parse("U p -> p"), ClassSpec(frozenset(), 4),
                                "sampled", seed=1, samples=50)
    assert verdict == NoCounterexampleUpTo(4, "sampled", 50, 1)


def test_sampled_guards():
    with pytest.raises(ValueError, match="positive sample count"):
        find_countermodel(parse("p"), ALL2, "sampled", seed=1, samples=0)
    with pytest.raises(ValueError, match="sampled search caps"):
        find_countermodel(parse("p"), ClassSpec(frozenset(), 5), "sampled",
                          seed=1, samples=10)


# --- jobs --------------------------------------------------------------------------------

def test_jobs_do_not_change_verdicts():
    cases = [(parse(MOORE_TARGET), M3),
             (parse("O p & p -> O (p | q)"), ALL2),
             (parse("U p -> p"), ALL2)]
    for f, cls in cases:
        serial = find_countermodel(f, cls, jobs=1)
        parallel = find_countermodel(f, cls, jobs=4)
        assert verdict_to_json(serial) == verdict_to_json(parallel)


def test_worker_count_refuses_below_one():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            worker_count(jobs)
    with pytest.raises(ValueError, match="at least 1"):
        find_countermodel(parse("p"), ALL2, jobs=0)


def _orbit_mask_by_code(n, props, prefix):
    """The orbit mask of a block, every frame of it checked against every
    state renaming, over sets of states."""
    mask = 0
    for i, code in enumerate(allowed_family_codes(n, props, n - 1)):
        codes = prefix + (code,)
        if all(_permuted(n, codes, image) >= codes
               for image in permutations(range(n))):
            mask |= 1 << i
    return mask


@pytest.mark.parametrize("props", [
    *EVERY_CLASS, frozenset(("c", "neg-suppl")), frozenset(("c", "r"))])
def test_orbit_masks_match_the_per_code_check(props):
    for n in (1, 2):
        allowed = [allowed_family_codes(n, props, w) for w in range(n)]
        for prefix in product(*allowed[:-1]):
            assert search._orbit_least(n, props, prefix) == \
                _orbit_mask_by_code(n, props, prefix), prefix
    # a seeded sample of n = 3 blocks, half of them with prefix codes in
    # ascending order, where a block holds least frames more often
    rng = SplitMix64(9)
    first, second = (allowed_family_codes(3, props, w) for w in (0, 1))
    for k in range(16):
        prefix = (first[rng.below(len(first))], second[rng.below(len(second))])
        if k % 2:
            prefix = tuple(sorted(prefix))
        assert search._orbit_least(3, props, prefix) == \
            _orbit_mask_by_code(3, props, prefix), prefix


# --- chunked scans ----------------------------------------------------------------------

M = frozenset(("m",))
NEG_SUPPL = frozenset(("neg-suppl",))

# Invalid formulas over (m) whose canonical countermodels have three
# states.  Their depth is 2, so the n = 3 scan runs over the orbit-least
# frames, where it meets the minimum at frames 13, 32, 50 and 603 of 1440.
LATE_N3 = (
    "! (! K false & K (p & K p) & K (p & ! K p) & K ! p)",
    "! p | ! K (p & K ! p) | ! K (p & ! K ! p) | ! K (! p & K true) | K false",
    "! K (p & K p) | ! K (p & U p) | ! K (! p & K p) | K false",
    "p | K false | ! K (p & K p) | ! K (p & ! K p & K ! p) | ! K ! p",
)


@lru_cache(maxsize=None)
def _late_minimum(text):
    return _brute_minimum(parse(text), 3, M,
                          lambda n: _oracle_class_frames(n, M))


def _scan_json(f, cls):
    return verdict_to_json(find_countermodel(f, cls))


def _expected_json(found):
    doc, state = found
    return {"verdict": "countermodel", "model": doc, "state": state}


def _counting_lanes(monkeypatch):
    """Patch the scans' lane frames to record the state count of each
    one built; returns that list."""
    built = []
    lane_frame = search._Frame

    def lanes(n, codes, force=False, monotone=None):
        built.append(n)
        return lane_frame(n, codes, force, monotone)

    monkeypatch.setattr(search, "_Frame", lanes)
    return built


@pytest.mark.parametrize("text", LATE_N3)
def test_chunked_scans_find_the_brute_force_minimum(monkeypatch, text):
    f = parse(text)
    expected = _expected_json(_late_minimum(text))
    assert _scan_json(f, M3) == expected
    codes = find_countermodel(f, M3).pointed.model.frame.family_codes()
    w = list(search._orbit_least_frames(3, M)).index(tuple(codes))
    assert w in (13, 32, 50, 603)
    per = 8  # valuations of one atom over three states
    built = _counting_lanes(monkeypatch)
    # (first chunk, cap, three-state lane frames built): frame w first in
    # the second chunk; last of the first; one frame a chunk
    for first, cap, chunks in ((w, 2 * w * per, 2), (w + 1, 4096, 1),
                               (1, per, w + 1)):
        monkeypatch.setattr(search, "_FIRST_CHUNK", first)
        monkeypatch.setattr(search, "_CHUNK_CAP", cap)
        built.clear()
        assert _scan_json(f, M3) == expected, (first, cap)
        assert built.count(3) == chunks, (first, cap)


def test_a_witness_at_the_first_frame_on_a_lane_frame(monkeypatch):
    # the least one-state frame has no neighborhood, so K K p fails there
    # once p holds: at lane 1 of the first chunk, one frame wide
    f = parse("p -> K K p")
    expected = _expected_json(_brute_minimum(f, 1, M))
    assert expected["model"]["neighborhoods"] == {"s": []}
    assert expected["model"]["valuation"] == {"p": ["s"]}
    built = _counting_lanes(monkeypatch)
    assert _scan_json(f, M3) == expected
    assert built == [1]


def test_scans_past_the_valuation_block_sweep_frame_by_frame(monkeypatch):
    # four atoms over three states fill more than one valuation block, so
    # each three-state frame up to the witness is swept alone, on lanes of
    # one block's valuations; atoms f does not read stay empty.  No frame
    # of one or two states has three disjoint neighborhoods, so the
    # one-step check settles those counts and builds no lane frame there
    text = LATE_N3[0]
    frame = find_countermodel(parse(text), M3).pointed.model.frame
    w = list(search._orbit_least_frames(3, M)).index(
        tuple(frame.family_codes()))
    states = _counting_lanes(monkeypatch)
    cls = ClassSpec(M, 3, ("p", "q", "r", "s"))
    assert _scan_json(parse(text), cls) == _expected_json(_late_minimum(text))
    assert states == [3] * (w + 1)


@lru_cache(maxsize=None)
def _multi_block_cases(props):
    """Random full-language formulas over the class at n <= 2, with
    announcements over (m) only, a quarter of them valid, and their
    brute-force verdicts."""
    rng = SplitMix64(74)
    cases = []
    for i in range(12):
        g = random_full_formula(rng, 2 + i % 3, 1 if "m" in props else 0)
        f = Or(g, Not(g)) if i % 4 == 0 else g
        found = _brute_minimum(f, 2, props,
                               lambda n: _oracle_class_frames(n, props))
        cases.append((f, _expected_json(found) if found else verdict_to_json(
            NoCounterexampleUpTo(2, "exhaustive"))))
    return cases


@pytest.mark.parametrize("block_bits", [1, 2, 3])
@pytest.mark.parametrize("props", [M, NEG_SUPPL, frozenset(("c",)),
                                   frozenset()])
def test_multi_block_scans_match_brute_force(monkeypatch, props, block_bits):
    # blocks of 2 to 8 valuations: the local candidate and orbit-least
    # sweeps of frames whose valuations fill several blocks
    import nbhdmc.semantics as semantics
    monkeypatch.setattr(semantics, "_BLOCK_BITS", block_bits)
    split = set()
    for f, expected in _multi_block_cases(props):
        assert _scan_json(f, ClassSpec(props, 2)) == expected, f
        if 2 * len(atoms_of(f)) > block_bits:
            split.add(compile_formula(f).local)
    assert split == {True, False}


def test_announcement_scans_match_brute_force(monkeypatch):
    # announcements run on lanes like any connective: the scans build lane
    # frames and keep the brute-force minimum
    built = _counting_lanes(monkeypatch)
    rng = SplitMix64(2024)
    kinds = {"countermodel": 0, "none": 0}
    for i in range(24):
        g = random_announcement_formula(rng, 3)
        f = Or(g, Not(g)) if i % 3 == 0 else g  # valid: every frame swept
        found = _brute_minimum(f, 2, M, lambda n: _oracle_class_frames(n, M))
        expected = (_expected_json(found) if found else
                    verdict_to_json(NoCounterexampleUpTo(2, "exhaustive")))
        kinds["countermodel" if found else "none"] += 1
        assert _scan_json(f, ClassSpec(M, 2)) == expected, f
    assert min(kinds.values()) >= 5, kinds
    assert built


def test_local_announcement_three_state_minimum_matches_brute_force():
    # three pairwise disjoint neighborhoods of the submodel, none empty
    f = parse("[! (p & q)] "
              "! (! K false & K (p & ! q) & K (q & ! p) & K (! p & ! q))")
    assert compile_formula(f).local
    doc, state = _brute_minimum(f, 3, M, lambda n: _oracle_class_frames(n, M))
    assert len(doc["states"]) == 3
    assert _scan_json(f, M3) == _expected_json((doc, state))


def _table_lanes(step, n: int) -> int:
    """The lanes of step's one-step table at n states: one valuation per
    orbit of the state renamings, C(2^k + n - 1, n) of k atoms, under
    every pattern of its modal reads' bits."""
    reads = {(a, b) for _, op, a, b in step.code if op >= _BOX}
    return comb((1 << len(step.atoms)) + n - 1, n) << len(reads)


def _refused(*args):
    raise AssertionError("orbit-least frames enumerated")


def _without_the_local_flag(monkeypatch):
    """Compile every scanned formula as not local, so local formulas are
    scanned over the orbit-least frames."""
    compile_local = search.compile_formula
    monkeypatch.setattr(search, "compile_formula", lambda f, atoms=None:
                        compile_local(f, atoms)._replace(local=False))


@pytest.mark.parametrize("props", [*EVERY_CLASS, frozenset(("c", "neg-suppl"))])
def test_lane_failing_masks_match_the_per_code_sweep(monkeypatch, props):
    # the one-step table finds a failing code exactly where the per-code
    # referee's masks have one; four atoms over three states take 816
    # valuations, one per orbit, times two read patterns, within the lane
    # budget.  Past a budget of one, the scans sweep their candidate
    # frames to the same verdicts
    cases = [(parse(text), n)
             for text in ("U p -> p", "W (p & q) -> W p", "O q | K ! p",
                          "K true", "K (p & q) -> O (r | s)")
             for n in (1, 2, 3)]
    answers, verdicts = set(), []
    for f, n in cases:
        prog = compile_formula(f)
        assert _table_lanes(prog, n) <= search._TABLE_LANES
        want = any(failing_code_masks(prog, n, props))
        assert search._some_code_fails(prog, n, props) == want, (f, n)
        answers.add(want)
        verdicts.append(_scan_json(f, ClassSpec(props, n)))
    assert answers == {False, True}
    monkeypatch.setattr(search, "_TABLE_LANES", 1)
    assert [_scan_json(f, ClassSpec(props, n)) for f, n in cases] == verdicts


# valid, four atoms and five reads: 816 valuations of three states, one
# per orbit, times 32 read patterns pass the one-step table's lane budget
# (136 times 32 at two states too)
PAST_BUDGET = ("(K p & K q & K r & K s & K (p & q)) | "
               "! (K p & K q & K r & K s & K (p & q))")


@pytest.mark.parametrize("props", [frozenset(("c",)), frozenset()])
def test_local_scans_past_the_lane_budget_judge_code_by_code(monkeypatch,
                                                             props):
    # past the budget the scan sweeps the class's least frame with the
    # last state's code raised, code by code, at two and three states; it
    # never falls back to enumerating orbit-least frames
    f = parse(PAST_BUDGET)
    prog = compile_formula(f)
    assert prog.local
    assert _table_lanes(prog, 1) <= search._TABLE_LANES
    assert _table_lanes(prog, 2) > search._TABLE_LANES
    monkeypatch.setattr(search, "_orbit_least_frames", _refused)
    swept = _counting_sweeps(monkeypatch)
    assert find_countermodel(f, ClassSpec(props, 3)) == \
        NoCounterexampleUpTo(3, "exhaustive")
    assert swept == [*_candidates(2, props), *_candidates(3, props)]


# six atoms and reads at one state: 4032 of 64 valuations x 64 read
# patterns fail, against 4 allowed codes
MANY_MISSES = "K p & K q & K r & K s & K x & K y"


@pytest.mark.parametrize("props", [frozenset(("c",)), frozenset()])
def test_tables_failing_on_most_lanes_judge_code_by_code(monkeypatch, props):
    # the table stops at its first failing lane group, and the scan finds
    # the minimum at its first candidate, the least frame: the minimum of
    # the brute force and of the orbit-pruned scan
    f = parse(MANY_MISSES)
    assert search._some_code_fails(compile_formula(f), 1, props)
    want = _expected_json(_brute_minimum(f, 1, props))
    swept = _counting_sweeps(monkeypatch)
    assert _scan_json(f, ClassSpec(props, 1)) == want
    assert swept == _candidates(1, props)[:1]
    _without_the_local_flag(monkeypatch)
    assert _scan_json(f, ClassSpec(props, 1)) == want


EVERY_PROPERTY_SET = [frozenset(props) for size in range(6)
                      for props in combinations(
                          ("m", "c", "n", "r", "neg-suppl"), size)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("props", EVERY_PROPERTY_SET, ids=sorted)
def test_class_tables_are_closed_under_renaming_states(n, props):
    # both orbit arguments rest on this: a permutation maps the codes
    # allowed at s onto those allowed at its image of s
    for source, table in search._state_permutations(n):
        for s in range(n):
            image = {table[code] for code in allowed_family_codes(n, props, s)}
            assert image == set(allowed_family_codes(
                n, props, source.index(s))), (source, s)


def _orbit(n, masks):
    """The valuations (atom masks) that renaming the states makes of
    masks."""
    return {tuple(sum((x >> w & 1) << image[w] for w in range(n))
                  for x in masks)
            for image in permutations(range(n))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_lanes_hold_one_valuation_per_orbit(n):
    # C(2^k + n - 1, n) valuations, and every valuation is a renaming of
    # exactly one of them; read patterns repeat the atoms' lanes
    full = (1 << n) - 1
    for k in range(4):
        V, _, atoms, _ = search._pattern_lanes(n, k, 0)
        assert V == comb((1 << k) + n - 1, n), k
        least = [tuple(a >> j * n & full for a in atoms) for j in range(V)]
        seen = []
        for masks in least:
            seen.extend(_orbit(n, masks))
        assert sorted(seen) == sorted(product(range(1 << n), repeat=k)), k
        assert search._pattern_lanes(n, k, 1)[2] == \
            [a | a << V * n for a in atoms]


def _orbit_and_full_answers(f, n, props):
    """Whether the orbit lanes find a failing code for the formula's
    one-step program, and whether the per-code referee finds one among
    every valuation; None for both past the lane budget or without a
    one-step program."""
    step = search._one_step_program(compile_formula(f, atoms_of(f)))
    if step is None or _table_lanes(step, n) > search._TABLE_LANES:
        return None, None
    return (search._some_code_fails(step, n, props),
            any(failing_code_masks(step, n, props)))


def _random_program_formula(rng, props):
    """A random local or nested formula, with announcements over (m)
    classes."""
    kind = rng.below(3)
    if kind == 0:
        return random_local_formula(rng, 3, "m" in props)
    if kind == 1 and "m" in props:
        return random_announcement_formula(rng, 3)
    return random_full_formula(rng, 3 + rng.below(2))


# every class at one to three states, and the (m) classes at four
PROGRAM_COUNTS = [(props, n) for n in (1, 2, 3, 4)
                  for props in EVERY_PROPERTY_SET if n < 4 or "m" in props]


def test_orbit_lanes_find_a_failing_code_iff_the_full_table_does():
    # seeded: random local and nested programs over PROGRAM_COUNTS; each
    # answer occurs, and past the lane budget
    rng = SplitMix64(27)
    answers = set()
    for case in range(640):
        props, n = PROGRAM_COUNTS[case % len(PROGRAM_COUNTS)]
        f = _random_program_formula(rng, props)
        got, want = _orbit_and_full_answers(f, n, props)
        assert got == want, (f, sorted(props), n)
        answers.add(got)
    assert answers == {None, False, True}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), count=st.sampled_from(PROGRAM_COUNTS))
def test_orbit_lanes_find_a_failing_code_iff_the_full_table_does_fuzzed(
        seed, count):
    props, n = count
    f = _random_program_formula(SplitMix64(seed), props)
    got, want = _orbit_and_full_answers(f, n, props)
    assert got == want, f


R_NEG_SUPPL = (frozenset(("r", "neg-suppl")),
               frozenset(("c", "r", "neg-suppl")))

# Local formulas whose minima over R_NEG_SUPPL have three states: at the
# class's least frame for the first, at that frame with state u's code
# raised for the others
LOCAL_N3 = (
    "! (K (q & ! p) & ! K ! p & U q & ! O true)",
    "! (! O ! q & U (p | q) & K (p & ! q) & K q & ! q)",
    "! (O (q -> p) & ! O (p | q) & U ! q & W ! p)",
    "! (K true & ! O (p -> q) & U (p | q))",
)


def _local_cases(seed):
    """LOCAL_N3, random local formulas, and a valid formula per each."""
    rng = SplitMix64(seed)
    cases = [*map(parse, LOCAL_N3),
             *(random_local_formula(rng, 3) for _ in range(8))]
    return cases + [Or(f, Not(f)) for f in cases]


def _counting_sweeps(monkeypatch):
    """Patch the scans' frame sweeps to record each frame swept, as its
    family codes; returns that list."""
    swept = []
    sweep = search._sweep

    def counted(prog, fr, blocks):
        lanes = range(0, len(fr.codes), fr.n)  # a frame's lanes are adjacent
        swept.extend(dict.fromkeys(tuple(fr.codes[at:at + fr.n])
                                   for at in lanes))
        return sweep(prog, fr, blocks)

    monkeypatch.setattr(search, "_sweep", counted)
    return swept


def _candidates(n: int, props) -> list[tuple]:
    """A local scan's candidate frames at n states: the class's least
    frame with the last state's code raised through its allowed codes."""
    least = tuple(allowed_family_codes(n, props, s)[0] for s in range(n - 1))
    return [least + (code,) for code in allowed_family_codes(n, props, n - 1)]


@pytest.mark.parametrize("props", R_NEG_SUPPL)
def test_local_scans_sweep_only_the_frame_with_the_minimum(monkeypatch, props):
    # the class's least three-state frame gives its states three codes.  A
    # local scan lists no orbit-least frame; it sweeps only at the state
    # count of its countermodel, and there no more than its candidates,
    # in order, up to the frame holding the countermodel
    assert len({allowed_family_codes(3, props, s)[0] for s in range(3)}) == 3
    monkeypatch.setattr(search, "_orbit_least_frames", _refused)
    swept = _counting_sweeps(monkeypatch)
    for f in _local_cases(20):
        assert compile_formula(f).local
        swept.clear()
        verdict = find_countermodel(f, ClassSpec(props, 3))
        found = isinstance(verdict, Countermodel)
        if found:
            n = verdict.pointed.model.size
            assert swept == _candidates(n, props)[:len(swept)], f
            assert tuple(verdict.pointed.model.frame.family_codes()) in swept
        else:
            assert swept == [], f
    assert not found  # the last case, f | ! f, is valid


@pytest.mark.parametrize("props", EVERY_PROPERTY_SET, ids=sorted)
def test_local_scans_match_the_orbit_pruned_scan(monkeypatch, props):
    # with the local flag off the same minima come from the orbit-least
    # frames, and the oracle's brute force agrees
    cls = ClassSpec(props, 3)
    cases = _local_cases(21)
    local = [_scan_json(f, cls) for f in cases]
    _without_the_local_flag(monkeypatch)
    assert [_scan_json(f, cls) for f in cases] == local
    sizes = []
    for f, verdict in zip(cases, local):
        if verdict["verdict"] == "countermodel":
            found = _brute_minimum(f, 3, props,
                                   lambda n: _oracle_class_frames(n, props))
            assert verdict == _expected_json(found), f
            sizes.append(len(verdict["model"]["states"]))
    assert len(sizes) < len(cases)
    if props in R_NEG_SUPPL:
        assert sizes.count(3) == len(LOCAL_N3)


# --- the one-step program of a nested formula -------------------------------


def _no_countermodel_at(f, prog, n: int, props) -> bool:
    """Whether no n-state frame of the class has a countermodel: the
    oracle's brute force up to two states; at three, every class frame
    swept by the kernel, the oracle being too slow there."""
    if n < 3:
        return _brute_minimum(f, n, props, lambda m: _oracle_class_frames(
            m, props) if m == n else ()) is None
    k = len(prog.atoms)
    frames = product(*(allowed_family_codes(n, props, s) for s in range(n)))
    return not any(_sweep(prog, _Frame(n, codes), _blocks(n, k))
                   for codes in frames)


def test_one_step_programs_equal_the_formula_with_atoms_as_their_reads():
    # the soundness lemma itself: on random frames of 1-4 states under
    # random valuations, with each fresh atom holding at its read's
    # extension in the formula's program, the one-step program holds
    # exactly where the formula does; random nested formulas with up to
    # two announcements, whose reads take their contexts
    rng = SplitMix64(25)
    checked, announced = 0, 0
    while checked < 400:
        f = random_full_formula(rng, 4, 2)
        prog = compile_formula(f, atoms_of(f))
        step = search._one_step_program(prog)
        if prog.local or step is None:
            continue
        n = 1 + rng.below(4)
        fr = _Frame(n, [rng.below(1 << (1 << n)) for _ in range(n)])
        vals = [0] * prog.size
        masks = [rng.below(1 << n) for _ in prog.atoms]
        _exec(prog.code, vals, masks, fr, 1, fr.full)
        given = dict(zip(prog.atoms, masks))
        step_vals = [0] * step.size
        _exec(step.code, step_vals, [given[a] if a in given else vals[int(a)]
                                     for a in step.atoms], fr, 1, fr.full)
        assert step_vals[step.root] == vals[prog.root], f
        checked += 1
        announced += step.announces
    assert announced >= 50, announced


@pytest.mark.parametrize("read, atom", [
    (Bullet, lambda a, q: And(a, q)),
    (Wrong, lambda a, q: And(Not(a), q)),
    (Circ, lambda a, q: Or(Not(a), q))], ids=["U", "W", "O"])
def test_fresh_atoms_carry_the_e_axioms_of_their_reads(read, atom):
    # on random models of 1-4 states: with q at the extension of U a,
    # W a or O a, the atom a & q, ! a & q or ! a | q is that extension
    # (axioms oE and WE); and under any q, the one-step program of
    # K (read a) has K read that atom, not q alone
    rng = SplitMix64(26)
    q = Atom("x")
    for _ in range(200):
        n = 1 + rng.below(4)
        model = random_model(rng, n)
        a = random_full_formula(rng, 2)
        e = extension(model, read(a))
        at_e = NeighborhoodModel(model.frame, {**model.valuation_map(),
                                               "x": e})
        assert extension(at_e, atom(a, q)) == e, a
        prog = compile_formula(Box(read(a)), ("p", "q"))
        step = search._one_step_program(prog)
        fr = _Frame(n, model.frame.family_codes())
        given = [model.atom_extension(name).bits for name in prog.atoms]
        vals = [0] * prog.size
        _exec(prog.code, vals, given, fr, 1, fr.full)
        own, r = str(prog.code[prog.root][2]), rng.below(1 << n)
        masks = [r if name == own else vals[int(name)] if name.isdigit()
                 else given[prog.atoms.index(name)] for name in step.atoms]
        step_vals = [0] * step.size
        _exec(step.code, step_vals, masks, fr, 1, fr.full)
        slot = step.root
        while step.code[slot][1] == _IMP:  # past the definitions
            slot = step.code[slot][3]
        assert step.code[slot][1] == _BOX
        at_r = NeighborhoodModel(model.frame, {**model.valuation_map(),
                                               "x": StateSet(n, r)})
        assert step_vals[step.code[slot][2]] == \
            extension(at_r, atom(a, q)).bits, (a, r)


@pytest.mark.parametrize("text, props", [
    ("U p -> U U p", M), ("W W true <-> W ! true", frozenset(("c",)))])
def test_e_axioms_settle_counts_without_frames_or_draws(monkeypatch, text,
                                                        props):
    # row 5.2 over (m), and a nested formula valid on every frame over (c):
    # with U p read as p & q and W true as ! true & q, no allowed code
    # fails either one-step program at one to four states, so no
    # orbit-least frame is listed and no stream block is asked
    def refused(*args):
        raise AssertionError("orbit-least frames enumerated")

    f = parse(text)
    monkeypatch.setattr(search, "_orbit_least_frames", refused)
    asked = []
    monkeypatch.setattr(search, "_splitmix_block",
                        lambda *args: asked.append(args))
    assert find_countermodel(f, ClassSpec(props, 3)) == \
        NoCounterexampleUpTo(3, "exhaustive")
    for n in range(1, 5):
        assert find_countermodel(f, ClassSpec(props, n), "sampled", seed=9,
                                 samples=1000) == \
            NoCounterexampleUpTo(n, "sampled", 1000, 9)
    assert asked == []


def test_one_step_programs_settle_only_counts_without_a_countermodel():
    # soundness: wherever no allowed code fails the one-step program at
    # its state, no frame of the class at n has a countermodel; random
    # nested formulas, with announcements over (m) classes, over every
    # class at one and two states and over the (m) classes at three,
    # whose frames are few; the settled programs read U, W and O outside
    # every announcement through all three kinds of E-axiom atom
    pairs = [(frozenset(props), n) for n in (1, 2, 3) for props in CLASSES
             if n < 3 or "m" in props]
    rng = SplitMix64(24)
    settled, unsettled, case, kinds = 0, 0, 0, set()
    while settled + unsettled < 1200:
        props, n = pairs[case % len(pairs)]
        case += 1
        f = random_full_formula(rng, 4, 1 if "m" in props else 0)
        prog = compile_formula(f, atoms_of(f))
        if prog.local:
            continue
        step = search._one_step_program(prog)
        if search._some_code_fails(step, n, props):
            unsettled += 1
            continue
        settled += 1
        assert _no_countermodel_at(f, prog, n, props), (f, sorted(props), n)
        reads = [prog.code[int(name)] for name in step.atoms if name.isdigit()]
        kinds.update(op for _, op, _, b in reads if op > _BOX and b is None)
    assert settled >= 150 and unsettled, (settled, unsettled)
    assert kinds == {_BULLET, _CIRC, _WRONG}, kinds


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pulled_back_codes_stay_in_their_class(n):
    # the lift lemma: a code c allowed at s of n - 1 states pulls back to
    # c | c << 2^(n-1) at s of n states, the family of the sets whose
    # part on the old states is in c; it keeps every class property
    for props in EVERY_PROPERTY_SET:
        for s in range(n - 1):
            allowed = set(allowed_family_codes(n, props, s))
            for c in allowed_family_codes(n - 1, props, s):
                assert c | c << (1 << (n - 1)) in allowed, (props, s, c)


def test_one_step_tables_keep_failing_as_states_are_added():
    # the lift lemma: a code failing one count's table lifts to the next
    # count, so an empty table at max_states is empty at every smaller
    # count; seeded random programs over PROGRAM_COUNTS within the budget
    counts = [(props, n) for props, n in PROGRAM_COUNTS if n > 1]
    rng = SplitMix64(30)
    answers = set()
    for case in range(4000):
        props, n = counts[case % len(counts)]
        f = _random_program_formula(rng, props)
        step = search._one_step_program(compile_formula(f, atoms_of(f)))
        if step is None or _table_lanes(step, n) > search._TABLE_LANES:
            continue
        below, here = (search._some_code_fails(step, m, props)
                       for m in (n - 1, n))
        assert here or not below, (f, sorted(props), n)
        answers.add((below, here))
    assert answers == {(False, False), (False, True), (True, True)}


def _counting_tables(monkeypatch):
    """Patch the one-step table to record the state count of each one
    asked; returns that list."""
    asked = []
    table = search._some_code_fails

    def counted(step, n, props):
        asked.append(n)
        return table(step, n, props)

    monkeypatch.setattr(search, "_some_code_fails", counted)
    return asked


def test_a_settled_request_asks_one_table(monkeypatch):
    asked = _counting_tables(monkeypatch)
    assert find_countermodel(parse("K p & K q -> K (p & q)"), ClassSpec(
        frozenset(("c",)), 3)) == NoCounterexampleUpTo(3, "exhaustive")
    assert asked == [3]


@pytest.mark.parametrize("text, props", [
    ("U (p | q) -> U p | U q", frozenset(("c",))),
    ("U p -> U U p", frozenset()),
    ("K p -> K K p", M),
])
def test_a_table_failing_at_max_states_climbs_from_one(monkeypatch, text,
                                                        props):
    # each count from one asks its own table until one fails, and the
    # scans find the two-state minimum; the table at three is not asked
    # again
    f = parse(text)
    want = _expected_json(_brute_minimum(f, 2, props))
    asked = _counting_tables(monkeypatch)
    assert _scan_json(f, ClassSpec(props, 3)) == want
    assert asked == [3, 1, 2]


def test_false_beliefs_never_iterate_without_enumerating_frames(monkeypatch):
    # W p -> ! W W p (row 5.17): W W p at s needs s outside the extension
    # of W p, so with W p read as an atom defined at s the formula is
    # settled one step deep, and no count lists an orbit-least frame
    def refused(*args):
        raise AssertionError("orbit-least frames enumerated")

    monkeypatch.setattr(search, "_orbit_least_frames", refused)
    assert find_countermodel(parse("W p -> ! W W p"), ClassSpec(
        frozenset(("c",)), 3)) == NoCounterexampleUpTo(3, "exhaustive")


def test_nested_formulas_the_table_leaves_open_are_scanned(monkeypatch):
    # O K W (p & ! p) is valid over (m) up to three states, but not one
    # step deep past one state: two and three states are scanned over
    # their orbit-least frames, to the same verdict
    listed = []
    orbit_least = search._orbit_least_frames

    def counted(n, props):
        listed.append(n)
        return orbit_least(n, props)

    monkeypatch.setattr(search, "_orbit_least_frames", counted)
    assert find_countermodel(parse("O K W (p & ! p)"), M3) == \
        NoCounterexampleUpTo(3, "exhaustive")
    assert listed == [2, 3]


# --- repeated and interrupted scans -------------------------------------------------

DISJOINT3 = "! (! K false & K (p & ! q) & K (q & ! p) & K (! p & ! q))"


def _cold_then_warm(cases, max_states):
    """Each (formula, properties) scanned once, and then again after a
    pass over every case."""
    cold = [_scan_json(f, ClassSpec(props, max_states)) for f, props in cases]
    for f, props in cases:
        _scan_json(f, ClassSpec(props, max_states))
    warm = [_scan_json(f, ClassSpec(props, max_states)) for f, props in cases]
    return cold, warm


@pytest.mark.parametrize("props", [M, NEG_SUPPL])
def test_warm_scans_match_cold_scans_and_brute_force(props):
    # local and non-local formulas, with announcements over (m), a quarter
    # of them valid so their scans run through every frame
    rng = SplitMix64(31)
    cases, kinds = [], set()
    for i in range(24):
        g = random_full_formula(rng, 1 + i % 3, 1 if props == M else 0)
        f = Or(g, Not(g)) if i % 4 == 0 else g
        cases.append((f, props))
        kinds.add(compile_formula(f).local)
    assert kinds == {True, False}
    expected = []
    for f, _ in cases:
        found = _brute_minimum(f, 2, props,
                               lambda n: _oracle_class_frames(n, props))
        expected.append(_expected_json(found) if found else verdict_to_json(
            NoCounterexampleUpTo(2, "exhaustive")))
    assert {e["verdict"] for e in expected} == {"countermodel",
                                                "no-counterexample"}
    cold, warm = _cold_then_warm(cases, 2)
    assert cold == expected
    assert warm == expected


def test_warm_three_state_scans_match_cold_scans_and_brute_force():
    # minima at three states over (m) and neg-suppl, found early and late,
    # local, non-local and announced; and a valid non-local formula
    texts = [(DISJOINT3, M), (DISJOINT3, NEG_SUPPL),
             (f"({DISJOINT3}) & (K K p | ! K K p)", NEG_SUPPL),
             (f"[! (p & q)] {DISJOINT3}", M), (LATE_N3[0], M),
             (LATE_N3[3], M), ("O K W (p & ! p)", M)]
    cases = [(parse(text), props) for text, props in texts]
    expected = []
    for f, props in cases[:-1]:
        found = _brute_minimum(f, 3, props,
                               lambda n, props=props:
                               _oracle_class_frames(n, props))
        assert len(found[0]["states"]) == 3
        expected.append(_expected_json(found))
    expected.append(verdict_to_json(NoCounterexampleUpTo(3, "exhaustive")))
    cold, warm = _cold_then_warm(cases, 3)
    assert cold == expected
    assert warm == expected


class _Interrupt(Exception):
    """Raised into a scan where a user would press Ctrl-C."""


def test_a_scan_interrupted_while_listing_frames_changes_no_later_verdict(
        monkeypatch):
    f = parse(LATE_N3[3])
    cold = _scan_json(f, M3)
    assert cold == _expected_json(_late_minimum(LATE_N3[3]))
    calls = []
    orbit_least = search._orbit_least

    def interrupted(n, props, prefix):
        if n == 3:
            calls.append(prefix)
            if len(calls) == 40:
                raise _Interrupt
        return orbit_least(n, props, prefix)

    monkeypatch.setattr(search, "_orbit_least", interrupted)
    with pytest.raises(_Interrupt):
        _scan_json(f, M3)
    assert _scan_json(f, M3) == cold


def test_a_scan_interrupted_while_building_a_chunk_changes_no_later_verdict(
        monkeypatch):
    f = parse("! (! K false & K (p & K p) & K (p & ! K p) & K ! p)")
    cold = _scan_json(f, M3)
    wide = []  # three-state lane chunks of more than one frame
    lane_frame = search._Frame

    def interrupted(n, codes, force=False, monotone=None):
        if n == 3 and len(codes) > 3 * 8:
            wide.append(codes)
            if len(wide) == 3:
                raise _Interrupt
        return lane_frame(n, codes, force, monotone)

    monkeypatch.setattr(search, "_Frame", interrupted)
    with pytest.raises(_Interrupt):
        _scan_json(f, M3)
    assert _scan_json(f, M3) == cold


@pytest.mark.parametrize("cap", [16384, 100])
def test_interleaved_scans_each_list_every_frame(monkeypatch, cap):
    # two scans of one class advanced in turns of one, two and three
    # chunks, sharing the cached orbit decisions; with chunks doubling
    # freely and capped at a dozen frames
    monkeypatch.setattr(search, "_CHUNK_CAP", cap)
    per = 8  # valuations of one atom over three states
    _, A = _block_atoms(3, 1)
    scans = [search._lane_chunks(3, search._orbit_least_frames(3, M), per, A,
                                 True) for _ in range(2)]
    listed, done, turn = [[], []], set(), 0
    while len(done) < 2:
        i, take = turn % 2, 1 + turn % 3
        chunks = list(islice(scans[i], take))
        if len(chunks) < take:
            done.add(i)
        for lanes, _ in chunks:
            listed[i].extend(tuple(lanes.codes[at:at + 3])
                             for at in range(0, len(lanes.codes), 3 * per))
        turn += 1
    cold = list(search._orbit_least_frames(3, M))
    assert listed == [cold, cold]


def test_announcement_scans_check_no_frame_for_monotonicity(monkeypatch):
    # scans read announcements over classes requiring (m) only, so they
    # tell their frames so; a frame not told checks its codes
    import nbhdmc.semantics as semantics
    calls = []

    def counted(*args):
        calls.append(args)
        return has_property(*args)

    has_property = semantics.code_has_property
    monkeypatch.setattr(semantics, "code_has_property", counted)
    model = _model(("s", "t"), ((3,), (2, 3)), (("p", 1), ("q", 3)))
    evaluate(PointedModel(model, 0), parse("[p] K q"))
    assert calls
    calls.clear()
    rng = SplitMix64(8)
    valid = [parse("[p] K q <-> (p -> K (p -> q))"),
             parse("[[W false] (p | K q)] [q] (U true -> true)")]
    for _ in range(6):
        g = random_announcement_formula(rng, 3)
        valid.append(Or(g, Not(g)))
    assert not all(compile_formula(f).local for f in valid)
    none = {"exhaustive": NoCounterexampleUpTo(3, "exhaustive"),
            "sampled": NoCounterexampleUpTo(3, "sampled", 300, 4)}
    for f in valid:
        for props in (M, frozenset(("m", "n"))):
            for mode, verdict in none.items():
                assert find_countermodel(f, ClassSpec(props, 3), mode,
                                         seed=4, samples=300) == verdict
    # five class atoms over three states pass the one-step table's lane
    # budget, and the local candidate frames fill more than one valuation
    # block
    assert find_countermodel(valid[0], ClassSpec(
        M, 3, ("p", "q", "r", "s", "x"))) == none["exhaustive"]
    assert calls == []


# --- distinguishability -------------------------------------------------------------------

W_BASE = _model(("s", "t"), ((3,), (3,)), (("p", 2),))
W_EXT = _model(("s", "t"), ((2, 3), (3,)), (("p", 2),))
B_BASE = _model(("s", "t"), ((3,), (3,)), (("p", 1),))
B_EXT = _model(("s", "t"), ((1, 3), (3,)), (("p", 1),))


def test_distinguish_finds_the_separating_formula():
    assert distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0),
                       "wrong", 2) == parse("W p")
    assert distinguish(PointedModel(B_BASE, 0), PointedModel(B_EXT, 0),
                       "bullet", 2) == parse("U p")


def test_distinguish_respects_fragment_invariance():
    assert distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0),
                       "bullet", 3) is None
    assert distinguish(PointedModel(B_BASE, 0), PointedModel(B_EXT, 0),
                       "wrong", 3) is None


def test_distinguish_full_fragment_and_depth_bound():
    assert distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0),
                       "full", 0) is None
    assert distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0),
                       "full", 2) == parse("W p")
    assert distinguish(PointedModel(W_BASE, 0), PointedModel(W_BASE, 0),
                       "full", 3) is None


def test_distinguish_uses_atoms_from_both_models():
    m1 = _model(("s",), ((),), (("p", 1),))
    m2 = _model(("s",), ((),), (("q", 1),))
    assert distinguish(PointedModel(m1, 0), PointedModel(m2, 0),
                       "full", 1) == Atom("p")


def test_distinguish_without_atoms_grows_the_closure_from_true():
    # neither model has an atom, so the closure starts from true: W ! W
    # false holds at s in the first model only, and the W fragment finds
    # it at depth 2; the U fragment reads {s} and {t} alike in both
    m1 = _model(("s", "t"), ((0,), (0, 3)))
    m2 = _model(("s", "t"), ((0,), (1, 3)))
    pm1, pm2 = PointedModel(m1, 0), PointedModel(m2, 0)
    assert evaluate(pm1, parse("W ! W false"))
    assert not evaluate(pm2, parse("W ! W false"))
    for kind in ("wrong", "full"):
        assert distinguish(pm1, pm2, kind, 1) is None
        for depth in (2, 3):
            assert distinguish(pm1, pm2, kind, depth) == parse("W ! W ! true")
    assert distinguish(pm1, pm2, "bullet", 3) is None


def test_distinguish_rejects_unknown_fragment():
    with pytest.raises(ValueError, match="fragment"):
        distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0), "box", 1)


def test_negative_depth_is_refused():
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0), "full",
                    -1)
    with pytest.raises(ValueError, match="depth must be at least 0, got -3"):
        fragment_representatives((W_BASE, W_EXT), ("p",), (Wrong,), -3)


def test_fragment_representatives_signatures_are_unique():
    reps = fragment_representatives((W_BASE, W_EXT), ("p",), (Wrong,), 2)
    sigs = [sig for _, sig in reps]
    assert len(sigs) == len(set(sigs))
    assert any(f == Atom("p") for f, _ in reps)


def _distinguish_pairs(rng, count):
    """Pairs of (model, state) of up to 4 states each.  Every third pair
    is two random models; the others are a model and a copy with one
    state's family redrawn, at the same state, so that only modal
    formulas can tell them apart, if anything can."""
    for k in range(count):
        n1 = 1 + rng.below(4)
        if k % 3 == 0:
            n2 = 1 + rng.below(4)
            yield (random_model(rng, n1), rng.below(n1),
                   random_model(rng, n2), rng.below(n2))
            continue
        doc = random_model_doc(rng, n1)
        other = random_model_doc(rng, n1)
        changed = doc["states"][rng.below(n1)]
        copy = dict(doc, neighborhoods=dict(
            doc["neighborhoods"], **{changed: other["neighborhoods"][changed]}))
        state = rng.below(n1)
        yield model_from_json(doc), state, model_from_json(copy), state


def test_distinguish_returns_the_first_separating_representative():
    """distinguish stops its closure early; the full closure referees."""
    outcomes = set()
    for m1, s1, m2, s2 in _distinguish_pairs(SplitMix64(2024), 15):
        atoms = {name for m in (m1, m2) for name, _ in m.valuation}
        for fragment, operators in search._FRAGMENT_OPS.items():
            for depth in (0, 1, 2):
                reps = fragment_representatives((m1, m2), atoms, operators,
                                                depth)
                expected = next(
                    (f for f, (e1, e2) in reps
                     if (e1 >> s1 & 1) != (e2 >> s2 & 1)), None)
                assert distinguish(PointedModel(m1, s1), PointedModel(m2, s2),
                                   fragment, depth) == expected
                outcomes.add(None if expected is None else
                             isinstance(expected, Atom))
    assert outcomes == {None, True, False}  # none, an atom, a compound


# the fragments' operator sets, and every operator
_OPERATOR_SETS = (*search._FRAGMENT_OPS.values(), (Bullet, Circ, Wrong, Box))
_ATOM_SETS = ((), ("p",), ("p", "q"))


def _closure_cases(rng, count):
    """(models, atoms, operators, depth): one or two random models of one
    to three states over no atom, p, or p and q, each operator set in
    turn, depth 0 to 3."""
    for k in range(count):
        atoms = _ATOM_SETS[rng.below(3)]
        models = tuple(random_model(rng, 1 + rng.below(3), atoms)
                       for _ in range(1 + rng.below(2)))
        yield (models, atoms, _OPERATOR_SETS[k % len(_OPERATOR_SETS)],
               rng.below(4))


def test_representatives_match_the_order_referee():
    """The closure grows a depth per round and offers each pair once;
    the referee offers every pair each round and tracks depths, and the
    lists, in order, and distinguish's answers are the same."""
    for models, atoms, operators, depth in _closure_cases(SplitMix64(31),
                                                          300):
        assert fragment_representatives(models, atoms, operators, depth) \
            == list(_representatives(models, atoms, operators, depth))
    rng = SplitMix64(3131)
    answers = set()
    for _ in range(60):
        pairs = [(random_model(rng, n, _ATOM_SETS[rng.below(3)]),
                  rng.below(n)) for n in (1 + rng.below(4), 1 + rng.below(4))]
        (m1, s1), (m2, s2) = pairs
        atoms = sorted({name for m in (m1, m2) for name, _ in m.valuation})
        for fragment, operators in search._FRAGMENT_OPS.items():
            for depth in (0, 1, 2):
                expected = next(
                    (f for f, (e1, e2) in _representatives(
                        (m1, m2), atoms, operators, depth)
                     if (e1 >> s1 & 1) != (e2 >> s2 & 1)), None)
                assert distinguish(PointedModel(m1, s1), PointedModel(m2, s2),
                                   fragment, depth) == expected
                answers.add(None if expected is None else atoms == [])
    assert answers == {None, True, False}  # none; with no atom; with one


def test_representatives_are_the_signature_closure_by_depth():
    """One formula per signature of the closure up to the depth, none
    deeper than it, and none shallower than one before it."""
    for models, atoms, operators, depth in _closure_cases(SplitMix64(37),
                                                          300):
        reps = fragment_representatives(models, atoms, operators, depth)
        sigs = [sig for _, sig in reps]
        assert len(sigs) == len(set(sigs))
        assert set(sigs) == signature_closure(models, atoms, operators, depth)
        depths = [modal_depth(f) for f, _ in reps]
        assert depths == sorted(depths)
        assert depths[-1] <= depth

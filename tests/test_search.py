"""Frame enumeration, countermodel search, sampling, distinguishability."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from itertools import product

import pytest

import nbhdmc.search as search

import _oracle
from nbhdmc.formula import Atom, Wrong, atoms_of, parse
from nbhdmc.model import (NeighborhoodFrame, NeighborhoodModel, PointedModel,
                          StateSet, check_property)
from nbhdmc.search import (ClassSpec, Countermodel, NoCounterexampleUpTo,
                           SplitMix64, allowed_family_codes, count_frames,
                           distinguish, enumerate_frames, find_countermodel,
                           fragment_representatives, verdict_to_json,
                           verdict_to_text, worker_count)
from nbhdmc.semantics import compile_formula, evaluate

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
    assert list(enumerate_frames(2, index_range=(10, 20))) == frames[10:20]


def test_enumeration_range_errors():
    with pytest.raises(ValueError, match="outside"):
        list(enumerate_frames(1, index_range=(0, 5)))
    with pytest.raises(ValueError, match="sampled"):
        list(enumerate_frames(4))
    with pytest.raises(ValueError, match="sampled"):
        count_frames(4)


def test_allowed_family_codes_depend_on_state_only_for_neg_suppl():
    m = frozenset(("m",))
    assert allowed_family_codes(1, m, 0) == (0, 2, 3)
    ns = frozenset(("neg-suppl",))
    assert allowed_family_codes(2, ns, 0) != allowed_family_codes(2, ns, 1)


# --- class specs ------------------------------------------------------------------

def test_class_spec_validation():
    assert ClassSpec(("m", "m"), 2, ("q", "p", "q")).atoms == ("p", "q")
    with pytest.raises(ValueError, match="unknown class properties"):
        ClassSpec(frozenset(("filter",)), 2)
    with pytest.raises(ValueError, match="max_states"):
        ClassSpec(frozenset(), 0)
    with pytest.raises(ValueError, match="max_states"):
        ClassSpec(frozenset(), 17)


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


def _brute_minimum(f, max_states, properties=frozenset()):
    """First falsifying (doc, state) in canonical order, by the oracle."""
    atoms = atoms_of(f)
    for n in range(1, max_states + 1):
        for codes in product(range(1 << (1 << n)), repeat=n):
            frame_doc = _doc(n, codes, (), ())
            if not all(_oracle.check_prop(frame_doc, p) for p in properties):
                continue
            for assignment in product(range(1 << n), repeat=len(atoms)):
                doc = _doc(n, codes, atoms, assignment)
                for state in doc["states"]:
                    if not _oracle.holds(doc, state, f):
                        return doc, state
    return None


@pytest.mark.parametrize("text, properties", [
    ("O p & p -> O (p | q)", frozenset()),
    ("W (p & q) & ! q -> W q", frozenset()),
    ("! W p", frozenset()),
    ("U p -> p", frozenset()),
    ("U p -> U U p", frozenset(("m",))),
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


# --- parallel scan ------------------------------------------------------------------------

def test_jobs_do_not_change_verdicts():
    cases = [(parse(MOORE_TARGET), M3),
             (parse("O p & p -> O (p | q)"), ALL2),
             (parse("U p -> p"), ALL2)]
    for f, cls in cases:
        serial = find_countermodel(f, cls, jobs=1)
        parallel = find_countermodel(f, cls, jobs=4)
        assert verdict_to_json(serial) == verdict_to_json(parallel)


def test_worker_count_refuses_below_one_and_clamps_to_cpus():
    assert worker_count(1, 8) == 1
    assert worker_count(4, 8) == 4
    assert worker_count(64, 2) == 2
    assert worker_count(3, None) == 1
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            worker_count(jobs, 8)
    with pytest.raises(ValueError, match="at least 1"):
        find_countermodel(parse("p"), ALL2, jobs=0)


class _BrokenPool:
    """A process pool whose every worker has died."""

    submitted = 0

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        _BrokenPool.submitted += 1
        fut = Future()
        fut.set_exception(BrokenProcessPool("a worker died"))
        return fut


def test_broken_pool_falls_back_to_the_serial_scan(monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _BrokenPool)
    for text, cls in [(MOORE_TARGET, M3), ("O p & p -> O (p | q)", ALL2),
                      ("U p -> p", ALL2)]:
        f = parse(text)
        prog = compile_formula(f, atoms_of(f))
        for n in range(1, cls.max_states + 1):
            total = count_frames(n, cls)
            args = (prog, n, cls.properties, total)
            assert search._run_chunks(*args, 2) == \
                search._run_chunks(*args, 1)
    assert _BrokenPool.submitted > 0


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


def test_distinguish_rejects_unknown_fragment():
    with pytest.raises(ValueError, match="fragment"):
        distinguish(PointedModel(W_BASE, 0), PointedModel(W_EXT, 0), "box", 1)


def test_fragment_representatives_signatures_are_unique():
    reps = fragment_representatives((W_BASE, W_EXT), ("p",), (Wrong,), 2)
    sigs = [sig for _, sig in reps]
    assert len(sigs) == len(set(sigs))
    assert any(f == Atom("p") for f, _ in reps)

"""Sampled search against a draw-by-draw referee.

The referee replays SplitMix64 one draw at a time, exactly as README
specifies the draws, and judges each draw with the set-based oracle.
Sampled search judges whole chunks of draws at once on lane frames and
computes the stream in bulk; its verdict must be the referee's byte for
byte.
"""

import pytest

import _oracle
from _referee import failing_code_masks
import nbhdmc.search as search
from _gen import (CLASSES, STATE_NAMES, random_full_formula,
                  random_local_formula)
from nbhdmc.formula import Announce, atoms_of, parse
from nbhdmc.model import PointedModel, model_from_json
from nbhdmc.search import (ClassSpec, Countermodel, NoCounterexampleUpTo,
                           SplitMix64, allowed_family_codes, find_countermodel,
                           verdict_to_text)
from nbhdmc.semantics import compile_formula


def _draw_doc(names, codes, atoms, masks) -> dict:
    n = len(names)

    def listed(mask):
        return [names[i] for i in range(n) if mask >> i & 1]

    return {"states": list(names),
            "neighborhoods": {names[s]: [listed(x) for x in range(1 << n)
                                         if codes[s] >> x & 1]
                              for s in range(n)},
            "valuation": {a: listed(m) for a, m in zip(atoms, masks)}}


def referee(f, props, n: int, seed: int, samples: int):
    """(verdict text, index of the failing draw or None), one draw at a
    time: per draw one family index per state, then one mask per atom."""
    atoms = atoms_of(f)
    allowed = [allowed_family_codes(n, frozenset(props), s) for s in range(n)]
    names = STATE_NAMES[:n]
    rng = SplitMix64(seed)
    for i in range(samples):
        codes = [options[rng.below(len(options))] for options in allowed]
        masks = [rng.below(1 << n) for _ in atoms]
        doc = _draw_doc(names, codes, atoms, masks)
        for s, name in enumerate(names):
            if not _oracle.holds(doc, name, f):
                pm = PointedModel(model_from_json(doc), s)
                return verdict_to_text(Countermodel(pm)), i
    return verdict_to_text(NoCounterexampleUpTo(n, "sampled", samples,
                                                 seed)), None


def _sampled(f, props, n, seed, samples) -> str:
    return verdict_to_text(find_countermodel(
        f, ClassSpec(frozenset(props), n), "sampled", seed=seed,
        samples=samples))


def test_random_full_language_formulas_match_the_referee():
    rng = SplitMix64(2024)
    counts = (1, 2, 3, 63, 64, 200)
    found = 0
    for case in range(120):
        props = CLASSES[case % len(CLASSES)]
        n = 1 + case % 4
        budget = 2 if "m" in props else 0
        f = random_full_formula(rng, 1 + rng.below(4), budget)
        samples = counts[rng.below(len(counts))]
        seed = rng.next()
        want, index = referee(f, props, n, seed, samples)
        assert _sampled(f, props, n, seed, samples) == want, (case, f)
        found += index is not None
    assert 0 < found < 120  # both kinds of verdict are compared


def test_random_announcements_over_m_match_the_referee():
    # announced and body formulas vary per lane, so each lane reads its
    # modal operators relative to its own announced extension
    rng = SplitMix64(3)
    for case in range(40):
        props = (("m",), ("m", "c"), ("m", "n"))[case % 3]
        n = 3 + case % 2
        f = Announce(random_full_formula(rng, 2),
                     random_full_formula(rng, 3, 1))
        seed = rng.below(1000)
        want, _ = referee(f, props, n, seed, 200)
        assert _sampled(f, props, n, seed, 200) == want, (case, f)


def _draws_decide(monkeypatch):
    """Turn off the one-step check, so valid local formulas are drawn."""
    monkeypatch.setattr(search, "_some_code_fails", lambda *args: True)


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 63, 64, 127, 128, 3000,
                                     4095, 4096, 4097])
def test_sample_counts_around_chunk_boundaries(monkeypatch, samples):
    # valid over (c), so every draw is judged
    _draws_decide(monkeypatch)
    f = parse("U p & U q -> U (p | q) | U (p & q)")
    want, index = referee(f, ("c",), 2, 11, samples)
    assert index is None
    assert _sampled(f, ("c",), 2, 11, samples) == want


# (formula, class, n, seed, index of the first failing draw)
LATE = [
    ("[W p] false", ("m",), 3, 768, 1),
    ("W p & W q -> W (p | q)", ("n",), 4, 3, 64),
    ("O p & O q -> O (p & q)", ("r",), 3, 0, 64),
    ("W p & W q -> W (p | q)", ("c",), 4, 5, 73),
    ("U p & U q -> U (p & q)", (), 4, 4, 86),
    ("K p & K q -> K (p & q)", (), 2, 5, 190),
    ("U p & U q -> U (p & q)", ("neg-suppl",), 3, 1, 317),
    ("W p & W q -> W (p | q)", (), 3, 4, 328),
    ("O p & O q -> O (p & q)", ("neg-suppl",), 3, 0, 482),
    ("[[q] W q] O K true | U [p & p] false", ("m",), 3, 446, 73),
    ("K (K [q] q | ! [q] false)", ("m",), 4, 109, 120),
    ("[W (true & false & ! p)] ! p", ("m", "n"), 4, 93, 171),
    ("[q] ([true <-> true] K q & K K q)", ("m",), 4, 970, 283),
    # every code allowed: 4, 16, 256 and 65536 codes, read off the stream's
    # low bytes; then a table per state
    ("p & q & x & y & z -> W ! p | K (q & x)", (), 1, 18, 487),
    ("K p & K q -> K (p | q)", (), 2, 5, 157),
    ("O p & O q -> O (p & q)", (), 3, 34, 509),
    ("U (p & q) & x -> U p | U q", (), 4, 13, 289),
    ("U p & U q -> U (p & q)", ("neg-suppl",), 4, 31, 152),
]


def _count_blocks(monkeypatch) -> list:
    """The stream blocks sampled search computes, as they are asked for."""
    asked = []
    block = search._splitmix_block

    def counted(seed, start, count):
        asked.append(count)
        return block(seed, start, count)

    monkeypatch.setattr(search, "_splitmix_block", counted)
    return asked


@pytest.mark.parametrize("text,props,n,seed,first", LATE)
def test_first_failure_past_the_first_chunk(monkeypatch, text, props, n, seed,
                                            first):
    f = parse(text)
    want, index = referee(f, props, n, seed, 1000)
    assert index == first
    asked = _count_blocks(monkeypatch)
    assert _sampled(f, props, n, seed, 1000) == want
    assert sum(asked) > first * (n + len(atoms_of(f)))  # drawn to the failure


@pytest.mark.parametrize("first_chunk,cap", [(1, 1), (1, 4), (3, 7),
                                             (64, 4096)])
def test_chunk_sizes_do_not_change_verdicts(monkeypatch, first_chunk, cap):
    monkeypatch.setattr(search, "_FIRST_CHUNK", first_chunk)
    monkeypatch.setattr(search, "_CHUNK_CAP", cap)
    for text, props, n, seed, _ in LATE[::3]:
        f = parse(text)
        assert _sampled(f, props, n, seed, 1000) == referee(
            f, props, n, seed, 1000)[0]
    _draws_decide(monkeypatch)
    f = parse("U p & U q -> U (p | q) | U (p & q)")
    assert _sampled(f, ("c",), 2, 11, 50) == referee(f, ("c",), 2, 11, 50)[0]


def test_a_failure_at_the_first_draw_builds_one_lane(monkeypatch):
    # the first chunk is one draw, so a formula that fails at once is
    # judged on one lane frame of one lane
    built = []
    lane_frame = search._Frame

    def lanes(n, codes, force=False, monotone=None):
        built.append(len(codes) // n)
        return lane_frame(n, codes, force, monotone)

    f = parse("[(true | q) & (true | q)] q")
    want, index = referee(f, ("m",), 4, 383, 1000)
    assert index == 0
    _draws_decide(monkeypatch)  # its check builds a pattern frame, no draw
    monkeypatch.setattr(search, "_Frame", lanes)
    assert _sampled(f, ("m",), 4, 383, 1000) == want
    assert built == [1]


def test_stream_lanes_of_two_calls_stay_cached(monkeypatch):
    # a call reads one stream length per chunk size; two calls with
    # different outputs per draw, repeated, build none of them again
    _draws_decide(monkeypatch)
    search._stream_lanes.cache_clear()
    one, two = parse("K p -> K p"), parse("K (p & q) -> K (p & q)")
    for f in (one, two):
        assert _sampled(f, (), 3, 7, 10000) == verdict_to_text(
            NoCounterexampleUpTo(3, "sampled", 10000, 7))
    built = search._stream_lanes.cache_info().misses
    assert built == 2 * (search._CHUNK_CAP.bit_length() + 1)
    for f in (one, two):
        _sampled(f, (), 3, 7, 10000)
    assert search._stream_lanes.cache_info().misses == built


# --- the one-step check ----------------------------------------------------


def _code_fails(prog, n: int, props) -> bool:
    """Per code: whether some code allowed at a state s fails at s under
    some valuation, by the per-code referee."""
    return any(failing_code_masks(prog, n, props))


def _one_step(prog, n: int, props) -> bool:
    """Whether search._some_code_fails finds a failing code; every case
    here is within its lane budget."""
    return search._some_code_fails(prog, n, frozenset(props))


def test_one_step_check_matches_the_per_code_brute_force():
    # announcements over (m) classes; every class at one to three states
    rng = SplitMix64(19)
    valid = 0
    for case in range(900):
        props = CLASSES[case % len(CLASSES)]
        n = 1 + case // len(CLASSES) % 3
        f = random_local_formula(rng, 3, "m" in props)
        prog = compile_formula(f, atoms_of(f))
        assert prog.local, f
        want = _code_fails(prog, n, props)
        assert _one_step(prog, n, props) == want, (case, props, n, f)
        valid += not want
    assert 100 < valid < 800  # both answers are compared


@pytest.mark.parametrize("props", [("m",), ("c",), ("neg-suppl",)])
def test_one_step_check_matches_the_brute_force_at_four_states(props):
    rng = SplitMix64(20 + len(props[0]))
    found = 0
    for case in range(10):
        f = random_local_formula(rng, 3, "m" in props)
        prog = compile_formula(f, atoms_of(f))
        want = _code_fails(prog, 4, props)
        assert _one_step(prog, 4, props) == want, (case, f)
        found += want
    assert found  # a valid formula follows
    valid = {("m",): "W p -> ! p", ("c",): "W p & W q -> W (p & q)",
             ("neg-suppl",): "W (p & q) & ! q -> W q"}[props]
    prog = compile_formula(parse(valid), ("p", "q"))
    assert not _one_step(prog, 4, props) and not _code_fails(prog, 4, props)


@pytest.mark.parametrize("text", ["p -> (K (q | ! p) -> [p] K q)",
                                  "[p] (O q <-> O (q | ! p))"])
def test_reads_in_an_announcement_take_its_context(text):
    # valid over (m): inside [p], K q reads the set q | ! p, the same set as
    # the read outside; read without its context, q would be another set
    prog = compile_formula(parse(text), ("p", "q"))
    for props in (("m",), ("m", "c")):
        for n in (2, 3, 4):
            assert not _code_fails(prog, n, props)
            assert not _one_step(prog, n, props), (props, n)


def test_valid_local_formula_draws_nothing(monkeypatch):
    asked = _count_blocks(monkeypatch)
    f = parse("O p & O q -> O (p & q)")  # oC, valid over (c)
    assert _sampled(f, ("c",), 4, 9, 100000) == verdict_to_text(
        NoCounterexampleUpTo(4, "sampled", 100000, 9))
    assert asked == []


def test_the_lane_budget_counts_one_valuation_per_orbit(monkeypatch):
    # three atoms and three reads over four states: 330 valuations, one
    # per orbit, times 8 read patterns fit the budget, where all 4096
    # valuations would not; the table is asked, and nothing is drawn
    f = parse("(W p & W (q & r)) -> W (p & q & r)")  # valid over (c)
    prog = compile_formula(f, atoms_of(f))
    assert 330 << 3 <= search._TABLE_LANES < 1 << 4 * 3 << 3
    assert search._pattern_lanes(4, 3, 3)[0] == 330
    assert not _code_fails(prog, 4, ("c",))
    asked = _count_blocks(monkeypatch)
    assert _sampled(f, ("c",), 4, 9, 1000) == verdict_to_text(
        NoCounterexampleUpTo(4, "sampled", 1000, 9))
    assert asked == []


@pytest.mark.parametrize("props", [(), ("m",), ("c",)])
def test_nested_formula_settled_one_step_deep_draws_nothing(monkeypatch,
                                                            props):
    # W p -> ! W W p (row 5.17), with W p read as an atom defined at the
    # state, has no allowed code failing at its state; the draws agree
    f = parse("W p -> ! W W p")
    assert referee(f, props, 4, 9, 1000)[1] is None
    asked = _count_blocks(monkeypatch)
    assert _sampled(f, props, 4, 9, 100000) == verdict_to_text(
        NoCounterexampleUpTo(4, "sampled", 100000, 9))
    assert asked == []


def test_nested_formula_the_table_leaves_open_is_drawn(monkeypatch):
    # O K W (p & ! p) over (m): its one-step program fails at four states,
    # so the draws decide, as the referee does; none of them fails
    f = parse("O K W (p & ! p)")
    want, index = referee(f, ("m",), 4, 9, 1000)
    assert index is None
    asked = _count_blocks(monkeypatch)
    assert _sampled(f, ("m",), 4, 9, 1000) == want
    assert sum(asked) == 1000 * (4 + 1)


# the perfbench sampled sentinels' shapes: oC and WC off (c), and the union
# form of WC over (c)
SENTINEL_SHAPES = [("O p & O q -> O (p & q)", (), 1),
                   ("W p & W ! q -> W (p & ! q)", (), 2),
                   ("W ! p & W q -> W (! p & q)", ("m",), 3),
                   ("W p & W q -> W (p | q)", ("c",), 4)]


@pytest.mark.parametrize("text,props,seed", SENTINEL_SHAPES)
def test_invalid_local_formulas_are_drawn(monkeypatch, text, props, seed):
    f = parse(text)
    want, index = referee(f, props, 4, seed, 1000)
    assert index is not None
    asked = _count_blocks(monkeypatch)
    assert _sampled(f, props, 4, seed, 1000) == want
    assert asked


# --- the bulk stream -------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 2**64 - 1, 1 << 64, -1, 3 << 130,
                                  0x5DEECE66D])
def test_bulk_stream_is_the_splitmix_stream(seed):
    rng = SplitMix64(seed)
    stream = [rng.next() for _ in range(1200)]
    # starts and ends straddle the chunk boundaries at 6 outputs per draw
    # (after draws 1, 3, 7, ..., 127)
    for start, count in [(0, 1), (0, 6), (5, 2), (6, 12), (377, 2),
                         (378, 384), (761, 439), (1, 1199), (1151, 49)]:
        got = search._splitmix_block(seed, start, count)
        assert len(got) == 16 * count
        outputs = [int.from_bytes(got[i:i + 8], "little")
                   for i in range(0, len(got), 16)]
        assert outputs == stream[start:start + count], (start, count)

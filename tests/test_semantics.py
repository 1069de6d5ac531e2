"""Evaluation clauses, extensions, announcements, frame validity."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle
from _gen import (random_announcement_formula, random_formula,
                  random_full_formula, random_model, random_model_doc)
from nbhdmc import semantics
from nbhdmc.formula import (And, Announce, Atom, Iff, Imp, Not, Or, atoms_of,
                            children, parse)
from nbhdmc.model import (NeighborhoodFrame, NeighborhoodModel,
                          NonMonotoneError, PointedModel, StateSet,
                          check_property, frame_from_codes,
                          intersection_submodel, model_from_json,
                          model_to_json, project, supplementation)
from nbhdmc.search import ClassSpec, SplitMix64, enumerate_frames
from nbhdmc.semantics import (_first_failure, evaluate, extension,
                              frame_valid)


def _model(states, families, valuation=()):
    n = len(states)
    val = {a: StateSet(n, b) for a, b in valuation}
    frame = NeighborhoodFrame(
        tuple(states),
        tuple(tuple(StateSet(n, b) for b in fam) for fam in families))
    return NeighborhoodModel(frame, val)


MOORE = _model(("s",), ((),), (("p", 1),))
PAIR = _model(("s", "t"), ((3,), (3,)), (("p", 2),))
PAIR_EXT = _model(("s", "t"), ((2, 3), (3,)), (("p", 2),))


# --- single clauses -----------------------------------------------------------

def test_bullet_clause():
    assert evaluate(PointedModel(MOORE, 0), parse("U p"))
    with_nbhd = _model(("s",), ((1,),), (("p", 1),))
    assert not evaluate(PointedModel(with_nbhd, 0), parse("U p"))
    assert evaluate(PointedModel(with_nbhd, 0), parse("O p"))


def test_wrong_clause():
    assert not evaluate(PointedModel(PAIR, 0), parse("W p"))
    assert evaluate(PointedModel(PAIR_EXT, 0), parse("W p"))
    assert not evaluate(PointedModel(PAIR_EXT, 1), parse("W p"))


def test_box_and_circ_clauses():
    m = _model(("s",), ((1,),), (("p", 1),))
    assert evaluate(PointedModel(m, 0), parse("K p"))
    assert evaluate(PointedModel(m, 0), parse("O true"))
    assert not evaluate(PointedModel(MOORE, 0), parse("O true"))
    assert evaluate(PointedModel(MOORE, 0), parse("O q"))  # q empty here


def test_boolean_clauses():
    pm = PointedModel(PAIR, 1)
    assert evaluate(pm, parse("p & true"))
    assert not evaluate(pm, parse("false | ! p"))
    assert evaluate(pm, parse("q -> false"))
    assert evaluate(pm, parse("p <-> ! q"))


def test_moore_target_fails_at_its_point():
    assert not evaluate(PointedModel(MOORE, 0), parse("U p -> ! U (U p -> p)"))


def test_extension():
    assert extension(PAIR, parse("W p")) == StateSet(2, 0)
    assert extension(PAIR_EXT, parse("W p")) == StateSet(2, 1)
    assert extension(PAIR_EXT, parse("U p")) == StateSet(2, 2)
    assert extension(PAIR_EXT, parse("p | W p")) == StateSet(2, 3)


def test_extension_ignores_unused_atoms():
    bigger = NeighborhoodModel(PAIR.frame,
                               {"p": StateSet(2, 2), "q": StateSet(2, 1)})
    assert extension(bigger, parse("W p")) == extension(PAIR, parse("W p"))


# --- announcements --------------------------------------------------------------

def test_announcement_on_monotone_pair():
    pm = PointedModel(PAIR, 1)
    assert evaluate(pm, parse("[p] p"))
    assert evaluate(pm, parse("[p] K p"))
    assert not evaluate(pm, parse("[p] U p"))
    assert evaluate(PointedModel(PAIR, 0), parse("[p] U p"))  # vacuous at s


def test_announcement_of_contradiction_is_vacuous():
    nonmono = _model(("s",), ((0,),), (("p", 1),))
    assert extension(nonmono, parse("[false] U p")) == StateSet(1, 1)


def test_announcement_requires_monotone_unless_forced():
    nonmono = _model(("s",), ((0,),), (("p", 1),))
    with pytest.raises(NonMonotoneError, match="pass force"):
        evaluate(PointedModel(nonmono, 0), parse("[p] K p"))
    assert evaluate(PointedModel(nonmono, 0), parse("[p] K p"), force=True) \
        is False
    # one block holds both valuations: the failure at valuation 0, where p
    # is empty, comes before the blocked valuation 1
    assert _first_failure(nonmono.frame, parse("! [p] p")) == (0, 0)
    with pytest.raises(NonMonotoneError, match="pass force"):
        frame_valid(nonmono.frame, parse("[p] p"))


def test_announcement_matches_submodel_restriction():
    """[a] b at s is b at s in the submodel on a's extension: on
    supplemented models, and forced on models that are mostly not
    monotone."""
    rng = SplitMix64(31)
    for i in range(180):
        force = i >= 60
        model = random_model(rng, 3 if i < 60 else 1 + i % 6)
        if not force:
            model = supplementation(model)
        a = random_formula(rng, 2)
        b = random_formula(rng, 2, 1 if force else 0)
        pa = extension(model, a, force)
        sub = None
        if not pa.is_empty():
            sub = intersection_submodel(model, pa, force)
        for s in range(model.size):
            got = evaluate(PointedModel(model, s), Announce(a, b), force)
            if not pa.contains(s):
                assert got
            else:
                new_point = sub.frame.index(model.states[s])
                assert got == evaluate(PointedModel(sub, new_point), b,
                                       force)


# --- oracle sweeps ---------------------------------------------------------------

def _names(model, ss):
    return frozenset(model.states[i] for i in ss.indices())


def test_extension_matches_set_oracle():
    rng = SplitMix64(404)
    for _ in range(200):
        doc = random_model_doc(rng, 1 + rng.below(3))
        model = model_from_json(doc)
        f = random_formula(rng, 3)
        assert _names(model, extension(model, f)) == _oracle.ext(doc, f), \
            (doc, f)


def test_forced_announcement_matches_set_oracle():
    rng = SplitMix64(405)
    for _ in range(150):
        doc = random_model_doc(rng, 1 + rng.below(6))
        model = model_from_json(doc)
        f = random_announcement_formula(rng)
        assert _names(model, extension(model, f, force=True)) == \
            _oracle.ext(doc, f), (doc, f)


def test_sugared_operators_match_set_oracle():
    ops = ["p | q", "p -> q", "p <-> q", "K p", "O p", "false"]
    rng = SplitMix64(406)
    for _ in range(60):
        doc = random_model_doc(rng, 2)
        model = model_from_json(doc)
        for text in ops:
            f = parse(text)
            assert _names(model, extension(model, f)) == _oracle.ext(doc, f)


def test_interdefinability():
    pairs = [("U p", "p & ! K p"),
             ("W p", "! p & K p"),
             ("O p", "! U p"),
             ("K p", "W p | O p & p")]
    for frame in enumerate_frames(2):
        for mask in range(4):
            model = NeighborhoodModel(frame, {"p": StateSet(2, mask)})
            for lhs, rhs in pairs:
                assert extension(model, parse(lhs)) == \
                    extension(model, parse(rhs))


# --- frame validity ---------------------------------------------------------------

def test_frame_valid_basics():
    assert frame_valid(MOORE.frame, parse("U p -> p"))
    assert frame_valid(MOORE.frame, parse("W p -> ! p"))
    assert not frame_valid(MOORE.frame, parse("O true"))
    assert frame_valid(_model(("s",), ((1,),)).frame, parse("O true"))
    assert not frame_valid(MOORE.frame, parse("! U p"))


def test_frame_valid_is_quantified_over_valuations():
    # counterexample valuations exist even when the all-empty one passes
    frame = _model(("s", "t"), ((2,), ())).frame
    assert not frame_valid(frame, parse("U p -> K p"))


def test_frame_valid_cap():
    frame = NeighborhoodFrame(tuple(f"w{i}" for i in range(13)), ((),) * 13)
    with pytest.raises(ValueError, match="valuation cap"):
        frame_valid(frame, parse("p & q"))


def test_frame_valid_matches_pointwise_sweep():
    f = parse("W p & W q -> W (p & q)")
    for frame in enumerate_frames(2):
        expected = True
        for pm_bits in range(4):
            for qm_bits in range(4):
                model = NeighborhoodModel(frame, {"p": StateSet(2, pm_bits),
                                                  "q": StateSet(2, qm_bits)})
                if extension(model, f) != StateSet.full(2):
                    expected = False
        assert frame_valid(frame, f) == expected


def _k_entry(codes, x: int) -> int:
    """K[x] by definition: bit i set when codes[i] has bit x."""
    return sum((codes[s] >> x & 1) << s for s in range(len(codes)))


def _random_codes(rng: random.Random, n: int, count: int) -> list[int]:
    """count random n-state family codes, dense or sparse."""
    return [rng.getrandbits(1 << n) & (rng.getrandbits(1 << n)
                                       if rng.random() < 0.5 else -1)
            for _ in range(count)]


def _k_by_subsets(fr, v: int, pa: int, V: int) -> int:
    """The referee of semantics._k_forced, by the submodel's definition:
    per valuation, the states s where K[v & pa | z] has s for some z
    outside pa, every such z read on its own."""
    n, full = fr.n, fr.full
    k = 0
    for sh in range(0, V * n, n):
        keep = pa >> sh & full
        y, out = v >> sh & keep, full ^ keep
        acc, z = fr.k_at(y), out
        while z:  # every nonempty z within out
            acc |= fr.k_at(y | z)
            z = z - 1 & out
        k |= acc << sh
    return k


@pytest.mark.parametrize("n", [*range(1, 9), 16])
def test_k_tables_match_the_definition(n):
    """Every read of K equals the definition: the whole table of one lane
    and of several, a multiplexed pick of every lane at once, the
    entries a single model fills on demand, and a forced read in the
    submodel on an announced set, against the subset loop.  Every entry
    is checked up to n = 8, under every announced set, a sample of them
    at n = 16, under the sets missing at most the four lowest states."""
    rng = random.Random(414 + n)
    full = (1 << n) - 1
    xs = range(1 << n) if n <= 8 else \
        [0, full, *rng.sample(range(1 << n), 200)]
    prog = semantics.compile_formula(parse("K p"))
    for lanes in (1, 3):
        codes = _random_codes(rng, n, lanes * n)
        fr = semantics._Frame(n, codes)
        table = fr.table()
        assert len(table) == 1 << n
        for x in xs:
            assert table[x] == _k_entry(codes, x), (n, lanes, x)
        if lanes > 1:
            for _ in range(20):
                picks = [rng.choice(xs) for _ in range(lanes)]
                v = sum(x << j * n for j, x in enumerate(picks))
                assert semantics._mux(table, v, fr.rep, full, n) == sum(
                    _k_entry(codes[j * n:(j + 1) * n], x) << j * n
                    for j, x in enumerate(picks))
        else:
            on_demand = semantics._Frame(n, codes)
            for x in xs:
                assert semantics._run(prog, on_demand, [x]) == \
                    _k_entry(codes, x)
            assert on_demand.K == {x: _k_entry(codes, x) for x in xs}
            assert on_demand._table is None
            forced = semantics._Frame(n, codes, force=True)
            for pa in range(1 << n) if n <= 8 else [full ^ z
                                                    for z in range(16)]:
                # every y within pa, one valuation each, read as _exec
                # reads them: v & pa | ~pa
                ys = sorted({x & pa for x in xs[:20 if n > 8 else None]})
                rep = ((1 << len(ys) * n) - 1) // full
                v = sum((y | full ^ pa) << j * n for j, y in enumerate(ys))
                assert semantics._k_forced(forced, v, pa * rep, len(ys)) \
                    == _k_by_subsets(forced, v, pa * rep, len(ys)), (n, pa)


def test_sixteen_state_frame_validity_matches_oracle():
    """A sparse 16-state frame fails K p -> p first where the oracle says,
    many valuation blocks in, and holds everywhere one valuation before."""
    rng = random.Random(416)
    names = [f"w{i}" for i in range(16)]

    def subset(mask: int) -> list[str]:
        return [names[i] for i in range(16) if mask >> i & 1]

    # three random neighborhoods holding the next state, and W
    doc = {"states": names, "neighborhoods": {
        name: [subset(rng.getrandbits(16) | 1 << (i + 1) % 16)
               for _ in range(3)] + [names]
        for i, name in enumerate(names)}}
    frame = model_from_json(doc).frame
    f = parse("K p -> p")
    found = _first_failure(frame, f)
    assert found is not None and found[0] > 1 << 10, found
    j, state = found
    fails = {**doc, "valuation": {"p": subset(j)}}
    assert _oracle.ext(fails, f) != set(names)
    assert min(names.index(s) for s in set(names) - _oracle.ext(fails, f)) \
        == state
    before = {**doc, "valuation": {"p": subset(j - 1)}}
    assert _oracle.ext(before, f) == set(names)
    assert not frame_valid(frame, f)


def _counted_projections(monkeypatch) -> list[tuple[int, int]]:
    """The kernel's projections from now on, as (code, over) pairs."""
    calls: list[tuple[int, int]] = []

    def counted(n: int, code: int, over: int) -> int:
        calls.append((code, over))
        return project(n, code, over)

    monkeypatch.setattr(semantics, "project", counted)
    return calls


def _projects_subsets_only(calls, frame) -> bool:
    """Whether every projection built the code of the subsets of the
    states it projected over, from that one member, and none projected
    one of the frame's family codes."""
    return all(code == 1 << over for code, over in calls) and \
        not {code for code, _ in calls} & set(frame.codes)


def test_forced_sweep_never_projects_the_frame(monkeypatch):
    """A forced sweep of a non-monotone 8-state frame under all 2^16
    valuations of two atoms holds, and it projects only one-member codes,
    the subsets of the states outside each announced set, never the
    frame's own family codes."""
    rng = random.Random(417)
    n = 8
    frame = frame_from_codes([f"w{i}" for i in range(n)], [
        rng.getrandbits(1 << n) & rng.getrandbits(1 << n) for _ in range(n)])
    assert not check_property(frame, "m")
    calls = _counted_projections(monkeypatch)
    assert frame_valid(frame, parse("[W p] (K q | ! K q)"), force=True)
    assert _projects_subsets_only(calls, frame)
    assert len({over for _, over in calls}) > 16


def test_forced_first_failure_never_projects_the_frame(monkeypatch):
    """A forced one-atom sweep of a non-monotone 16-state frame finds the
    first failure, and projects only one-member codes on the way, though
    its first block of 1024 valuations announces as many sets."""
    rng = random.Random(418)
    n = 16
    # state 0's only neighborhood is the empty set, so [p] K p fails
    # first at p = {w0}, valuation 1, found by the first block of 1024
    # valuations, each announcing its own set
    codes = [1] + [sum({1 << rng.getrandbits(n) for _ in range(4)})
                   for _ in range(n - 1)]
    frame = frame_from_codes([f"w{i}" for i in range(n)], codes)
    assert not check_property(frame, "m")
    calls = _counted_projections(monkeypatch)
    assert _first_failure(frame, parse("[p] K p"), force=True) == (1, 0)
    assert _projects_subsets_only(calls, frame)
    assert len({over for _, over in calls}) == 1 << 10


# --- kernel against the oracle --------------------------------------------------------


def _announces_here(doc, f) -> bool:
    """Whether some announcement evaluated in doc's own model (not inside
    a submodel) has a non-empty announced extension."""
    if isinstance(f, Announce):
        return bool(_oracle.ext(doc, f.announced)) or \
            _announces_here(doc, f.announced)
    return any(_announces_here(doc, c) for c in children(f))


def test_kernel_matches_oracle_on_full_language():
    """Extensions equal the oracle's on 1-4 state models, monotone or not,
    with and without force; NonMonotoneError fires exactly on a non-empty
    announced extension in a non-monotone model without force."""
    rng = SplitMix64(407)
    raised = 0
    for i in range(400):
        doc = random_model_doc(rng, 1 + rng.below(4))
        if i % 2:
            doc = model_to_json(supplementation(model_from_json(doc)))
        model = model_from_json(doc)
        f = random_full_formula(rng, 4, announce_budget=2)
        expected = _oracle.ext(doc, f)
        assert _names(model, extension(model, f, force=True)) == expected, \
            (doc, f)
        if not _oracle.check_prop(doc, "m") and _announces_here(doc, f):
            raised += 1
            with pytest.raises(NonMonotoneError, match="pass force"):
                extension(model, f)
        else:
            assert _names(model, extension(model, f)) == expected, (doc, f)
    assert raised > 20


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 4))
def test_unforced_extension_matches_the_oracle_fuzzed(seed, n):
    """Unforced extensions on random models not closed under supersets
    equal the oracle's over the whole language; an announcement of a
    non-empty set in the model itself raises NonMonotoneError instead."""
    rng = SplitMix64(seed)
    model = random_model(rng, n)
    codes = list(model.frame.codes)
    w = rng.below(n)
    codes[w] = (codes[w] | 1) & ~(1 << (1 << n) - 1)  # empty set, not all
    model = NeighborhoodModel(frame_from_codes(model.states, codes),
                              model.valuation)
    doc = model_to_json(model)
    f = random_full_formula(rng, 4, announce_budget=rng.below(2))
    if _announces_here(doc, f):
        with pytest.raises(NonMonotoneError, match="pass force"):
            extension(model, f)
    else:
        assert _names(model, extension(model, f)) == _oracle.ext(doc, f), \
            (doc, f)


def _loop_first_failure(frame, f, force):
    """First (valuation index, state) falsifying f, one valuation at a time."""
    n = frame.size
    full = (1 << n) - 1
    atoms = atoms_of(f)
    for j, masks in enumerate(product(range(1 << n), repeat=len(atoms))):
        model = NeighborhoodModel(
            frame, {a: StateSet(n, m) for a, m in zip(atoms, masks)})
        miss = full ^ extension(model, f, force=force).bits
        if miss:
            return j, (miss & -miss).bit_length() - 1
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonMonotoneError:
        return "non-monotone"


def test_block_sweep_first_failure_matches_valuation_loop(monkeypatch):
    """Splitting the valuations into blocks of 1, 2, 8 and 1024 finds the
    same first failing (valuation, state) as a valuation-by-valuation
    loop, and raises NonMonotoneError in the same cases."""
    rng = SplitMix64(408)
    p, q = Atom("p"), Atom("q")
    kinds = {"failed": 0, "valid": 0, "non-monotone": 0}
    for i in range(160):
        doc = random_model_doc(rng, 1 + rng.below(4))
        if i % 3 == 0:
            doc = model_to_json(supplementation(model_from_json(doc)))
        frame = model_from_json(doc).frame
        g = random_full_formula(rng, 3, announce_budget=1)
        # late failures cross block boundaries; tautologies sweep them all
        f = (g, Imp(And(p, q), g), Or(g, Not(g)))[i % 3]
        force = bool(rng.below(2))
        expected = _outcome(_loop_first_failure, frame, f, force)
        for block_bits in (0, 1, 3, 10):
            monkeypatch.setattr(semantics, "_BLOCK_BITS", block_bits)
            assert _outcome(_first_failure, frame, f, force) == expected, \
                (doc, f, force, block_bits)
        assert frame_valid(frame, f, force=True) == \
            (_loop_first_failure(frame, f, True) is None)
        kinds["valid" if expected is None else "non-monotone"
              if expected == "non-monotone" else "failed"] += 1
    assert min(kinds.values()) > 10, kinds


def _oracle_first_failure(doc, f):
    """First (valuation index, state) falsifying f on doc's frame, by the
    set-theoretic oracle, one valuation at a time in the sweep's order."""
    states = doc["states"]
    n = len(states)
    atoms = atoms_of(f)
    for j, masks in enumerate(product(range(1 << n), repeat=len(atoms))):
        val = {a: [s for i, s in enumerate(states) if m >> i & 1]
               for a, m in zip(atoms, masks)}
        holds = _oracle.ext({**doc, "valuation": val}, f)
        missing = [i for i, s in enumerate(states) if s not in holds]
        if missing:
            return j, missing[0]
    return None


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 4), kind=st.integers(0, 2))
def test_forced_first_failure_matches_the_oracle_fuzzed(seed, n, kind):
    """Forced sweeps of random frames not closed under supersets find the
    first failing (valuation, state) that the oracle finds valuation by
    valuation.  Every announcement's set flips with q, so the announced
    sets change within the one block that holds all valuations."""
    rng = SplitMix64(seed)
    model = random_model(rng, n)
    codes = list(model.frame.codes)
    w = rng.below(n)
    codes[w] = (codes[w] | 1) & ~(1 << (1 << n) - 1)  # empty set, not all
    frame = frame_from_codes(model.states, codes)
    doc = model_to_json(NeighborhoodModel(frame))
    g = Announce(Iff(Atom("q"), random_formula(rng, 2)),
                 random_full_formula(rng, 3, announce_budget=1))
    f = (g, Not(g), Imp(And(Atom("p"), Atom("q")), g))[kind]
    expected = _oracle_first_failure(doc, f)
    assert _first_failure(frame, f, force=True) == expected, (doc, f)
    assert frame_valid(frame, f, force=True) == (expected is None)

"""Morphism checks: frozen witnesses, closure laws, invariance replay."""

import pytest

import _oracle
from _gen import random_model
from nbhdmc.formula import Bullet, Wrong, parse
from nbhdmc.model import (MAX_STATES, NeighborhoodFrame, NeighborhoodModel,
                          PerturbationMap, PointedModel, StateSet,
                          model_to_json, perturb)
from nbhdmc.morphism import (StateMap, check_bullet_morphism, check_w_morphism,
                             verify_invariance)
from nbhdmc.search import SplitMix64, fragment_representatives
from nbhdmc.semantics import evaluate


def _model(states, families, valuation=()):
    n = len(states)
    val = {a: StateSet(n, b) for a, b in valuation}
    frame = NeighborhoodFrame(
        tuple(states),
        tuple(tuple(StateSet(n, b) for b in fam) for fam in families))
    return NeighborhoodModel(frame, val)


W_BASE = _model(("s", "t"), ((3,), (3,)), (("p", 2),))
W_EXT = _model(("s", "t"), ((2, 3), (3,)), (("p", 2),))      # bullet-add {t}@s
B_BASE = _model(("s", "t"), ((3,), (3,)), (("p", 1),))
B_EXT = _model(("s", "t"), ((1, 3), (3,)), (("p", 1),))      # wrong-add {s}@s


def _identity(source, target):
    return StateMap(source, target, tuple(range(source.size)))


# --- frozen separation witnesses ---------------------------------------------

def test_bullet_add_keeps_bullet_breaks_w():
    sm = _identity(W_BASE, W_EXT)
    assert check_bullet_morphism(sm) == (True, None)
    ok, witness = check_w_morphism(sm)
    assert not ok and witness == (0, StateSet(2, 2))


def test_wrong_add_keeps_w_breaks_bullet():
    sm = _identity(B_BASE, B_EXT)
    assert check_w_morphism(sm) == (True, None)
    ok, witness = check_bullet_morphism(sm)
    assert not ok and witness == (0, StateSet(2, 1))


def test_witness_scans_states_then_subsets_then_atoms():
    source = _model(("s", "t"), ((), ()), (("a", 2), ("b", 2)))
    target = _model(("s", "t"), ((), ()), (("a", 0), ("b", 0)))
    ok, witness = check_bullet_morphism(_identity(source, target))
    assert not ok and witness == (1, "a")
    # a frame mismatch at the same state is reported before any atom
    target2 = _model(("s", "t"), ((), (1,)), (("a", 0),))
    ok, witness = check_w_morphism(_identity(source, target2))
    assert not ok and witness == (1, StateSet(2, 1))


# --- closure laws ----------------------------------------------------------------

def _permuted(model, perm):
    n = model.size
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i

    def image(mask):
        return sum(1 << perm[i] for i in range(n) if mask >> i & 1)

    states = tuple(model.states[inv[j]] for j in range(n))
    fams = tuple(
        tuple(StateSet(n, b)
              for b in sorted(image(ss.bits)
                              for ss in model.frame.neighborhoods[inv[j]]))
        for j in range(n))
    val = {a: StateSet(n, image(ss.bits)) for a, ss in model.valuation}
    return NeighborhoodModel(NeighborhoodFrame(states, fams), val)


def test_isomorphisms_pass_both_checks():
    rng = SplitMix64(88)
    for _ in range(30):
        model = random_model(rng, 3)
        perm = (1, 2, 0)
        sm = StateMap(model, _permuted(model, perm), perm)
        assert check_bullet_morphism(sm) == (True, None)
        assert check_w_morphism(sm) == (True, None)


def _legal_pmap(rng, n, kind):
    fams = []
    for w in range(n):
        fam = []
        for _ in range(rng.below(3)):
            mask = rng.below(1 << n)
            mask = mask & ~(1 << w) if kind == "bullet" else mask | 1 << w
            fam.append(StateSet(n, mask))
        fams.append(tuple(fam))
    return PerturbationMap(kind, "add", tuple(fams))


@pytest.mark.parametrize("kind, check", [
    ("bullet", check_bullet_morphism),
    ("wrong", check_w_morphism),
])
def test_identity_into_legal_perturbation_is_a_morphism(kind, check):
    rng = SplitMix64(512 if kind == "bullet" else 513)
    for _ in range(60):
        n = 2 + rng.below(2)
        model = random_model(rng, n)
        bigger = perturb(model, _legal_pmap(rng, n, kind))
        assert check(_identity(model, bigger)) == (True, None)
        removed = perturb(bigger, PerturbationMap(
            kind, "remove", _legal_pmap(rng, n, kind).families))
        assert check(_identity(bigger, removed)) == (True, None)


def test_morphisms_compose():
    sm1 = _identity(W_BASE, W_EXT)
    perm = (1, 0)
    sm2 = StateMap(W_EXT, _permuted(W_EXT, perm), perm)
    composed = StateMap(W_BASE, sm2.target,
                        tuple(sm2.mapping[i] for i in sm1.mapping))
    assert check_bullet_morphism(composed) == (True, None)


# --- set oracle ----------------------------------------------------------------------

CHECKS = (("bullet", check_bullet_morphism), ("wrong", check_w_morphism))


def _named(sm, witness):
    """A witness in the oracle's terms: state name, then a set of state
    names or an atom."""
    if witness is None:
        return None
    s, item = witness
    states = sm.source.states
    if isinstance(item, str):
        return states[s], item
    return states[s], frozenset(states[i] for i in item.indices())


def _oracle_check(sm, kind):
    names = {sm.source.states[s]: sm.target.states[t]
             for s, t in enumerate(sm.mapping)}
    return _oracle.morphism(model_to_json(sm.source),
                            model_to_json(sm.target), names, kind)


def test_morphism_checks_match_set_oracle():
    rng = SplitMix64(6464)
    seen = set()
    for _ in range(300):
        source = random_model(rng, 1 + rng.below(4))
        n = source.size
        pick = rng.below(4)
        if pick == 0:  # any target, any map
            target = random_model(rng, 1 + rng.below(4))
            mapping = tuple(rng.below(target.size) for _ in range(n))
        elif pick == 1:  # a permuted copy
            mapping = list(range(n))
            for i in reversed(range(1, n)):
                j = rng.below(i + 1)
                mapping[i], mapping[j] = mapping[j], mapping[i]
            target = _permuted(source, mapping)
        elif pick == 2:  # a legal perturbation
            kind = ("bullet", "wrong")[rng.below(2)]
            target = perturb(source, _legal_pmap(rng, n, kind))
            mapping = range(n)
        else:  # the same frame, another valuation
            target = NeighborhoodModel(source.frame,
                                       random_model(rng, n).valuation)
            mapping = range(n)
        sm = StateMap(source, target, tuple(mapping))
        for kind, check in CHECKS:
            ok, witness = check(sm)
            assert (ok, _named(sm, witness)) == _oracle_check(sm, kind)
            seen.add(type(witness[1]) if witness else None)
    assert seen == {None, StateSet, str}


def test_morphism_checks_at_max_states():
    n = MAX_STATES
    full = (1 << n) - 1
    source = _model(tuple(f"w{i}" for i in range(n)),
                    tuple((1 << s | 1 << (s + 1) % n,) for s in range(n)),
                    (("p", 0x5555),))
    # a set through state 1 added there breaks only the bullet condition
    wider = perturb(source, PerturbationMap("wrong", "add", tuple(
        (StateSet(n, full ^ 1),) if s == 1 else () for s in range(n))))
    # p flipped at state 1 keeps both frame conditions
    flipped = NeighborhoodModel(source.frame, {"p": StateSet(n, 0x5555 ^ 2)})
    cases = ((wider, "bullet", (1, StateSet(n, full ^ 1))),
             (flipped, "wrong", (1, "p")))
    for target, kind, witness in cases:
        sm = _identity(source, target)
        check = dict(CHECKS)[kind]
        assert check(sm) == (False, witness)
        assert _oracle_check(sm, kind) == (False, _named(sm, witness))


# --- invariance replay -------------------------------------------------------------

def test_invariance_along_bullet_morphism():
    sm = _identity(W_BASE, W_EXT)
    reps = fragment_representatives((W_BASE, W_EXT), ("p",), (Bullet,), 2)
    assert verify_invariance(sm, "bullet", [f for f, _ in reps]) == []


def test_invariance_along_w_morphism():
    sm = _identity(B_BASE, B_EXT)
    reps = fragment_representatives((B_BASE, B_EXT), ("p",), (Wrong,), 2)
    assert verify_invariance(sm, "wrong", [f for f, _ in reps]) == []


def test_invariance_requires_a_checked_morphism():
    sm = _identity(W_BASE, W_EXT)
    with pytest.raises(ValueError, match="morphism check fails"):
        verify_invariance(sm, "wrong", [parse("p")])
    with pytest.raises(ValueError, match="kind"):
        verify_invariance(sm, "box", [parse("p")])


def test_separating_formulas_change_truth_across_kinds():
    # the bullet-add pair is told apart by a W formula, and conversely
    assert not evaluate(PointedModel(W_BASE, 0), parse("W p"))
    assert evaluate(PointedModel(W_EXT, 0), parse("W p"))
    assert evaluate(PointedModel(B_BASE, 0), parse("U p"))
    assert not evaluate(PointedModel(B_EXT, 0), parse("U p"))


# --- state maps ----------------------------------------------------------------------

def test_state_map_from_names():
    sm = StateMap.from_names(W_BASE, W_EXT, {"s": "t", "t": "t"})
    assert sm.mapping == (1, 1)
    with pytest.raises(ValueError, match="no image"):
        StateMap.from_names(W_BASE, W_EXT, {"s": "t"})
    with pytest.raises(ValueError, match="outside the source"):
        StateMap.from_names(W_BASE, W_EXT, {"s": "t", "t": "t", "u": "s"})


def test_state_map_validation():
    with pytest.raises(ValueError):
        StateMap(W_BASE, W_EXT, (0,))
    with pytest.raises(ValueError):
        StateMap(W_BASE, W_EXT, (0, 5))
    assert StateMap(W_BASE, W_EXT, (0, 1)).image_mask(0b10) == 0b10

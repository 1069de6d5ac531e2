"""Seeded op lists for the benchmark's workloads, and the checks on their answers.

Every op is one request made through the public nbhdmc API on inputs the
benchmark generates itself: formulas arrive as text and models as JSON
text.  Each answer is checked, outside the timed region, against
something that does not come from the code under test:

* a scan verdict against the value fixed by the paper's validity results
  (frame validity over a class is closed under uniform substitution, so
  every seeded instance of a valid schema has no countermodel);
* a sentinel scan, untimed, of an invalid formula against a countermodel
  the oracle finds or accepts;
* a model request against the set-theoretic oracle in tests/_oracle.py,
  or, where the oracle has no counterpart, against a property the answer
  must have.

A pass runs the whole op list once.  Pass k > 0 renames every atom x to
x<k> in all inputs, so no formula repeats within a run while the work of
a pass stays the same; its answers must equal pass 0's once the renaming
is undone (`normalize`).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from typing import Callable

import nbhdmc as nb
from nbhdmc.formula import (And, Announce, Atom, Bot, Box, Bullet, Circ, Iff,
                            Imp, Not, Or, Top, Wrong)

import _oracle as oracle

WORKLOADS = ("exhaustive-scan", "sampled-scan", "model-requests")

SAMPLES = 1000  # K, the fixed sample count of every sampled-scan op

# The paper's valid schemas, written over the placeholders a and b, with the
# frame class that makes each valid.  Keys are the suite row ids; "3.5a".."d"
# are row 3.5's four equivalences.  The atom-free oN (row 5.8) is left out:
# substitution cannot vary it.
SCHEMAS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "5.6": (lambda a, b: Imp(Bullet(a), a), ()),
    "5.7": (lambda a, b: Imp(And(Circ(a), Circ(b)), Circ(And(a, b))), ("c",)),
    "5.12": (lambda a, b: Imp(And(Circ(a), a), Circ(Or(a, b))), ("m",)),
    "5.21": (lambda a, b: Imp(Wrong(a), Not(a)), ()),
    "5.22": (lambda a, b: Imp(And(Wrong(a), Wrong(b)), Wrong(And(a, b))),
             ("c",)),
    "5.26": (lambda a, b: Imp(And(Wrong(And(a, b)), Not(b)), Wrong(b)),
             ("m",)),
    "5.27": (lambda a, b: Imp(And(Wrong(And(a, b)), Not(b)), Wrong(b)),
             ("neg-suppl",)),
    "5.2": (lambda a, b: Imp(Bullet(a), Bullet(Bullet(a))), ("m",)),
    "5.17": (lambda a, b: Imp(Wrong(a), Not(Wrong(Wrong(a)))), ()),
    "3.5a": (lambda a, b: Iff(Bullet(a), And(a, Not(Box(a)))), ()),
    "3.5b": (lambda a, b: Iff(Wrong(a), And(Box(a), Not(a))), ()),
    "3.5c": (lambda a, b: Iff(Circ(a), Imp(a, Box(a))), ()),
    "3.5d": (lambda a, b: Iff(Box(a), Or(Wrong(a), And(Circ(a), a))), ()),
}

STATE_NAMES = ("s", "t", "u", "v")
# atom names for scans of one schema over different classes
ATOM_PAIRS = (("p", "q"), ("r", "x"), ("y", "z"))
CORE_NODES = (Atom, Top, Not, And, Bullet, Wrong, Announce)


# --- formulas as text ---------------------------------------------------------

_UNARY = {Not: "!", Bullet: "U", Circ: "O", Wrong: "W", Box: "K"}
_BINARY = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def rename(name: str, k: int) -> str:
    return name if k == 0 else f"{name}{k}"


def text(f, k: int = 0) -> str:
    """Fully parenthesised surface text of f, atoms renamed for pass k."""
    t = type(f)
    if t is Atom:
        return rename(f.name, k)
    if t is Top:
        return "true"
    if t is Bot:
        return "false"
    if t in _UNARY:
        return f"{_UNARY[t]} {text(f.child, k)}"
    if t in _BINARY:
        return f"({text(f.left, k)} {_BINARY[t]} {text(f.right, k)})"
    if t is Announce:
        return f"[{text(f.announced, k)}] {text(f.body, k)}"
    msg = f"not a formula: {f!r}"
    raise TypeError(msg)


def kids(f) -> tuple:
    t = type(f)
    if t in _UNARY:
        return (f.child,)
    if t in _BINARY:
        return (f.left, f.right)
    if t is Announce:
        return (f.announced, f.body)
    return ()


def atom_names(f) -> tuple[str, ...]:
    if type(f) is Atom:
        return (f.name,)
    return tuple(sorted({a for c in kids(f) for a in atom_names(c)}))


def node_types(f) -> set:
    out = {type(f)}
    for c in kids(f):
        out |= node_types(c)
    return out


def modal_depth(f) -> int:
    inner = max((modal_depth(c) for c in kids(f)), default=0)
    return inner + (type(f) in (Bullet, Circ, Wrong, Box, Announce))


def random_formula(rng: random.Random, depth: int, atoms, nodes,
                   announce: int = 0):
    """Random formula over the given node types, at most `announce`
    announcements deep."""
    if depth <= 0 or rng.random() < 0.2:
        leaf = rng.choice((*atoms, None))
        return Top() if leaf is None else Atom(leaf)
    kinds = [t for t in nodes if t in _UNARY or t in _BINARY]
    if announce > 0:
        kinds.append(Announce)
    t = rng.choice(kinds)
    if t in _UNARY:
        return t(random_formula(rng, depth - 1, atoms, nodes, announce))
    if t in _BINARY:
        return t(random_formula(rng, depth - 1, atoms, nodes, announce),
                 random_formula(rng, depth - 1, atoms, nodes, announce))
    return Announce(random_formula(rng, depth - 1, atoms, nodes, announce - 1),
                    random_formula(rng, depth - 1, atoms, nodes, announce - 1))


FULL_NODES = (Not, And, Or, Imp, Iff, Bullet, Circ, Wrong, Box)
CORE_MODAL = (Not, And, Bullet, Wrong)


def instance(row: str, number: int, x: str, y: str):
    """Substitution instance `number` (0-3) of a schema over the atoms x
    and y: a becomes x, !x, y, !y in turn and b the other atom, negated in
    the last two.  The four are distinct even for one-placeholder schemas.
    Callers fix the number, since a negation makes a scan slower and a
    pass must cost the same for every seed; the seed picks x and y."""
    a, b = (Atom(x), Atom(y)) if number < 2 else (Atom(y), Not(Atom(x)))
    return SCHEMAS[row][0](Not(a) if number % 2 else a, b)


# --- models as JSON documents -------------------------------------------------


def rename_doc(doc: dict, k: int) -> dict:
    if k == 0:
        return doc
    return {"states": doc["states"], "neighborhoods": doc["neighborhoods"],
            "valuation": {rename(a, k): v for a, v in doc["valuation"].items()}}


def doc_text(doc: dict, k: int) -> str:
    return json.dumps(rename_doc(doc, k))


def random_doc(rng: random.Random, n: int, atoms=("p", "q")) -> dict:
    states = list(STATE_NAMES[:n])
    subsets = [[states[i] for i in range(n) if m >> i & 1]
               for m in range(1 << n)]
    return {"states": states,
            "neighborhoods": {s: [x for x in subsets if rng.random() < 0.3]
                              for s in states},
            "valuation": {a: rng.choice(subsets) for a in atoms}}


def monotone_doc(doc: dict) -> dict:
    """The superset closure of doc, on state masks."""
    states = doc["states"]
    bit = {s: 1 << i for i, s in enumerate(states)}
    masks = range(1 << len(states))

    def close(fam):
        got = {sum(bit[s] for s in x) for x in fam}
        return sorted((_subset_names(states, m) for m in masks
                       if any(x & m == x for x in got)),
                      key=lambda x: (len(x), x))

    return {"states": states,
            "neighborhoods": {s: close(doc["neighborhoods"].get(s, []))
                              for s in states},
            "valuation": doc["valuation"]}


def doc_sets(doc: dict):
    """(states, {state: set of frozensets}, {atom: frozenset}) with empty
    atoms dropped, as the wire format treats them."""
    states = list(doc["states"])
    nbhd = {s: {frozenset(x) for x in doc["neighborhoods"].get(s, [])}
            for s in states}
    val = {a: frozenset(v) for a, v in doc.get("valuation", {}).items() if v}
    return states, nbhd, val


def model_doc(model) -> dict:
    """JSON document of an nbhdmc model, read from its fields."""
    states = model.frame.states
    n = len(states)

    def names(ss):
        return [states[i] for i in range(n) if ss.bits >> i & 1]

    return {"states": list(states),
            "neighborhoods": {s: [names(x) for x in fam] for s, fam in
                              zip(states, model.frame.neighborhoods)},
            "valuation": {a: names(ss) for a, ss in model.valuation}}


# --- ops ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request: `request(*inputs(k))` is timed; `check` judges pass 0."""

    kind: str
    request: Callable
    inputs: Callable[[int], tuple]
    check: Callable[[object], bool]
    scan: tuple | None = None  # (properties, max_states, atom count, samples)
    timed: bool = True  # a sentinel runs and is checked, but is not timed


_SUFFIX = re.compile(r"\b([a-z]+?)\d+\b")


def normalize(x):
    """Comparable form of an answer with the pass's atom renaming undone."""
    if isinstance(x, str):
        return _SUFFIX.sub(r"\1", x)
    if isinstance(x, (tuple, list)):
        return tuple(normalize(v) for v in x)
    if is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(normalize(getattr(x, fl.name))
                                           for fl in fields(x))
    return x


def _scan_op(kind, f, props, n, atoms, samples=0, seed=0) -> Op:
    cls_props = frozenset(props)
    if samples:
        expected = nb.NoCounterexampleUpTo(n, "sampled", samples, seed)

        def request(ft, names):
            return nb.find_countermodel(nb.parse(ft),
                                        nb.ClassSpec(cls_props, n, names),
                                        mode="sampled", seed=seed,
                                        samples=samples)
    else:
        expected = nb.NoCounterexampleUpTo(n, "exhaustive")

        def request(ft, names):
            return nb.find_countermodel(nb.parse(ft),
                                        nb.ClassSpec(cls_props, n, names))

    return Op(kind, request,
              lambda k: (text(f, k), tuple(rename(a, k) for a in atoms)),
              lambda ans: ans == expected,
              (cls_props, n, len(atoms), samples))


def _sentinel(op: Op, check) -> Op:
    """An untimed scan whose answer is a countermodel, checked by `check`."""
    return replace(op, kind="sentinel", check=check, timed=False)


# (schema, class) pairs of the n <= 2 stratum: each schema over its own
# class, and seven over a subclass of it, where it stays valid
N2_PAIRS = tuple((row, props) for row, (_, props) in SCHEMAS.items()) + (
    ("5.6", ("m",)), ("5.21", ("c",)), ("5.17", ("neg-suppl",)),
    ("3.5a", ("m",)), ("3.5b", ("c",)), ("3.5c", ("neg-suppl",)),
    ("3.5d", ("m",)))
# one-placeholder schemas whose n <= 3 instances negate the atom: it brings
# them near the others' cost, so the n = 3 stratum is about even (about
# 1-1.5 s each where an unnegated atom gives 0.6-2 s)
N3_NEGATED = frozenset({"5.6", "5.21", "5.2"})

# Invalid formulas over (m) whose only countermodels have three states.
# Each says, at a state whose neighborhoods avoid the empty set, that three
# pairwise disjoint sets are neighborhoods, so those sets are non-empty and
# need three states.  Their canonical countermodels lie at n = 3 frame
# indexes 18, 38, 58 and 1098 of 8000.  A scan that skipped frames or
# valuations, or gave up early, would miss or move them.
N3_SENTINELS = (
    "! (! K false & K (p & K p) & K (p & ! K p) & K ! p)",
    "! p | ! K (p & K ! p) | ! K (p & ! K ! p) | ! K (! p & K true) | K false",
    "! K (p & K p) | ! K (p & U p) | ! K (! p & K p) | K false",
    "p | K false | ! K (p & K p) | ! K (p & ! K p & K ! p) | ! K ! p",
)


def exhaustive_ops(seed: int) -> list[Op]:
    """100 exhaustive scans: 80 at n <= 2 with two atoms, over each
    schema's own class and over some subclasses, and 20 at n <= 3 over (m)
    with one atom; and the four n <= 3 sentinels."""
    rng = random.Random(f"exhaustive-scan/{seed}")
    n3_rows = [row for row, (_, props) in SCHEMAS.items()
               if set(props) <= {"m"}]
    ops = []
    seen: list = []
    for row, props in N2_PAIRS:
        # a schema's second class gets other atoms, so no formula repeats
        schema = instance(row, 0, "p", "q")
        atoms = ATOM_PAIRS[seen.count(schema)]
        seen.append(schema)
        x, y = rng.sample(atoms, 2)
        for number in range(4):
            ops.append(_scan_op("n2", instance(row, number, x, y), props, 2,
                                atoms))
    for atom in ATOM_PAIRS[2]:
        for row in n3_rows:
            x = Not(Atom(atom)) if row in N3_NEGATED else Atom(atom)
            ops.append(_scan_op("n3", SCHEMAS[row][0](x, x), ("m",), 3,
                                (atom,)))
    atom = rng.choice(ATOM_PAIRS[2])
    for t in N3_SENTINELS:
        f = nb.parse(re.sub(r"\bp\b", atom, t))
        ops.append(_sentinel(_scan_op("", f, ("m",), 3, (atom,)),
                             lambda ans, f=f: _check_countermodel(
                                 f, ("m",), 3, (atom,), ans)))
    rng.shuffle(ops)
    return ops


SAMPLED_CLASSES = ((), ("m",), ("c",))

# Invalid schemas over a sampled class, with a countermodel in 2.7-7.5 % of
# the class's n = 4 (frame, valuation) draws, so K = 1000 draws find one
# but not at once: rows 5.7 (oC) and 5.22 (WC) off (c), and the union
# form of WC over (c).
SAMPLED_SENTINELS = (
    ((), SCHEMAS["5.7"][0]),
    ((), SCHEMAS["5.22"][0]),
    (("m",), SCHEMAS["5.22"][0]),
    (("c",), lambda a, b: Imp(And(Wrong(a), Wrong(b)), Wrong(Or(a, b)))),
)


def sampled_ops(seed: int) -> list[Op]:
    """One sampled n = 4 scan per (valid schema, class) pair, 26 in all,
    and the four sampled sentinels."""
    rng = random.Random(f"sampled-scan/{seed}")
    ops = []
    for c, props in enumerate(SAMPLED_CLASSES):
        atoms = ATOM_PAIRS[c]
        for r, (row, (_, own)) in enumerate(SCHEMAS.items()):
            if set(own) <= set(props):
                f = instance(row, (r + c) % 4, *rng.sample(atoms, 2))
                ops.append(_scan_op("n4", f, props, 4, atoms, SAMPLES,
                                    rng.getrandbits(63)))
    for props, make in SAMPLED_SENTINELS:
        atoms = ATOM_PAIRS[SAMPLED_CLASSES.index(props)]
        a, b = (Atom(x) for x in rng.sample(atoms, 2))
        f = make(Not(a) if rng.random() < 0.5 else a, b)
        ops.append(_sentinel(
            _scan_op("", f, props, 4, atoms, SAMPLES, rng.getrandbits(63)),
            lambda ans, f=f, props=props: _check_sampled_countermodel(
                f, props, 4, ans)))
    rng.shuffle(ops)
    return ops


def build_tables(props) -> None:
    """What every sampled n = 4 call over the class pays first, the class
    tables: a one-sample call."""
    nb.find_countermodel(Top(), nb.ClassSpec(frozenset(props), 4),
                         mode="sampled", samples=1)


# --- model requests -----------------------------------------------------------

# No record of how the library is used exists, so the mix is not a
# measured one: every request kind gets the same count, 200 in a pass of
# 2000.
PER_KIND = 200

# Sub-cases cycle with the op's index within its kind, so every seed has
# the same number of each; the seed picks only the formulas and models.
SIZES = (2, 3, 4)
# Depth 1 only: at depth 2 some pairs take 6-12 ms, others under 2.5, and
# how many of the 60 were slow (6 to 15) decided where p99 fell.
DISTINGUISH_CASES = (("bullet", 1), ("wrong", 1), ("full", 1))

PROPERTIES = ("m", "c", "n", "r", "filter", "neg-suppl")


def _req_evaluate(mt, ft, point):
    m = nb.model_from_text(mt)
    return nb.evaluate(nb.PointedModel(m, m.frame.index(point)), nb.parse(ft))


def _req_extension(mt, ft):
    return nb.extension(nb.model_from_text(mt), nb.parse(ft))


def _req_check_property(mt, prop):
    return nb.check_property(nb.model_from_text(mt).frame, prop)


def _req_supplementation(mt):
    return nb.model_to_text(nb.supplementation(nb.model_from_text(mt)))


def _req_intersection(mt, ft):
    m = nb.model_from_text(mt)
    return nb.model_to_text(
        nb.intersection_submodel(m, nb.extension(m, nb.parse(ft))))


def _req_perturb(mt, pt):
    m = nb.model_from_text(mt)
    return nb.model_to_text(nb.perturb(m, nb.pmap_from_json(json.loads(pt),
                                                            m.states)))


def _req_morphism(st, tt, pairs, kind):
    sm = nb.StateMap.from_names(nb.model_from_text(st), nb.model_from_text(tt), pairs)
    check = nb.check_bullet_morphism if kind == "bullet" else nb.check_w_morphism
    return check(sm)


def _req_reduce(ft):
    f = nb.parse(ft)
    reduced, steps = nb.reduce(f)
    return reduced, nb.format_trace(steps), nb.replay(f, steps), len(steps)


def _req_desugar(ft):
    g = nb.desugar(nb.parse(ft))
    return g, nb.pretty(g)


def _req_frame_valid(mt, ft):
    return nb.frame_valid(nb.model_from_text(mt).frame, nb.parse(ft))


def _req_countermodel(ft, props):
    return nb.find_countermodel(nb.parse(ft),
                                nb.ClassSpec(frozenset(props), 2))


def _req_distinguish(m1t, m2t, point, fragment, depth):
    m1, m2 = nb.model_from_text(m1t), nb.model_from_text(m2t)
    return nb.distinguish(nb.PointedModel(m1, m1.frame.index(point)),
                          nb.PointedModel(m2, m2.frame.index(point)),
                          fragment, depth)


def _stateset_names(doc, ss) -> frozenset:
    states = doc["states"]
    return frozenset(states[i] for i in range(len(states)) if ss.bits >> i & 1)


def _same_model(answer_text: str, states, nbhd, val) -> bool:
    got = doc_sets(json.loads(answer_text))
    return got == (list(states), nbhd, {a: v for a, v in val.items() if v})


def _check_morphism(src, tgt, pairs, kind, ans) -> bool:
    """The first witness in canonical order, by the set-theoretic condition."""
    states, n1, v1 = doc_sets(src)
    _, n2, v2 = doc_sets(tgt)
    subsets = [frozenset(states[i] for i in range(len(states)) if m >> i & 1)
               for m in range(1 << len(states))]
    want = None
    for i, s in enumerate(states):
        fs = pairs[s]
        for m, x in enumerate(subsets):
            fx = frozenset(pairs[y] for y in x)
            if kind == "bullet":
                lhs, rhs = s in x and x not in n1[s], fs in fx and fx not in n2[fs]
            else:
                lhs, rhs = x in n1[s] and s not in x, fx in n2[fs] and fs not in fx
            if lhs != rhs:
                want = (i, m)
                break
        if want is None:
            for a in sorted(set(v1) | set(v2)):
                if (s in v1.get(a, ())) != (fs in v2.get(a, ())):
                    want = (i, a)
                    break
        if want is not None:
            break
    ok, witness = ans
    if want is None:
        return ok is True and witness is None
    if ok is not False or witness[0] != want[0]:
        return False
    w = witness[1]
    return w == want[1] if isinstance(want[1], str) else \
        getattr(w, "bits", None) == want[1]


def _subset_names(states, m: int) -> list[str]:
    return [states[i] for i in range(len(states)) if m >> i & 1]


def _code_doc(n: int, codes, atoms=(), masks=()) -> dict:
    """JSON document of the n-state model whose state i has family code
    codes[i] (bit x set when the subset with mask x is a neighborhood) and
    whose atoms have the given state masks."""
    states = list(STATE_NAMES[:n])
    return {"states": states,
            "neighborhoods": {s: [_subset_names(states, x)
                                  for x in range(1 << n) if code >> x & 1]
                              for s, code in zip(states, codes)},
            "valuation": {a: _subset_names(states, m)
                          for a, m in zip(atoms, masks)}}


_ALLOWED: dict = {}


def allowed_codes(n: int, props) -> list[list[int]]:
    """Per state, in ascending order, the family codes the oracle accepts
    for the class.  Each of (m), (c) and (neg-suppl) is a condition on one
    state's family that the empty family meets, so a frame is in the class
    exactly when every state's code is allowed."""
    key = (n, tuple(props))
    if not set(props) <= {"m", "c", "neg-suppl"}:
        msg = f"allowed_codes needs per-state properties, got {sorted(props)}"
        raise ValueError(msg)
    if key not in _ALLOWED:
        _ALLOWED[key] = [
            [code for code in range(1 << (1 << n))
             if all(oracle.check_prop(_code_doc(n, [0] * s + [code]
                                                + [0] * (n - s - 1)), p)
                    for p in props)]
            for s in range(n)]
    return _ALLOWED[key]


def frame_count(n: int, props) -> int:
    """Number of n-state frames in the class."""
    total = 1
    for codes in allowed_codes(n, props):
        total *= len(codes)
    return total


def canonical_countermodel(f, props, max_states: int, atoms):
    """The first falsifying (model document, state) in the canonical order
    the README fixes, found with the oracle: fewest states, then family
    codes with state 0 most significant, then atom masks with the first
    atom most significant, then the lowest state.  None if there is none."""
    for n in range(1, max_states + 1):
        for codes in product(*allowed_codes(n, props)):
            for masks in product(range(1 << n), repeat=len(atoms)):
                doc = _code_doc(n, codes, atoms, masks)
                for s in doc["states"]:
                    if not oracle.holds(doc, s, f):
                        return doc, s
    return None


def _valuations(doc, atoms):
    states = doc["states"]
    subsets = [[states[i] for i in range(len(states)) if m >> i & 1]
               for m in range(1 << len(states))]
    for vals in product(subsets, repeat=len(atoms)):
        yield {**doc, "valuation": dict(zip(atoms, vals))}


def _frame_valid(doc, f) -> bool:
    return all(oracle.holds(d, s, f) for d in _valuations(doc, atom_names(f))
               for s in doc["states"])


def _check_countermodel(f, props, max_states, atoms, ans) -> bool:
    """The answer is the canonical countermodel, or there is none."""
    want = canonical_countermodel(f, props, max_states, atoms)
    if want is None:
        return ans == nb.NoCounterexampleUpTo(max_states, "exhaustive")
    doc, state = want
    return (isinstance(ans, nb.Countermodel)
            and doc_sets(model_doc(ans.pointed.model)) == doc_sets(doc)
            and ans.pointed.model.frame.states[ans.pointed.point] == state)


def _check_sampled_countermodel(f, props, n, ans) -> bool:
    """The answer is an n-state model of the class falsifying f."""
    if not isinstance(ans, nb.Countermodel):
        return False
    doc = model_doc(ans.pointed.model)
    return (len(doc["states"]) == n
            and all(oracle.check_prop(doc, p) for p in props)
            and not oracle.holds(doc, doc["states"][ans.pointed.point], f))


def _check_distinguish(d1, d2, point, fragment, depth, ans):
    legal, separable = _distinguish_pair(d1, d2, point)
    expect_none = fragment == legal
    if not expect_none and not separable:
        msg = "distinguish pair has no depth-1 witness"
        raise ValueError(msg)
    if expect_none or ans is None:
        return expect_none and ans is None
    allowed = {Atom, Not, And} | {"bullet": {Bullet}, "wrong": {Wrong},
                                  "full": {Bullet, Wrong}}[fragment]
    return (node_types(ans) <= allowed and modal_depth(ans) <= depth
            and oracle.holds(d1, point, ans) != oracle.holds(d2, point, ans))


def _literal_for(doc, x: frozenset):
    """A literal over the doc's atoms whose extension is x, or None."""
    for a in sorted(a for a, v in doc["valuation"].items() if v):
        for lit in (Atom(a), Not(Atom(a))):
            if oracle.ext(doc, lit) == x:
                return lit
    return None


def _distinguish_pair(base: dict, ext: dict, point: str):
    """(legal kind, distinguishable) for a pair that differs by sets added
    at `point`.  The identity is a morphism of the legal kind, so that
    fragment cannot tell the points apart; a literal whose extension is
    the added set gives a depth-1 distinguisher in the other fragments."""
    _, n1, _ = doc_sets(base)
    _, n2, _ = doc_sets(ext)
    added = n2[point] - n1[point]
    others_equal = all(n1[s] == n2[s] for s in n1 if s != point)
    if len(added) != 1 or not n1[point] <= n2[point] or not others_equal \
            or base["valuation"] != ext["valuation"]:
        msg = "distinguish pair must differ by one set added at the point"
        raise ValueError(msg)
    (x,) = added
    return ("wrong" if point in x else "bullet"), _literal_for(base, x) is not None


class _Pool:
    """Seeded inputs shared by the model requests."""

    def __init__(self, rng: random.Random, files: dict[str, str]):
        docs = {name: json.loads(t) for name, t in files.items()}
        self.file_docs = docs
        self.sized = {n: [random_doc(rng, n) for _ in range(count)]
                      for n, count in ((2, 100), (3, 100), (4, 50))}
        self.sized[2] += [d for d in docs.values() if "states" in d]
        self._closed: dict = {}

    def doc(self, rng, n: int, monotone: bool = False) -> dict:
        doc = rng.choice(self.sized[n])
        return self.monotone(doc) if monotone else doc

    def monotone(self, doc: dict) -> dict:
        """The superset closure of a pool model, made when first asked for."""
        if id(doc) not in self._closed:
            self._closed[id(doc)] = monotone_doc(doc)
        return self._closed[id(doc)]


def _file_texts() -> dict[str, str]:
    root = Path(__file__).resolve().parent.parent / "models"
    return {p.stem: p.read_text() for p in sorted(root.glob("*.json"))}


def model_request_ops(seed: int) -> list[Op]:
    rng = random.Random(f"model-requests/{seed}")
    pool = _Pool(rng, _file_texts())
    ops = []
    for build_op in _REQUEST_BUILDERS.values():
        for j in range(PER_KIND):
            ops.append(build_op(rng, pool, j))
    rng.shuffle(ops)
    return ops


def _query(rng, pool, j):
    """A model of 2, 3 or 4 states and a formula for it: alternately a
    monotone model with announcements, or any model and the full language."""
    n = SIZES[j // 2 % 3]
    if j % 2:
        return (pool.doc(rng, n, monotone=True),
                random_formula(rng, 3, ("p", "q"), CORE_MODAL, announce=2))
    return pool.doc(rng, n), random_formula(rng, 3, ("p", "q"), FULL_NODES)


def _b_evaluate(rng, pool, j):
    doc, f = _query(rng, pool, j)
    point = rng.choice(doc["states"])
    return Op("evaluate", _req_evaluate,
              lambda k: (doc_text(doc, k), text(f, k), point),
              lambda ans: ans is oracle.holds(doc, point, f))


def _b_extension(rng, pool, j):
    doc, f = _query(rng, pool, j)
    return Op("extension", _req_extension,
              lambda k: (doc_text(doc, k), text(f, k)),
              lambda ans: _stateset_names(doc, ans) == oracle.ext(doc, f))


def _b_check_property(rng, pool, j):
    prop = PROPERTIES[j % len(PROPERTIES)]
    doc = pool.doc(rng, SIZES[j // 6 % 3], monotone=bool(j // 18 % 2))
    return Op("check_property", _req_check_property,
              lambda k: (doc_text(doc, k), prop),
              lambda ans: ans is oracle.check_prop(doc, prop))


def _b_transform(rng, pool, j):
    pick = j % 10
    n = SIZES[j // 10 % 3]
    if pick < 4:
        doc = pool.doc(rng, n)
        return Op("transform", _req_supplementation,
                  lambda k: (doc_text(doc, k),),
                  lambda ans: _same_model(ans, doc["states"],
                                          oracle.supplement_families(doc),
                                          doc_sets(doc)[2]))
    if pick < 7:
        doc = pool.doc(rng, n, monotone=True)
        f = random_formula(rng, 2, ("p", "q"), FULL_NODES)
        while not oracle.ext(doc, f):  # the submodel needs a state
            f = random_formula(rng, 2, ("p", "q"), FULL_NODES)
        return Op("transform", _req_intersection,
                  lambda k: (doc_text(doc, k), text(f, k)),
                  lambda ans: _check_intersection(doc, f, ans))
    doc, pmap = _random_perturbation(rng, pool, n, j // 30 % 5 == 0)
    pt = json.dumps(pmap)
    return Op("transform", _req_perturb,
              lambda k: (doc_text(doc, k), pt),
              lambda ans: _check_perturb(doc, pmap, ans))


def _check_intersection(doc, f, ans) -> bool:
    x = oracle.ext(doc, f)
    states, nbhd, val = doc_sets(doc)
    return _same_model(ans, [s for s in states if s in x],
                       {s: {p & x for p in nbhd[s]} for s in states if s in x},
                       {a: v & x for a, v in val.items()})


def _check_perturb(doc, pmap, ans) -> bool:
    states, nbhd, val = doc_sets(doc)
    delta = {s: {frozenset(x) for x in pmap["families"].get(s, [])}
             for s in states}
    grow = pmap["sign"] == "add"
    return _same_model(ans, states,
                       {s: (nbhd[s] | delta[s]) if grow else (nbhd[s] - delta[s])
                        for s in states}, val)


def _random_perturbation(rng, pool, n: int, shipped: bool):
    """A shipped base model with its shipped map, or a random legal map on
    an n-state model."""
    if shipped:
        base, pmap = rng.choice((("w_separation_base", "w_separation_gamma"),
                                 ("bullet_separation_base",
                                  "bullet_separation_sigma")))
        return pool.file_docs[base], pool.file_docs[pmap]
    doc = pool.doc(rng, n)
    states = doc["states"]
    n = len(states)
    kind = rng.choice(("bullet", "wrong"))
    fams = {}
    for i, s in enumerate(states):
        legal = [[states[j] for j in range(n) if m >> j & 1]
                 for m in range(1 << n) if bool(m >> i & 1) == (kind == "wrong")]
        fams[s] = [x for x in legal if rng.random() < 0.3]
    return doc, {"kind": kind, "sign": rng.choice(("add", "remove")),
                 "families": fams}


def _b_morphism(rng, pool, j):
    kind = ("bullet", "wrong")[j % 2]
    pick = j // 2 % 5
    n = SIZES[j // 10 % 3]
    if pick == 0:
        name = rng.choice(("w_separation", "bullet_separation"))
        src = pool.file_docs[f"{name}_base"]
        tgt = pool.file_docs[f"{name}_extended"]
        pairs = {s: s for s in src["states"]}
    elif pick < 3:
        src, pmap = _random_perturbation(rng, pool, n, False)
        tgt = json.loads(_perturbed_text(src, pmap))
        pairs = {s: s for s in src["states"]}
    else:
        src, tgt = pool.doc(rng, n), pool.doc(rng, SIZES[j % 3])
        pairs = {s: rng.choice(tgt["states"]) for s in src["states"]}
    return Op("morphism", _req_morphism,
              lambda k: (doc_text(src, k), doc_text(tgt, k), pairs, kind),
              lambda ans: _check_morphism(src, tgt, pairs, kind, ans))


def _perturbed_text(doc, pmap) -> str:
    states, nbhd, _ = doc_sets(doc)
    out = {}
    for s in states:
        delta = {frozenset(x) for x in pmap["families"].get(s, [])}
        fam = nbhd[s] | delta if pmap["sign"] == "add" else nbhd[s] - delta
        out[s] = [[t for t in states if t in x] for x in
                  sorted(fam, key=lambda x: sorted(x))]
    return json.dumps({"states": states, "neighborhoods": out,
                       "valuation": doc["valuation"]})


def _b_reduce(rng, pool, j):
    f = Announce(random_formula(rng, 2, ("p", "q"), CORE_MODAL, announce=1),
                 random_formula(rng, 2, ("p", "q"), CORE_MODAL, announce=1))
    if j % 2:
        f = Not(f)
    raw = pool.doc(rng, SIZES[j // 2 % 3])

    def check(ans):
        reduced, trace, replayed, steps = ans
        doc = pool.monotone(raw)
        return (replayed == reduced and steps > 0
                and len(trace.splitlines()) == steps
                and Announce not in node_types(reduced)
                and oracle.ext(doc, reduced) == oracle.ext(doc, f))

    return Op("reduce", _req_reduce, lambda k: (text(f, k),), check)


def _b_desugar(rng, pool, j):
    f = random_formula(rng, 3, ("p", "q"), FULL_NODES)
    doc = pool.doc(rng, SIZES[j % 3])

    def check(ans):
        g, shown = ans
        return (node_types(g) <= set(CORE_NODES)
                and nb.parse(shown) == g
                and oracle.ext(doc, g) == oracle.ext(doc, f))

    return Op("desugar", _req_desugar, lambda k: (text(f, k),), check)


def _b_frame_valid(rng, pool, j):
    doc = pool.doc(rng, (2, 3)[j // 2 % 2])
    if j % 2:
        row = rng.choice(sorted(SCHEMAS))
        f = instance(row, j // 2 % 4, *rng.sample(("p", "q"), 2))
    else:
        f = random_formula(rng, 2, ("p", "q"), FULL_NODES)
    return Op("frame_valid", _req_frame_valid,
              lambda k: (doc_text(doc, k), text(f, k)),
              lambda ans: ans is _frame_valid(doc, f))


def _b_countermodel(rng, pool, j):
    props = ("m",)
    if j % 2:
        row = rng.choice([r for r, (_, own) in SCHEMAS.items()
                          if set(own) <= set(props)])
        x = Not(Atom("p")) if j // 2 % 2 else Atom("p")
        f = SCHEMAS[row][0](x, x)
    else:
        f = random_formula(rng, 2, ("p",), FULL_NODES)
    return Op("countermodel", _req_countermodel,
              lambda k: (text(f, k), props),
              lambda ans: _check_countermodel(f, props, 2, atom_names(f), ans))


def _b_distinguish(rng, pool, j):
    fragment, depth = DISTINGUISH_CASES[j % len(DISTINGUISH_CASES)]
    if j // len(DISTINGUISH_CASES) % 5 == 0:
        name = rng.choice(("w_separation", "bullet_separation"))
        base = pool.file_docs[f"{name}_base"]
        ext = pool.file_docs[f"{name}_extended"]
        point = "s"
    else:
        base = random_doc(rng, 2)
        states = base["states"]
        point = rng.choice(states)
        if not base["valuation"]["p"]:  # the wire format drops empty atoms
            base["valuation"]["p"] = [rng.choice(states)]
        p, negate = base["valuation"]["p"], rng.random() < 0.5
        x = [s for s in states if (s in p) != negate]  # p's or ! p's extension
        base["neighborhoods"][point] = [y for y in base["neighborhoods"][point]
                                        if y != x]
        ext = json.loads(json.dumps(base))
        ext["neighborhoods"][point].append(x)
    return Op("distinguish", _req_distinguish,
              lambda k: (doc_text(base, k), doc_text(ext, k), point, fragment,
                         depth),
              lambda ans: _check_distinguish(base, ext, point, fragment,
                                             depth, ans))


_REQUEST_BUILDERS = {
    "evaluate": _b_evaluate, "extension": _b_extension,
    "check_property": _b_check_property, "transform": _b_transform,
    "morphism": _b_morphism, "reduce": _b_reduce, "desugar": _b_desugar,
    "frame_valid": _b_frame_valid, "countermodel": _b_countermodel,
    "distinguish": _b_distinguish,
}


def build(workload: str, seed: int) -> list[Op]:
    if workload == "exhaustive-scan":
        return exhaustive_ops(seed)
    if workload == "sampled-scan":
        return sampled_ops(seed)
    if workload == "model-requests":
        return model_request_ops(seed)
    msg = f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
    raise ValueError(msg)

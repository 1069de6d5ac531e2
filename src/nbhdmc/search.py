"""Bounded countermodel search, frame enumeration, and distinguishability.

Frames are enumerated through per-state family codes: subsets of the
universe are numbered by their bit masks, and a family is the bit set
of its members' masks, so a frame on n states is a tuple of n codes.
Enumeration order is lexicographic in those codes with state 0 most
significant, which fixes the canonical countermodel order (fewest
states, then frame encoding, then valuation encoding, then lowest
falsifying state).

A class's allowed codes per state (allowed_family_codes) are grown one
member mask at a time, not filtered out of all 2^(2^n) codes.  (c)
holds on every prefix of a family in ascending member order, and (m)
and neg-suppl in descending order (model.PREFIX_ORDER), so a partial
family failing one of them has no extension in the class, and cutting
its branch is exact; (n) and (r) are checked on the grown codes.  The
tables are sorted, so they hold the codes a filter would keep, in the
same order, and enumeration and sampling read them unchanged.

Sampled mode expands a 64-bit seed splitmix-style; each sample draws,
in order, one value per state to index the class-allowed family list
(by modulo) and one value per atom (sorted) for its valuation mask.
Sequences and verdicts are fixed byte for byte by the seed.  Draws are
judged in chunks (one draw, doubling up to 4096): the chunk's part of
the stream is computed at once, as bytes, and the kernel evaluates every
draw of the chunk together, one draw per lane.  The stream and the
verdict bytes are those of drawing and judging one sample at a time.

Scans go through the evaluation kernel in `semantics`: the formula is
compiled once.  Exhaustive scans judge frames a chunk at a time like
sampled draws, one (frame, valuation) pair per lane, frame by frame and
valuation by valuation, so the first failing lane is the first failing
frame's first failing valuation; a frame whose valuations fill more
than one block is swept on its own, block by block, on lanes of one
block's valuations.  Announcements run on lanes like any connective,
relativized (see `semantics`).

A local formula (Program.local: its modal operators read valuation-only
arguments, inside announcements of valuation-only formulas only) is
true at s depending only on the valuation and the bits "X_i is a
neighbourhood of s" of its modal arguments X_i: whether a code fails at
s is a one-step question (Schröder & Pattinson, J. Logic Comput. 2010).
A scan asks it (_some_code_fails) before judging frames: a local
formula of itself, a nested one of its one-step program
(_one_step_program), which reads each modal read inside another's
argument or context as a fresh atom defined at the state.  Where no
allowed code fails, the formula has no countermodel of that size, so
none is drawn or scanned.  A fresh atom for a U, W or O read outside
every announcement also carries what every frame says of that read's
extension (axioms oE and WE): U a lies within a, W a outside a, and O a
covers ! a, so q reads as a & q, ! a & q and ! a | q.  The frames with
a countermodel and every class are closed under state permutation, so
the question is judged on one valuation per orbit, the one whose
states' atom types ascend.

An exhaustive scan asks at max_states first: an empty table there is
empty at every smaller count (the lift lemma).  If code c fails at s of
n - 1 states, add a state t and give s the code c | c << 2^(n-1), whose
neighbourhoods are the sets meeting the old states in one of c's; each
read's valuation-only argument meets them in the old one, so s fails
again, and (m), (c), (n), (r) and neg-suppl survive this preimage
(Hansen, Kupke & Pacuit, "Neighbourhood Structures", LMCS 2009).  Else
the scan asks at each count from 1 until a code fails, and judges
frames from there on.  Where a code fails, a local formula's scan
judges the class's least frame with the last state's code raised, code
by code; other scans skip the frames some state permutation makes
smaller, since the canonical minimum is the least frame of its orbit
(McKay, "Isomorph-Free Exhaustive Generation", 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import (chain, combinations_with_replacement, islice,
                       permutations, product)
from math import comb, prod

from .formula import And, Atom, Formula, Not, Top, atoms_of, is_atom_name
from .model import (MAX_STATES, PREFIX_ORDER, PROPERTY_IDS,
                    NeighborhoodModel, PointedModel, StateSet, _lacking,
                    _members, code_has_property, frame_from_codes,
                    model_to_json)
from . import semantics
from .morphism import FRAGMENTS
from .semantics import (_AND, _ATOM, _BOT, _BOX, _BULLET, _CIRC, _IFF, _IMP,
                        _NOT, _OR, Program, _block_atoms, _blocks, _Builder,
                        _Closure, _exec, _Frame, _k_columns, _lane_ints,
                        _le_ints, _sweep, _valuation_masks,
                        check_valuation_space, compile_formula, evaluate)

__all__ = [
    "SplitMix64", "ClassSpec", "Countermodel", "NoCounterexampleUpTo",
    "enumerate_frames", "count_frames", "find_countermodel", "distinguish",
    "fragment_representatives", "verdict_to_json", "verdict_to_text",
    "allowed_family_codes", "worker_count",
]

EXHAUSTIVE_MAX_STATES = 3  # frame space is 2^(2^n * n); n=4 would be 2^64
SAMPLED_MAX_STATES = 4     # family-code tables stay enumerable up to 2^16

_STATE_NAMES = ("s", "t", "u", "v")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit stream: state += 0x9E3779B97F4A7C15, then
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k


CLASS_PROPERTY_IDS = frozenset(PROPERTY_IDS) - {"filter"}


@dataclass(frozen=True)
class ClassSpec:
    """A frame class: required properties, state bound, atom budget."""

    properties: frozenset = frozenset()
    max_states: int = EXHAUSTIVE_MAX_STATES
    atoms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        props = frozenset(self.properties)
        unknown = props - CLASS_PROPERTY_IDS
        if unknown:
            msg = f"unknown class properties: {sorted(unknown)}"
            raise ValueError(msg)
        if not 1 <= self.max_states <= MAX_STATES:
            msg = f"max_states must be 1..{MAX_STATES}, got {self.max_states}"
            raise ValueError(msg)
        for name in self.atoms:
            if not is_atom_name(name):
                msg = f"bad atom name: {name!r}"
                raise ValueError(msg)
        object.__setattr__(self, "properties", props)
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))


@dataclass(frozen=True)
class Countermodel:
    pointed: PointedModel


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    max_states: int
    valuations: str  # "exhaustive" or "sampled"
    samples: int | None = None
    seed: int | None = None


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Countermodel):
        return {"verdict": "countermodel",
                "model": model_to_json(verdict.pointed.model),
                "state": verdict.pointed.point_name}
    out = {"verdict": "no-counterexample",
           "max_states": verdict.max_states,
           "valuations": verdict.valuations}
    if verdict.valuations == "sampled":
        out["samples"] = verdict.samples
        out["seed"] = verdict.seed
    return out


def verdict_to_text(verdict) -> str:
    import json
    return json.dumps(verdict_to_json(verdict), separators=(", ", ": "))


# --- family codes -------------------------------------------------------------


@lru_cache(maxsize=None)
def allowed_family_codes(n: int, properties: frozenset,
                         state: int) -> tuple[int, ...]:
    """Family codes at the given state satisfying every class property,
    ascending.

    The table is grown member by member (_grow) in one member order,
    descending when a class property holds on descending prefixes
    (model.PREFIX_ORDER; upward closure prunes hardest), else ascending.
    The class properties that hold on prefixes in that order prune the
    walk, and the others are checked on the codes it yields; without a
    pruning property every code is a candidate.  Only neg-suppl depends
    on the state; other classes share state 0's table.
    """
    if state and "neg-suppl" not in properties:
        return allowed_family_codes(n, properties, 0)
    order = ("descending" if "descending" in map(PREFIX_ORDER.get, properties)
             else "ascending")
    prune = [p for p in properties if PREFIX_ORDER.get(p) == order]
    rest = [p for p in properties if p not in prune]
    if prune:
        codes = sorted(_grow(n, prune, state, order == "descending"))
    else:
        codes = range(1 << (1 << n))
    if rest:
        codes = [code for code in codes
                 if all(code_has_property(n, code, p, state) for p in rest)]
    return tuple(codes)


def _grow(n: int, properties, state: int, descending: bool) -> list[int]:
    """Codes of the families all of whose prefixes in the member order
    have the properties, grown one member mask at a time.

    The walk reaches every family through its prefixes.  When the
    properties hold on every prefix of a family that has them, a partial
    family that fails has no extension with them, so cutting its branch
    loses nothing: the walk yields exactly the families with the
    properties.
    """
    masks = range((1 << n) - 1, -1, -1) if descending else range(1 << n)
    found = []
    stack = [(0, 0)]  # a family, and the position in masks of its next member
    while stack:
        code, i = stack.pop()
        for p in properties:
            if not code_has_property(n, code, p, state):
                break
        else:
            found.append(code)
            stack.extend([(code | 1 << masks[j], j + 1)
                          for j in range(i, len(masks))])
    return found


def _allowed_lists(n: int, properties: frozenset) -> list[tuple[int, ...]]:
    return [allowed_family_codes(n, properties, w) for w in range(n)]


def _enumerable(n: int, cls: ClassSpec | None) -> list[tuple[int, ...]]:
    """The class's allowed codes per state; refuses n beyond 3: the full
    space grows as 2^(n*2^n) and exhaustion stops being meaningful."""
    if not 1 <= n <= EXHAUSTIVE_MAX_STATES:
        msg = (f"exhaustive enumeration supports 1..{EXHAUSTIVE_MAX_STATES} "
               f"states, got {n}")
        raise ValueError(msg)
    return _allowed_lists(n, cls.properties if cls else frozenset())


def enumerate_frames(n: int, cls: ClassSpec | None = None):
    """Yield every n-state frame of the class in canonical order."""
    for codes in product(*_enumerable(n, cls)):
        yield frame_from_codes(_STATE_NAMES[:n], codes)


def count_frames(n: int, cls: ClassSpec | None = None) -> int:
    """Size of the enumeration without materializing it."""
    return prod(len(options) for options in _enumerable(n, cls))


# --- countermodel search ------------------------------------------------------


@lru_cache(maxsize=None)
def _state_permutations(n: int) -> tuple:
    """(source, table) per non-identity permutation of n states: the
    permuted frame of codes G is (table[G[src]] for src in source)."""
    out = []
    for image in permutations(range(n)):
        if image == tuple(range(n)):
            continue
        moved = [sum(1 << image[w] for w in _members(x)) for x in range(1 << n)]
        table = tuple(sum(1 << moved[x] for x in _members(code))
                      for code in range(1 << (1 << n)))
        out.append((tuple(image.index(w) for w in range(n)), table))
    return tuple(out)


@lru_cache(maxsize=None)
def _orbit_least(n: int, properties: frozenset, prefix: tuple) -> int:
    """Bit i is set when prefix + (the last state's i-th allowed code,)
    is the least frame of its orbit under state permutation.

    Each permutation is first compared on the leading positions the
    prefix alone fixes, those w < n - 1 it fills from a state other than
    the last.  The first fixed position it makes smaller makes every
    frame of the block smaller (no bit is set), and the first it makes
    larger makes none of them smaller.  The permutations still tied at
    the first position the last code reaches are compared code by code.
    """
    last = n - 1
    live = []
    for source, table in _state_permutations(n):
        for w, src in enumerate(source):
            if last in (w, src):
                live.append((source, table))
                break
            image = table[prefix[src]]
            if image != prefix[w]:
                if image < prefix[w]:
                    return 0
                break
    mask = 0
    for i, code in enumerate(allowed_family_codes(n, properties, last)):
        codes = prefix + (code,)
        if all(tuple(table[codes[w]] for w in source) >= codes
               for source, table in live):
            mask |= 1 << i
    return mask


def _orbit_least_frames(n: int, properties: frozenset):
    """The class frames least in their orbit, in canonical order.

    The set of frames with a countermodel is closed under state
    permutation, and so is every class, so the canonical minimum is
    among these.  Whole blocks of frames differing only in the last
    state's code are decided at once, and the decision is cached.
    """
    allowed = _allowed_lists(n, properties)
    last = allowed[-1]
    for prefix in product(*allowed[:-1]):
        for i in _members(_orbit_least(n, properties, prefix)):
            yield prefix + (last[i],)


_FIRST_CHUNK = 1       # items judged at once, first; each later chunk doubles
_CHUNK_CAP = 4096      # up to this many lanes
_TABLE_LANES = 1 << 12  # valuations x read patterns of a one-step table


def _chunk_sizes(per: int):
    """Items judged at once, `per` lanes an item: _FIRST_CHUNK, then
    doubling up to _CHUNK_CAP lanes (one item at least), so a failure at
    item i is judged with fewer than 2i + 2 items."""
    size, cap = _FIRST_CHUNK, max(1, _CHUNK_CAP // per)
    while True:
        yield size
        size = min(2 * size, cap)


def _lane_chunks(n: int, frames, per: int, A, monotone):
    """(lane frame, atom ints) per chunk of the iterator frames' family
    code tuples (_chunk_sizes items), frame i of a chunk under valuation
    j in lane i * per + j, valuation j read off the one block's atom ints
    A."""
    for size in _chunk_sizes(per):
        chunk = list(islice(frames, size))
        if not chunk:
            return
        lanes = _Frame(n, b"".join([bytes(codes) * per for codes in chunk]),
                       monotone=monotone)
        rep = lanes.ALL // ((1 << per * n) - 1)  # bit 0 of every frame
        yield lanes, [a * rep for a in A]


@lru_cache(maxsize=None)
def _class_columns(n: int, properties: frozenset, state: int):
    """Per mask x, the state's allowed codes lacking and having bit x.
    Where the class allows every code, code c is its own index, so the
    column of x is periodic in c, as model._lacking builds it."""
    allowed = allowed_family_codes(n, properties, state)
    every = (1 << len(allowed)) - 1
    having = ([every ^ c for c in _lacking(1 << n)]
              if len(allowed) == 1 << (1 << n) else _k_columns(allowed, n))
    return [every ^ c for c in having], having


@lru_cache(maxsize=32)
def _pattern_lanes(n: int, k: int, m: int):
    """(V, ALL, atom ints, read ints) of the lanes p * V + j, valuation j
    of k atoms over n states under pattern p of m read bits: read i's
    int holds every state of the lanes whose pattern has bit i.  The
    valuations are those whose states' atom types (bit k - 1 - i: atom i
    holds) ascend, in combinations_with_replacement order: one per orbit
    under state permutation, V = C(2^k + n - 1, n) of 2^(n*k)."""
    V = comb((1 << k) + n - 1, n)
    names = [f"{t:0{k}b}"[::-1] for t in range(1 << k)]  # atom k-1 first
    text = "".join(chain.from_iterable(  # atom i's bits at i::k, top first
        combinations_with_replacement(names, n)))[::-1]
    lows = [int(text[i::k], 2) for i in range(k)]
    ALL = (1 << (V * n << m)) - 1
    rep = ALL // ((1 << V * n) - 1)  # bit 0 of every pattern's lanes
    reads = [ALL // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)
             for h in (V * n << i for i in range(m))]
    return V, ALL, [low * rep for low in lows], reads


def _one_step_program(prog: Program) -> Program | None:
    """prog when local, else its one-step program, or None where that is
    not local either (an announcement in a modal argument).

    Each modal read in another's argument or context cone becomes a
    fresh atom q named by its slot; the root becomes (q <-> read) -> ...
    -> root; unread atoms are dropped.  Every reader of the slot reads q,
    or, for a read outside every announcement of an argument a: a & q
    for U a, ! a & q for W a and ! a | q for O a.  Sound: on any frame
    under any valuation, let each q hold at its read's extension E.  U a
    holds only where a holds and W a only where a fails, and O a holds
    wherever a fails, so a & q, ! a & q and ! a | q each equal E there,
    as q does; every slot keeps its value and the definitions hold, so
    the program equals the root at every state.  If no allowed code
    fails it at its state (_some_code_fails), no class frame of that
    size has a countermodel; a failing code proves nothing.
    """
    if prog.local:
        return prog
    inside = set()  # slots in the argument or context cone of a modal read
    for slot, op, a, b in reversed(prog.code):
        if op > _BOT and (op >= _BOX or slot in inside):
            inside.update(x for x in (a, b) if x is not None)
    fresh = [slot for slot in sorted(inside) if prog.code[slot][1] >= _BOX]
    read = sorted({a for _, op, a, _ in prog.code if op == _ATOM})
    builder = _Builder([prog.atoms[i] for i in read] + [*map(str, fresh)])
    new, defs = {}, []
    for slot, op, a, b in prog.code:
        if op <= _BOT:
            new[slot] = builder.node(op, read.index(a) if op == _ATOM else a)
        else:
            new[slot] = builder.node(op, new[a], new.get(b))  # b may be None
        if slot in fresh:
            q = builder.node(_ATOM, len(read) + len(defs))
            defs.append(builder.node(_IFF, q, new[slot]))
            if b is None and op > _BOX:  # U a, W a or O a
                x = new[a] if op == _BULLET else builder.node(_NOT, new[a])
                q = builder.node(_OR if op == _CIRC else _AND, x, q)
            new[slot] = q
    root = new[prog.root]
    for definition in defs:
        root = builder.node(_IMP, definition, root)
    step = builder.program(root)
    return step if step.local else None


def _some_code_fails(step: Program | None, n: int,
                     properties: frozenset) -> bool:
    """Whether some code allowed at a state s fails the local program
    step at s under some valuation (see the module docstring); True
    without a step program (_one_step_program) or past _TABLE_LANES
    lanes.

    One kernel pass judges each valuation j under each pattern p of the
    modal reads' bits (_pattern_lanes), one valuation j per orbit under
    state permutation: if c fails at s in group (p, j), pi c fails at
    pi s in (p, pi j), as class tables are closed under renaming states
    (neg-suppl too), lanes read no names and pi j's argument masks are
    pi of j's.  The codes realizing a failing lane group (p, j) at s
    have the reads' argument masks at j exactly where p has their bits:
    an AND of class columns (_class_columns), asked once per class table
    and argument bits.
    """
    if step is None:
        return True
    k, reads = len(step.atoms), list(dict.fromkeys(
        (a, b) for _, op, a, b in step.code if op >= _BOX))  # modal reads
    m = len(reads)
    if comb((1 << k) + n - 1, n) << m > _TABLE_LANES:
        return True
    V, ALL, A, K = _pattern_lanes(n, k, m)
    vals = [0] * step.size  # on a codeless frame: reads are the patterns'
    _exec(step.code, vals, A, semantics._Frame(n, (), monotone=True), V << m,
          ALL, dict(zip(reads, K)))
    width, full = V * n, (1 << n) - 1
    args = [(vals[a] if b is None else vals[a] & vals[b] | ALL ^ vals[b])
            & (1 << width) - 1 for a, b in reads]  # alike in every pattern
    miss = bin(ALL ^ vals[step.root])[:1:-1]  # character i is bit i
    per_state, asked_before = "neg-suppl" in properties, set()
    # every state allows as many codes: classes are closed under renaming
    every = (1 << len(allowed_family_codes(n, properties, 0))) - 1
    at = miss.find("1")
    while at >= 0:
        group, s = divmod(at, n)
        p, j = divmod(group, V)
        asked = (s * per_state, p, *[x >> j * n & full for x in args])
        if asked not in asked_before:
            asked_before.add(asked)
            lacking, having = _class_columns(n, properties, asked[0])
            codes = every
            for i, x in enumerate(asked[2:]):
                codes &= having[x] if p >> i & 1 else lacking[x]
            if codes:
                return True
        # past the states of s's table: s alone, or the whole group
        at = miss.find("1", at + 1 if per_state else at - s + n)
    return False


def _scan(prog: Program, n: int, properties: frozenset):
    """First witness (family codes, valuation masks, state) among the
    class's n-state frames in canonical order, or None.

    Candidate frames are judged in canonical order.  A program that is
    not local takes the orbit-least frames (_orbit_least_frames).  A
    local program fails at a state by that state's code alone, so it
    takes the class's least frame L with the last state's code running
    up through the codes allowed there: the first is L itself, and if no
    state of L fails, the minimum is L with the last state's code raised
    to the least one failing there (a renaming of the states carries a
    code failing at any state to one failing at the last).

    When a frame's `per` valuations fit one block, candidates are judged
    a chunk at a time (_lane_chunks), frame i of the chunk under
    valuation j in lane i * per + j, so the first failing lane is the
    first failing frame's first failing valuation at its lowest failing
    state, as frame by frame sweeps find it; the failing frame is read
    back from its lanes' codes.  Other frames are swept on their own,
    block by block, valuation j of a block in lane j.  Announcements are
    only scanned over classes requiring (m), and the frames are told so.
    """
    k = len(prog.atoms)
    V, A = _block_atoms(n, k)
    per = V if V == 1 << n * k else 0  # valuations per frame in one block
    monotone = "m" in properties or None
    if prog.local:
        allowed = _allowed_lists(n, properties)
        least = tuple(options[0] for options in allowed[:-1])
        frames = (least + (code,) for code in allowed[-1])
    else:
        frames = _orbit_least_frames(n, properties)
    if per:
        for lanes, atoms in _lane_chunks(n, frames, per, A, monotone):
            hit = _sweep(prog, lanes, ((0, lanes.V, lanes.ALL, atoms),))
            if hit:
                lane, state = hit
                i, j = divmod(lane, per)
                return (tuple(lanes.codes[i * per * n:i * per * n + n]),
                        _valuation_masks(j, n, k), state)
        return None
    for codes in frames:
        hit = _sweep(prog, _Frame(n, bytes(codes) * V, monotone=monotone),
                     _blocks(n, k))
        if hit:
            j, state = hit
            return codes, _valuation_masks(j, n, k), state
    return None


def _witness_to_countermodel(f: Formula, n: int, codes, atoms, assignment,
                             state: int) -> Countermodel:
    frame = frame_from_codes(_STATE_NAMES[:n], codes)
    valuation = {a: StateSet(n, bits) for a, bits in zip(atoms, assignment)}
    pm = PointedModel(NeighborhoodModel(frame, valuation), state)
    if evaluate(pm, f):
        msg = "countermodel self-check failed; evaluator disagrees with scan"
        raise RuntimeError(msg)
    return Countermodel(pm)


def worker_count(jobs: int) -> int:
    """The worker count jobs asks for; below 1 is refused.  Scans run in
    this process whatever the count."""
    if jobs < 1:
        msg = f"jobs must be at least 1, got {jobs}"
        raise ValueError(msg)
    return jobs


def find_countermodel(f: Formula, cls: ClassSpec, mode: str = "exhaustive",
                      seed: int = 0, samples: int = 0, jobs: int = 1):
    """Search the class for a pointed model falsifying f.

    Exhaustive mode climbs n = 1..max_states and returns the canonical
    minimum countermodel, or NoCounterexampleUpTo (never a validity
    claim); it refuses an n whose valuations pass the cap of
    check_valuation_space, once no smaller n has a countermodel.  It
    asks the one-step table at max_states first: where no allowed code
    fails there, none fails at any smaller n (the lift lemma, see the
    module docstring) and no frame is judged; else each n from 1 asks
    its own table until one fails, and the scans decide from there on.
    Sampled mode draws `samples` (frame, valuation) pairs at n =
    max_states from the seeded generator.  jobs must be at least 1; it
    starts no processes and never changes the verdict.
    """
    if mode not in ("exhaustive", "sampled"):
        msg = f"mode must be 'exhaustive' or 'sampled', got {mode!r}"
        raise ValueError(msg)
    worker_count(jobs)
    atoms = cls.atoms if cls.atoms else atoms_of(f)
    prog = compile_formula(f, atoms)
    if prog.announces and "m" not in cls.properties:
        msg = ("announcement formulas are only searched over classes "
               "requiring property m")
        raise ValueError(msg)
    step = _one_step_program(prog)
    if mode == "sampled":
        return _sampled_search(f, prog, step, cls, seed, samples)
    if cls.max_states > EXHAUSTIVE_MAX_STATES:
        msg = (f"exhaustive search caps max_states at {EXHAUSTIVE_MAX_STATES}, "
               f"got {cls.max_states}; use sampled mode")
        raise ValueError(msg)
    top, props = cls.max_states, cls.properties
    climb = _some_code_fails(step, top, props)  # else none fails below top
    scans = False  # from the first count whose table fails on
    for n in range(1, top + 1):
        check_valuation_space(len(atoms), n)
        scans = climb and (scans or n == top
                           or _some_code_fails(step, n, props))
        hit = _scan(prog, n, props) if scans else None
        if hit:
            codes, assignment, state = hit
            return _witness_to_countermodel(f, n, codes, atoms, assignment, state)
    return NoCounterexampleUpTo(cls.max_states, "exhaustive")


# A sampled call judges chunks of _chunk_sizes(1): every power of two up
# to _CHUNK_CAP and a last partial chunk, each its own stream length.
_STREAM_LENGTHS = 2 * (_CHUNK_CAP.bit_length() + 1)  # two calls' lengths


@lru_cache(maxsize=_STREAM_LENGTHS)
def _stream_lanes(count: int) -> tuple[int, int, int]:
    """(steps, rep, mask) for `count` 128-bit lanes in one int: lane i of
    steps holds (i + 1) * gamma mod 2^64, rep has bit 0 of every lane and
    mask the low 64 bits of every lane."""
    lane = (1 << 128) - 1
    rep = ((1 << 128 * count) - 1) // lane
    ramp = ((count << 128 * count) - rep) // lane  # lane i holds i + 1
    mask = rep * _MASK64
    return ramp * _GAMMA & mask, rep, mask


def _splitmix_block(seed: int, start: int, count: int) -> bytes:
    """Outputs start .. start + count - 1 (from 0) of SplitMix64(seed), 16
    bytes each: output i is bytes [16i, 16i + 8), little-endian, so its
    low byte is byte 16i; the other 8 bytes of each are not read.

    Output i is mix(seed + (i + 1) * gamma mod 2^64), so a block of the
    stream is computed at once: one int holds each output's state in a
    128-bit lane, where the xor-shifts (masked back to the low 64 bits)
    and the products with the 64-bit constants never cross lanes.
    """
    steps, rep, mask = _stream_lanes(count)
    z = (steps + (seed + start * _GAMMA & _MASK64) * rep) & mask
    z = (z ^ z >> 30) & mask
    z = z * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) & mask
    z = z * 0x94D049BB133111EB & mask
    return (z ^ z >> 31).to_bytes(16 * count, "little")


# byte x to x % 2^(2^n), the low 2^n bits of x, at n <= 3
_LOW_BITS = tuple(bytes(x & (1 << (1 << n)) - 1 for x in range(256))
                  for n in range(4))


def _sampled_search(f: Formula, prog: Program, step: Program | None,
                    cls: ClassSpec, seed: int, samples: int):
    """The first of `samples` draws of the stream that falsifies f, as a
    countermodel at its lowest failing state, or NoCounterexampleUpTo.
    If the one-step program step (_one_step_program) has no allowed code
    failing at its state (_some_code_fails), no draw fails, and none is
    drawn; else, or without a step program, the draws decide.  Either way
    the verdict bytes are the draws'.

    Draws are judged a chunk at a time on a lane frame, draw j of the
    chunk in lane j; the chunk's part of the stream is computed at once
    (_splitmix_block) and read exactly as SplitMix64.below would read it.
    Where the class table holds every code (the unrestricted class),
    below(m) is the output's low 2^n bits, so the codes are the stream's
    low bytes (low two bytes at n = 4) as they are; other tables are
    indexed by below(m).  Atom masks are the low n bits of their outputs'
    low bytes, all transposed at once (_lane_ints).  The first chunk is
    one draw, on one lane, which reads its K entries on demand as a
    single model does; from there the chunks double, so a failure at
    draw k judges fewer than 2k + 2 draws.
    """
    n = cls.max_states
    if n > SAMPLED_MAX_STATES:
        msg = (f"sampled search caps max_states at {SAMPLED_MAX_STATES}, "
               f"got {n}")
        raise ValueError(msg)
    if samples <= 0:
        msg = f"sampled mode needs a positive sample count, got {samples}"
        raise ValueError(msg)
    atoms = prog.atoms
    allowed = _allowed_lists(n, cls.properties)
    whole = all(len(options) == 1 << (1 << n) for options in allowed)
    if not _some_code_fails(step, n, cls.properties):
        return NoCounterexampleUpTo(n, "sampled", samples, seed)
    width = max(1, 1 << n >> 3)  # bytes per code
    full = (1 << n) - 1
    per = n + len(atoms)  # stream outputs per draw
    step = 16 * per  # stream bytes per draw
    sizes = _chunk_sizes(1)
    monotone = "m" in cls.properties or None
    done = 0
    while done < samples:
        V = min(next(sizes), samples - done)
        raw = _splitmix_block(seed, done * per, V * per)
        if whole:
            codes = bytearray(width * V * n)
            for s in range(n):
                for q in range(width):
                    codes[width * s + q::width * n] = raw[16 * s + q::step]
            codes = (codes.translate(_LOW_BITS[n]) if width == 1
                     else _le_ints(codes, "H"))
        else:
            words = _le_ints(raw, "Q")  # output i is word 2i
            codes = [0] * (V * n)
            for s, options in enumerate(allowed):
                m = len(options)
                codes[s::n] = [options[x % m] for x in words[2 * s::2 * per]]
        A = _lane_ints([raw[16 * i::step] for i in range(n, per)], n)
        lanes = _Frame(n, codes, monotone=monotone)
        hit = _sweep(prog, lanes, ((0, V, lanes.ALL, A),))
        if hit:
            j, state = hit
            return _witness_to_countermodel(
                f, n, tuple(codes[j * n:(j + 1) * n]), atoms,
                tuple(raw[16 * (j * per + i)] & full for i in range(n, per)),
                state)
        done += V
    return NoCounterexampleUpTo(n, "sampled", samples, seed)


# --- distinguishability -------------------------------------------------------


# each fragment's modal operators; "full" is both fragments
_FRAGMENT_OPS = {kind: (op,) for kind, (_, op, _) in FRAGMENTS.items()}
_FRAGMENT_OPS["full"] = tuple(op for _, op, _ in FRAGMENTS.values())


def fragment_representatives(models, atoms, operators, max_depth: int):
    """Representatives of the fragment up to joint extension signature.

    Closes the sorted atoms, or true where there are none, under
    negation, conjunction and the given unary operators nested at most
    max_depth deep, keeping one formula (first discovered) per joint
    signature; the closure grows one modal depth per round, so each
    kept formula has the least modal depth of its signature.  Returns
    [(formula, signature)] in discovery order; signatures are tuples of
    extension masks, one per model.  Each offered formula is one kernel
    node over the slots of representatives.
    """
    return list(_representatives(models, atoms, operators, max_depth))


def _representatives(models, atoms, operators, max_depth: int):
    """The closure of fragment_representatives, yielding the
    representatives in order as they are appended: at the latest at the
    end of the row of conjunctions, or the sweep of modal operators,
    that found them.  Representatives are only appended and never
    change, so what is yielded is final, and a consumer may stop at any
    point.

    Round d offers, row by row, the negation of each representative and
    its conjunction with each, wherever one found since the previous
    round's rows (reps[paired:]) takes part; these offers find depth d
    only.  Below max_depth, it then applies the operators to the
    representatives not yet swept, which finds depth d + 1 only, so a
    signature's first formula already has its least depth.  An offer
    skipped re-offers a known node, or conjoins two older
    representatives, offered in an earlier round in one order or the
    other (the kernel's AND commutes), so it would find nothing.  A
    sweep that finds nothing leaves no offer to make.
    """
    if max_depth < 0:
        msg = f"depth must be at least 0, got {max_depth}"
        raise ValueError(msg)
    names = tuple(sorted(set(atoms)))
    closure = _Closure(models, names)
    reps: list[tuple] = []  # (formula, signature, slot)
    seen: set[tuple] = set()
    emitted = 0

    def offer(node, make, *parts) -> None:
        slot, sig = node
        if sig not in seen:
            seen.add(sig)
            reps.append((make(*parts), sig, slot))

    def fresh():
        nonlocal emitted
        for f, sig, _ in reps[emitted:]:
            yield f, sig
        emitted = len(reps)

    for name in names:
        offer(closure.atom(name), Atom, name)
    if not names:  # the constants are reached from an atom, else from true
        offer(closure.node(Top), Top)
    yield from fresh()
    paired = 0
    for depth in range(max_depth + 1):
        for i, (f, _, a) in enumerate(reps):  # reaches rows appended in it
            if i >= paired:
                offer(closure.node(Not, a), Not, f)
            for g, _, b in islice(reps, 0 if i >= paired else paired, None):
                offer(closure.node(And, a, b), And, f, g)
            yield from fresh()
        swept, paired = paired, len(reps)
        if depth < max_depth:
            for f, _, a in reps[swept:paired]:
                for op in operators:
                    offer(closure.node(op, a), op, f)
            yield from fresh()
        if len(reps) == paired:
            return


def distinguish(pm1: PointedModel, pm2: PointedModel, fragment: str,
                depth: int):
    """First fragment formula telling the two points apart, or None.

    The formula is the first separating one of fragment_representatives,
    whose closure is cut off once it is found.  None is a bounded
    verdict: no distinguishing formula up to the modal depth over the
    atoms of either valuation (over true alone when neither has one).
    """
    if fragment not in _FRAGMENT_OPS:
        msg = f"fragment must be one of {sorted(_FRAGMENT_OPS)}, got {fragment!r}"
        raise ValueError(msg)
    atoms = {name for name, _ in pm1.model.valuation}
    atoms.update(name for name, _ in pm2.model.valuation)
    reps = _representatives((pm1.model, pm2.model), sorted(atoms),
                            _FRAGMENT_OPS[fragment], depth)
    for formula, (e1, e2) in reps:
        if bool(e1 >> pm1.point & 1) != bool(e2 >> pm2.point & 1):
            return formula
    return None

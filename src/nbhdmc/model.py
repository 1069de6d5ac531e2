"""Finite neighborhood frames and models, frame properties, transformers.

States are indexed 0..n-1 and a StateSet is a bit vector over those
indices (bit i = state i), so families sort canonically by numeric
value.  The universe is capped at 16 states: every artifact this
package targets needs at most 3, and 16 keeps full-powerset scans
(2^n subsets) cheap.

A family is stored as one int, its family code: bit x is set when the
set with mask x is a member.  A frame is its codes, from JSON in to JSON
out, and every family operation reads them: the frame properties
(`code_has_property`), the transformers, the morphism checks, the
search's class tables and the evaluation kernel; `project` alone defines
submodel restriction.  StateSet families exist only where a caller passes
them in or reads a frame's `neighborhoods` or `family`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .formula import is_atom_name

MAX_STATES = 16

PROPERTY_IDS = ("m", "c", "n", "r", "filter", "neg-suppl")
FILTER = ("m", "c", "n")  # the filter property is these three together

# The member order in which a property holds on every prefix of a family
# that has it, for the properties that do.  The members of an
# intersection-closed family up to any mask are intersection-closed,
# since x & y <= min(x, y); the members of an upward-closed or neg-suppl
# family from any mask up keep their supersets, since a superset's mask
# is never smaller.  (n) and (r) hold on no such prefixes.
PREFIX_ORDER = {"c": "ascending", "m": "descending",
                "neg-suppl": "descending"}


class ModelFormatError(ValueError):
    """Malformed model or perturbation-map JSON."""


class PerturbationError(ValueError):
    """A perturbation family breaks its membership invariant."""


class NonMonotoneError(ValueError):
    """An operation needing closure under supersets met a model without it."""


@dataclass(frozen=True, order=True)
class StateSet:
    """Immutable subset of {0..universe_size-1} as a bit vector."""

    universe_size: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.universe_size <= MAX_STATES:
            msg = f"universe size {self.universe_size} outside 0..{MAX_STATES}"
            raise ValueError(msg)
        if not 0 <= self.bits < (1 << self.universe_size):
            msg = f"bits {self.bits:#x} out of range for universe {self.universe_size}"
            raise ValueError(msg)

    @classmethod
    def empty(cls, n: int) -> StateSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> StateSet:
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, indices) -> StateSet:
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                msg = f"state index {i} outside universe of size {n}"
                raise ValueError(msg)
            bits |= 1 << i
        return cls(n, bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.universe_size) if self.bits >> i & 1)

    def contains(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def issubset(self, other: StateSet) -> bool:
        return self.bits & ~other.bits == 0

    def is_empty(self) -> bool:
        return self.bits == 0

    def size(self) -> int:
        return self.bits.bit_count()

    def __or__(self, other: StateSet) -> StateSet:
        return StateSet(self.universe_size, self.bits | other.bits)

    def __and__(self, other: StateSet) -> StateSet:
        return StateSet(self.universe_size, self.bits & other.bits)

    def __sub__(self, other: StateSet) -> StateSet:
        return StateSet(self.universe_size, self.bits & ~other.bits)

    def complement(self) -> StateSet:
        return StateSet(self.universe_size,
                        self.bits ^ ((1 << self.universe_size) - 1))


def _family_code(n: int, family) -> int:
    """Family code of universe-n StateSets; a repeated member counts once."""
    code = 0
    for ss in family:
        if not isinstance(ss, StateSet):
            msg = f"family member is not a StateSet: {ss!r}"
            raise TypeError(msg)
        if ss.universe_size != n:
            msg = f"family member has universe {ss.universe_size}, frame has {n}"
            raise ValueError(msg)
        code |= 1 << ss.bits
    return code


@dataclass(frozen=True, init=False)
class NeighborhoodFrame:
    """States plus one finite family of state sets per state, stored as
    one family code per state; `neighborhoods` and `family` build
    StateSets, sorted by mask, when read.  Equality and hashing read
    states and codes."""

    states: tuple[str, ...]
    codes: tuple[int, ...]

    def __init__(self, states, neighborhoods) -> None:
        fams = tuple(neighborhoods)
        frame = frame_from_codes(states, (0,) * len(fams))  # checks the states
        object.__setattr__(self, "states", frame.states)
        object.__setattr__(self, "codes", tuple(_family_code(frame.size, fam)
                                                for fam in fams))

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            msg = f"unknown state name: {name!r}"
            raise ValueError(msg) from None

    @property
    def neighborhoods(self) -> tuple[tuple[StateSet, ...], ...]:
        return tuple(self.family(i) for i in range(self.size))

    def family(self, i: int) -> tuple[StateSet, ...]:
        return tuple(StateSet(self.size, x) for x in _members(self.codes[i]))

    def family_masks(self) -> tuple[frozenset[int], ...]:
        """Per-state families as frozensets of bit masks."""
        return tuple(frozenset(_members(code)) for code in self.codes)

    def family_codes(self) -> tuple[int, ...]:
        """The stored per-state family codes."""
        return self.codes


def _canonical_valuation(n: int, valuation) -> tuple[tuple[str, StateSet], ...]:
    items = valuation.items() if hasattr(valuation, "items") else valuation
    out: dict[str, StateSet] = {}
    for name, ss in items:
        if not is_atom_name(name):
            msg = f"bad atom name in valuation: {name!r}"
            raise ValueError(msg)
        if not isinstance(ss, StateSet) or ss.universe_size != n:
            msg = f"valuation of {name!r} must be a StateSet over {n} states"
            raise ValueError(msg)
        if name in out:
            msg = f"duplicate atom in valuation: {name!r}"
            raise ValueError(msg)
        if not ss.is_empty():  # absent atoms denote the empty set
            out[name] = ss
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class NeighborhoodModel:
    """A frame with a valuation.  Atoms absent from the valuation are empty."""

    frame: NeighborhoodFrame
    valuation: tuple[tuple[str, StateSet], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "valuation",
            _canonical_valuation(self.frame.size, self.valuation))

    @property
    def size(self) -> int:
        return self.frame.size

    @property
    def states(self) -> tuple[str, ...]:
        return self.frame.states

    def atom_extension(self, name: str) -> StateSet:
        for k, ss in self.valuation:
            if k == name:
                return ss
        return StateSet.empty(self.frame.size)

    def valuation_map(self) -> dict[str, StateSet]:
        return dict(self.valuation)


def _model(frame: NeighborhoodFrame, valuation: tuple) -> NeighborhoodModel:
    """The model on frame with a valuation the constructor would keep."""
    model = object.__new__(NeighborhoodModel)
    object.__setattr__(model, "frame", frame)
    object.__setattr__(model, "valuation", valuation)
    return model


@dataclass(frozen=True)
class PointedModel:
    model: NeighborhoodModel
    point: int

    def __post_init__(self) -> None:
        if not 0 <= self.point < self.model.size:
            msg = f"point {self.point} outside 0..{self.model.size - 1}"
            raise ValueError(msg)

    @property
    def point_name(self) -> str:
        return self.model.states[self.point]


@dataclass(frozen=True)
class PerturbationMap:
    """Per-state family of sets to add to or remove from the neighborhoods.

    kind "bullet" requires every set at state w to exclude w; kind
    "wrong" requires it to contain w.  These are exactly the legality
    conditions under which the identity map stays a morphism of the
    matching kind, so violations are rejected loudly.
    """

    kind: str
    sign: str
    families: tuple[tuple[StateSet, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("bullet", "wrong"):
            msg = f"kind must be 'bullet' or 'wrong', got {self.kind!r}"
            raise PerturbationError(msg)
        if self.sign not in ("add", "remove"):
            msg = f"sign must be 'add' or 'remove', got {self.sign!r}"
            raise PerturbationError(msg)
        fams = tuple(self.families)
        n = len(fams)
        if not 1 <= n <= MAX_STATES:
            msg = f"perturbation needs 1..{MAX_STATES} per-state families, got {n}"
            raise PerturbationError(msg)
        norm = []
        for w, fam in enumerate(fams):
            code, lack = _family_code(n, fam), _lacking(n)[w]
            bad = code & ~lack if self.kind == "bullet" else code & lack
            if bad:  # name the first offending set, in mask order
                side = "with" if self.kind == "bullet" else "without"
                first = list(_members((bad & -bad).bit_length() - 1))
                msg = (f"{self.kind} perturbation at state {w} contains a set "
                       f"{side} {w}: {first}")
                raise PerturbationError(msg)
            norm.append(tuple(StateSet(n, x) for x in _members(code)))
        object.__setattr__(self, "families", tuple(norm))

    @property
    def size(self) -> int:
        return len(self.families)


# --- family codes -------------------------------------------------------------


# per byte value, the positions of its set bits, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if x >> i & 1) for x in range(256))
_NONZERO = bytes([0] + [1] * 255)  # byte x to 1 when x is not 0


def _nonzero_runs(data: bytes):
    """(start, end) of each run of nonzero bytes in data, found in C."""
    flags = data.translate(_NONZERO)
    at = flags.find(1)
    while at >= 0:
        end = flags.find(0, at)
        end = len(data) if end < 0 else end
        yield at, end
        at = flags.find(1, end)


def _members(code: int):
    """Subset masks in a family code, ascending, read byte by byte; a
    code wider than 8 bytes only in its runs of nonzero bytes, so a
    sparse code of 16 states costs little more than its members."""
    data = code.to_bytes((code.bit_length() + 7) // 8, "little")
    for at, end in _nonzero_runs(data) if len(data) > 8 else ((0, len(data)),):
        base = 8 * at
        for byte in data[at:end]:
            for i in _BYTE_BITS[byte]:
                yield base + i
            base += 8


@lru_cache(maxsize=None)
def _lacking(n: int) -> tuple[int, ...]:
    """Per state w, the family code of the subsets without w.

    The masks with bit w set are the upper halves of the runs of 2^(w+1)
    consecutive masks, so each code takes a few big-int operations, also
    at MAX_STATES.
    """
    every = (1 << (1 << n)) - 1
    return tuple(every ^ every // ((1 << (2 << w)) - 1)
                 * (((1 << (1 << w)) - 1) << (1 << w))
                 for w in range(n))


def code_has_property(n: int, code: int, prop: str, state: int = 0) -> bool:
    """Whether the family with this code has the property at the given
    state of an n-state frame (ids as in check_property).

    Adding state w to a member is adding 2^w to its mask, so (m) holds
    when shifting the members that lack w up by 2^w gives members only,
    for every w, and neg-suppl when the same holds for the members that
    lack both w and the state, for every w other than the state.  (c)
    holds when, for every member x, the sets x & y for the members y
    are members.  Those sets are the family projected over each state w
    outside x in turn: each set with w shifted down by 2^w onto the set
    without w, keeping the sets that lack w.  So each member costs n
    big-int steps, where meeting every pair of members cost one per
    pair.
    """
    if prop == "m":
        return all((code & lack) << (1 << w) & ~code == 0
                   for w, lack in enumerate(_lacking(n)))
    if prop == "neg-suppl":
        lacking = _lacking(n)
        avoid = lacking[state]
        return all((code & lack & avoid) << (1 << w) & ~code == 0
                   for w, lack in enumerate(lacking) if w != state)
    if prop == "n":
        return bool(code >> ((1 << n) - 1) & 1)
    if prop == "c":
        lacking = _lacking(n)
        # largest first: the table walk (search._grow) adds the largest
        # member last to a closed family, so a failing meet involves it
        for x in reversed(list(_members(code))):
            meets = code
            for w, lack in enumerate(lacking):
                if not x >> w & 1:
                    meets = (meets | meets >> (1 << w)) & lack
            if meets & ~code:
                return False
        return True
    if prop == "r":
        # w is in every member, so in their intersection, when no member
        # lacks w
        core = sum(1 << w for w, lack in enumerate(_lacking(n))
                   if not code & lack)
        return bool(code >> core & 1)
    if prop == "filter":
        return all(code_has_property(n, code, p, state) for p in FILTER)
    msg = f"unknown property id: {prop!r}"
    raise ValueError(msg)


def check_property(frame: NeighborhoodFrame, prop: str) -> bool:
    """Decide a frame property at every state, on the family codes.

    Known ids (PROPERTY_IDS): m (closed under supersets), c (closed
    under binary intersections), n (contains the full universe), r
    (contains the intersection of the whole family, with the empty
    intersection read as the full universe, so an empty family fails),
    filter (m+c+n), neg-suppl (X in N(s), X subset Y, s not in Y implies
    Y in N(s)).
    """
    n = frame.size
    return all(code_has_property(n, code, prop, s)
               for s, code in enumerate(frame.family_codes()))


def frame_from_codes(states, codes) -> NeighborhoodFrame:
    """The frame on these state names with one family code per state, in
    O(n).  The constructor checks its states here too."""
    states, codes = tuple(states), tuple(codes)
    n = len(states)
    if not 1 <= n <= MAX_STATES:
        msg = f"frame needs 1..{MAX_STATES} states, got {n}"
        raise ValueError(msg)
    if len(set(states)) != n:
        msg = f"duplicate state names in {states!r}"
        raise ValueError(msg)
    if any(not isinstance(s, str) or not s for s in states):
        msg = "state names must be nonempty strings"
        raise ValueError(msg)
    if len(codes) != n:
        msg = f"{len(codes)} neighborhood families for {n} states"
        raise ValueError(msg)
    if any(code >> (1 << n) for code in codes):
        msg = f"family code out of range for {n} states"
        raise ValueError(msg)
    frame = object.__new__(NeighborhoodFrame)
    object.__setattr__(frame, "states", states)
    object.__setattr__(frame, "codes", codes)
    return frame


def project(n: int, code: int, over: int) -> int:
    """code projected over the states in the mask over: bit y is set when
    code has bit y | z for some z within over.  The submodel on the other
    states keeps a mask y within them exactly when bit y is set.  One
    shift per state of over: the existential step of the fast zeta
    transform (Bjorklund, Husfeldt, Kaski & Koivisto, STOC 2007)."""
    for w, lack in enumerate(_lacking(n)):
        if over >> w & 1:
            code |= code >> (1 << w) & lack
    return code


def _compress(mask: int, kept) -> int:
    """mask read at the kept states, renumbered 0.. in their order."""
    return sum((mask >> old & 1) << new for new, old in enumerate(kept))


def restrict_codes(codes, kept: int) -> tuple[int, ...]:
    """Family codes of the submodel on the states in the mask kept.

    Each kept state's family P becomes {Y & kept | Y in P}: P's members
    projected over the other states that lie within kept.  Then each kept
    state's index bit moves down to its new place, lowest first: that
    place is clear in every member by then, so the delta swap is a move.
    The other states go."""
    n, states = len(codes), tuple(_members(kept))
    within = project(n, 1 << kept, kept)  # the subsets of kept
    out = []
    for old in states:
        code = project(n, codes[old], (1 << n) - 1 ^ kept) & within
        for new, w in enumerate(states):
            moved = code & ~_lacking(n)[w]  # the members with state w
            code ^= moved ^ moved >> (1 << w) - (1 << new)
        out.append(code)
    return tuple(out)


# --- transformers -------------------------------------------------------------


def supplementation(model: NeighborhoodModel) -> NeighborhoodModel:
    """Close every neighborhood family under supersets."""
    frame = model.frame
    lacking = _lacking(frame.size)
    codes = []
    for code in frame.family_codes():
        # after step w the family is closed under adding any of states 0..w
        for w, lack in enumerate(lacking):
            code |= (code & lack) << (1 << w)
        codes.append(code)
    return _model(frame_from_codes(frame.states, codes), model.valuation)


def perturb(model: NeighborhoodModel, pmap: PerturbationMap) -> NeighborhoodModel:
    """Add or remove the pmap families state by state."""
    frame = model.frame
    if pmap.size != frame.size:
        msg = (f"perturbation over {pmap.size} states applied to a model "
               f"with {frame.size}")
        raise PerturbationError(msg)
    add = pmap.sign == "add"
    deltas = (_family_code(frame.size, fam) for fam in pmap.families)
    codes = [code | delta if add else code & ~delta
             for code, delta in zip(frame.family_codes(), deltas)]
    return _model(frame_from_codes(frame.states, codes), model.valuation)


def transitive_closure(frame: NeighborhoodFrame) -> NeighborhoodFrame:
    """Iterate the closure step to a fixpoint.

    One round replaces every N(w) by N(w) united with
    {m_N(X) | X in N(w)} where m_N(X) = {z | X in N(z)}, all rounds
    computed from the snapshot of the previous one.  Families only grow
    inside a finite powerset, so this terminates.
    """
    codes = frame.family_codes()
    while True:
        union = 0
        for code in codes:
            union |= code
        marks = {x: sum(1 << z for z, code in enumerate(codes) if code >> x & 1)
                 for x in _members(union)}
        grown = []
        for code in codes:
            new = code
            for x in _members(code):  # two members can share a mark
                new |= 1 << marks[x]
            grown.append(new)
        grown = tuple(grown)
        if grown == codes:
            return frame_from_codes(frame.states, codes)
        codes = grown


def intersection_submodel(model: NeighborhoodModel, X: StateSet,
                          force: bool = False) -> NeighborhoodModel:
    """Restrict the model to the nonempty subset X.

    Neighborhoods become {P & X | P in N(s)} and the valuation is
    intersected with X; surviving states keep their names but are
    reindexed.  The construction presupposes closure under supersets;
    without it the same set formula is applied only when force is set.
    """
    n = model.size
    if X.universe_size != n:
        msg = f"X has universe {X.universe_size}, model has {n}"
        raise ValueError(msg)
    if X.is_empty():
        msg = "intersection submodel needs a nonempty state set"
        raise ValueError(msg)
    if not force and not check_property(model.frame, "m"):
        msg = ("intersection submodel of a model not closed under supersets; "
               "pass force to apply the set formula anyway")
        raise NonMonotoneError(msg)
    kept = X.indices()
    frame = frame_from_codes(
        tuple(model.states[i] for i in kept),
        restrict_codes(model.frame.family_codes(), X.bits))
    return _model(frame, tuple(
        (name, StateSet(len(kept), bits)) for name, ss in model.valuation
        if (bits := _compress(ss.bits, kept))))


# --- JSON wire format ---------------------------------------------------------


def _names_mask(bit: dict[str, int], names, key: str, owner: str) -> int:
    """The mask of the states named in names, a repeated name counting
    once (bit maps each state name to its bit)."""
    mask = 0
    try:
        if isinstance(names, list):
            for name in names:
                mask |= bit[name]
            return mask
    except (KeyError, TypeError):  # an unknown name, or an unhashable one
        name = next(x for x in names if not isinstance(x, str) or x not in bit)
        msg = f"{key} of {owner!r}: unknown state name {name!r}"
        raise ModelFormatError(msg) from None
    msg = f"{key} of {owner!r}: expected an array of state names"
    raise ModelFormatError(msg)


def _family_codes(data: dict, key: str, bit: dict[str, int]):
    """Yield (state, family code, entry count) for data[key], state by
    state (bit maps each state name to its bit), so a caller's per-state
    check fires before the next state's entries are decoded."""
    fam_data = data.get(key, {})
    if not isinstance(fam_data, dict):
        msg = f"'{key}' must be an object"
        raise ModelFormatError(msg)
    for name in fam_data:
        if name not in bit:
            msg = f"{key}: unknown state name {name!r}"
            raise ModelFormatError(msg)
    for s in bit:
        entries = fam_data.get(s, [])
        if not isinstance(entries, list):
            msg = f"{key} of {s!r} must be an array of arrays"
            raise ModelFormatError(msg)
        code = 0
        for names in entries:
            code |= 1 << _names_mask(bit, names, key, s)
        yield s, code, len(entries)


def model_from_json(data) -> NeighborhoodModel:
    """Decode the wire format; rejects unknown names and duplicate sets."""
    if not isinstance(data, dict):
        raise ModelFormatError("model JSON must be an object")
    extra = set(data) - {"states", "neighborhoods", "valuation"}
    if extra:
        msg = f"unknown model keys: {sorted(extra)}"
        raise ModelFormatError(msg)
    states = data.get("states")
    if (not isinstance(states, list) or not states
            or any(not isinstance(s, str) for s in states)):
        raise ModelFormatError("'states' must be a nonempty array of names")
    if len(set(states)) != len(states):
        raise ModelFormatError("duplicate state names")
    if len(states) > MAX_STATES:
        msg = f"at most {MAX_STATES} states supported, got {len(states)}"
        raise ModelFormatError(msg)
    bit = {s: 1 << i for i, s in enumerate(states)}
    codes = []
    for s, code, count in _family_codes(data, "neighborhoods", bit):
        if code.bit_count() != count:
            msg = f"duplicate neighborhood set at state {s!r}"
            raise ModelFormatError(msg)
        codes.append(code)
    val_data = data.get("valuation", {})
    if not isinstance(val_data, dict):
        raise ModelFormatError("'valuation' must be an object")
    valuation = []
    for atom, names in val_data.items():
        if not is_atom_name(atom):
            msg = f"bad atom name in valuation: {atom!r}"
            raise ModelFormatError(msg)
        if mask := _names_mask(bit, names, "valuation", atom):  # else absent
            valuation.append((atom, StateSet(len(states), mask)))
    try:  # the last check: no state name is empty
        frame = frame_from_codes(states, codes)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    return _model(frame, tuple(sorted(valuation)))


def model_to_json(model: NeighborhoodModel) -> dict:
    """Canonical wire form: families sorted by bit value, atoms sorted."""
    states = model.states

    def names(mask: int) -> list[str]:
        return [states[i] for i in _members(mask)]

    return {
        "states": list(states),
        "neighborhoods": {s: [names(x) for x in _members(code)]
                          for s, code in zip(states, model.frame.codes)},
        "valuation": {atom: names(ss.bits) for atom, ss in model.valuation},
    }


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The JSON array (with brackets "{}", object) of the written items,
    laid out as json.dumps(..., indent=2) lays it out at this depth."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def model_to_text(model: NeighborhoodModel) -> str:
    """json.dumps(model_to_json(model), indent=2) plus a newline, written
    directly with the name quoting json.dumps uses: with an indent,
    json.dumps runs json's pure-Python encoder, about twice as slow."""
    quoted = [encode_basestring_ascii(s) for s in model.states]

    def names(mask: int, depth: int) -> str:
        return _block([quoted[i] for i in _members(mask)], depth)

    families = [f"{s}: {_block([names(x, 4) for x in _members(code)], 3)}"
                for s, code in zip(quoted, model.frame.codes)]
    valuation = [f'"{atom}": {names(ss.bits, 3)}'  # atoms are identifiers
                 for atom, ss in model.valuation]
    return _block([f'"states": {_block(quoted, 2)}',
                   f'"neighborhoods": {_block(families, 2, "{}")}',
                   f'"valuation": {_block(valuation, 2, "{}")}'],
                  1, "{}") + "\n"


def model_from_text(text: str) -> NeighborhoodModel:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        msg = f"not valid JSON: {exc}"
        raise ModelFormatError(msg) from exc
    return model_from_json(data)


def pmap_from_json(data, states: tuple[str, ...]) -> PerturbationMap:
    """Decode {"kind": .., "sign": .., "families": {state: [[names]...]}}."""
    if not isinstance(data, dict):
        raise ModelFormatError("perturbation JSON must be an object")
    extra = set(data) - {"kind", "sign", "families"}
    if extra:
        msg = f"unknown perturbation keys: {sorted(extra)}"
        raise ModelFormatError(msg)
    bit = {s: 1 << i for i, s in enumerate(states)}
    fams = tuple(tuple(StateSet(len(bit), x) for x in _members(code))
                 for _, code, _ in _family_codes(data, "families", bit))
    try:
        return PerturbationMap(data.get("kind", ""), data.get("sign", ""), fams)
    except PerturbationError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

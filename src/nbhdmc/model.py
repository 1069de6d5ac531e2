"""Finite neighborhood frames and models, frame properties, transformers.

States are indexed 0..n-1 and a StateSet is a bit vector over those
indices (bit i = state i), so families sort canonically by numeric
value.  The universe is capped at 16 states: every artifact this
package targets needs at most 3, and 16 keeps full-powerset scans
(2^n subsets) cheap.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

MAX_STATES = 16

PROPERTY_IDS = ("m", "c", "n", "r", "filter", "neg-suppl")

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


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


def _canonical_family(n: int, family) -> tuple[StateSet, ...]:
    """Sorted, duplicate-free family of universe-n StateSets."""
    out: dict[int, StateSet] = {}
    for ss in family:
        if not isinstance(ss, StateSet):
            msg = f"family member is not a StateSet: {ss!r}"
            raise TypeError(msg)
        if ss.universe_size != n:
            msg = f"family member has universe {ss.universe_size}, frame has {n}"
            raise ValueError(msg)
        out[ss.bits] = ss
    return tuple(out[b] for b in sorted(out))


@dataclass(frozen=True)
class NeighborhoodFrame:
    """States plus one finite family of state sets per state."""

    states: tuple[str, ...]
    neighborhoods: tuple[tuple[StateSet, ...], ...]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not 1 <= len(states) <= MAX_STATES:
            msg = f"frame needs 1..{MAX_STATES} states, got {len(states)}"
            raise ValueError(msg)
        if len(set(states)) != len(states):
            msg = f"duplicate state names in {states!r}"
            raise ValueError(msg)
        if any(not isinstance(s, str) or not s for s in states):
            msg = "state names must be nonempty strings"
            raise ValueError(msg)
        n = len(states)
        fams = tuple(self.neighborhoods)
        if len(fams) != n:
            msg = f"{len(fams)} neighborhood families for {n} states"
            raise ValueError(msg)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "neighborhoods",
                           tuple(_canonical_family(n, fam) for fam in fams))

    @property
    def size(self) -> int:
        return len(self.states)

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            msg = f"unknown state name: {name!r}"
            raise ValueError(msg) from None

    def family(self, i: int) -> tuple[StateSet, ...]:
        return self.neighborhoods[i]

    def family_masks(self) -> tuple[frozenset[int], ...]:
        """Per-state neighborhood families as frozensets of bit masks."""
        return tuple(frozenset(ss.bits for ss in fam) for fam in self.neighborhoods)

    def family_codes(self) -> tuple[int, ...]:
        """Per-state family codes: bit x is set when the set with mask x
        is a neighborhood."""
        return tuple(sum(1 << ss.bits for ss in fam)
                     for fam in self.neighborhoods)


def _canonical_valuation(n: int, valuation) -> tuple[tuple[str, StateSet], ...]:
    items = valuation.items() if hasattr(valuation, "items") else valuation
    out: dict[str, StateSet] = {}
    for name, ss in items:
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
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
            fam = _canonical_family(n, fam)
            for ss in fam:
                if self.kind == "bullet" and ss.contains(w):
                    msg = (f"bullet perturbation at state {w} contains a set "
                           f"with {w}: {sorted(ss.indices())}")
                    raise PerturbationError(msg)
                if self.kind == "wrong" and not ss.contains(w):
                    msg = (f"wrong perturbation at state {w} contains a set "
                           f"without {w}: {sorted(ss.indices())}")
                    raise PerturbationError(msg)
            norm.append(fam)
        object.__setattr__(self, "families", tuple(norm))

    @property
    def size(self) -> int:
        return len(self.families)


# --- frame properties --------------------------------------------------------


def _strict_supersets(mask: int, full: int):
    """All Y with mask < Y <= full and mask subset of Y (submask walk)."""
    comp = full & ~mask
    sub = comp
    while sub:
        yield mask | sub
        sub = (sub - 1) & comp


def check_property(frame: NeighborhoodFrame, prop: str) -> bool:
    """Decide a frame property at every state.

    Known ids: m (closed under supersets), c (closed under binary
    intersections), n (contains the full universe), r (contains the
    intersection of the whole family, with the empty intersection read
    as the full universe, so an empty family fails), filter (m+c+n),
    neg-suppl (X in N(s), X subset Y, s not in Y implies Y in N(s)).
    """
    if prop == "filter":
        return all(check_property(frame, p) for p in ("m", "c", "n"))
    if prop not in ("m", "c", "n", "r", "neg-suppl"):
        msg = f"unknown property id: {prop!r}"
        raise ValueError(msg)
    n = frame.size
    full = (1 << n) - 1
    for s, fam in enumerate(frame.family_masks()):
        if prop == "n":
            if full not in fam:
                return False
        elif prop == "m":
            for x in fam:
                if any(y not in fam for y in _strict_supersets(x, full)):
                    return False
        elif prop == "c":
            for x in fam:
                if any(x & y not in fam for y in fam):
                    return False
        elif prop == "r":
            core = full
            for x in fam:
                core &= x
            if core not in fam:
                return False
        else:  # neg-suppl
            sbit = 1 << s
            for x in fam:
                for y in _strict_supersets(x, full):
                    if not y & sbit and y not in fam:
                        return False
    return True


# --- transformers -------------------------------------------------------------


def supplementation(model: NeighborhoodModel) -> NeighborhoodModel:
    """Close every neighborhood family under supersets."""
    frame = model.frame
    n = frame.size
    full = (1 << n) - 1
    fams = []
    for fam in frame.family_masks():
        closed = set(fam)
        for x in fam:
            closed.update(_strict_supersets(x, full))
        fams.append(tuple(StateSet(n, b) for b in sorted(closed)))
    new_frame = NeighborhoodFrame(frame.states, tuple(fams))
    return NeighborhoodModel(new_frame, model.valuation)


def perturb(model: NeighborhoodModel, pmap: PerturbationMap) -> NeighborhoodModel:
    """Add or remove the pmap families state by state."""
    frame = model.frame
    if pmap.size != frame.size:
        msg = (f"perturbation over {pmap.size} states applied to a model "
               f"with {frame.size}")
        raise PerturbationError(msg)
    fams = []
    for fam, delta in zip(frame.family_masks(), pmap.families):
        masks = set(fam)
        if pmap.sign == "add":
            masks.update(ss.bits for ss in delta)
        else:
            masks.difference_update(ss.bits for ss in delta)
        fams.append(tuple(StateSet(frame.size, b) for b in sorted(masks)))
    new_frame = NeighborhoodFrame(frame.states, tuple(fams))
    return NeighborhoodModel(new_frame, model.valuation)


def transitive_closure(frame: NeighborhoodFrame) -> NeighborhoodFrame:
    """Iterate the closure step to a fixpoint.

    One round replaces every N(w) by N(w) united with
    {m_N(X) | X in N(w)} where m_N(X) = {z | X in N(z)}, all rounds
    computed from the snapshot of the previous one.  Families only grow
    inside a finite powerset, so this terminates.
    """
    n = frame.size
    fams = [set(fam) for fam in frame.family_masks()]
    while True:
        marks: dict[int, int] = {}
        for x in set().union(*fams) if fams else set():
            marks[x] = sum(1 << z for z in range(n) if x in fams[z])
        grown = False
        additions = [{marks[x] for x in fams[w]} - fams[w] for w in range(n)]
        for w in range(n):
            if additions[w]:
                fams[w].update(additions[w])
                grown = True
        if not grown:
            break
    return NeighborhoodFrame(
        frame.states,
        tuple(tuple(StateSet(n, b) for b in sorted(fam)) for fam in fams))


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
    new_n = len(kept)
    position = {old: new for new, old in enumerate(kept)}

    def compress(mask: int) -> int:
        out = 0
        for old, new in position.items():
            if mask >> old & 1:
                out |= 1 << new
        return out

    states = tuple(model.states[i] for i in kept)
    fams = tuple(
        tuple(StateSet(new_n, b)
              for b in sorted({compress(ss.bits & X.bits)
                               for ss in model.frame.neighborhoods[old]}))
        for old in kept)
    valuation = {name: StateSet(new_n, compress(ss.bits & X.bits))
                 for name, ss in model.valuation}
    return NeighborhoodModel(NeighborhoodFrame(states, fams), valuation)


# --- JSON wire format ---------------------------------------------------------


def _names_to_set(frame_states: tuple[str, ...], names, where: str) -> StateSet:
    n = len(frame_states)
    index = {s: i for i, s in enumerate(frame_states)}
    bits = 0
    if not isinstance(names, list):
        msg = f"{where}: expected an array of state names"
        raise ModelFormatError(msg)
    for name in names:
        if name not in index:
            msg = f"{where}: unknown state name {name!r}"
            raise ModelFormatError(msg)
        bits |= 1 << index[name]
    return StateSet(n, bits)


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
    states = tuple(states)
    nbhd = data.get("neighborhoods", {})
    if not isinstance(nbhd, dict):
        raise ModelFormatError("'neighborhoods' must be an object")
    for key in nbhd:
        if key not in states:
            msg = f"neighborhoods: unknown state name {key!r}"
            raise ModelFormatError(msg)
    fams = []
    for s in states:
        entries = nbhd.get(s, [])
        if not isinstance(entries, list):
            msg = f"neighborhoods of {s!r} must be an array of arrays"
            raise ModelFormatError(msg)
        fam = [_names_to_set(states, e, f"neighborhoods of {s!r}") for e in entries]
        if len({ss.bits for ss in fam}) != len(fam):
            msg = f"duplicate neighborhood set at state {s!r}"
            raise ModelFormatError(msg)
        fams.append(tuple(fam))
    val_data = data.get("valuation", {})
    if not isinstance(val_data, dict):
        raise ModelFormatError("'valuation' must be an object")
    valuation = {}
    for atom, names in val_data.items():
        if not isinstance(atom, str) or not _NAME_RE.fullmatch(atom):
            msg = f"bad atom name in valuation: {atom!r}"
            raise ModelFormatError(msg)
        valuation[atom] = _names_to_set(states, names, f"valuation of {atom!r}")
    try:
        frame = NeighborhoodFrame(states, tuple(fams))
        return NeighborhoodModel(frame, valuation)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def model_to_json(model: NeighborhoodModel) -> dict:
    """Canonical wire form: families sorted by bit value, atoms sorted."""
    states = model.states

    def names(ss: StateSet) -> list[str]:
        return [states[i] for i in ss.indices()]

    return {
        "states": list(states),
        "neighborhoods": {s: [names(ss) for ss in fam]
                          for s, fam in zip(states, model.frame.neighborhoods)},
        "valuation": {atom: names(ss) for atom, ss in model.valuation},
    }


def model_to_text(model: NeighborhoodModel) -> str:
    return json.dumps(model_to_json(model), indent=2) + "\n"


def model_from_text(text: str) -> NeighborhoodModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
    fam_data = data.get("families", {})
    if not isinstance(fam_data, dict):
        raise ModelFormatError("'families' must be an object")
    for key in fam_data:
        if key not in states:
            msg = f"families: unknown state name {key!r}"
            raise ModelFormatError(msg)
    fams = []
    for s in states:
        entries = fam_data.get(s, [])
        if not isinstance(entries, list):
            msg = f"families of {s!r} must be an array of arrays"
            raise ModelFormatError(msg)
        fams.append(tuple(_names_to_set(states, e, f"families of {s!r}")
                          for e in entries))
    try:
        return PerturbationMap(data.get("kind", ""), data.get("sign", ""),
                               tuple(fams))
    except PerturbationError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

"""Truth evaluation on neighborhood models: eval, extensions, frame validity.

Clauses at state s, writing E for the child's extension:
    U f   holds iff s is in E and E is not a neighborhood of s
    O f   holds iff s in E implies E is a neighborhood of s
    W f   holds iff E is a neighborhood of s and s is not in E
    K f   holds iff E is a neighborhood of s
    [a] b holds iff a's truth at s implies b's truth at s inside the
          submodel obtained by restricting to a's extension

One kernel serves every caller: evaluate, extension, frame_valid, the
countermodel scans and distinguish.  A formula is compiled once into a
straight-line program with one slot per distinct subformula and
context; slots are hash-consed on (operator, child slots), never on
formula trees.

Over one frame of n states a slot's value is a single int holding the
extension under V valuations at once: valuation j sits at bits
[j*n, (j+1)*n), and V = 1 is the single-model case.  The connectives
cost one big-int operation each, whatever V is.  A modal node reads,
per valuation, the frame's table K[x]: the states whose family code
(bit x set when the set with mask x is a neighborhood) has bit x.

Announcements never build a submodel; they relativize.  The submodel
on the states P keeps X & P of every neighborhood X (Ma & Sano, J. Logic
Comput. 2018): for s in P, Y within P is a neighborhood of s there when
s's code projected over ~P (model.project) has bit Y.  So [a] b compiles
inline as pa -> b, with the announced set pa = ctx & a, where ctx is the
set announced around it (everything at the top), and b compiled under
the context pa: a modal node under a context reads its argument v as
v & pa | ~pa, and K there is the projection's bit on a frame closed
under supersets; a forced run on another frame reads that bit with one
AND per state (_k_forced).  Nested announcements compose by
intersection.  Slot values outside their context are never read.

A frame (_Frame) is V lanes side by side, lane j with its own family
codes and valuation at bits [j*n, (j+1)*n); a model is one lane.
Sampled search judges a chunk of draws, and exhaustive search a chunk
of frames under all their valuations, or one frame under a block of its
valuations, with one pass of the same interpreter; verdicts are those
of evaluating the lanes one at a time.

Every whole K table comes from one bit transpose of the family codes,
built by the first sweep over several valuations or lanes.  A sweep of
one lane over a block of valuations (frame_valid, up to 16 states)
reads it once per valuation; a modal node over V lanes picks every
lane's entry at once with 2^n - 1 big-int multiplexers.  A run of one
valuation on one lane fills K entry by entry instead, as its modal
nodes ask.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from typing import NamedTuple

from .formula import (And, Announce, Atom, Bot, Box, Bullet, Circ, Formula,
                      Iff, Imp, Not, Or, Top, Wrong, atoms_of)
from .model import (NeighborhoodFrame, NeighborhoodModel, NonMonotoneError,
                    PointedModel, StateSet, code_has_property, project)

__all__ = ["evaluate", "extension", "frame_valid"]

VALUATION_SPACE_CAP = 24  # sweeps refuse when atoms * states exceeds this
_BLOCK_BITS = 10  # a sweep evaluates at most 2^10 valuations at once

_NON_MONOTONE = ("announcement on a model not closed under supersets; "
                 "pass force to apply the submodel formula anyway")

# Operators.  Slots up to _BOT read no child, up to _IFF read the frame
# nowhere, and from _BOX on are modal.
(_ATOM, _TOP, _BOT, _NOT, _AND, _OR, _IMP, _IFF, _ANN,
 _BOX, _BULLET, _CIRC, _WRONG) = range(13)

_UNARY = {Not: _NOT, Box: _BOX, Bullet: _BULLET, Circ: _CIRC, Wrong: _WRONG}
_BINARY = {And: _AND, Or: _OR, Imp: _IMP, Iff: _IFF}
_OPS = {Atom: _ATOM, Top: _TOP, Bot: _BOT, Announce: _ANN, **_UNARY, **_BINARY}


class Program(NamedTuple):
    """A compiled formula: instructions (slot, op, a, b) in dependency order.

    Atom instructions read index a of `atoms`; atoms not listed there are
    empty.  A modal instruction's b is its context slot, None outside
    every announcement, and an announcement's (pa, body) are (a, b).
    `local` says every modal instruction reads a static argument in a
    static context, a static slot being one that depends on the valuation
    only, so the formula's truth at a state reads only that state's
    family code and the valuation; `announces` says it has an
    announcement.
    """

    atoms: tuple[str, ...]
    code: tuple
    size: int
    root: int
    local: bool
    announces: bool


class _Builder:
    """Hash-consed program under construction.

    Given atoms fix the atom indexes and other atoms read as empty;
    without them each atom gets the next index where it first occurs.
    """

    __slots__ = ("fixed", "index", "slots", "code", "seen")

    def __init__(self, atoms=None):
        self.fixed = atoms is not None
        self.index = {name: i for i, name in enumerate(atoms or ())}
        self.slots: dict[tuple, int] = {}  # (op, a, b) -> slot
        self.code: list[tuple] = []
        # (id of a node, context slot) -> slot, shared subtrees
        self.seen: dict[tuple, int] = {}

    def node(self, op: int, a=0, b=None) -> int:
        key = (op, a, b)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.code)
            self.code.append((slot,) + key)
        return slot

    def formula(self, f: Formula, ctx: int | None = None) -> int:
        """f's slot under the context slot ctx (None: no announcement)."""
        key = (id(f), ctx)
        slot = self.seen.get(key)
        if slot is not None:
            return slot
        op = _OPS.get(type(f))
        if op is None:
            msg = f"not a formula: {f!r}"
            raise TypeError(msg)
        if _AND <= op <= _IFF:
            slot = self.node(op, self.formula(f.left, ctx),
                             self.formula(f.right, ctx))
        elif op == _NOT:
            slot = self.node(op, self.formula(f.child, ctx))
        elif op >= _BOX:
            slot = self.node(op, self.formula(f.child, ctx), ctx)
        elif op == _ATOM:
            i = self.index.get(f.name)
            if i is None and not self.fixed:
                i = self.index[f.name] = len(self.index)
            slot = self.node(_BOT) if i is None else self.node(_ATOM, i)
        elif op == _ANN:
            pa = self.formula(f.announced, ctx)
            if ctx is not None:
                pa = self.node(_AND, ctx, pa)
            slot = self.node(_ANN, pa, self.formula(f.body, pa))
        else:
            slot = self.node(op)
        self.seen[key] = slot
        return slot

    def program(self, root: int) -> Program:
        is_static: list[bool] = []
        local, announces = True, False
        for _, op, a, b in self.code:
            is_static.append(op <= _BOT or (op <= _IFF and is_static[a] and
                                            (op == _NOT or is_static[b])))
            if op == _ANN:
                announces = True
            elif op >= _BOX and not (is_static[a] and
                                     (b is None or is_static[b])):
                local = False
        return Program(tuple(self.index), tuple(self.code), len(self.code),
                       root, local, announces)


def compile_formula(f: Formula, atoms=None) -> Program:
    """f as a program over the given atom order, or over its own atoms in
    order of first occurrence."""
    builder = _Builder(atoms)
    return builder.program(builder.formula(f))


# --- frames -------------------------------------------------------------------


class _Frame:
    """V frames side by side, as the kernel reads them: lane j's family
    codes are codes[j*n:(j+1)*n].  A model is one lane.

    table()[x], built whole on its first sweep, has bit j*n+s set when
    lane j's code at state s has bit x; the dict K holds the entries a
    run of one valuation on one lane has read.  A caller that knows the
    frame is closed under supersets says so with monotone=True; otherwise
    monotone() checks the codes on first use.
    """

    __slots__ = ("n", "full", "codes", "V", "ALL", "rep", "K", "_table",
                 "force", "_monotone")

    def __init__(self, n: int, codes, force: bool = False,
                 monotone: bool | None = None):
        self.n = n
        self.full = (1 << n) - 1
        self.codes = codes
        self.V = len(codes) // n
        self.ALL = (1 << self.V * n) - 1
        self.rep = self.ALL // self.full  # bit 0 of every lane
        self.K: dict[int, int] = {}
        self._table: list[int] | None = None
        self.force = force
        self._monotone = monotone

    def k_at(self, x: int) -> int:
        return sum((c >> x & 1) << s for s, c in enumerate(self.codes))

    def table(self) -> list[int]:
        if self._table is None:
            self._table = _k_columns(self.codes, self.n)
        return self._table

    def monotone(self) -> bool:
        if self._monotone is None:
            self._monotone = all(code_has_property(self.n, c, "m")
                                 for c in set(self.codes))
        return self._monotone


# _BIT[b] maps a byte to its bit b.
_BIT = tuple(bytes(c >> b & 1 for c in range(256)) for b in range(8))


@lru_cache(maxsize=16)
def _transpose_masks(words: int) -> tuple[int, int, int]:
    """The swap masks over `words` 64-bit words, a power of two.  A mask
    longer than the data costs nothing (x & m reads min(x, m) digits), so
    every size shares the masks of the next power of two: data of any
    size keeps at most one entry per doubling, in all less than twelve
    times the bytes of the largest data transposed."""
    rep = ((1 << 64 * words) - 1) // ((1 << 64) - 1)  # bit 0 of every word
    return (rep * 0x00AA00AA00AA00AA, rep * 0x0000CCCC0000CCCC,
            rep * 0x00000000F0F0F0F0)


def _bit_columns(data) -> bytes:
    """data, zero-padded to 8-byte groups, with every group transposed as
    an 8 x 8 bit matrix: bit b of byte i becomes bit i of byte b.  Three
    masked swaps do it for every group at once (Warren, Hacker's Delight,
    section 7-3), so byte b of the groups, read in order, holds bit b of
    every byte of data."""
    words = -(-len(data) // 8)
    m1, m2, m3 = _transpose_masks(1 << (words - 1).bit_length())
    x = int.from_bytes(data, "little")
    t = (x ^ x >> 7) & m1
    x ^= t ^ t << 7
    t = (x ^ x >> 14) & m2
    x ^= t ^ t << 14
    t = (x ^ x >> 28) & m3
    x ^= t ^ t << 28
    return x.to_bytes(8 * words, "little")


def _lane_ints(columns, n: int) -> list[int]:
    """Per bytes of columns (all of one length), one int holding its
    values' low n bits, value j at bits [j*n, (j+1)*n).  One transpose
    serves every column: column i's flags fill its own 8-byte groups."""
    if not columns:
        return []
    used = len(columns[0]) * n
    size = -(-used // 8) * 8  # flag bytes per column
    flags = bytearray(len(columns) * size)  # byte j*n+s: bit s of values[j]
    for at, values in zip(range(0, len(flags), size), columns):
        for s in range(n):
            flags[at + s:at + used:n] = values.translate(_BIT[s])
    bits = _bit_columns(flags)[0::8]
    return [int.from_bytes(bits[at:at + size // 8], "little")
            for at in range(0, len(bits), size // 8)]


def _le_ints(data, fmt: str):
    """data's little-endian words of struct format fmt ("H" or "Q"), as a
    sequence of ints: on a little-endian host a view of data, whose
    bytes _byte_planes then reads as they are."""
    if sys.byteorder == "little":
        return memoryview(data).cast(fmt)
    return struct.unpack(f"<{len(data) // struct.calcsize(fmt)}{fmt}", data)


def _byte_planes(codes, n: int) -> bytes:
    """Byte q of every code, plane after plane, each plane zero-padded to
    8-byte groups: one plane up to n = 3, 2^(n-3) from there.  Codes
    viewed from little-endian bytes (_le_ints) are read as those bytes."""
    width = max(1, 1 << n >> 3)  # bytes per code
    if width == 1 or isinstance(codes, memoryview):
        raw = bytes(codes)
    elif width == 2:  # four-state lane frames of indexed sampled draws
        raw = struct.pack(f"<{len(codes)}H", *codes)
    else:
        raw = b"".join([c.to_bytes(width, "little") for c in codes])
    raw += bytes(-len(codes) % 8 * width)
    return b"".join([raw[q::width] for q in range(width)])


def _k_columns(codes, n: int) -> list[int]:
    """The whole K table of a frame with these codes: entry x has bit i
    set when codes[i] has bit x.  Byte q of the codes, transposed, holds
    entries 8q to 8q + 7."""
    columns = _bit_columns(_byte_planes(codes, n))
    size = -(-len(codes) // 8) * 8  # bytes per plane
    bits = range(min(8, 1 << n))
    return [int.from_bytes(columns[q + b:q + size:8], "little")
            for q in range(0, len(columns), size) for b in bits]


def _mux(table: list, v: int, rep: int, full: int, n: int) -> int:
    """Per lane j, table[x] at lane j where x is v's value at lane j: bit
    i of each lane's x, spread over the lane, selects between the halves
    of the table, so 2^n - 1 selections cover every lane at once."""
    level = table
    for i in range(n):
        sel = (v >> i & rep) * full
        level = [lo ^ (lo ^ hi) & sel
                 for lo, hi in zip(level[0::2], level[1::2])]
    return level[0]


def _k_forced(fr: _Frame, v: int, pa: int, V: int) -> int:
    """Per valuation, the states s where y = v & pa is a neighborhood of s
    in the submodel on pa, on one lane not closed under supersets: where
    s's code has a member y | z with z within ~pa, that is, a bit of the
    code of the subsets of ~pa shifted up by y.  That code is rebuilt
    only when the announced set differs from the previous valuation's."""
    n, full, codes = fr.n, fr.full, fr.codes
    k, keep = 0, None
    for sh in range(0, V * n, n):
        if pa >> sh & full != keep:
            keep = pa >> sh & full
            out = full ^ keep
            subsets = project(n, 1 << out, out)  # the subsets of out
        mask = subsets << (v >> sh & keep)
        k |= sum(1 << s for s, c in enumerate(codes) if c & mask) << sh
    return k


def _exec(code, vals: list, A, fr: _Frame, V: int, ALL: int,
          reads: dict | None = None) -> int | None:
    """Run instructions over V valuations; A holds the atoms' ints.
    Returns the first valuation whose announcement met a non-monotone
    frame without force (the caller raises), or None."""
    n, full, K, lanes = fr.n, fr.full, fr.K, fr.V > 1
    blocked = None
    table = fr.table() if V > 1 and reads is None else None
    for dst, op, a, b in code:
        if op == _AND:
            vals[dst] = vals[a] & vals[b]
        elif op == _NOT:
            vals[dst] = ALL ^ vals[a]
        elif op >= _BOX:
            v = vals[a]
            if b is not None:  # in the submodel on the context pa
                pa = vals[b]
                v = v & pa | ALL ^ pa
            if reads is not None:  # a K int per (argument, context) slots
                k = reads[a, b]
            elif b is not None and fr.force and not fr.monotone():
                k = _k_forced(fr, v, pa, V)
            elif V == 1:
                try:
                    k = K[v]
                except KeyError:
                    k = K[v] = fr.k_at(v)
            elif lanes:
                k = _mux(table, v, fr.rep, full, n)
            else:
                k = 0
                for sh in range(0, V * n, n):
                    k |= table[v >> sh & full] << sh
            if op == _BOX:
                vals[dst] = k
            elif op == _BULLET:
                vals[dst] = v & ~k
            elif op == _WRONG:
                vals[dst] = k & ~v
            else:
                vals[dst] = ALL ^ v | k
        elif op == _OR:
            vals[dst] = vals[a] | vals[b]
        elif op == _IMP:
            vals[dst] = ALL ^ vals[a] | vals[b]
        elif op == _IFF:
            vals[dst] = ALL ^ vals[a] ^ vals[b]
        elif op == _ANN:
            pa = vals[a]
            if pa and not fr.force and not fr.monotone():
                j = ((pa & -pa).bit_length() - 1) // n  # first valuation
                if blocked is None or j < blocked:
                    blocked = j
            vals[dst] = ALL ^ pa | vals[b]
        elif op == _ATOM:
            vals[dst] = A[a]
        elif op == _TOP:
            vals[dst] = ALL
        else:
            vals[dst] = 0
    return blocked


def _run(prog: Program, fr: _Frame, atom_masks) -> int:
    """Extension of the program's formula in one model (V = 1)."""
    vals = [0] * prog.size
    if _exec(prog.code, vals, atom_masks, fr, 1, fr.full) is not None:
        raise NonMonotoneError(_NON_MONOTONE)
    return vals[prog.root]


class _Closure:
    """Formulas built one node at a time over fixed models (distinguish).

    A node is one hash-consed instruction over earlier slots, run once
    per model when it is new.  Both methods return the node's slot and
    its signature: its extension mask in each model.
    """

    def __init__(self, models, atoms):
        self.builder = _Builder(atoms)
        self.runs = [(_Frame(m.size, m.frame.family_codes()),
                      [m.atom_extension(a).bits for a in atoms], [])
                     for m in models]

    def atom(self, name: str) -> tuple[int, tuple[int, ...]]:
        return self._add(_ATOM, self.builder.index[name], None)

    def node(self, kind: type, a: int = 0,
             b=None) -> tuple[int, tuple[int, ...]]:
        return self._add(_OPS[kind], a, b)

    def _add(self, op: int, a: int, b):
        slot = self.builder.node(op, a, b)
        for fr, masks, vals in self.runs:
            if slot == len(vals):
                vals.append(0)
                _exec(((slot, op, a, b),), vals, masks, fr, 1, fr.full)
        return slot, tuple(vals[slot] for _, _, vals in self.runs)


# --- valuation sweeps -----------------------------------------------------------


@lru_cache(maxsize=256)
def _low_pattern(n: int, V: int, lo: int) -> int:
    """Valuation t < V's digit (t >> lo) & full, at bits [t*n, (t+1)*n)."""
    full = (1 << n) - 1
    if (V - 1) >> lo == 0:
        return 0
    return sum((t >> lo & full) << t * n for t in range(V))


def _block_atoms(n: int, k: int) -> tuple[int, list[int]]:
    """(V, atom ints) of the first block of valuations of k atoms over n
    states: atom i's mask under valuation t < V at bits [t*n, (t+1)*n).
    V is every valuation when n * k is at most _BLOCK_BITS."""
    V = 1 << min(n * k, _BLOCK_BITS)
    return V, [_low_pattern(n, V, n * (k - 1 - i)) for i in range(k)]


def _blocks(n: int, k: int):
    """(first valuation, V, ALL, atom ints) per block of the valuations of
    k atoms over n states.

    Valuations run in the order of product(range(2^n), repeat=k), first
    atom most significant.  Blocks hold V = 2^b valuations and start at
    multiples of V, so atom i's ints are its high digit repeated plus its
    ints in the first block (_block_atoms).
    """
    full = (1 << n) - 1
    V, lows = _block_atoms(n, k)
    ALL = (1 << V * n) - 1
    rep = ALL // full  # bit 0 of every valuation
    shifts = [n * (k - 1 - i) for i in range(k)]
    for start in range(0, 1 << n * k, V):
        yield start, V, ALL, [(start >> lo & full) * rep | low
                              for lo, low in zip(shifts, lows)]


def _sweep(prog: Program, fr: _Frame, blocks):
    """First (valuation, state) where the formula fails, in canonical order.

    Each block's V valuations are read on a frame's K table, or on a
    lane frame of V lanes, lane j under the block's valuation j.  Raises
    NonMonotoneError when an announcement is blocked at or before the
    first failing valuation, as a valuation-by-valuation loop would.
    """
    n = fr.n
    for start, V, ALL, A in blocks:
        vals = [0] * prog.size
        blocked = _exec(prog.code, vals, A, fr, V, ALL)
        miss = ALL ^ vals[prog.root]
        first = (miss & -miss).bit_length() - 1
        if blocked is not None and (not miss or first // n >= blocked):
            raise NonMonotoneError(_NON_MONOTONE)
        if miss:
            j, state = divmod(first, n)
            return start + j, state
    return None


def _valuation_masks(j: int, n: int, k: int) -> tuple[int, ...]:
    """The k atom masks of valuation index j over n states."""
    full = (1 << n) - 1
    return tuple(j >> n * (k - 1 - i) & full for i in range(k))


# --- public API -------------------------------------------------------------------


def _model_ext(model: NeighborhoodModel, f: Formula, force: bool) -> int:
    prog = compile_formula(f)
    bits = {name: ss.bits for name, ss in model.valuation}
    fr = _Frame(model.size, model.frame.family_codes(), force)
    return _run(prog, fr, [bits.get(a, 0) for a in prog.atoms])


def extension(model: NeighborhoodModel, f: Formula,
              force: bool = False) -> StateSet:
    """The set of states where f holds."""
    return StateSet(model.size, _model_ext(model, f, force))


def evaluate(pm: PointedModel, f: Formula, force: bool = False) -> bool:
    """Truth of f at the point; by definition, membership in the extension."""
    return bool(_model_ext(pm.model, f, force) >> pm.point & 1)


def check_valuation_space(k: int, n: int) -> None:
    """Refuse to sweep the valuations of k atoms over n states when k * n
    exceeds VALUATION_SPACE_CAP."""
    if k * n > VALUATION_SPACE_CAP:
        msg = (f"{k} atoms over {n} states exceeds the "
               f"2^{VALUATION_SPACE_CAP} valuation cap; use sampled search")
        raise ValueError(msg)


def _first_failure(frame: NeighborhoodFrame, f: Formula, force: bool = False):
    """First (valuation index, state) falsifying f on the frame, or None."""
    n = frame.size
    atoms = atoms_of(f)
    check_valuation_space(len(atoms), n)
    prog = compile_formula(f, atoms)
    fr = _Frame(n, frame.family_codes(), force)
    return _sweep(prog, fr, _blocks(n, len(atoms)))


def frame_valid(frame: NeighborhoodFrame, f: Formula,
                force: bool = False) -> bool:
    """Truth at every state under every valuation of f's atoms.

    Valuations run in lexicographic order of (atom name, bit vector);
    atoms not occurring in f are irrelevant and never enumerated.
    Refuses when atoms * states exceeds 24 (2^24 valuations).
    """
    return _first_failure(frame, f, force) is None

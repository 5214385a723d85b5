"""Machine states, their input windows and the table of their kinds.

Every state, store, pc, stack and frame state alike, is a hash-consed
``Value``, like terms: equal states are one object, compared and hashed by
identity.  Every state prints itself with ``show()``, in the form its
``StateKind`` record parses back: one record per ``State`` of a behaviour
functor B X = (Label × State × (1 + X))^State.
"""
from __future__ import annotations

import ast
import itertools
import random
from bisect import bisect_left
from typing import Callable, NamedTuple, Optional

from .terms import IllFormed, Value


class Store(Value):
    """Finitely-supported map from cell index to value, default 0.

    The cells are kept sorted and without zeros, so writing 0 to a cell is
    the same as never touching it, and equal stores are one object.
    ``set`` writes into the sorted cell tuple: it drops the old cell and
    inserts the new one in index order, with no dict and no sort.
    """

    __slots__ = __match_args__ = ("cells",)  # sorted ((index, value), ...) with value != 0

    @staticmethod
    def of(mapping: dict[int, int] | None = None) -> "Store":
        mapping = mapping or {}
        return Store(tuple(sorted((k, v) for k, v in mapping.items() if v != 0)))

    def get(self, l: int) -> int:
        for k, v in self.cells:
            if k == l:
                return v
        return 0

    def set(self, l: int, v: int) -> "Store":
        cells = self.cells
        i = bisect_left(cells, (l,))  # the first cell at index l or above
        j = i + 1 if i < len(cells) and cells[i][0] == l else i
        if v == 0:
            return Store(cells[:i] + cells[j:])
        return Store(cells[:i] + ((l, v),) + cells[j:])

    def show(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in self.cells)
        return "{" + inner + "}"


def clamp_negatives(s: Store) -> Store:
    """Replace every negative cell with 0 (the nat view of an int store);
    a store with none is returned as it is."""
    for _, v in s.cells:
        if v <= 0:
            return Store(tuple((k, v) for k, v in s.cells if v > 0))
    return s


class LowState(Value):
    __slots__ = __match_args__ = ("store", "pc")

    def show(self) -> str:
        return f"({self.store.show()}, {self.pc})"


class StackState(Value):
    __slots__ = __match_args__ = ("store", "sp")

    def show(self) -> str:
        return f"({self.store.show()}, {self.sp})"


class FrameState(Value):
    """Stack of fixed-length frames, newest first; empty stack allowed."""

    __slots__ = __match_args__ = ("frames",)  # a tuple of tuples, each of length L

    def show(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, f)) + "]" for f in self.frames) + "]"


MachineState = Store | LowState | StackState | FrameState


# --- input-state windows ---

def store_window(cfg, int_mode: bool) -> list[Store]:
    values = list(range(0, cfg.max_value + 1))
    if int_mode:
        values += [-v for v in range(1, cfg.max_value + 1)]
    out = []
    for combo in itertools.product(values, repeat=cfg.store_cells):
        out.append(Store.of({i: v for i, v in enumerate(combo)}))
    return out


def pc_window(cfg, length: Optional[int] = None) -> list[int]:
    top = (length if length is not None else cfg.sp_max) + 1
    return list(range(-1, top + 1))


def pc_states(cfg, stores: list[Store], length: Optional[int] = None) -> list[LowState]:
    """Every store paired with every program counter of ``pc_window``."""
    return [LowState(s, pc) for s in stores for pc in pc_window(cfg, length)]


def _wide_stores(cfg, rng: random.Random, n_cells: int, count: int) -> list[Store]:
    if cfg.max_value < 1:
        return [Store.of({})] * count  # no nonzero value to put in a cell
    out = []
    for _ in range(count):
        cells = {}
        for i in range(n_cells):
            if rng.random() < 0.5:
                cells[i] = rng.randint(1, cfg.max_value)
        out.append(Store.of(cells))
    return out


def stack_window(cfg) -> list[StackState]:
    rng = random.Random(cfg.seed ^ 0x57AC)
    stores = store_window(cfg, int_mode=False)
    stores += _wide_stores(cfg, rng, cfg.L * (cfg.sp_max + 1), 8)
    return [StackState(s, sp) for s in dict.fromkeys(stores) for sp in range(0, cfg.sp_max + 1)]


def frames_window(cfg) -> list[FrameState]:
    values = list(range(0, cfg.max_value + 1))
    singles = [tuple(c) for c in itertools.product(values, repeat=cfg.L)]
    out = [FrameState(())]
    out += [FrameState((f,)) for f in singles]
    rng = random.Random(cfg.seed ^ 0xF4A3)
    for _ in range(16):
        depth = rng.randint(2, max(2, cfg.sp_max))
        frames = tuple(
            tuple(rng.randint(0, cfg.max_value) for _ in range(cfg.L)) for _ in range(depth)
        )
        out.append(FrameState(frames))
    return list(dict.fromkeys(out))


# --- reading input states back from their literals ---

def _nat(v) -> bool:
    return type(v) is int and v >= 0


def _read_store(kind, lit, text: str, L: int) -> Store:
    if type(lit) is not dict or not all(
            _nat(k) and (type(v) is int if kind.signed else _nat(v)) for k, v in lit.items()):
        raise IllFormed(f"bad store literal: {lit!r}")
    return Store.of(lit)


def _pair(kind, lit, text: str) -> tuple:
    if type(lit) is not tuple or len(lit) != 2 or type(lit[1]) is not int:
        raise IllFormed(f"bad {kind.name} state literal: {text!r}")
    return lit


def _read_pc(kind, lit, text: str, L: int) -> LowState:
    store, pc = _pair(kind, lit, text)
    return LowState(_read_store(STORE, store, text, L), pc)


def _read_sp(kind, lit, text: str, L: int) -> StackState:
    store, sp = _pair(kind, lit, text)
    if sp < 0:
        raise IllFormed(f"stack pointer must not be negative: {text!r}")
    return StackState(_read_store(STORE, store, text, L), sp)


def _read_frames(kind, lit, text: str, L: int) -> FrameState:
    if type(lit) is not list or not all(
            type(f) is list and len(f) == L and all(map(_nat, f)) for f in lit):
        raise IllFormed(f"bad frame stack literal (frames of {L} naturals): {text!r}")
    return FrameState(tuple(map(tuple, lit)))


# --- the state kinds ---

class StateKind(NamedTuple):
    """One kind of machine state, the ``State`` of a behaviour functor.  No
    other module tells kinds apart by name; each reads these fields.

    ``name`` names the kind in messages.  ``read(kind, lit, text, L)`` is
    the state that a parsed literal denotes.  ``window(cfg)`` builds the
    input states a campaign runs; a ``per_length`` kind's builder also takes
    a program's compiled length, since its inputs depend on that length.  A
    ``framed`` kind's cells are frame slots: a ``loc`` is below the frame
    length ``L``, and its windows must be built for the language's ``L``.  A
    ``signed`` kind allows negative values and literals.
    """

    name: str
    read: Callable
    window: Callable
    framed: bool = False
    signed: bool = False
    per_length: bool = False

    def parse(self, text: str, L: int) -> MachineState:
        """An input state of this kind, written as its ``show()`` prints it.

        The text must be one Python literal and nothing else: ``{0:1, 1:2}``
        for a store, ``({0:1}, 2)`` for a pc or stack state and
        ``[[1, 2], [3, 4]]`` for a frame stack.  Cell indices are natural
        numbers, and so are values, except in a signed store; a stack
        pointer is natural and every frame has length ``L``.
        """
        try:
            if "#" in text:  # literal_eval would read a trailing comment as nothing
                raise SyntaxError
            lit = ast.literal_eval(text.strip())
        except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
            raise IllFormed(f"bad {self.name} state literal: {text!r}") from None
        return self.read(self, lit, text, L)


# the builders are looked up per call, so a monkeypatch or the benchmark's tracer reaches them
STORE = StateKind("store", _read_store, lambda cfg: store_window(cfg, int_mode=False))
INT_STORE = StateKind("int-store", _read_store, lambda cfg: store_window(cfg, int_mode=True),
                      signed=True)
PC = StateKind("pc", _read_pc, lambda cfg, length=None: pc_states(
    cfg, store_window(cfg, int_mode=False), length), per_length=True)
SP = StateKind("sp", _read_sp, lambda cfg: stack_window(cfg), framed=True)
FRAMES = StateKind("frames", _read_frames, lambda cfg: frames_window(cfg), framed=True)

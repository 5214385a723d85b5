"""Machine states: finitely-supported stores and the per-language input kinds.

Every state, store, pc, stack and frame state alike, is a hash-consed
``Value``, like terms: equal states are one object, compared and hashed by
identity.  Every state prints itself with ``show()``, in the form
``parse_state`` reads back.
"""
from __future__ import annotations

import ast
from bisect import bisect_left

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


# --- parsing of CLI input states ---

def _nat(v) -> bool:
    return type(v) is int and v >= 0


def _store(lit, values_nat: bool = True) -> Store:
    if type(lit) is not dict or not all(
            _nat(k) and (_nat(v) if values_nat else type(v) is int) for k, v in lit.items()):
        raise IllFormed(f"bad store literal: {lit!r}")
    return Store.of(lit)


def parse_state(kind: str, text: str, L: int) -> MachineState:
    """An input state of kind ``kind``, written as its ``show()`` prints it.

    The text must be one Python literal and nothing else: ``{0:1, 1:2}`` for
    a store, ``({0:1}, 2)`` for a pc or stack state and ``[[1, 2], [3, 4]]``
    for a frame stack.  Cell indices are natural numbers, and so are values,
    except in an int store; a stack pointer is natural and every frame has
    length ``L``.
    """
    try:
        if "#" in text:  # literal_eval would read a trailing comment as nothing
            raise SyntaxError
        lit = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
        raise IllFormed(f"bad {kind} state literal: {text!r}") from None
    if kind in ("store", "int-store"):
        return _store(lit, values_nat=kind == "store")
    if kind in ("pc", "sp"):
        if type(lit) is not tuple or len(lit) != 2 or type(lit[1]) is not int:
            raise IllFormed(f"bad {kind} state literal: {text!r}")
        if kind == "pc":
            return LowState(_store(lit[0]), lit[1])
        if lit[1] < 0:
            raise IllFormed(f"stack pointer must not be negative: {text!r}")
        return StackState(_store(lit[0]), lit[1])
    if kind == "frames":
        if type(lit) is not list or not all(
                type(f) is list and len(f) == L and all(map(_nat, f)) for f in lit):
            raise IllFormed(f"bad frame stack literal (frames of {L} naturals): {text!r}")
        return FrameState(tuple(map(tuple, lit)))
    raise IllFormed(f"unknown state kind: {kind}")

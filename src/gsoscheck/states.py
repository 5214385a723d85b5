"""Machine states: finitely-supported stores and the per-language input kinds."""
from __future__ import annotations

from dataclasses import dataclass

from .terms import IllFormed, parse_int


@dataclass(frozen=True)
class Store:
    """Finitely-supported map from cell index to value, default 0.

    Equality and hashing are support-wise: writing 0 to a cell is the same
    as never touching it.
    """

    cells: tuple = ()  # sorted ((index, value), ...) with value != 0

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
        items = {k: w for k, w in self.cells}
        items[l] = v
        return Store.of(items)

    def show(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in self.cells)
        return "{" + inner + "}"


def clamp_negatives(s: Store) -> Store:
    """Replace every negative cell with 0 (the nat view of an int store)."""
    return Store(tuple((k, v) for k, v in s.cells if v > 0))


@dataclass(frozen=True)
class LowState:
    store: Store
    pc: int

    def show(self) -> str:
        return f"({self.store.show()}, {self.pc})"


@dataclass(frozen=True)
class StackState:
    store: Store
    sp: int

    def show(self) -> str:
        return f"({self.store.show()}, {self.sp})"


@dataclass(frozen=True)
class FrameState:
    """Stack of fixed-length frames, newest first; empty stack allowed."""

    frames: tuple = ()  # tuple of tuples, each of length L

    def show(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, f)) + "]" for f in self.frames) + "]"


MachineState = Store | LowState | StackState | FrameState


def show_state(s: MachineState) -> str:
    return s.show()


# --- parsing of CLI input states ---

def parse_store(text: str) -> Store:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise IllFormed(f"bad store literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return Store.of()
    items = {}
    for part in body.split(","):
        if ":" not in part:
            raise IllFormed(f"bad store entry: {part!r}")
        k, v = part.split(":", 1)
        items[parse_int(k)] = parse_int(v)
    return Store.of(items)


def parse_frames(text: str) -> FrameState:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise IllFormed(f"bad frame stack literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return FrameState()
    frames = []
    depth = 0
    start = None
    for i, ch in enumerate(body):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                inner = body[start + 1 : i].strip()
                vals = tuple(parse_int(x) for x in inner.split(",")) if inner else ()
                frames.append(vals)
    if depth != 0 or not frames:
        raise IllFormed(f"bad frame stack literal: {text!r}")
    return FrameState(tuple(frames))


def parse_state(kind: str, text: str) -> MachineState:
    text = text.strip()
    if kind in ("store", "int-store"):
        return parse_store(text)
    if kind in ("pc", "sp"):
        if not (text.startswith("(") and text.endswith(")")):
            raise IllFormed(f"bad state literal: {text!r}")
        body = text[1:-1]
        cut = body.rfind(",")
        if cut < 0:
            raise IllFormed(f"bad state literal: {text!r}")
        store = parse_store(body[:cut])
        n = parse_int(body[cut + 1 :])
        return LowState(store, n) if kind == "pc" else StackState(store, n)
    if kind == "frames":
        return parse_frames(text)
    raise IllFormed(f"unknown state kind: {kind}")

"""The translation pairs: a syntax translation plus a behavior translation.

A pair holds its syntax translation and its behavior translation's two
maps, ``input_map`` and ``output_map``.  Layer maps send one source
constructor (over whatever its children are) to an open target term and
extend homomorphically, so they satisfy the monad laws by construction.
The flattening compiler to Low is genuinely whole-term recursion and is
checked in closed mode only.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from .terms import (
    Br, IAssign, IllFormed, Lit, Node, Nop, OpenTerm, Stop, Un, Var,
    instr, instr_list, isandbox, loop, sandbox, sseq,
)
from .states import FrameState, LowState, StackState, Store, clamp_negatives
from .semantics import StepOutcome
from .languages import LangDef, language_registry


@dataclass
class LayerMap:
    """Per-constructor translation, applied homomorphically."""

    fn: Callable[[str, tuple, tuple], OpenTerm]  # (tag, payload, children) -> open term


@dataclass
class WholeTerm:
    """Structural recursion over closed terms, not necessarily layer-wise."""

    fn: Callable[[Node], Node]


@dataclass
class CompilerPair:
    """A syntax translation and the two maps of a behavior translation: a
    target input i2 is answered with ``output_map(i2, f(input_map(i2)))``
    for the source behavior f, at every input."""

    name: str
    source: LangDef
    target: LangDef
    syntax: LayerMap | WholeTerm
    input_map: Callable  # target input -> source input
    output_map: Callable  # (target input, source StepOutcome) -> target StepOutcome

    @property
    def open_checkable(self) -> bool:
        """Only a layer-wise syntax translation has an open-mode check."""
        return isinstance(self.syntax, LayerMap)


def compile_open(cp: CompilerPair, t: OpenTerm) -> OpenTerm:
    """Homomorphic extension of the layer map; variables map to themselves."""
    if not isinstance(cp.syntax, LayerMap):
        raise IllFormed(f"{cp.name} has no layer-wise syntax translation")
    if isinstance(t, Var):
        return t
    children = tuple(compile_open(cp, c) for c in t.children)
    return cp.syntax.fn(t.tag, t.payload, children)


def compile_term(cp: CompilerPair, p: Node) -> Node:
    """Translate a closed source program."""
    cp.source.validate(p)
    if isinstance(cp.syntax, WholeTerm):
        out = cp.syntax.fn(p)
    else:
        out = compile_open(cp, p)
    cp.target.validate(out)
    return out


def translate_behavior(cp: CompilerPair, f: Callable, i2) -> StepOutcome:
    """Run the source behavior f through the translation at a target input:
    ``output_map(i2, f(input_map(i2)))``, f consulted at every input.

    The returned outcome's continuation is still a source term; callers
    compile it when they need the target-side term.
    """
    o1 = f(cp.input_map(i2))
    return cp.output_map(i2, o1)


# --- behavior translations: (input_map, output_map) pairs ------------------

# label the unlabelled with the designated value 0
_B_FLAG = (
    lambda s: s,
    lambda i2, o: StepOutcome(o.state, label=0, cont=o.cont, flags=o.flags),
)

_B_IDENTITY = (lambda s: s, lambda i2, o: o)

# run the source on the store with negatives forgotten; include the
# nat-valued result back into the int store
_B_INT = (
    clamp_negatives,
    lambda i2, o: StepOutcome(o.state, cont=o.cont, flags=o.flags),
)


def _low_output(i2: LowState, o: StepOutcome) -> StepOutcome:
    # off its start (pc != 0) a program terminates where it stands, as the
    # Low rules do, whatever the source outcome
    if i2.pc != 0:
        return StepOutcome(i2)
    if o.cont is None:
        return StepOutcome(LowState(o.state, 1), cont=None, flags=o.flags)
    return StepOutcome(LowState(o.state, 0), cont=o.cont, flags=o.flags)


_B_LOW = (lambda i2: i2.store, _low_output)


def div_blocks(s: Store, sp: int, L: int) -> FrameState:
    """Slice the first sp L-sized blocks out of a store, newest first: the
    active block sp-1 becomes the top frame."""
    frames = tuple(
        tuple(s.get(L * i + j) for j in range(L)) for i in reversed(range(sp))
    )
    return FrameState(frames)


def override_blocks(frames: tuple, s: Store, L: int) -> Store:
    """Lay the frames back down ascending from offset 0, keeping the part of
    the store beyond the active stack.  The cell tuple is built already
    sorted: the nonzero ``frame[j]`` at index ``L*i + j``, block i being the
    (k-1-i)-th newest of k frames, then the cells of ``s`` at index ``L*k``
    and above (a stack store's indices are natural numbers)."""
    cells = [(L * i + j, frame[j])
             for i, frame in enumerate(reversed(frames))
             for j in range(L) if frame[j] != 0]
    cells += s.cells[bisect_left(s.cells, (L * len(frames),)):]
    return Store(tuple(cells))


def _b_stack(L: int) -> tuple:
    def output_map(i2: StackState, o: StepOutcome):
        frames = o.state.frames
        out = StackState(override_blocks(frames, i2.store, L), len(frames))
        return StepOutcome(out, cont=o.cont, flags=o.flags)

    return lambda i2: div_blocks(i2.store, i2.sp, L), output_map


# --- syntax translations ---------------------------------------------------

def _identity_layer(tag, payload, children):
    return Node(tag, children, payload)


def _sandbox_layer(tag, payload, children):
    return sandbox(Node(tag, children, payload))


def _unsandbox_layer(tag, payload, children):
    if tag == "sandbox":
        return children[0]
    return Node(tag, children, payload)


def _isandbox_layer(tag, payload, children):
    return isandbox(Node(tag, children, payload))


def _secure_low_layer(tag, payload, children):
    match tag:
        case "skip":
            return instr(Stop())
        case "assign":
            l, e = payload
            return instr(IAssign(l, e))
        case "seq":
            return sseq(children[0], children[1])
        case "while":
            return loop(payload[0], children[0])
    raise IllFormed(f"no low-sec image for {tag}")


def flatten_to_low(p: Node) -> Node:
    """The flattening compiler: sequences concatenate and loops become a
    guarded forward branch over the body plus an unconditional back branch,
    as in `br !(guard) (len body + 2) ;; body ;; br (lit 1) -(len body + 1)`.
    """
    return instr_list(_flatten(p))


def _flatten(p: Node) -> list:
    match p.tag:
        case "skip":
            return [Nop()]
        case "assign":
            l, e = p.payload
            return [IAssign(l, e)]
        case "seq":
            return _flatten(p.children[0]) + _flatten(p.children[1])
        case "while":
            body = _flatten(p.children[0])
            n = len(body)
            guard = Un("not", p.payload[0])
            return [Br(guard, n + 2)] + body + [Br(Lit(1), -(n + 1))]
    raise IllFormed(f"cannot flatten {p.tag}")


# --- the registry ----------------------------------------------------------

def compiler_registry(L: int = 2) -> dict[str, CompilerPair]:
    langs = language_registry(L)

    def pair(name, src, tgt, syntax, behavior):
        return CompilerPair(name, langs[src], langs[tgt], syntax, *behavior)

    pairs = [
        pair("embed-flag", "while", "while-flag", LayerMap(_identity_layer), _B_FLAG),
        pair("sandbox", "while", "while-sec", LayerMap(_sandbox_layer), _B_FLAG),
        pair("unsandbox", "while-sec", "while-sec", LayerMap(_unsandbox_layer), _B_IDENTITY),
        pair("embed-int", "while", "while-int", LayerMap(_identity_layer), _B_INT),
        pair("sandbox-int", "while", "while-int", LayerMap(_isandbox_layer), _B_INT),
        pair("flatten-low", "while", "low", WholeTerm(flatten_to_low), _B_LOW),
        pair("embed-low-sec", "while", "low-sec", LayerMap(_secure_low_layer), _B_LOW),
        pair("embed-stack", "while-b", "stack", LayerMap(_identity_layer), _b_stack(L)),
        pair("embed-stack-clear", "while-b", "stack-clear", LayerMap(_identity_layer),
             _b_stack(L)),
    ]
    return {p.name: p for p in pairs}

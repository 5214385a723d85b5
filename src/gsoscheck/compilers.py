"""The translation pairs: a syntax translation plus a behavior translation.

A pair holds its syntax translation and its behavior translation's two
maps, ``input_map`` and ``output_map``, and, for the two sandboxing
translations, a normal form on the target terms of their image.  Layer
maps send one source constructor (over whatever its children are) to an
open target term and extend homomorphically, so they satisfy the monad
laws by construction.  The flattening compiler to Low is genuinely
whole-term recursion and is checked in closed mode only.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Callable, NamedTuple, Optional

from .terms import (
    Br, IAssign, IllFormed, Lit, Node, Nop, OpenTerm, Stop, Un, Var,
    instr, instr_list, isandbox, loop, sandbox, sseq,
)
from .states import FrameState, LowState, StackState, Store, clamp_negatives
from .semantics import NO_FLAGS, StepOutcome, outcome
from .languages import LangDef, language_registry


class LayerMap(NamedTuple):
    """Per-constructor translation, applied homomorphically."""

    fn: Callable[[str, tuple, tuple], OpenTerm]  # (tag, payload, children) -> open term


class WholeTerm(NamedTuple):
    """Structural recursion over closed terms, not necessarily layer-wise."""

    fn: Callable[[Node], Node]


class CompilerPair(NamedTuple):
    """A syntax translation and the two maps of a behavior translation: a
    target input i2 is answered with ``output_map(i2, f(input_map(i2)))``
    for the source behavior f, at every input.

    ``normal_form``, when set, maps the target terms of the compiler's image
    so that terms with one normal form are bisimilar: a coherence case whose
    continuations differ in syntax but not in normal form needs no bounded
    fallback.  ``tests/test_compilers.py`` checks its one-step lemma on the
    image: a term and its normal form step alike at every input, to
    continuations of one normal form."""

    name: str
    source: LangDef
    target: LangDef
    syntax: LayerMap | WholeTerm
    input_map: Callable  # target input -> source input
    output_map: Callable  # (target input, source StepOutcome) -> target StepOutcome
    normal_form: Optional[Callable[[OpenTerm], OpenTerm]] = None

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
    lambda i2, o: outcome((o.state, 0, o.cont, o.flags)),
)

_B_IDENTITY = (lambda s: s, lambda i2, o: o)

# run the source on the store with negatives forgotten; include the
# nat-valued result back into the int store
_B_INT = (
    clamp_negatives,
    lambda i2, o: outcome((o.state, None, o.cont, o.flags)),
)


def _low_output(i2: LowState, o: StepOutcome) -> StepOutcome:
    # off its start (pc != 0) a program terminates where it stands, as the
    # Low rules do, whatever the source outcome
    if i2.pc != 0:
        return outcome((i2, None, None, NO_FLAGS))
    return outcome((LowState(o.state, 1 if o.cont is None else 0), None, o.cont, o.flags))


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
        return outcome((out, None, o.cont, o.flags))

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


def sandbox_absorption(tag: str) -> Callable[[OpenTerm], OpenTerm]:
    """Sandbox absorption on the nodes tagged ``tag``: bottom up, such a node
    is replaced by its normalised child when that child is a variable or
    when the node sits under another such node; every other node keeps its
    tag.  It is sound on the compiler's image only: under an ``obs``, say,
    the inner sandbox's label is logged."""

    def normal_form(t: OpenTerm) -> OpenTerm:
        done: list = []  # normalised subterms, each awaiting its parent
        pending = [(t, False, False)]  # (term, under a `tag` node, children done)
        while pending:
            t, under, ready = pending.pop()
            if type(t) is Var or not t.children:
                done.append(t)
            elif not ready:
                pending.append((t, under, True))
                inner = under or t.tag == tag
                pending.extend((c, inner, False) for c in reversed(t.children))
            else:
                n = len(t.children)
                children = tuple(done[-n:])
                del done[-n:]
                if t.tag == tag and (under or type(children[0]) is Var):
                    done.append(children[0])
                else:
                    done.append(Node(t.tag, children, t.payload))
        return done[0]

    return normal_form


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

    def pair(name, src, tgt, syntax, behavior, normal_form=None):
        return CompilerPair(name, langs[src], langs[tgt], syntax, *behavior, normal_form)

    pairs = [
        pair("embed-flag", "while", "while-flag", LayerMap(_identity_layer), _B_FLAG),
        pair("sandbox", "while", "while-sec", LayerMap(_sandbox_layer), _B_FLAG,
             sandbox_absorption("sandbox")),
        pair("unsandbox", "while-sec", "while-sec", LayerMap(_unsandbox_layer), _B_IDENTITY),
        pair("embed-int", "while", "while-int", LayerMap(_identity_layer), _B_INT),
        pair("sandbox-int", "while", "while-int", LayerMap(_isandbox_layer), _B_INT,
             sandbox_absorption("isandbox")),
        pair("flatten-low", "while", "low", WholeTerm(flatten_to_low), _B_LOW),
        pair("embed-low-sec", "while", "low-sec", LayerMap(_secure_low_layer), _B_LOW),
        pair("embed-stack", "while-b", "stack", LayerMap(_identity_layer), _b_stack(L)),
        pair("embed-stack-clear", "while-b", "stack-clear", LayerMap(_identity_layer),
             _b_stack(L)),
    ]
    return {p.name: p for p in pairs}

"""The eight-plus-one concrete languages: one expression evaluator, one
structured rule set, and the extra constructors of each language.

Store-machine family: ``while`` (nat store), ``while-flag`` (labelled
outputs plus obs blocks), ``while-sec`` (while-flag plus label-erasing
sandboxes), ``while-int`` (int store plus the negative-forgetting sandbox).
Counter machine: ``low`` (program counter discipline) and ``low-sec`` (low
plus the structured sequencing/looping primitives and the one-step
assignment).  Frame machines: ``while-b`` (stack of private frames),
``stack`` (one store partitioned by a stack pointer) and ``stack-clear``
(stack with the zeroing frame rule).

Every structured language shares the skip/assign/seq/while rules of
``structured_rule``; it differs only in how cells are read and written,
whether transitions are labelled, and its extra constructors.  The two
counter machines share the program-counter discipline of ``counter_rule``;
``low-sec`` adds its structured constructors to ``low`` the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .terms import (
    BIN_OPS, UN_OPS, Bin, Br, Expr, IAssign, IllFormed, Inst, Lit, Loc, Nop,
    Node, OpenTerm, Stop, Un, Var, expr_locs, instr, loop, obs, sandbox,
    isandbox, seq, skip, sseq, subterms, while_,
)
from .states import FrameState, LowState, StackState, Store, clamp_negatives
from .semantics import StepOutcome


# ---------------------------------------------------------------------------
# expression evaluation

def _bin(op: str, a: int, b: int, nat: bool) -> int:
    match op:
        case "add":
            return a + b
        case "sub":
            return max(0, a - b) if nat else a - b
        case "mul":
            return a * b
        case "lt":
            return 1 if a < b else 0
        case "eq":
            return 1 if a == b else 0
        case "min":
            return min(a, b)
    raise IllFormed(f"unknown operator {op}")


def _un(op: str, a: int) -> int:
    if op == "not":
        return 1 if a == 0 else 0
    raise IllFormed(f"unknown operator {op}")


def evaluate(e: Expr, read: Callable, state, nat: bool = True) -> int:
    """The one expression evaluator: ``read(state, l)`` gives the value of
    ``var l``; ``nat`` truncates subtraction at 0 (every language but
    ``while-int``)."""
    match e:
        case Lit(n):
            return n
        case Loc(l):
            return read(state, l)
        case Bin(op, lhs, rhs):
            return _bin(op, evaluate(lhs, read, state, nat),
                        evaluate(rhs, read, state, nat), nat)
        case Un(op, inner):
            return _un(op, evaluate(inner, read, state, nat))
    raise IllFormed(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# cell access of the frame machines: read(state, l) and write(state, l, v),
# as ``Store.get`` and ``Store.set`` are for the store machines

def frame_cells(L: int):
    """``while-b``: ``var l`` is slot l of the topmost frame; on the empty
    stack reads give 0 and writes change nothing."""

    def read(m: FrameState, l: int) -> int:
        if l >= L:
            raise IllFormed(f"var {l} outside frame length {L}")
        return m.frames[0][l] if m.frames else 0

    def write(m: FrameState, l: int, v: int) -> FrameState:
        if l >= L:
            raise IllFormed(f"var {l} outside frame length {L}")
        if not m.frames:
            return m
        head = list(m.frames[0])
        head[l] = v
        return FrameState((tuple(head),) + m.frames[1:])

    return read, write


def block_cells(L: int):
    """``stack``: ``var l`` is cell l + L*(sp-1) of the active block; with
    no live frame (sp = 0) any access is ill-formed."""

    def read(st: StackState, l: int) -> int:
        if l >= L:
            raise IllFormed(f"var {l} outside frame length {L}")
        if st.sp == 0:
            raise IllFormed("var read with no live frame (sp = 0)")
        return st.store.get(l + L * (st.sp - 1))

    def write(st: StackState, l: int, v: int) -> StackState:
        if l >= L:
            raise IllFormed(f"var {l} outside frame length {L}")
        if st.sp == 0:
            raise IllFormed("assignment with no live frame (sp = 0)")
        return StackState(st.store.set(l + L * (st.sp - 1), v), st.sp)

    return read, write


# ---------------------------------------------------------------------------
# language definitions

@dataclass
class LangDef:
    name: str
    constructors: tuple  # ((tag, payload_kinds, arity), ...) in enumeration order
    state_kind: str  # store | int-store | pc | sp | frames
    has_label: bool
    rule: Callable  # (tag, payload, children, state) -> StepOutcome
    L: int = 2

    def validate(self, term: OpenTerm):
        """Well-formedness against the constructor table: each layer is a
        constructor of this language, each payload value of its kind (natural
        numbers, a ``loc`` below ``L`` on frame machines, no negative literal
        outside ``while-int``); raises IllFormed with the offending part."""
        for t in subterms(term):  # left to right, as the term reads
            if isinstance(t, Var):
                continue
            for tag, kinds, arity in self.constructors:
                if tag == t.tag and arity == len(t.children) and len(kinds) == len(t.payload):
                    break
            else:
                raise IllFormed(f"{t.tag} with {len(t.payload)} payload value(s) and"
                                f" {len(t.children)} child(ren) is not a {self.name} constructor")
            for kind, value in zip(kinds, t.payload):
                self._check(kind, value)

    def _check(self, kind: str, v):
        match kind, v:
            case "nat", int() if v >= 0:
                return
            case "loc", int() if v >= 0 and not (
                    self.state_kind in ("frames", "sp") and v >= self.L):
                return
            case "expr", Lit(int() as n) if n >= 0 or self.state_kind == "int-store":
                return
            case "expr", Loc(l):
                self._check("loc", l)
            case "expr", Bin(op, lhs, rhs) if op in BIN_OPS:
                self._check("expr", lhs)
                self._check("expr", rhs)
            case "expr", Un(op, inner) if op in UN_OPS:
                self._check("expr", inner)
            case "inst", Nop() | Stop():
                return
            case "inst", IAssign(l, e):
                self._check("loc", l)
                self._check("expr", e)
            case "inst", Br(e, int()):
                self._check("expr", e)
            case _:
                raise IllFormed(f"bad {kind} payload in {self.name}: {v!r}")


# --- the structured rules --------------------------------------------------

_NO_FLAGS = frozenset()


def structured_rule(name: str, read: Callable, write: Callable, labelled: bool,
                    nat: bool = True, empty_flags: Callable | None = None,
                    extras: dict | None = None) -> Callable:
    """The rule function of a structured language: skip, assign, seq and
    while, plus ``extras``, a map from each further constructor tag to its
    rule ``(payload, children, state) -> StepOutcome``.

    A labelled language labels skip with 0 and assignments and guards with
    the value they evaluate.  ``empty_flags(state)`` (``while-b`` only)
    gives the flags of an assignment, and of a guard that reads a variable,
    so that steps on a totalized empty stack are reported.
    """
    extras = extras or {}
    skip_label = 0 if labelled else None

    def rule(tag, payload, children, s) -> StepOutcome:
        match tag:
            case "skip":
                return StepOutcome(s, label=skip_label)
            case "assign":
                l, e = payload
                v = evaluate(e, read, s, nat)
                flags = empty_flags(s) if empty_flags else _NO_FLAGS
                return StepOutcome(write(s, l, v), label=v if labelled else None,
                                   flags=flags)
            case "seq":
                (_, fp), (q, _) = children
                o = fp(s)
                cont = q if o.cont is None else seq(o.cont, q)
                return StepOutcome(o.state, label=o.label if labelled else None,
                                   cont=cont, flags=o.flags)
            case "while":
                (e,) = payload
                (x, _) = children[0]
                flags = empty_flags(s) if empty_flags and expr_locs(e) else _NO_FLAGS
                v = evaluate(e, read, s, nat)
                cont = seq(x, while_(e, x)) if v != 0 else skip()
                return StepOutcome(s, label=v if labelled else None, cont=cont,
                                   flags=flags)
        extra = extras.get(tag)
        if extra is None:
            raise IllFormed(f"no {name} rule for {tag}")
        return extra(payload, children, s)

    return rule


# --- extra constructors -----------------------------------------------------

def _obs_rule(payload, children, s: Store) -> StepOutcome:
    # log the inner step's label in cell n, then in n + 1 for the next step
    (n,) = payload
    (_, fx) = children[0]
    o = fx(s)
    logged = o.state.set(n, o.label)
    cont = skip() if o.cont is None else obs(n + 1, o.cont)
    return StepOutcome(logged, label=o.label, cont=cont, flags=o.flags)


def _sandbox_rule(payload, children, s: Store) -> StepOutcome:
    (_, fx) = children[0]
    o = fx(s)
    cont = None if o.cont is None else sandbox(o.cont)
    return StepOutcome(o.state, label=0, cont=cont, flags=o.flags)


def _isandbox_rule(payload, children, s: Store) -> StepOutcome:
    # the inner term runs against the store with negatives forgotten
    (_, fx) = children[0]
    o = fx(clamp_negatives(s))
    cont = None if o.cont is None else isandbox(o.cont)
    return StepOutcome(o.state, cont=cont, flags=o.flags)


_EMPTY_STACK = frozenset({"whileb-empty-stack"})


def _whileb_empty(m: FrameState) -> frozenset:
    return _NO_FLAGS if m.frames else _EMPTY_STACK


def _whileb_extras(L: int) -> dict:
    fresh = (0,) * L

    def push(payload, children, m: FrameState) -> StepOutcome:
        return StepOutcome(FrameState((fresh,) + m.frames))

    def pop(payload, children, m: FrameState) -> StepOutcome:
        if not m.frames:
            return StepOutcome(m, flags=_EMPTY_STACK)
        return StepOutcome(FrameState(m.frames[1:]))

    return {"frame": push, "return": pop}


def _stack_extras(L: int, clearing: bool) -> dict:
    def push(payload, children, st: StackState) -> StepOutcome:
        s, sp = st.store, st.sp
        if clearing:  # zero the fresh block sp in one pass over the cells
            lo, hi = L * sp, L * (sp + 1)
            s = Store(tuple(c for c in s.cells if not lo <= c[0] < hi))
        return StepOutcome(StackState(s, sp + 1))

    def pop(payload, children, st: StackState) -> StepOutcome:
        if st.sp > 0:
            return StepOutcome(StackState(st.store, st.sp - 1))
        return StepOutcome(st, flags=frozenset({"stack-empty-return"}))

    return {"frame": push, "return": pop}


# --- the counter machines ---------------------------------------------------

def _inst_step(i: Inst, s: Store, same: Node, halt_past: bool) -> StepOutcome:
    """Fig-style dispatch of the head instruction at pc 0; ``same`` is the
    unchanged program re-used as the continuation.  With ``halt_past`` (a
    ``low-sec`` singleton) stop and the one-step assignment terminate past
    the single statement (pc 1), mirroring the source machine."""
    match i:
        case Stop():
            return StepOutcome(LowState(s, 1 if halt_past else 0))
        case Nop():
            return StepOutcome(LowState(s, 1), cont=same)
        case IAssign(l, e):
            return StepOutcome(LowState(s.set(l, evaluate(e, Store.get, s)), 1),
                               cont=None if halt_past else same)
        case Br(e, z):
            v = evaluate(e, Store.get, s)
            return StepOutcome(LowState(s, 1 if v == 0 else z), cont=same)
    raise IllFormed(f"not an instruction: {i!r}")


def _sseq_rule(payload, children, st: LowState) -> StepOutcome:
    # the chain continues at pc 0 whatever pc the premise ends at
    (_, fx), (y, _) = children
    o = fx(st)
    cont = y if o.cont is None else sseq(o.cont, y)
    return StepOutcome(LowState(o.state.store, 0), cont=cont, flags=o.flags)


def _loop_rule(payload, children, st: LowState) -> StepOutcome:
    (e,) = payload
    (x, _) = children[0]
    cont = sseq(x, loop(e, x)) if evaluate(e, Store.get, st.store) != 0 else instr(Stop())
    return StepOutcome(st, cont=cont)


def counter_rule(name: str, structured: bool) -> Callable:
    """The rule function of a counter machine.  At pc > 0 an ``instr`` with
    a tail steps its tail at pc - 1 and shifts the result by one; any other
    layer off pc 0 terminates where it stands; at pc 0 the layer's own rule
    runs.  A ``structured`` machine (``low-sec``) adds ``sseq`` and ``loop``
    and halts its singleton stop and assignment past the statement."""
    extras = {"sseq": _sseq_rule, "loop": _loop_rule} if structured else {}

    def rule(tag, payload, children, st: LowState) -> StepOutcome:
        if tag != "instr" and tag not in extras:
            raise IllFormed(f"no {name} rule for {tag}")
        pc = st.pc
        if pc > 0 and tag == "instr" and children:
            o = children[0][1](LowState(st.store, pc - 1))
            cont = None if o.cont is None else instr(payload[0], o.cont)
            return StepOutcome(LowState(o.state.store, o.state.pc + 1), cont=cont,
                               flags=o.flags)
        if pc != 0:
            return StepOutcome(st)
        if tag != "instr":
            return extras[tag](payload, children, st)
        tail = children[0][0] if children else None
        return _inst_step(payload[0], st.store, instr(payload[0], tail),
                          structured and tail is None)

    return rule


# --- the registry ---------------------------------------------------------

_WHILE_CONS = (
    ("skip", (), 0),
    ("assign", ("loc", "expr"), 0),
    ("seq", (), 2),
    ("while", ("expr",), 1),
)

_LOW_CONS = (
    ("instr", ("inst",), 0),
    ("instr", ("inst",), 1),
)


def language_registry(L: int = 2) -> dict[str, LangDef]:
    """All nine languages, keyed by name; ``L`` is the frame length shared by
    the frame machines."""

    def structured(name, extra_cons, kind, labelled, read=Store.get, write=Store.set,
                   **policy) -> LangDef:
        rule = structured_rule(name, read, write, labelled, **policy)
        return LangDef(name, _WHILE_CONS + extra_cons, kind, labelled, rule, L)

    frame_cons = (("frame", (), 0), ("return", (), 0))
    langs = [
        structured("while", (), "store", False),
        structured("while-flag", (("obs", ("nat",), 1),), "store", True,
                   extras={"obs": _obs_rule}),
        structured("while-sec", (("obs", ("nat",), 1), ("sandbox", (), 1)), "store", True,
                   extras={"obs": _obs_rule, "sandbox": _sandbox_rule}),
        structured("while-int", (("isandbox", (), 1),), "int-store", False, nat=False,
                   extras={"isandbox": _isandbox_rule}),
        LangDef("low", _LOW_CONS, "pc", False, counter_rule("low", False), L),
        LangDef("low-sec", _LOW_CONS + (("sseq", (), 2), ("loop", ("expr",), 1)),
                "pc", False, counter_rule("low-sec", True), L),
        structured("while-b", frame_cons, "frames", False, *frame_cells(L),
                   empty_flags=_whileb_empty, extras=_whileb_extras(L)),
        structured("stack", frame_cons, "sp", False, *block_cells(L),
                   extras=_stack_extras(L, clearing=False)),
        structured("stack-clear", frame_cons, "sp", False, *block_cells(L),
                   extras=_stack_extras(L, clearing=True)),
    ]
    return {l.name: l for l in langs}

"""The eight-plus-one concrete languages.  Each is one table of rows
``(tag, payload kinds, arity, rule)``: the table's order is the language's
constructor order, and its rules are the language's rule dispatch.

Store-machine family: ``while`` (nat store), ``while-flag`` (labelled
outputs plus obs blocks), ``while-sec`` (while-flag plus label-erasing
sandboxes), ``while-int`` (int store plus the negative-forgetting sandbox).
Counter machine: ``low`` (program counter discipline) and ``low-sec`` (low
plus the structured sequencing/looping primitives and the one-step
assignment).  Frame machines: ``while-b`` (stack of private frames),
``stack`` (one store partitioned by a stack pointer) and ``stack-clear``
(stack with the zeroing frame rule).

``structured_language`` builds every structured language: its table starts
with the shared skip/assign/seq/while rows over one expression evaluator,
and the language gives how cells are read and written, whether transitions
are labelled, and the rows of its extra constructors.
``counter_language`` builds the two counter machines around the
program-counter discipline; ``low-sec`` adds its structured rows.  Each
language holds its state kind, a ``StateKind`` record of ``states``.

A row names its payload kinds, the sorts of the syntax functor, by
``PayloadKind`` records: ``NAT``, ``LOC``, ``EXPR`` and ``INST`` are each
declared once, and each gives both what ``gen`` enumerates and what
``LangDef.validate`` accepts.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .terms import (
    BIN_OPS, UN_OPS, Bin, Br, Expr, IAssign, IllFormed, Inst, Lit, Loc, Nop,
    Node, OpenTerm, Stop, Un, Var, expr_locs, instr, loop, obs, sandbox,
    isandbox, seq, skip, sseq, subterms, while_,
)
from .states import (
    FRAMES, INT_STORE, PC, SP, STORE, FrameState, LowState, StackState, StateKind, Store,
    clamp_negatives,
)
from .semantics import NO_FLAGS, StepOutcome, outcome
from . import gen


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
# payload kinds: the sorts K_c of a language's syntax functor

class PayloadKind(NamedTuple):
    """One kind of payload value; no other module tells kinds apart by name.
    ``name`` names the kind in messages.  ``choices(lang, cfg)`` lists the
    values ``gen`` enumerates, in order.  ``ok(lang, v)`` says whether ``v``
    is a value of the kind in ``lang``; it checks each part of ``v`` by its
    own kind's ``check``, so a failure names the innermost bad part.
    """

    name: str
    choices: Callable
    ok: Callable

    def check(self, lang, v) -> None:
        if not self.ok(lang, v):
            raise IllFormed(f"bad {self.name} payload in {lang.name}: {v!r}")


def _n_locs(lang, cells):
    """How many of ``cells`` cells a ``loc`` of ``lang`` may name: on a
    framed kind a cell is a frame slot, below ``L``.  Validation passes
    ``math.inf``, since a term may run against any number of cells."""
    return min(cells, lang.L) if lang.state_kind.framed else cells


def _expr_ok(lang, e) -> bool:
    match e:
        case Lit(int() as n):
            return n >= 0 or lang.state_kind.signed
        case Loc(l):
            LOC.check(lang, l)
        case Bin(op, lhs, rhs) if op in BIN_OPS:
            EXPR.check(lang, lhs)
            EXPR.check(lang, rhs)
        case Un(op, inner) if op in UN_OPS:
            EXPR.check(lang, inner)
        case _:
            return False
    return True


def _inst_choices(lang, cfg) -> list:
    # gen's stream is read through the module, where the benchmark's tracer binds it
    n_locs = _n_locs(lang, cfg.store_cells)
    base = list(itertools.islice(gen.expr_stream(cfg, False, n_locs), 2))
    return [Nop(), Stop(), *(IAssign(l, base[1]) for l in range(n_locs)),
            Br(base[0], 2), Br(base[1], -1)]


def _inst_ok(lang, i) -> bool:
    match i:
        case IAssign(l, e):
            LOC.check(lang, l)
            EXPR.check(lang, e)
        case Br(e, int()):
            EXPR.check(lang, e)
        case _:
            return isinstance(i, (Nop, Stop))
    return True


NAT = PayloadKind("nat", lambda lang, cfg: list(range(cfg.store_cells)),
                  lambda lang, v: isinstance(v, int) and v >= 0)
LOC = PayloadKind("loc", lambda lang, cfg: list(range(_n_locs(lang, cfg.store_cells))),
                  lambda lang, v: isinstance(v, int) and 0 <= v < _n_locs(lang, math.inf))
EXPR = PayloadKind("expr", lambda lang, cfg: gen.exprs(
    cfg, lang.state_kind.signed, _n_locs(lang, cfg.store_cells)), _expr_ok)
INST = PayloadKind("inst", _inst_choices, _inst_ok)


# ---------------------------------------------------------------------------
# language definitions

@dataclass  # perfbench's tracer assigns each language's rule
class LangDef:
    name: str
    constructors: tuple  # ((tag, PayloadKind records, arity), ...) in enumeration order
    state_kind: StateKind  # the State of its behaviour functor
    has_label: bool
    rule: Callable  # (tag, payload, children, state) -> StepOutcome
    L: int = 2

    def validate(self, term: OpenTerm):
        """Well-formedness against the constructor table: each layer is a
        constructor of this language, each payload value of its kind (see
        ``PayloadKind``); raises IllFormed with the offending part."""
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
                kind.check(self, value)


# --- the structured languages ----------------------------------------------

def structured_language(name: str, kind: StateKind, labelled: bool, L: int,
                        read: Callable, write: Callable,
                        empty_flags: Callable | None = None, extras: tuple = ()) -> LangDef:
    """A structured language from its one table: skip, assign, seq and
    while, then ``extras``, the rows of its further constructors.  A rule is
    ``(payload, children, state) -> StepOutcome``; a tag the table lacks is
    ill-formed.  Subtraction stops at 0 unless ``kind`` is signed.

    A labelled language labels skip with 0 and assignments and guards with
    the value they evaluate.  ``empty_flags(state)`` (``while-b`` only)
    gives the flags of an assignment, and of a guard that reads a variable,
    so that steps on a totalized empty stack are reported.
    """
    skip_label = 0 if labelled else None
    nat = not kind.signed

    def skip_rule(payload, children, s) -> StepOutcome:
        return outcome((s, skip_label, None, NO_FLAGS))

    def assign_rule(payload, children, s) -> StepOutcome:
        l, e = payload
        v = evaluate(e, read, s, nat)
        return outcome((write(s, l, v), v if labelled else None, None,
                        empty_flags(s) if empty_flags else NO_FLAGS))

    def seq_rule(payload, children, s) -> StepOutcome:
        (_, fp), (q, _) = children
        state, label, cont, flags = fp(s)
        return outcome((state, label if labelled else None,
                        q if cont is None else seq(cont, q), flags))

    def while_rule(payload, children, s) -> StepOutcome:
        (e,) = payload
        x = children[0][0]
        v = evaluate(e, read, s, nat)
        return outcome((s, v if labelled else None,
                        seq(x, while_(e, x)) if v != 0 else skip(),
                        empty_flags(s) if empty_flags and expr_locs(e) else NO_FLAGS))

    table = (("skip", (), 0, skip_rule), ("assign", (LOC, EXPR), 0, assign_rule),
             ("seq", (), 2, seq_rule), ("while", (EXPR,), 1, while_rule), *extras)
    rules = {tag: r for tag, _, _, r in table}

    def rule(tag, payload, children, s) -> StepOutcome:
        try:
            constructor_rule = rules[tag]
        except KeyError:
            raise IllFormed(f"no {name} rule for {tag}") from None
        return constructor_rule(payload, children, s)

    return LangDef(name, tuple(row[:3] for row in table), kind, labelled, rule, L)


# --- the rows of the extra constructors -------------------------------------

def _obs_rule(payload, children, s: Store) -> StepOutcome:
    # log the inner step's label in cell n, then in n + 1 for the next step
    (n,) = payload
    (_, fx) = children[0]
    state, label, cont, flags = fx(s)
    return outcome((state.set(n, label), label,
                    skip() if cont is None else obs(n + 1, cont), flags))


def _sandbox_rule(payload, children, s: Store) -> StepOutcome:
    (_, fx) = children[0]
    state, _, cont, flags = fx(s)
    return outcome((state, 0, None if cont is None else sandbox(cont), flags))


def _isandbox_rule(payload, children, s: Store) -> StepOutcome:
    # the inner term runs against the store with negatives forgotten
    (_, fx) = children[0]
    state, _, cont, flags = fx(clamp_negatives(s))
    return outcome((state, None, None if cont is None else isandbox(cont), flags))


_OBS = ("obs", (NAT,), 1, _obs_rule)
_EMPTY_STACK = frozenset({"whileb-empty-stack"})


def _whileb_empty(m: FrameState) -> frozenset:
    return NO_FLAGS if m.frames else _EMPTY_STACK


def _whileb_frames(L: int) -> tuple:
    fresh = (0,) * L

    def push(payload, children, m: FrameState) -> StepOutcome:
        return outcome((FrameState((fresh,) + m.frames), None, None, NO_FLAGS))

    def pop(payload, children, m: FrameState) -> StepOutcome:
        if not m.frames:
            return outcome((m, None, None, _EMPTY_STACK))
        return outcome((FrameState(m.frames[1:]), None, None, NO_FLAGS))

    return ("frame", (), 0, push), ("return", (), 0, pop)


def _stack_frames(L: int, clearing: bool) -> tuple:
    def push(payload, children, st: StackState) -> StepOutcome:
        s, sp = st.store, st.sp
        if clearing:  # zero the fresh block sp in one pass over the cells
            lo, hi = L * sp, L * (sp + 1)
            s = Store(tuple(c for c in s.cells if not lo <= c[0] < hi))
        return outcome((StackState(s, sp + 1), None, None, NO_FLAGS))

    def pop(payload, children, st: StackState) -> StepOutcome:
        if st.sp > 0:
            return outcome((StackState(st.store, st.sp - 1), None, None, NO_FLAGS))
        return outcome((st, None, None, frozenset({"stack-empty-return"})))

    return ("frame", (), 0, push), ("return", (), 0, pop)


# --- the counter machines ---------------------------------------------------

def _inst_step(i: Inst, s: Store, same: Node, halt_past: bool) -> StepOutcome:
    """Fig-style dispatch of the head instruction at pc 0; ``same`` is the
    unchanged program re-used as the continuation.  With ``halt_past`` (a
    ``low-sec`` singleton) stop and the one-step assignment terminate past
    the single statement (pc 1), mirroring the source machine."""
    match i:
        case Stop():
            return outcome((LowState(s, 1 if halt_past else 0), None, None, NO_FLAGS))
        case Nop():
            return outcome((LowState(s, 1), None, same, NO_FLAGS))
        case IAssign(l, e):
            return outcome((LowState(s.set(l, evaluate(e, Store.get, s)), 1), None,
                            None if halt_past else same, NO_FLAGS))
        case Br(e, z):
            v = evaluate(e, Store.get, s)
            return outcome((LowState(s, 1 if v == 0 else z), None, same, NO_FLAGS))
    raise IllFormed(f"not an instruction: {i!r}")


def _sseq_rule(payload, children, st: LowState) -> StepOutcome:
    # the chain continues at pc 0 whatever pc the premise ends at
    (_, fx), (y, _) = children
    state, _, cont, flags = fx(st)
    return outcome((LowState(state.store, 0), None, y if cont is None else sseq(cont, y), flags))


def _loop_rule(payload, children, st: LowState) -> StepOutcome:
    (e,) = payload
    (x, _) = children[0]
    cont = sseq(x, loop(e, x)) if evaluate(e, Store.get, st.store) != 0 else instr(Stop())
    return outcome((st, None, cont, NO_FLAGS))


def counter_language(name: str, structured: bool, L: int) -> LangDef:
    """A counter machine from its one table of rows ``(tag, payload kinds,
    arity, rule)``: ``instr`` with no tail and with one, then ``sseq`` and
    ``loop`` when ``structured`` (``low-sec``), whose singleton stop and
    assignment halt past the statement.  Each row's rule runs at pc 0.  At
    pc > 0 an ``instr`` with a tail steps its tail at pc - 1 and shifts the
    result by one; any other layer off pc 0 terminates where it stands."""

    def instr_rule(payload, children, st: LowState) -> StepOutcome:
        tail = children[0][0] if children else None
        return _inst_step(payload[0], st.store, instr(payload[0], tail),
                          structured and tail is None)

    table = (("instr", (INST,), 0, instr_rule), ("instr", (INST,), 1, instr_rule))
    if structured:
        table += (("sseq", (), 2, _sseq_rule), ("loop", (EXPR,), 1, _loop_rule))
    rules = {tag: r for tag, _, _, r in table}

    def rule(tag, payload, children, st: LowState) -> StepOutcome:
        try:
            constructor_rule = rules[tag]
        except KeyError:
            raise IllFormed(f"no {name} rule for {tag}") from None
        pc = st.pc
        if pc > 0 and tag == "instr" and children:
            state, _, cont, flags = children[0][1](LowState(st.store, pc - 1))
            return outcome((LowState(state.store, state.pc + 1), None,
                            None if cont is None else instr(payload[0], cont), flags))
        if pc != 0:
            return outcome((st, None, None, NO_FLAGS))
        return constructor_rule(payload, children, st)

    return LangDef(name, tuple(row[:3] for row in table), PC, False, rule, L)


# --- the registry ---------------------------------------------------------

def language_registry(L: int = 2) -> dict[str, LangDef]:
    """All nine languages, keyed by name; ``L`` is the frame length shared by
    the frame machines."""
    store = Store.get, Store.set  # looked up per registry: perfbench's tracer wraps them
    langs = [
        structured_language("while", STORE, False, L, *store),
        structured_language("while-flag", STORE, True, L, *store, extras=(_OBS,)),
        structured_language("while-sec", STORE, True, L, *store,
                            extras=(_OBS, ("sandbox", (), 1, _sandbox_rule))),
        structured_language("while-int", INT_STORE, False, L, *store,
                            extras=(("isandbox", (), 1, _isandbox_rule),)),
        counter_language("low", False, L),
        counter_language("low-sec", True, L),
        structured_language("while-b", FRAMES, False, L, *frame_cells(L),
                            empty_flags=_whileb_empty, extras=_whileb_frames(L)),
        structured_language("stack", SP, False, L, *block_cells(L),
                            extras=_stack_frames(L, clearing=False)),
        structured_language("stack-clear", SP, False, L, *block_cells(L),
                            extras=_stack_frames(L, clearing=True)),
    ]
    return {l.name: l for l in langs}

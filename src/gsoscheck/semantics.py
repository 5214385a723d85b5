"""The generic engine: one-step rule application, its extension to whole
terms, and bounded bisimilarity.

A language's rule function is consulted one syntax layer at a time.  It
receives the layer's children as (subject, behavior) pairs and may only use
a child through its subject (to embed it in a continuation) or through its
queried behavior — never by inspecting its structure.  The extension to
arbitrary terms is the usual inductive one: a bare variable answers from
its behavior table with the variable re-injected as the continuation, and
a node recursively turns each child into such a pair before applying the
one-layer rule.  Each subject is the child as it stands, never a rewrite
of it; the law suite's copoint check watches the rule to confirm this.
Continuations built from subjects come out already flattened, which is the
multiplication step of the extension.

Closed programs go through ``step``, the same extension taken one layer at
a time through a cache on the language: a node's children behave as
``step`` on themselves, so a closed subterm is stepped once per state
however many programs contain it.

Two outcomes are told apart by ``first_difference``, on label, then
output state, then termination; ``check_bisim`` and the coherence check
both use it.  ``check_bisim`` can share the pairs it has proved equivalent
with later calls over the same language and inputs; a context-closure
check shares one such table across all its contexts, so a pair that many
plugged programs reach is explored once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .terms import IllFormed, Node, OpenTerm, Var, is_closed
from .states import MachineState


class IncompleteTable(Exception):
    """A behavior table was consulted outside its sampled domain."""


@dataclass(frozen=True)
class StepOutcome:
    """Result of one transition: output state, optional label, optional
    continuation; no continuation means the step terminated."""

    state: MachineState
    label: Optional[int] = None
    cont: Optional[OpenTerm] = None
    flags: frozenset = frozenset()


def first_difference(a: StepOutcome, b: StepOutcome) -> Optional[str]:
    """The first observable on which two outcomes differ: ``"label"``,
    ``"state"`` or ``"termination"``; ``None`` when they agree on all three."""
    if a.label != b.label:
        return "label"
    if a.state != b.state:
        return "state"
    if (a.cont is None) != (b.cont is None):
        return "termination"
    return None


class BehaviorTable:
    """Finite map from input states to outcomes over variables.

    Entries are (label, output state, continuation variable or None); the
    continuation is an element of the variable set, re-injected as a Var
    when the table answers.
    """

    def __init__(self, var, entries: dict, has_label: bool):
        self.var = var
        self.entries = dict(entries)
        self.has_label = has_label

    def __call__(self, state: MachineState) -> StepOutcome:
        if state not in self.entries:
            raise IncompleteTable(f"table for {self.var!r} has no entry for {state!r}")
        label, out, cont = self.entries[state]
        return StepOutcome(out, label if self.has_label else None,
                           Var(cont) if cont is not None else None)


def extend_law(lang, term: OpenTerm, behaviors: dict, state: MachineState) -> StepOutcome:
    """Inductive extension of the one-layer law to whole open terms: each
    node is one call of ``lang.rule`` with its children as (subject,
    behavior) pairs; the outcome's continuation is an open term over the
    subjects."""
    if isinstance(term, Var):
        if term.name not in behaviors:
            raise IncompleteTable(f"no table for {term.name!r} at {state!r}")
        return behaviors[term.name](state)
    pairs = []
    for child in term.children:
        if isinstance(child, Var) and child.name in behaviors:
            pairs.append((child, behaviors[child.name]))
        else:
            pairs.append((child, partial(extend_law, lang, child, behaviors)))
    return lang.rule(term.tag, term.payload, tuple(pairs), state)


# --- closed terms ---

def step(lang, term: Node, state: MachineState) -> StepOutcome:
    """One small-step transition of a closed program, cached on ``lang``.

    A miss applies ``lang.rule`` to the top layer only, each child behaving
    as ``step`` on itself, so a closed subterm is stepped once per state
    whichever programs contain it.  The outcome is the one
    ``extend_law(lang, term, {}, state)`` gives."""
    key = (term, state)
    hit = lang.steps.get(key)
    if hit is not None:
        return hit
    if not is_closed(term):
        raise IllFormed("step requires a closed term")
    pairs = tuple((child, partial(step, lang, child)) for child in term.children)
    out = lang.rule(term.tag, term.payload, pairs, state)
    lang.steps[key] = out
    return out


@dataclass
class RunResult:
    trace: list  # [(state_in, StepOutcome), ...]
    terminated: bool
    final: MachineState
    residual: Optional[Node] = None

    @property
    def steps(self) -> int:
        return len(self.trace)


def run(lang, term: Node, state: MachineState, fuel: int) -> RunResult:
    """Iterate ``step``, feeding each output state back in, until the program
    terminates or the fuel runs out."""
    trace = []
    current = term
    for _ in range(fuel):
        out = step(lang, current, state)
        trace.append((state, out))
        state = out.state
        if out.cont is None:
            return RunResult(trace, True, state)
        current = out.cont
    return RunResult(trace, False, state, current)


# --- bounded bisimilarity ---

@dataclass(frozen=True)
class Equivalent:
    depth: int
    inputs: int


@dataclass(frozen=True)
class Distinguished:
    path: tuple  # input states consumed, outermost first
    left: StepOutcome
    right: StepOutcome
    reason: str


BisimResult = Equivalent | Distinguished


def check_bisim(lang, p: OpenTerm, q: OpenTerm, inputs, depth: int,
                behaviors: Optional[dict] = None,
                proved: Optional[dict] = None) -> BisimResult:
    """Bounded stepwise comparison: equal outputs and agreeing termination at
    every level, recursing on continuations.  A Distinguished verdict is a
    real inequivalence; Equivalent(depth) means every pair reached was
    explored to the depth it had left, so it speaks to the given bound.

    ``proved`` maps pairs to a depth they are known to be equivalent to over
    the same ``lang``, ``inputs`` and ``behaviors``; a pair needing no more
    depth than that is not explored again.  After an Equivalent verdict,
    every pair this call explored is added with its depth.  Only pairs that
    cannot be told apart within the depth left are skipped, so a
    Distinguished verdict is the one found without ``proved``.
    """
    behaviors = behaviors or {}
    inputs = list(inputs)
    proved = {} if proved is None else proved
    # pair -> the most remaining depth it has been explored with; a pair met
    # again with more depth left is explored again
    seen: dict = {}

    def stepper(t):
        if behaviors or not is_closed(t):
            return partial(extend_law, lang, t, behaviors)
        return partial(step, lang, t)

    def compare(a, b, d, path):
        if a == b or d <= 0 or seen.get((a, b), 0) >= d or proved.get((a, b), 0) >= d:
            return None
        seen[a, b] = d
        pending = []
        step_a, step_b = stepper(a), stepper(b)
        for s in inputs:
            oa = step_a(s)
            ob = step_b(s)
            reason = first_difference(oa, ob)
            if reason is not None:
                return Distinguished(path + (s,), oa, ob, reason)
            if oa.cont is not None:
                pending.append((s, oa.cont, ob.cont))
        for s, ca, cb in pending:
            found = compare(ca, cb, d - 1, path + (s,))
            if found is not None:
                return found
        return None

    witness = compare(p, q, depth, ())
    if witness is not None:
        return witness
    # each pair was explored to completion with the depth it records, more
    # than ``proved`` held for it before
    proved.update(seen)
    return Equivalent(depth, len(inputs))

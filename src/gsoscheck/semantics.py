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

Two outcomes are told apart by ``first_difference``, on label, then
output state, then termination; the coherence check uses it, and
``check_bisim`` tests the same three inline and asks it only to name a
difference.  ``check_bisim`` steps a pair at every input and then
explores each distinct continuation pair once per level, after the first
input in window order that reaches it.  It can share the pairs it has
proved equivalent with later calls over the same language and inputs; a
context-closure check shares one such table across all its contexts, so a
pair that many plugged programs reach is explored once.

``extend_law`` remembers nothing.  ``memo_entry`` gives the same
extension through a memo keyed on the term: a term's entry, indexed by a
state, extends the term there once per memo.  The memo also keeps every
subterm the rule queries and every variable's table answer.  A term's
entry holds its outcome at each state met so far and what it is stepped
by: for a node, the rule and the (child, child entry) pairs the rule
receives, built once; for a variable, its table.  Its caller owns the
memo, for one rule and one set of behaviors, and it lives as long as the
caller keeps it: one ``run``, one ``check_bisim`` call, a context-closure
check with all its contexts, or one language of a preservation campaign.
An entry refers to its children's entries and never to the memo, so a
memo is freed as soon as its owner drops it, and the cycle collector has
nothing to find in a command (``cli.execute`` pauses it).  No language
holds one, so no other case, campaign or call sees it.  Outcomes are
immutable named tuples, built through ``outcome``, so a remembered one is
handed out again as it is.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .terms import IllFormed, Node, OpenTerm, Var, is_closed
from .states import MachineState


class IncompleteTable(Exception):
    """A behavior table was consulted outside its sampled domain."""


class StepOutcome(NamedTuple):
    """Result of one transition: output state, optional label, optional
    continuation; no continuation means the step terminated.  The package
    builds every outcome through ``outcome``, from the four fields in order."""

    state: MachineState
    label: Optional[int] = None
    cont: Optional[OpenTerm] = None
    flags: frozenset = frozenset()


# (state, label, cont, flags) -> StepOutcome, with no Python frame of its own:
# the class constructor's keyword handling and defaults cost a frame a step
outcome = partial(tuple.__new__, StepOutcome)
NO_FLAGS = frozenset()


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
    label is None for a language without labels, and the continuation is
    an element of the variable set, re-injected as a Var when the table
    answers.  A query is one dict lookup, and its answer an ``outcome``
    with no flags.
    """

    def __init__(self, var, entries: dict):
        self.var = var
        self.entries = dict(entries)

    def __call__(self, state: MachineState) -> StepOutcome:
        try:
            label, out, cont = self.entries[state]
        except KeyError:
            raise IncompleteTable(f"table for {self.var!r} has no entry for {state!r}") from None
        return outcome((out, label, None if cont is None else Var(cont), NO_FLAGS))


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


class _Entry(dict):
    """A term's entry in a ``memo_entry`` memo: its outcome at each state
    met so far, stepped on a miss.  A node's ``rule`` is handed ``pairs``,
    its (child, child entry lookup) pairs; a variable's ``rule`` is its
    table, None when it has none.  A step that raises leaves no outcome."""

    __slots__ = ("term", "rule", "pairs")

    def __init__(self, rule, behaviors: dict, memo: dict, term: OpenTerm):
        self.term, self.rule, self.pairs = term, rule, None
        if type(term) is Var:
            self.rule = behaviors.get(term.name)
        else:
            self.pairs = tuple(
                (c, (memo[c] if c in memo else _Entry(rule, behaviors, memo, c)).__getitem__)
                for c in term.children)
        memo[term] = self

    def __missing__(self, state: MachineState) -> StepOutcome:
        term = self.term
        if self.pairs is not None:
            out = self.rule(term.tag, term.payload, self.pairs, state)
        elif self.rule is None:
            raise IncompleteTable(f"no table for {term.name!r} at {state!r}")
        else:
            out = self.rule(state)
        self[state] = out
        return out


def memo_entry(rule, behaviors: dict, memo: dict, term: OpenTerm) -> _Entry:
    """``term``'s entry in ``memo``, a dict its caller owns for this ``rule``
    and these ``behaviors``, made with its subterms' on first use.  Indexing
    it by a state gives ``extend_law``'s outcome there, extended once per
    memo; the rule is handed the same pairs for a term at every state.  A
    step that raises is not remembered."""
    entry = memo.get(term)
    return _Entry(rule, behaviors, memo, term) if entry is None else entry


# --- closed terms ---

def step(lang, term: Node, state: MachineState) -> StepOutcome:
    """One small-step transition of a closed program, remembering nothing."""
    if not is_closed(term):
        raise IllFormed("step requires a closed term")
    return extend_law(lang, term, {}, state)


class RunResult(NamedTuple):
    trace: list  # [(state_in, StepOutcome), ...]
    terminated: bool
    final: MachineState
    residual: Optional[Node] = None

    @property
    def steps(self) -> int:
        return len(self.trace)


def run(lang, term: Node, state: MachineState, fuel: int) -> RunResult:
    """Step a closed program through one memo, feeding each output state
    back in, until it terminates or the fuel runs out."""
    if not is_closed(term):
        raise IllFormed("run requires a closed term")
    entry = partial(memo_entry, lang.rule, {}, {})
    trace = []
    current = term
    for _ in range(fuel):
        out = entry(current)[state]
        trace.append((state, out))
        state = out.state
        if out.cont is None:
            return RunResult(trace, True, state)
        current = out.cont
    return RunResult(trace, False, state, current)


# --- bounded bisimilarity ---

class Equivalent(NamedTuple):
    depth: int
    inputs: int


class Distinguished(NamedTuple):
    path: tuple  # input states consumed, outermost first
    left: StepOutcome
    right: StepOutcome
    reason: str


BisimResult = Equivalent | Distinguished


def compare(entry, inputs: list, seen: dict, proved: dict, a: OpenTerm, b: OpenTerm,
            d: int, path: tuple) -> Optional[Distinguished]:
    """``check_bisim``'s exploration of (a, b) with ``d`` levels left: the
    first difference found after ``path``, else None.  ``entry`` gives a
    term's memo entry, as ``memo_entry`` does.  Two outcomes agree when their
    labels are equal, their states one object and both or neither
    terminate; this is tested inline, and ``first_difference`` is asked
    only to name a difference's reason.  Each continuation pair is
    explored once, after the first input that reaches it: a later visit at
    the same depth would find it in ``seen`` and return None."""
    if a == b or d <= 0 or seen.get((a, b), 0) >= d or proved.get((a, b), 0) >= d:
        return None
    seen[a, b] = d
    ea, eb = entry(a), entry(b)
    pending: dict = {}  # continuation pair -> the first input reaching it
    for s in inputs:
        oa, ob = ea[s], eb[s]
        ca, cb = oa.cont, ob.cont
        # states are hash-consed, so equal states are one object
        if oa.label != ob.label or oa.state is not ob.state or (ca is None) is not (cb is None):
            return Distinguished(path + (s,), oa, ob, first_difference(oa, ob))
        if ca is not None:
            pending.setdefault((ca, cb), s)
    for (ca, cb), s in pending.items():
        found = compare(entry, inputs, seen, proved, ca, cb, d - 1, path + (s,))
        if found is not None:
            return found
    return None


def check_bisim(lang, p: OpenTerm, q: OpenTerm, inputs, depth: int,
                behaviors: Optional[dict] = None,
                proved: Optional[dict] = None, memo: Optional[dict] = None) -> BisimResult:
    """Bounded stepwise comparison: equal outputs and agreeing termination at
    every level, recursing on continuations.  A Distinguished verdict is a
    real inequivalence; Equivalent(depth) means every pair reached was
    explored to the depth it had left, so it speaks to the given bound.
    The continuation pairs of one level are explored in the order of the
    first input reaching each, once per pair: the witness's ``path`` goes
    through that first input.

    ``proved`` maps pairs to a depth they are known to be equivalent to over
    the same ``lang``, ``inputs`` and ``behaviors``; a pair needing no more
    depth than that is not explored again.  After an Equivalent verdict,
    every pair this call explored is added with its depth.  Only pairs that
    cannot be told apart within the depth left are skipped, so a
    Distinguished verdict is the one found without ``proved``.  ``memo`` is
    a ``memo_entry`` memo for ``lang`` and ``behaviors`` that the caller
    keeps; without one the call uses its own.
    """
    inputs = list(inputs)
    proved = {} if proved is None else proved
    seen: dict = {}  # pair -> the most depth left it was explored with
    entry = partial(memo_entry, lang.rule, behaviors or {}, {} if memo is None else memo)
    witness = compare(entry, inputs, seen, proved, p, q, depth, ())
    if witness is not None:
        return witness
    # each pair was explored to completion with the depth it records, more
    # than ``proved`` held for it before
    proved.update(seen)
    return Equivalent(depth, len(inputs))

"""Coherence, bisimilarity-preservation and context-closure campaigns.

The coherence check evaluates one square per case.  Upper path: extend the
source law, translate the outcome, compile the continuation.  Lower path:
translate the syntax layer (open mode) or the whole term (closed mode),
then extend the target law at the target input.  A case fails on the first
divergence in label, output state, termination, or continuation term.

Continuation terms are compared syntactically first.  The layer-wise
sandboxing translations step to continuations that differ from the
compiled source continuation only by redundant sandbox layers, so a
syntactic mismatch falls back to a bounded behavioral comparison over the
case's window; a pass obtained this way is counted and reported.  Every
other registered translation either matches continuations exactly or
diverges in an observable.

Both modes evaluate their cases one group at a time, through the same
square.  A group is the cases that differ only in the target input: an
open-mode (layer, tables) variant over the window, or a closed term over
its states (for a program-counter target, the pc window of its compiled
length).  Of the whole square only the behavior translation's input side
sees the target input, so a group compiles its subject, builds its target
behaviors, runs the source law once per distinct preimage state and
compiles each distinct upper continuation once, for all its inputs.  The
input side itself, ``input_map``, is computed once per window, as a list
of image indices aligned with it.  The fallback's verdict does not
depend on the target input either, so a group computes it once per (upper
continuation, lower continuation) and reuses it for its other inputs;
``fallback_cases`` still counts the cases that needed it.  A case stream
hands each case its group, which lives while the stream's cases reach it;
a case evaluated on its own gets a one-off group, which shares nothing
with other cases.

A table answers only on the states it was sampled on.  A case whose
square queries a table elsewhere is tallied inconclusive, never answered
with an invented entry.

A context-closure check steps its base pair and all its contexts through
one ``memo_entry`` memo and shares the pairs ``check_bisim`` has proved
equivalent (the base pair aside), so a pair that many plugged programs
reach is explored once; each context's verdict is the one it gets on its
own.  A preservation campaign keeps one memo per language.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import Optional

from .terms import (
    IllFormed, Node, OpenTerm, instr_flatten, print_term, term_size, term_vars,
)
from .states import show_state
from .semantics import (
    Distinguished, Equivalent, IncompleteTable, StepOutcome, check_bisim,
    extend_law, first_difference,
)
from .compilers import CompilerPair, compile_open, compile_term, translate_behavior
from .spf import plug
from . import gen


@dataclass(frozen=True)
class CampaignConfig:
    store_cells: int = 2
    max_value: int = 3
    max_term_size: int = 4
    depth: int = 20
    samples: int = 1000
    L: int = 2
    sp_max: int = 3          # also bounds the open-mode pc window
    seed: int = 0xC0FFEE
    mode: str = "auto"       # open | closed | auto
    exprs_per_slot: int = 12
    table_variants: int = 2
    fallback_depth: int = 8

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class CoherenceCase:
    """Open mode: one source layer over variables plus their sampled tables.
    Closed mode: a closed source term.  Both carry the target input; a case
    from a stream also carries its group and the input's index among the
    group's states."""

    subject: OpenTerm
    target_input: object
    tables: dict = field(default_factory=dict)
    slot: int = 0
    group: Optional[_Group] = field(default=None, compare=False, repr=False)

    def describe(self) -> dict:
        out = {
            "term": print_term(self.subject),
            "input": show_state(self.target_input),
        }
        if self.tables:
            out["tables"] = {
                str(v): {
                    show_state(s): [e[0], show_state(e[1]), e[2]]
                    for s, e in t.entries.items()
                }
                for v, t in self.tables.items()
            }
        return out


@dataclass
class Divergence:
    field_name: str  # label | state | termination | continuation
    upper: StepOutcome
    lower: StepOutcome
    upper_cont: Optional[OpenTerm] = None
    lower_cont: Optional[OpenTerm] = None

    def describe(self) -> dict:
        return {
            "field": self.field_name,
            "upper": describe_outcome(self.upper, self.upper_cont),
            "lower": describe_outcome(self.lower, self.lower_cont),
        }


def describe_outcome(o: StepOutcome, cont: Optional[OpenTerm] = None) -> dict:
    shown = cont if cont is not None else o.cont
    return {
        "state": show_state(o.state),
        "label": o.label,
        "continuation": print_term(shown) if shown is not None else None,
    }


@dataclass
class Pass:
    cases: int
    exhausted: bool
    inconclusive: int = 0
    illformed: int = 0
    fallback_cases: int = 0
    flags: frozenset = frozenset()


@dataclass
class Fail:
    case: CoherenceCase
    divergence: Divergence
    cases_before: int
    flags: frozenset = frozenset()

    def describe(self) -> dict:
        """The witness of a failing campaign's report."""
        return {"case": self.case.describe(), "divergence": self.divergence.describe()}


Verdict = Pass | Fail


# ---------------------------------------------------------------------------
# case evaluation

def _target_behaviors(cp: CompilerPair, tables: dict) -> dict:
    # the same sampled tables serve both paths, re-indexed through the
    # behavior translation on the lower one
    return {
        x: (lambda i2, t=t: translate_behavior(cp, t, i2)) for x, t in tables.items()
    }


def _window_images(cp: CompilerPair, inputs) -> tuple[list, list]:
    """The behavior translation's input side over ``inputs``: the distinct
    ``input_map`` images of all of them, in order, and per input the index
    of its image."""
    index: dict = {}
    images = [index.setdefault(cp.behavior.input_map(i2), len(index)) for i2 in inputs]
    return list(index), images


class _Group:
    """The cases of one square that differ only in the target input: an
    open-mode (layer, tables) variant over the window, or a closed term over
    its states.  Holds the work they share (see the module docstring).  Each
    part is computed when a case first needs it, at the point of the square
    where a case evaluated on its own computes it, so the same exception
    surfaces first."""

    def __init__(self, cp: CompilerPair, subject: OpenTerm, tables: dict, window_images,
                 closed: bool, layer: Optional[OpenTerm] = None):
        self.cp, self.subject, self.tables, self.closed = cp, subject, tables, closed
        self.preimages, self.images = window_images
        self.sources: list = [None] * len(self.preimages)  # source outcome per preimage
        self.compiled: dict = {}  # source term -> its compiled form
        self.layer = layer  # the compiled subject
        self.behaviors = _target_behaviors(cp, tables)
        self.verdicts: dict = {}  # (upper cont, lower cont) -> fallback verdict

    def _compile(self, t: OpenTerm) -> OpenTerm:
        out = self.compiled.get(t)
        if out is None:
            # looked up at each call, so that a rebound module name is seen
            compile_ = compile_term if self.closed else compile_open
            out = self.compiled[t] = compile_(self.cp, t)
        return out

    def evaluate(self, case: CoherenceCase, slot: int, window, cfg):
        """The square at input ``slot`` of the group's states, which is the
        case's target input."""
        cp, i2, image = self.cp, case.target_input, self.images[slot]
        o1 = self.sources[image]
        if o1 is None:
            o1 = self.sources[image] = extend_law(
                cp.source, self.subject, self.tables, self.preimages[image])
        upper = cp.behavior.output_map(i2, o1)
        upper_cont = self._compile(upper.cont) if upper.cont is not None else None
        if self.layer is None:
            self.layer = self._compile(self.subject)
        lower = extend_law(cp.target, self.layer, self.behaviors, i2)
        div, fb = self._compare(upper, upper_cont, lower, window, cfg)
        return div, fb, upper.flags | lower.flags

    def _compare(self, upper: StepOutcome, upper_cont, lower: StepOutcome,
                 window, cfg) -> tuple[Optional[Divergence], bool]:
        """Compare the two paths' outcomes; returns (divergence, used_fallback).
        ``upper_cont`` is the compiled ``upper.cont``, so it is None just when
        that is."""
        field_name = first_difference(upper, lower)
        if field_name is not None:
            return Divergence(field_name, upper, lower, upper_cont), False
        if upper_cont is None or upper_cont == lower.cont:
            return None, False
        # syntactic mismatch: bounded behavioral comparison over the window,
        # once per pair of continuations (see the module docstring).  Only
        # the verdict is kept; each case builds its own divergence from it.
        key = (upper_cont, lower.cont)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = check_bisim(
                self.cp.target, upper_cont, lower.cont, window, cfg.fallback_depth,
                behaviors=self.behaviors)
        if isinstance(verdict, Equivalent):
            return None, True
        return Divergence("continuation", upper, lower, upper_cont, lower.cont), True


def evaluate_open_case(cp: CompilerPair, case: CoherenceCase, window, cfg):
    """One open-mode square; returns (divergence|None, used_fallback, flags).
    A case from ``open_cases`` is evaluated through its group; one built on
    its own gets a one-off group, which shares nothing with other cases.
    The result is the same either way."""
    if case.group is not None:
        return case.group.evaluate(case, case.slot, window, cfg)
    one_off = _Group(cp, case.subject, case.tables,
                     _window_images(cp, [case.target_input]), closed=False)
    return one_off.evaluate(case, 0, window, cfg)


def evaluate_closed_case(cp: CompilerPair, case: CoherenceCase, window, cfg):
    """One closed-mode square, as ``evaluate_open_case``."""
    if case.group is not None:
        return case.group.evaluate(case, case.slot, window, cfg)
    one_off = _Group(cp, case.subject, {}, _window_images(cp, [case.target_input]),
                     closed=True)
    return one_off.evaluate(case, 0, window, cfg)


# ---------------------------------------------------------------------------
# case streams

def open_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    rng = random.Random(cfg.seed)
    images = _window_images(cp, window)
    for layer in gen.layer_shapes(cp.source, cfg):
        names = sorted(set(term_vars(layer)), key=str)
        variants = range(cfg.table_variants if names else 1)
        for _ in variants:
            tables = {
                x: gen.sample_table(rng, x, images[0], cp.source.has_label, names, cfg)
                for x in names
            }
            group = _Group(cp, layer, tables, images, closed=False)
            for slot, i2 in enumerate(window):
                yield CoherenceCase(layer, i2, tables, slot, group)


def closed_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    images = _window_images(cp, window)
    for p in gen.closed_terms(cp.source, cfg):
        states, layer = window, None
        if cp.target.state_kind == "pc":
            # pair every program with program counters from -1 to one past
            # its compiled length
            layer = compile_term(cp, p)
            length = len(instr_flatten(layer)) if layer.tag == "instr" else term_size(layer)
            states = gen.pc_states(cfg, gen.store_window(cfg, int_mode=False), length)
        group = _Group(cp, p, {}, images if states is window else _window_images(cp, states),
                       closed=True, layer=layer)
        for slot, i2 in enumerate(states):
            yield CoherenceCase(p, i2, group.tables, slot, group)


# ---------------------------------------------------------------------------
# campaigns

def check_coherence(cp: CompilerPair, cfg: CampaignConfig) -> Verdict:
    mode = cfg.mode
    if mode == "auto":
        mode = "open" if cp.open_checkable else "closed"
    if mode == "open" and not cp.open_checkable:
        raise IllFormed(f"{cp.name} is not layer-wise; use closed mode")
    window = gen.state_window(cp.target, cfg)
    if mode == "open":
        stream, evaluate = open_cases(cp, cfg, window), evaluate_open_case
    else:
        stream, evaluate = closed_cases(cp, cfg, window), evaluate_closed_case
    cases = inconclusive = illformed = fallback = 0
    flags: frozenset = frozenset()
    for case in itertools.islice(stream, cfg.samples):
        cases += 1
        try:
            div, fb, case_flags = evaluate(cp, case, window, cfg)
        except IllFormed:
            illformed += 1
            continue
        except IncompleteTable:
            inconclusive += 1
            continue
        flags |= case_flags
        if fb:
            fallback += 1
        if div is not None:
            return Fail(case, div, cases_before=cases - 1, flags=flags)
    exhausted = next(stream, None) is None
    return Pass(cases, exhausted, inconclusive, illformed, fallback, flags)


# ---------------------------------------------------------------------------
# bisimilarity preservation

@dataclass
class PreservationEntry:
    left: Node
    right: Node
    source: object  # BisimResult
    target: Optional[object] = None  # BisimResult when source is Equivalent
    target_illformed: bool = False  # the target check hit an ill-formed state

    @property
    def violated(self) -> bool:
        return (
            isinstance(self.source, Equivalent)
            and self.target is not None
            and isinstance(self.target, Distinguished)
        )


@dataclass
class PreservationReport:
    entries: list

    @property
    def violations(self) -> list:
        return [e for e in self.entries if e.violated]

    @property
    def illformed(self) -> int:
        return sum(e.target_illformed for e in self.entries)


def check_preservation(cp: CompilerPair, cfg: CampaignConfig,
                       pairs: Optional[list] = None) -> PreservationReport:
    """For source pairs found bisimilar within budget, check the compiled
    pair in the target; a Distinguished target verdict is a violation.  A
    target check that reaches an ill-formed state (a stack machine's frame
    read at sp = 0) leaves that pair without a target verdict, as coherence
    campaigns skip ill-formed cases."""
    src_window = gen.state_window(cp.source, cfg)
    tgt_window = gen.state_window(cp.target, cfg)
    if pairs is None:
        terms = list(itertools.islice(gen.closed_terms(cp.source, cfg), 12))
        pairs = [(a, b) for a, b in itertools.combinations(terms, 2)]
        pairs = pairs[: cfg.samples]
    entries = []
    # one memo_entry memo per language for the whole campaign
    src_steps: dict = {}
    tgt_steps = src_steps if cp.target is cp.source else {}
    for left, right in pairs:
        source = check_bisim(cp.source, left, right, src_window, cfg.depth, memo=src_steps)
        entry = PreservationEntry(left, right, source)
        if isinstance(source, Equivalent):
            try:
                entry.target = check_bisim(cp.target, compile_term(cp, left),
                                           compile_term(cp, right), tgt_window, cfg.depth,
                                           memo=tgt_steps)
            except IllFormed:
                entry.target_illformed = True
        entries.append(entry)
    return PreservationReport(entries)


# ---------------------------------------------------------------------------
# context closure

@dataclass
class ContextClosureReport:
    status: str  # closed | base-distinguished | violation
    contexts_checked: int
    base: object
    violations: list


def check_context_closure(lang, p: Node, q: Node, cfg: CampaignConfig) -> ContextClosureReport:
    """Plug a bisimilar pair into sampled single-hole contexts; any context
    distinguishing them falsifies contextual closure at this scale and
    points at a framework bug.  A pair that is not bisimilar is reported as
    it is, before any context is sampled."""
    window = gen.state_window(lang, cfg)
    memo: dict = {}  # every (term, state) stepped so far, see memo_entry
    base = check_bisim(lang, p, q, window, cfg.depth, memo=memo)
    if isinstance(base, Distinguished):
        return ContextClosureReport("base-distinguished", 0, base, [])
    contexts = gen.sample_contexts(lang, cfg)
    violations = []
    proved: dict = {}  # pairs shown equivalent so far, see check_bisim
    for ctx in contexts:
        verdict = check_bisim(lang, plug(ctx, p), plug(ctx, q), window, cfg.depth,
                              proved=proved, memo=memo)
        if isinstance(verdict, Distinguished):
            violations.append((ctx, verdict))
    status = "closed" if not violations else "violation"
    return ContextClosureReport(status, len(contexts), base, violations)

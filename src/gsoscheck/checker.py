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

The fallback's verdict does not depend on the case's target input: the
window, depth and target language are fixed per campaign.  A campaign
therefore computes it once per (upper continuation, lower continuation,
tables) and reuses it for every other input of the window;
``fallback_cases`` still counts the cases that needed it.

An open-mode campaign evaluates its cases one (layer, tables) group at a
time.  Of the whole square only the behavior translation's input side sees
the target input, so a group compiles its layer, builds its target
behaviors, runs the source law once per distinct preimage state and
compiles each distinct upper continuation once, for all the window's
inputs.  The input side itself (``pass_through``, else ``input_map``) is
computed once per campaign, as a list aligned with the window.  A group
lives only while its cases are evaluated; a case evaluated on its own
gets a one-off group, which shares nothing with other cases.

A table answers only on the states it was sampled on.  A case whose
square queries a table elsewhere is tallied inconclusive, never answered
with an invented entry.

A context-closure check steps its base pair and all its contexts through
one ``extend_once`` memo and shares the pairs ``check_bisim`` has proved
equivalent (the base pair aside), so a pair that many plugged programs
reach is explored once; each context's verdict is the one it gets on its
own.  Closed-mode coherence and preservation keep one memo per language.
"""
from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Iterator, Optional

from .terms import (
    IllFormed, Node, OpenTerm, instr_flatten, print_term, term_size, term_vars,
)
from .states import LowState, show_state
from .semantics import (
    Distinguished, Equivalent, IncompleteTable, StepOutcome, check_bisim,
    extend_law, extend_once, first_difference,
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
    Closed mode: a closed source term.  Both carry the target input; an
    open-mode case also carries the input's index in the campaign window."""

    subject: OpenTerm
    target_input: object
    tables: dict = field(default_factory=dict)
    slot: int = 0

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


def _compare(cp: CompilerPair, upper: StepOutcome, upper_cont, lower: StepOutcome,
             window, tables: dict, cfg, memo: Optional[dict],
             steps: Optional[dict] = None) -> tuple[Optional[Divergence], bool]:
    """Compare the two paths' outcomes; returns (divergence, used_fallback).
    ``upper_cont`` is the compiled ``upper.cont``, so it is None just when
    that is.  ``steps`` is the target's ``extend_once`` memo, if any."""
    field_name = first_difference(upper, lower)
    if field_name is not None:
        return Divergence(field_name, upper, lower, upper_cont), False
    if upper_cont is None or upper_cont == lower.cont:
        return None, False
    # syntactic mismatch: bounded behavioral comparison over the window, once
    # per key (see the module docstring).  Tables compare by identity, so a
    # key costs no hashing of their entries; the memo keeps its tables alive,
    # so no identity is reused.  Only the verdict is kept; each case builds
    # its own divergence from it.
    memo = {} if memo is None else memo
    key = (upper_cont, lower.cont, tuple(tables.items()))
    verdict = memo.get(key)
    if verdict is None:
        verdict = check_bisim(cp.target, upper_cont, lower.cont, window,
                              cfg.fallback_depth, behaviors=_target_behaviors(cp, tables),
                              memo=steps)
        memo[key] = verdict
    if isinstance(verdict, Equivalent):
        return None, True
    return Divergence("continuation", upper, lower, upper_cont, lower.cont), True


def _window_images(cp: CompilerPair, inputs) -> tuple[list, list]:
    """The behavior translation's input side over ``inputs``: the distinct
    ``input_map`` images, and per input either the outcome ``pass_through``
    answers it with or the index of its image among them."""
    index: dict = {}
    images = []
    for i2 in inputs:
        shortcut = cp.behavior.pass_through(i2)
        images.append(shortcut if shortcut is not None
                      else index.setdefault(cp.behavior.input_map(i2), len(index)))
    return list(index), images


class _Group:
    """One open-mode (layer, tables) variant over a window and the work its
    cases share (see the module docstring).  Each part is computed when a
    case first needs it, at the point of the square where a case evaluated
    on its own computes it, so the same exception surfaces first."""

    def __init__(self, cp: CompilerPair, subject: OpenTerm, tables: dict, window_images):
        self.cp, self.subject, self.tables = cp, subject, tables
        self.preimages, self.images = window_images
        self.sources: list = [None] * len(self.preimages)  # source outcome per preimage
        self.compiled: dict = {}  # source term -> compile_open of it
        self.layer: Optional[OpenTerm] = None  # the compiled subject
        self.behaviors = _target_behaviors(cp, tables)

    def holds(self, case: CoherenceCase) -> bool:
        return case.subject is self.subject and case.tables is self.tables

    def _compile(self, t: OpenTerm) -> OpenTerm:
        out = self.compiled.get(t)
        if out is None:
            out = self.compiled[t] = compile_open(self.cp, t)
        return out

    def evaluate(self, case: CoherenceCase, slot: int, window, cfg, memo):
        """The square at the window's input ``slot``, which is the case's."""
        cp, i2 = self.cp, case.target_input
        upper = self.images[slot]
        if isinstance(upper, int):
            o1 = self.sources[upper]
            if o1 is None:
                o1 = self.sources[upper] = extend_law(
                    cp.source, self.subject, self.tables, self.preimages[upper])
            upper = cp.behavior.output_map(i2, o1)
        upper_cont = self._compile(upper.cont) if upper.cont is not None else None
        if self.layer is None:
            self.layer = self._compile(self.subject)
        lower = extend_law(cp.target, self.layer, self.behaviors, i2)
        flags = upper.flags | lower.flags
        div, fb = _compare(cp, upper, upper_cont, lower, window, self.tables, cfg, memo)
        return div, fb, flags


class _OpenCampaign:
    """An open-mode campaign's window images and the group of the variant
    its cases have reached: a case the group does not hold starts the next
    group, and the last one's work is dropped."""

    def __init__(self, cp: CompilerPair, window):
        self.window_images = _window_images(cp, window)
        self.group: Optional[_Group] = None

    def group_of(self, cp: CompilerPair, case: CoherenceCase) -> _Group:
        group = self.group
        if group is None or not group.holds(case):
            group = self.group = _Group(cp, case.subject, case.tables, self.window_images)
        return group


def evaluate_open_case(cp: CompilerPair, case: CoherenceCase, window, cfg,
                       memo: Optional[dict] = None,
                       campaign: Optional[_OpenCampaign] = None):
    """One open-mode square; returns (divergence|None, used_fallback, flags).
    ``memo`` holds the campaign's fallback verdicts.  Within a ``campaign``
    the case is evaluated through its variant's group; without one, through
    a one-off group, and without a memo nothing is shared with other cases.
    The result is the same either way."""
    if campaign is not None:
        return campaign.group_of(cp, case).evaluate(case, case.slot, window, cfg, memo)
    one_off = _Group(cp, case.subject, case.tables,
                     _window_images(cp, [case.target_input]))
    return one_off.evaluate(case, 0, window, cfg, memo)


@contextmanager
def _step_memos(cp: CompilerPair) -> Iterator[tuple[dict, dict]]:
    """Fresh ``extend_once`` memos for the source and the target, one if
    equal, cleared on exit (see ``extend_once``)."""
    source: dict = {}
    target = source if cp.target is cp.source else {}
    try:
        yield source, target
    finally:
        source.clear()
        target.clear()


def evaluate_closed_case(cp: CompilerPair, case: CoherenceCase, window, cfg,
                         memo: Optional[dict] = None, steps: Optional[tuple] = None):
    """One closed-mode square, as ``evaluate_open_case``; ``steps`` are the
    campaign's ``_step_memos``, without which the case shares nothing."""
    if steps is None:
        with _step_memos(cp) as steps:
            return evaluate_closed_case(cp, case, window, cfg, memo, steps)
    src_steps, tgt_steps = steps
    i2 = case.target_input
    compiled = compile_term(cp, case.subject)
    upper = translate_behavior(
        cp, partial(extend_once, cp.source.rule, {}, src_steps, case.subject), i2)
    upper_cont = compile_term(cp, upper.cont) if upper.cont is not None else None
    lower = extend_once(cp.target.rule, {}, tgt_steps, compiled, i2)
    flags = upper.flags | lower.flags
    div, fb = _compare(cp, upper, upper_cont, lower, window, {}, cfg, memo, tgt_steps)
    return div, fb, flags


# ---------------------------------------------------------------------------
# case streams

def open_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    rng = random.Random(cfg.seed)
    preimage = _preimage(cp, window)
    for layer in gen.layer_shapes(cp.source, cfg):
        names = sorted(set(term_vars(layer)), key=str)
        variants = range(cfg.table_variants if names else 1)
        for _ in variants:
            tables = {
                x: gen.sample_table(rng, x, preimage, cp.source.has_label, names, cfg)
                for x in names
            }
            for slot, i2 in enumerate(window):
                yield CoherenceCase(layer, i2, tables, slot)


def closed_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    for p in gen.closed_terms(cp.source, cfg):
        states = window
        if cp.target.state_kind == "pc":
            # pair every program with program counters from -1 to one past
            # its compiled length
            compiled = compile_term(cp, p)
            length = len(instr_flatten(compiled)) if compiled.tag == "instr" else term_size(compiled)
            stores = gen.store_window(cfg, int_mode=False)
            states = [LowState(s, pc) for s in stores for pc in gen.pc_window(cfg, length)]
        for i2 in states:
            yield CoherenceCase(p, i2)


def _preimage(cp: CompilerPair, window) -> list:
    return list(dict.fromkeys(cp.behavior.input_map(i2) for i2 in window))


# ---------------------------------------------------------------------------
# campaigns

def check_coherence(cp: CompilerPair, cfg: CampaignConfig) -> Verdict:
    mode = cfg.mode
    if mode == "auto":
        mode = "open" if cp.open_checkable else "closed"
    if mode == "open" and not cp.open_checkable:
        raise IllFormed(f"{cp.name} is not layer-wise; use closed mode")
    window = gen.state_window(cp.target, cfg)
    cases = inconclusive = illformed = fallback = 0
    flags: frozenset = frozenset()
    memo: dict = {}  # this campaign's fallback verdicts, see _compare
    with _step_memos(cp) as steps:
        if mode == "open":
            stream = open_cases(cp, cfg, window)
            evaluate = partial(evaluate_open_case, campaign=_OpenCampaign(cp, window))
        else:
            stream = closed_cases(cp, cfg, window)
            evaluate = partial(evaluate_closed_case, steps=steps)
        for case in itertools.islice(stream, cfg.samples):
            cases += 1
            try:
                div, fb, case_flags = evaluate(cp, case, window, cfg, memo)
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
    compiled_left: Optional[Node] = None
    compiled_right: Optional[Node] = None
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
    with _step_memos(cp) as (src_steps, tgt_steps):
        for left, right in pairs:
            source = check_bisim(cp.source, left, right, src_window, cfg.depth,
                                 memo=src_steps)
            entry = PreservationEntry(left, right, source)
            if isinstance(source, Equivalent):
                entry.compiled_left = compile_term(cp, left)
                entry.compiled_right = compile_term(cp, right)
                try:
                    entry.target = check_bisim(cp.target, entry.compiled_left,
                                               entry.compiled_right, tgt_window, cfg.depth,
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


def check_context_closure(lang, p: Node, q: Node, cfg: CampaignConfig,
                          contexts: Optional[list] = None) -> ContextClosureReport:
    """Plug a bisimilar pair into sampled single-hole contexts; any context
    distinguishing them falsifies contextual closure at this scale and
    points at a framework bug."""
    window = gen.state_window(lang, cfg)
    memo: dict = {}  # every (term, state) stepped so far, see extend_once
    try:
        base = check_bisim(lang, p, q, window, cfg.depth, memo=memo)
        if contexts is None:
            contexts = gen.sample_contexts(lang, 3, cfg.samples, cfg.seed, cfg)
        if isinstance(base, Distinguished):
            return ContextClosureReport("base-distinguished", 0, base, [])
        violations = []
        proved: dict = {}  # pairs shown equivalent so far, see check_bisim
        for ctx in contexts:
            verdict = check_bisim(lang, plug(ctx, p), plug(ctx, q), window, cfg.depth,
                                  proved=proved, memo=memo)
            if isinstance(verdict, Distinguished):
                violations.append((ctx, verdict))
    finally:
        memo.clear()
    status = "closed" if not violations else "violation"
    return ContextClosureReport(status, len(contexts), base, violations)

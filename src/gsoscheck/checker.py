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
length, built once per length).  Of the whole square only the behavior
translation's input side sees the target input, so a group compiles its
subject, builds its target behaviors, runs the source law once per distinct
preimage state and compiles each distinct upper continuation once, for all
its inputs.  The input side itself, ``input_map``, is computed once per
window, as a list of image indices aligned with it.  The fallback's verdict
does not depend on the target input either, so a group computes it once per
(upper continuation, lower continuation) and reuses it for its other
inputs; ``fallback_cases`` still counts the cases that needed it.  The
streams yield groups; a campaign walks each group's inputs until its budget
is spent and builds a ``CoherenceCase`` only for a failure.  A case checked
on its own, such as a pinned witness, is a group of one input.

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
from typing import NamedTuple, Optional

from .terms import (
    IllFormed, Node, OpenTerm, instr_flatten, print_term, term_size, term_vars,
)
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
    Closed mode: a closed source term.  Both carry the target input."""

    subject: OpenTerm
    target_input: object
    tables: dict = field(default_factory=dict)

    def describe(self) -> dict:
        out = {
            "term": print_term(self.subject),
            "input": self.target_input.show(),
        }
        if self.tables:
            out["tables"] = {
                str(v): {
                    s.show(): [e[0], e[1].show(), e[2]]
                    for s, e in t.entries.items()
                }
                for v, t in self.tables.items()
            }
        return out


@dataclass
class Divergence:
    """The two target-side outcomes of a square that disagree: ``upper``
    has its continuation compiled, so both are the outcomes compared."""

    field_name: str  # label | state | termination | continuation
    upper: StepOutcome
    lower: StepOutcome

    def describe(self) -> dict:
        return {
            "field": self.field_name,
            "upper": describe_outcome(self.upper),
            "lower": describe_outcome(self.lower),
        }


def describe_outcome(o: StepOutcome) -> dict:
    return {
        "state": o.state.show(),
        "label": o.label,
        "continuation": print_term(o.cont) if o.cont is not None else None,
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

def _window_images(cp: CompilerPair, inputs) -> tuple[list, list]:
    """The behavior translation's input side over ``inputs``: the distinct
    ``input_map`` images of all of them, in order, and per input the index
    of its image."""
    index: dict = {}
    images = [index.setdefault(cp.input_map(i2), len(index)) for i2 in inputs]
    return list(index), images


class _Group(NamedTuple):
    """The cases of one square that differ only in the target input (see the
    module docstring).  ``preimages`` and ``images`` are ``_window_images``
    of the states; ``layer`` is the compiled subject, if the stream has it."""

    subject: OpenTerm
    tables: dict
    states: list
    preimages: list
    images: list
    layer: Optional[OpenTerm] = None


def _evaluate_group(cp: CompilerPair, group: _Group, compile_, window, cfg, tally: Pass):
    """The squares of the group's inputs in order, each counted in ``tally``
    until the ``samples`` budget is spent, which clears ``tally.exhausted``;
    returns the first failure, or None.  Shared work is computed when an
    input first needs it, where a case on its own would, so the same
    exception surfaces first."""
    subject, tables, preimages = group.subject, group.tables, group.preimages
    # the same sampled tables serve both paths, re-indexed through the
    # behavior translation on the lower one
    behaviors = {x: (lambda i2, t=t: translate_behavior(cp, t, i2)) for x, t in tables.items()}
    sources: list = [None] * len(preimages)  # source outcome per preimage
    compiled: dict = {}  # source term -> its compiled form
    verdicts: dict = {}  # (upper cont, lower cont) -> fallback verdict
    layer = group.layer

    def compile_once(t: OpenTerm) -> OpenTerm:
        out = compiled.get(t)
        if out is None:
            out = compiled[t] = compile_(cp, t)
        return out

    for i2, image in zip(group.states, group.images):
        if tally.cases == cfg.samples:
            tally.exhausted = False
            return None
        tally.cases += 1
        try:
            o1 = sources[image]
            if o1 is None:
                o1 = sources[image] = extend_law(cp.source, subject, tables, preimages[image])
            upper = cp.output_map(i2, o1)
            upper_cont = compile_once(upper.cont) if upper.cont is not None else None
            if layer is None:
                layer = compile_once(subject)
            lower = extend_law(cp.target, layer, behaviors, i2)
            field_name = first_difference(upper, lower)
            fallback = False
            if field_name is not None:
                div = Divergence(field_name, upper._replace(cont=upper_cont), lower)
            elif upper_cont is None or upper_cont == lower.cont:
                div = None
            else:
                # syntactic mismatch: bounded behavioral comparison over the
                # window, once per pair of continuations (see the module
                # docstring); each input builds its own divergence from it
                key = (upper_cont, lower.cont)
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = check_bisim(
                        cp.target, upper_cont, lower.cont, window, cfg.fallback_depth,
                        behaviors=behaviors)
                fallback = True
                div = None if isinstance(verdict, Equivalent) else Divergence(
                    "continuation", upper._replace(cont=upper_cont), lower)
        except IllFormed:
            tally.illformed += 1
            continue
        except IncompleteTable:
            tally.inconclusive += 1
            continue
        tally.flags |= upper.flags | lower.flags
        tally.fallback_cases += fallback
        if div is not None:
            return Fail(CoherenceCase(subject, i2, tables), div, tally.cases - 1, tally.flags)
    return None


# a campaign evaluates each group in a call to one of these two, which the
# benchmark's tracer times by name
def evaluate_open_case(cp: CompilerPair, group: _Group, window, cfg, tally: Pass):
    """An open-mode group, as ``_evaluate_group``: layers compile open."""
    return _evaluate_group(cp, group, compile_open, window, cfg, tally)


def evaluate_closed_case(cp: CompilerPair, group: _Group, window, cfg, tally: Pass):
    """A closed-mode group, as ``_evaluate_group``: terms compile whole."""
    return _evaluate_group(cp, group, compile_term, window, cfg, tally)


# ---------------------------------------------------------------------------
# group streams

def open_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    """One group per (layer, tables) variant, over the window."""
    rng = random.Random(cfg.seed)
    preimages, images = _window_images(cp, window)
    for layer in gen.layer_shapes(cp.source, cfg):
        names = sorted(set(term_vars(layer)), key=str)
        for _ in range(cfg.table_variants if names else 1):
            tables = {
                x: gen.sample_table(rng, x, preimages, cp.source.has_label, names, cfg)
                for x in names
            }
            yield _Group(layer, tables, window, preimages, images)


def closed_cases(cp: CompilerPair, cfg: CampaignConfig, window):
    """One group per closed term, over the window.  A program-counter target
    pairs every program with program counters from -1 to one past its
    compiled length; those states and their images are built once per length."""
    by_length: dict = {}  # compiled length (None: the window) -> (states, images...)
    for p in gen.closed_terms(cp.source, cfg):
        layer = length = None
        if cp.target.state_kind == "pc":
            layer = compile_term(cp, p)
            length = len(instr_flatten(layer)) if layer.tag == "instr" else term_size(layer)
        if length not in by_length:
            states = window if length is None else gen.pc_states(
                cfg, gen.store_window(cfg, int_mode=False), length)
            by_length[length] = (states, *_window_images(cp, states))
        yield _Group(p, {}, *by_length[length], layer)


# ---------------------------------------------------------------------------
# campaigns

def _mode(cp: CompilerPair, cfg: CampaignConfig):
    """The group stream and the evaluate function of the campaign's mode."""
    mode = cfg.mode
    if mode == "auto":
        mode = "open" if cp.open_checkable else "closed"
    if mode == "open" and not cp.open_checkable:
        raise IllFormed(f"{cp.name} is not layer-wise; use closed mode")
    if mode == "open":
        return open_cases, evaluate_open_case
    return closed_cases, evaluate_closed_case


def check_coherence(cp: CompilerPair, cfg: CampaignConfig) -> Verdict:
    stream, evaluate = _mode(cp, cfg)
    window = gen.state_window(cp.target, cfg)
    tally = Pass(0, exhausted=True)  # until a case is left past the budget
    for group in stream(cp, cfg, window):
        fail = evaluate(cp, group, window, cfg, tally)
        if fail is not None:
            return fail
        if not tally.exhausted:
            break
    return tally


def check_case(cp: CompilerPair, case: CoherenceCase, cfg: CampaignConfig) -> Verdict:
    """``case`` on its own, as a campaign of one case: a group of one input,
    through the same body as a campaign's groups.  A pinned case or a
    witness read back from a report is checked this way."""
    _, evaluate = _mode(cp, cfg)
    states = [case.target_input]
    group = _Group(case.subject, case.tables, states, *_window_images(cp, states))
    tally = Pass(0, exhausted=True)
    return evaluate(cp, group, gen.state_window(cp.target, cfg), cfg, tally) or tally


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
        return isinstance(self.target, Distinguished)


def check_preservation(cp: CompilerPair, cfg: CampaignConfig,
                       pairs: Optional[list] = None) -> list[PreservationEntry]:
    """An entry per pair: for source pairs found bisimilar within budget,
    check the compiled pair in the target; a Distinguished target verdict
    is a violation.  A target check that reaches an ill-formed state (a
    stack machine's frame read at sp = 0) leaves that pair without a target
    verdict, as coherence campaigns skip ill-formed cases."""
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
    return entries


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

"""Coherence, bisimilarity-preservation and context-closure campaigns.

The coherence check evaluates one square per case.  Upper path: extend the
source law, translate the outcome, compile the continuation.  Lower path:
translate the syntax layer (open mode) or the whole term (closed mode),
then extend the target law at the target input.  A case fails on the first
divergence in label, output state, termination, or continuation term.

Continuation terms are compared syntactically first.  The layer-wise
sandboxing translations step to continuations that differ from the
compiled source continuation only by redundant sandbox layers.  Their
compiler pairs carry a normal form, sandbox absorption, whose one-step
lemma is checked on the compiler's image; a syntactic mismatch whose two
continuations have one normal form is settled by it, and only a pair it
does not equate falls back to a bounded behavioral comparison
(``check_bisim``) over the case's window.  A pass obtained either way is
counted and reported.  Every other registered translation either matches
continuations exactly or diverges in an observable.

Both modes evaluate their cases one group at a time, through the same
square.  A group is the cases that differ only in the target input: an
open-mode (layer, tables) variant over the window, or a closed term over
its states (for a program-counter target, the pc window of its compiled
length, built once per length).  Of the whole square only the behavior
translation's input side sees the target input, so a group compiles its
subject, builds its target behaviors, runs the source law once per distinct
preimage state and compiles each distinct upper continuation once, for all
its inputs.  The input side itself, ``input_map``, is computed once per
window, as a list of image indices aligned with it.  The verdict on a
continuation mismatch, by normal form or by the fallback, does not depend
on the target input either, so a group computes it once per (upper
continuation, lower continuation) and reuses it for its other inputs;
``fallback_cases`` still counts the cases that needed it.  The
streams yield groups, and a campaign is a fold over them: each group takes
the tally so far, a ``Pass``, walks its inputs until the budget is spent
and returns the tally with its cases added, or the first failure, the one
place a ``CoherenceCase`` is built.  A case checked on its own, such as a
pinned witness, is the same fold over one group of one input.

A rule sees a child only through the behavior it queries, so a square
that queries no table is the same square under every table.  An open-mode
campaign therefore watches each group's tables, the one door through which
the source law, the lower path (via ``translate_behavior``) and the
fallback all reach them.  When a group runs to its end and none of its
inputs queried a table, the campaign keeps two counts of it: its
ill-formed inputs and its fallback cases (an inconclusive input has
queried a table).  A later table variant of that subject that fits in the
budget is one budget check that adds its length and those two counts to
the tally; its flags are there already.  One that would overrun the
budget is evaluated, at most once per campaign, and gives the same
squares.  So the case count, ``exhausted``, the tallies and the flags are
the ones evaluation gives, and as only a group that passed is kept, no
skipped variant hides a failure.  The ``while`` layers are settled this way
after their first variant: neither ``while`` nor its images (a sandboxed
``while``, ``loop``) query the body.  A lone case and closed mode have no
tables to vary and evaluate every group.

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
from typing import NamedTuple, Optional

from .terms import IllFormed, Node, OpenTerm, print_term, term_size, term_vars
from .semantics import (
    Distinguished, Equivalent, IncompleteTable, StepOutcome, check_bisim,
    extend_law, first_difference,
)
from .compilers import CompilerPair, compile_open, compile_term, translate_behavior
from .spf import plug
from . import gen


class CampaignConfig(NamedTuple):
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
        return self._asdict()


class CoherenceCase(NamedTuple):
    """Open mode: one source layer over variables plus their sampled tables.
    Closed mode: a closed source term.  Both carry the target input; a case
    built without tables has ``None``, which ``check_case`` reads as none."""

    subject: OpenTerm
    target_input: object
    tables: Optional[dict] = None

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


class Divergence(NamedTuple):
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


class Pass(NamedTuple):
    """A campaign's tally so far, which each group returns with its cases
    added, or its verdict when the campaign stops without a failure."""

    cases: int
    exhausted: bool
    inconclusive: int = 0
    illformed: int = 0
    fallback_cases: int = 0
    flags: frozenset = frozenset()


class Fail(NamedTuple):
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


def _evaluate_group(cp: CompilerPair, group: _Group, compile_, window, cfg, tally: Pass,
                    settled: dict) -> Verdict:
    """``tally`` with the squares of the group's inputs added in order,
    until the ``samples`` budget is spent, which returns it with
    ``exhausted`` cleared; or the first failure.  Shared work is computed
    when an input first needs it, where a case on its own would, so the
    same exception surfaces first.

    ``settled`` is the campaign's map from a subject to the ill-formed and
    fallback counts of a group of it that ran to its end without querying
    any of its tables: that group's squares are the same squares under any
    tables.  A later group of the subject that fits in the budget adds its
    length and those two counts to ``tally`` instead of evaluating; its
    flags are in ``tally`` already, from the group that settled it.  One
    that would overrun the budget is evaluated, so it stops where
    evaluation stops.  A group with tables is watched for queries, on both
    paths and in the fallback, and added to the map when it has none."""
    subject, tables, preimages = group.subject, group.tables, group.preimages
    # a named tuple's field reads are not specialised: once per group, not per case
    samples, source, target, output_map = cfg.samples, cp.source, cp.target, cp.output_map
    cases, _, inconclusive, illformed, fallback_cases, flags = tally
    watch = bool(tables)
    queried = False  # a table of the group answered a query
    if watch:
        counts = settled.get(subject)
        if counts is not None and cases + len(group.states) <= samples:
            return Pass(cases + len(group.states), True, inconclusive, illformed + counts[0],
                        fallback_cases + counts[1], flags)

        def watched(table):
            def answer(state):
                nonlocal queried
                queried = True
                return table(state)
            return answer

        tables = {x: watched(t) for x, t in tables.items()}
    # the same sampled tables serve both paths, re-indexed through the
    # behavior translation on the lower one
    behaviors = {x: (lambda i2, t=t: translate_behavior(cp, t, i2)) for x, t in tables.items()}
    sources: list = [None] * len(preimages)  # source outcome per preimage
    compiled: dict = {}  # source term -> its compiled form
    equivalent: dict = {}  # (upper cont, lower cont) -> whether the pair is equivalent
    layer = group.layer

    def compile_once(t: OpenTerm) -> OpenTerm:
        out = compiled.get(t)
        if out is None:
            out = compiled[t] = compile_(cp, t)
        return out

    for i2, image in zip(group.states, group.images):
        if cases == samples:
            return Pass(cases, False, inconclusive, illformed, fallback_cases, flags)
        cases += 1
        try:
            o1 = sources[image]
            if o1 is None:
                o1 = sources[image] = extend_law(source, subject, tables, preimages[image])
            upper = output_map(i2, o1)
            upper_cont = compile_once(upper.cont) if upper.cont is not None else None
            if layer is None:
                layer = compile_once(subject)
            lower = extend_law(target, layer, behaviors, i2)
            field_name = first_difference(upper, lower)
            fallback = (field_name is None and upper_cont is not None
                        and upper_cont != lower.cont)
            if fallback:
                # syntactic mismatch: the pair's normal form, else a bounded
                # behavioral comparison over the window, once per pair of
                # continuations (see the module docstring)
                key = (upper_cont, lower.cont)
                same = equivalent.get(key)
                if same is None:
                    nf = cp.normal_form
                    same = equivalent[key] = (
                        nf is not None and nf(upper_cont) == nf(lower.cont)
                        or isinstance(check_bisim(target, upper_cont, lower.cont, window,
                                                  cfg.fallback_depth, behaviors=behaviors),
                                      Equivalent))
                if not same:
                    field_name = "continuation"
        except IllFormed:
            illformed += 1
            continue
        except IncompleteTable:  # a table was queried outside its domain
            inconclusive += 1
            queried = True
            continue
        flags |= upper.flags | lower.flags
        fallback_cases += fallback
        if field_name is not None:
            div = Divergence(field_name, upper._replace(cont=upper_cont), lower)
            return Fail(CoherenceCase(subject, i2, group.tables), div, cases - 1, flags)
    if watch and not queried:
        settled[subject] = (illformed - tally.illformed, fallback_cases - tally.fallback_cases)
    return Pass(cases, True, inconclusive, illformed, fallback_cases, flags)


# a campaign evaluates each group in a call to one of these two, which the
# benchmark's tracer times by name
def evaluate_open_case(cp: CompilerPair, group: _Group, window, cfg, tally: Pass,
                       settled: dict) -> Verdict:
    """An open-mode group, as ``_evaluate_group``: layers compile open."""
    return _evaluate_group(cp, group, compile_open, window, cfg, tally, settled)


def evaluate_closed_case(cp: CompilerPair, group: _Group, window, cfg, tally: Pass,
                         settled: dict) -> Verdict:
    """A closed-mode group, as ``_evaluate_group``: terms compile whole."""
    return _evaluate_group(cp, group, compile_term, window, cfg, tally, settled)


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
    """One group per closed term, over the window.  A ``per_length`` target
    kind pairs every program with program counters from -1 to one past its
    compiled length, the compiled term's node count (one node per
    instruction); those states and their images are built once per length."""
    by_length: dict = {}  # compiled length (None: the window) -> (states, images...)
    for p in gen.closed_terms(cp.source, cfg):
        layer = length = None
        if cp.target.state_kind.per_length:
            layer = compile_term(cp, p)
            length = term_size(layer)
        if length not in by_length:
            states = window if length is None else cp.target.state_kind.window(cfg, length)
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
    """The campaign of ``cfg``'s mode, a fold over its groups in stream
    order: each takes the tally so far and returns it with its cases added,
    until a case fails or the budget is spent.  One map, local to the
    campaign, holds the counts of the groups that queried none of their
    tables, which later groups of the same subject add to the tally (see
    ``_evaluate_group``)."""
    stream, evaluate = _mode(cp, cfg)
    window = gen.state_window(cp.target, cfg)
    verdict = Pass(0, True)  # exhausted until a case is left past the budget
    settled: dict = {}  # subject -> (ill-formed, fallback) counts, see _evaluate_group
    for group in stream(cp, cfg, window):
        verdict = evaluate(cp, group, window, cfg, verdict, settled)
        if isinstance(verdict, Fail) or not verdict.exhausted:
            break
    return verdict


def check_case(cp: CompilerPair, case: CoherenceCase, cfg: CampaignConfig) -> Verdict:
    """``case`` on its own, as a campaign of one case: the same fold over one
    group of one input, with a map of its own.  A pinned case or a witness
    read back from a report is checked this way."""
    _, evaluate = _mode(cp, cfg)
    states = [case.target_input]
    group = _Group(case.subject, case.tables or {}, states, *_window_images(cp, states))
    return evaluate(cp, group, gen.state_window(cp.target, cfg), cfg, Pass(0, True), {})


# ---------------------------------------------------------------------------
# bisimilarity preservation

class PreservationEntry(NamedTuple):
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
        target, illformed = None, False
        if isinstance(source, Equivalent):
            try:
                target = check_bisim(cp.target, compile_term(cp, left), compile_term(cp, right),
                                     tgt_window, cfg.depth, memo=tgt_steps)
            except IllFormed:
                illformed = True
        entries.append(PreservationEntry(left, right, source, target, illformed))
    return entries


# ---------------------------------------------------------------------------
# context closure

class ContextClosureReport(NamedTuple):
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

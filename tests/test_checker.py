"""Campaign behavior: the verdict table, witness soundness, stream
determinism, preservation and context closure."""
import gc
import hashlib
import itertools
import json
from collections import Counter
from dataclasses import fields, replace
from functools import partial

import pytest

from gsoscheck.checker import (
    CampaignConfig, CoherenceCase, Divergence, Fail, Pass, check_case, check_coherence,
    check_context_closure, check_preservation, closed_cases, describe_outcome, open_cases,
)
from gsoscheck.languages import LangDef, language_registry
from gsoscheck.laws import run_law_suite
from gsoscheck.compilers import compile_term, compiler_registry, translate_behavior
from gsoscheck.semantics import (
    Distinguished, Equivalent, StepOutcome, check_bisim, extend_law, first_difference,
    memo_entry, run,
)
from gsoscheck.states import LowState, StackState, Store
from gsoscheck.terms import (
    Bin, IllFormed, Lit, Loc, Var, assign, parse_term, print_expr, print_term, sandbox, seq,
    skip, while_,
)
from gsoscheck.spf import OneHoleLayer, plug
from gsoscheck import checker, gen, semantics
from gsoscheck.cli import execute

EXPECTED_VERDICTS = {
    "embed-flag": Fail,
    "sandbox": Pass,
    "unsandbox": Fail,
    "embed-int": Fail,
    "sandbox-int": Pass,
    "flatten-low": Fail,
    "embed-low-sec": Pass,
    "embed-stack": Fail,
    "embed-stack-clear": Pass,
}


@pytest.fixture(scope="module")
def verdicts(comps):
    cfg = CampaignConfig(samples=10_000)
    return {name: check_coherence(cp, cfg) for name, cp in comps.items()}


def test_registry_verdict_table(verdicts):
    for name, expected in EXPECTED_VERDICTS.items():
        assert isinstance(verdicts[name], expected), name


def test_passes_echo_budget_and_are_clean(verdicts):
    for name, verdict in verdicts.items():
        if isinstance(verdict, Pass):
            assert verdict.exhausted
            assert verdict.inconclusive == 0


def test_embed_flag_witness_shape(verdicts):
    fail = verdicts["embed-flag"]
    assert fail.case.subject.tag == "assign"
    assert fail.divergence.field_name == "label"
    assert fail.divergence.upper.label == 0
    assert fail.divergence.lower.label != 0


def test_unsandbox_witness_shape(verdicts):
    fail = verdicts["unsandbox"]
    assert fail.case.subject.tag == "sandbox"
    assert fail.divergence.field_name == "label"
    assert fail.divergence.upper.label == 0
    assert fail.divergence.lower.label != 0


def test_embed_int_witness_has_negative_cell(verdicts):
    fail = verdicts["embed-int"]
    assert any(v < 0 for _, v in fail.case.target_input.cells)


def test_embed_stack_witness_shape(verdicts):
    fail = verdicts["embed-stack"]
    assert fail.case.subject.tag == "frame"
    assert fail.case.target_input.sp == 0
    assert fail.divergence.field_name == "state"


def test_fail_witness_replays_identically(comps):
    # every failing compiler, in open mode and in closed mode where both exist
    runs = [(name, mode) for name in ("embed-flag", "unsandbox", "embed-int", "embed-stack")
            for mode in ("open", "closed")] + [("flatten-low", "closed")]
    for name, mode in runs:
        cp = comps[name]
        cfg = CampaignConfig(samples=12_000, mode=mode)
        first = check_coherence(cp, cfg)
        again = check_coherence(cp, cfg)
        assert isinstance(first, Fail) and isinstance(again, Fail), (name, mode)
        assert first.case.subject == again.case.subject
        assert first.case.target_input == again.case.target_input
        assert first.divergence.describe() == again.divergence.describe()
        # and the witness, rebuilt as a lone case from its parts, reproduces
        # its divergence on its own
        rebuilt = CoherenceCase(first.case.subject, first.case.target_input, first.case.tables)
        alone = check_case(cp, rebuilt, cfg)
        assert isinstance(alone, Fail) and alone.cases_before == 0, (name, mode)
        assert alone.case.describe() == first.case.describe()
        assert alone.divergence.describe() == first.divergence.describe(), (name, mode)


def test_open_and_closed_agree_on_shipped_counterexamples(comps):
    cfg_closed = CampaignConfig(samples=12_000, mode="closed")
    cfg_open = CampaignConfig(samples=10_000, mode="open")
    for name in ("embed-flag", "unsandbox", "embed-int", "embed-stack"):
        cp = comps[name]
        assert isinstance(check_coherence(cp, cfg_closed), Fail), name
        assert isinstance(check_coherence(cp, cfg_open), Fail), name


def test_open_mode_rejected_for_whole_term(comps):
    with pytest.raises(IllFormed):
        check_coherence(comps["flatten-low"], CampaignConfig(mode="open"))


def test_pinned_flatten_low_case(comps):
    cp = comps["flatten-low"]
    case = CoherenceCase(while_(Lit(0), assign(0, Lit(0))), LowState(Store.of({0: 3}), 1))
    div = check_case(cp, case, CampaignConfig(mode="closed")).divergence
    assert div.upper.cont is None
    assert div.upper.state == LowState(Store.of({0: 3}), 1)
    assert div.lower.cont is not None
    assert div.lower.state == LowState(Store.of({}), 2)


def test_divergence_holds_the_compiled_upper_continuation(comps):
    # the source continuation is (sandbox skip); the witness holds the upper
    # outcome the square compared, with that continuation compiled
    cp = comps["unsandbox"]
    case = CoherenceCase(parse_term("(sandbox (seq (assign 0 (lit 1)) skip))"), Store.of({}))
    for mode in ("open", "closed"):
        div = check_case(cp, case, CampaignConfig(mode=mode)).divergence
        assert div.field_name == "label", mode
        assert print_term(div.upper.cont) == "skip", mode
        assert describe_outcome(div.upper) == div.describe()["upper"], mode


def test_pinned_int_case(comps):
    cp = comps["embed-int"]
    case = CoherenceCase(assign(0, Bin("min", Loc(0), Lit(0))), Store.of({0: -1}))
    div = check_case(cp, case, CampaignConfig()).divergence
    assert div.field_name == "state"
    assert div.upper.state == Store.of({})
    assert div.lower.state == Store.of({0: -1})


def test_pinned_sandbox_int_subtraction_case(comps):
    # no default campaign draws a binary operator; the first `sub` sandbox-int
    # meets diverges, since the source stops subtraction at 0 and while-int
    # does not.  This pins today's verdict on the lone case (ROADMAP item 9)
    cp = comps["sandbox-int"]
    case = CoherenceCase(assign(0, Bin("sub", Lit(0), Lit(1))), Store.of({}))
    div = check_case(cp, case, CampaignConfig()).divergence
    assert div.field_name == "state"
    assert div.upper.state == Store.of({})
    assert div.lower.state == Store.of({0: -1})


def test_pinned_stack_case(comps):
    cp = comps["embed-stack"]
    case = CoherenceCase(
        __import__("gsoscheck.terms", fromlist=["frame"]).frame(),
        StackState(Store.of({0: 1}), 0))
    div = check_case(cp, case, CampaignConfig()).divergence
    assert div.field_name == "state"
    assert div.upper.state == StackState(Store.of({}), 1)
    assert div.lower.state == StackState(Store.of({0: 1}), 1)


def test_sandbox_passes_only_up_to_continuation_fallback(comps):
    # the nested-sandbox continuations are behaviorally equal but not
    # syntactically so; the campaign reports how many cases needed that
    verdict = check_coherence(comps["sandbox"], CampaignConfig(samples=2000))
    assert isinstance(verdict, Pass)
    assert verdict.fallback_cases > 0


def test_fallback_runs_once_per_continuations_and_tables(comps, monkeypatch):
    # the fallback verdict depends on the two continuations and the case's
    # tables, not on the target input, so a campaign computes it once per
    # such key however many inputs of the window reach it
    cp, cfg = comps["sandbox"], CampaignConfig(samples=2000)
    window = gen.state_window(cp.target, cfg)
    calls = []
    real = checker.check_bisim

    def counting(lang, p, q, *rest, **kwargs):
        calls.append((p, q))
        return real(lang, p, q, *rest, **kwargs)

    monkeypatch.setattr(checker, "check_bisim", counting)
    keys = set()
    for case in itertools.islice(_cases(open_cases(cp, cfg, window)), cfg.samples):
        calls.clear()
        check_case(cp, case, cfg)  # nothing shared
        keys.update((p, q, tuple(case.tables.values())) for p, q in calls)
    calls.clear()
    verdict = check_coherence(cp, cfg)
    assert isinstance(verdict, Pass) and verdict.fallback_cases == 209
    assert len(calls) == len(keys) == 18
    assert len(set(calls)) == 9  # each pair under both table variants


def test_out_of_domain_table_query_is_inconclusive(comps):
    # a table answers only on the states it was sampled on: a case whose
    # square queries one elsewhere is tallied inconclusive, not answered
    cp = comps["sandbox"]
    outside = Store.of({0: 99})
    rule = cp.source.rule

    def probing(tag, payload, children, s):
        if tag == "seq":
            children[0][1](outside)
        return rule(tag, payload, children, s)

    probed = replace(cp, source=replace(cp.source, rule=probing))
    verdict = check_coherence(probed, CampaignConfig(samples=2000))
    assert isinstance(verdict, Pass) and verdict.inconclusive > 0


def _cases(groups):
    """Every (group, input) of a group stream as a case of its own."""
    for group in groups:
        for i2 in group.states:
            yield CoherenceCase(group.subject, i2, group.tables)


def _per_case_campaign(cp, cfg):
    """The campaign as a loop over every (group, input) of the group stream,
    each evaluated alone as a case of its own: the reference for the grouped
    evaluation.  Open-mode cases go through ``check_case``, closed-mode ones
    through ``_literal_closed_square``."""
    window = gen.state_window(cp.target, cfg)
    if cfg.mode == "closed":
        cases = _cases(closed_cases(cp, cfg, window))
        evaluate = partial(_literal_closed_square, cp, window=window, cfg=cfg)
    else:
        cases = _cases(open_cases(cp, cfg, window))
        evaluate = partial(check_case, cp, cfg=cfg)
    total = Pass(0, False)
    for case in itertools.islice(cases, cfg.samples):
        alone = evaluate(case)
        total.flags |= alone.flags
        if isinstance(alone, Fail):
            return Fail(alone.case, alone.divergence, total.cases, total.flags)
        total.cases += 1
        total.inconclusive += alone.inconclusive
        total.illformed += alone.illformed
        total.fallback_cases += alone.fallback_cases
    total.exhausted = next(cases, None) is None
    return total


OPEN_CHECKABLE = ("embed-flag", "sandbox", "unsandbox", "embed-int", "sandbox-int",
                  "embed-low-sec", "embed-stack", "embed-stack-clear")


def _literal_closed_square(cp, case, window, cfg):
    """One closed-mode case computed as it is drawn, sharing nothing: the
    source law then the behavior translation and the compiled continuation,
    against the compiler then the target law, with the fallback comparison
    on continuations.  Returns the verdict of a campaign of this one case."""
    p, i2 = case.subject, case.target_input
    try:
        upper = translate_behavior(cp, partial(extend_law, cp.source, p, {}), i2)
        if upper.cont is not None:
            upper = upper._replace(cont=compile_term(cp, upper.cont))
        lower = extend_law(cp.target, compile_term(cp, p), {}, i2)
        flags = upper.flags | lower.flags
        field_name = first_difference(upper, lower)
        if field_name is not None:
            return Fail(case, Divergence(field_name, upper, lower), 0, flags)
        if upper.cont is None or upper.cont == lower.cont:
            return Pass(1, True, flags=flags)
        verdict = check_bisim(cp.target, upper.cont, lower.cont, window, cfg.fallback_depth)
    except IllFormed:
        return Pass(1, True, illformed=1)
    if isinstance(verdict, Equivalent):
        return Pass(1, True, fallback_cases=1, flags=flags)
    return Fail(case, Divergence("continuation", upper, lower), 0, flags)


def _assert_same_verdict(grouped, alone):
    assert type(grouped) is type(alone)
    if isinstance(alone, Pass):
        assert grouped == alone
        return
    assert grouped.case.subject is alone.case.subject
    assert grouped.case.target_input == alone.case.target_input
    assert grouped.case.describe() == alone.case.describe()
    assert grouped.cases_before == alone.cases_before
    assert grouped.divergence.describe() == alone.divergence.describe()
    assert grouped.flags == alone.flags


def _group_sizes(cp, cfg):
    window = gen.state_window(cp.target, cfg)
    stream = closed_cases if cfg.mode == "closed" else open_cases
    return (len(group.states) for group in stream(cp, cfg, window))


@pytest.mark.parametrize("name, seed, samples", [
    # every budget reaches the verdict of the shipped campaign, except
    # sandbox-int's: un-memoised, its fallback cases take seconds
    *(pytest.param(name, seed, 500 if name == "sandbox-int" else 6000, id=f"{name}-{seed}")
      for name in OPEN_CHECKABLE for seed in (CampaignConfig.seed, CampaignConfig.seed + 7)),
    # budgets that end one case before, on and one after a point where the
    # group loop must stop as the per-case loop does: sandbox's stream ends
    # at 816 cases and its second group at 32; embed-flag fails on its 33rd
    *(("sandbox", CampaignConfig.seed, n) for n in (31, 32, 33, 815, 816, 817)),
    *(("embed-flag", CampaignConfig.seed, n) for n in (32, 33, 34)),
])
def test_group_evaluation_equals_per_case_evaluation(comps, name, seed, samples):
    cp = comps[name]
    assert cp.open_checkable
    cfg = CampaignConfig(samples=samples, seed=seed)
    if name == "sandbox":  # the points the budgets above are placed by
        assert list(_group_sizes(cp, cfg)) == [16] * 51
    _assert_same_verdict(check_coherence(cp, cfg), _per_case_campaign(cp, cfg))


@pytest.mark.parametrize("name, seed, samples", [
    *((name, seed, 300) for name in sorted(EXPECTED_VERDICTS) for seed in (0, 7)),
    # 300 cases reach no fallback comparison; here 1,328 of 3,000 need it
    ("sandbox", 0, 3000),
    # a pc target's groups, one per term, are as long as its pc window: the
    # second group ends at 128 cases
    *(("embed-low-sec", 0, n) for n in (127, 128, 129)),
])
def test_closed_mode_equals_the_literal_square(comps, name, seed, samples):
    cp = comps[name]
    cfg = CampaignConfig(mode="closed", samples=samples, seed=seed)
    if name == "embed-low-sec" and samples < 300:
        assert list(itertools.islice(_group_sizes(cp, cfg), 2)) == [64, 64]
    _assert_same_verdict(check_coherence(cp, cfg), _per_case_campaign(cp, cfg))


def _count_group_work(cp, cfg, monkeypatch):
    """Run a campaign and count, per group, how often its subject is
    compiled, and per (term, tables, state) how often the source law runs.
    A group is told by its subject and tables, noted as it is handed to the
    evaluate function, if that evaluates any of its inputs."""
    closed = cfg.mode == "closed"
    evaluate_name = "evaluate_closed_case" if closed else "evaluate_open_case"
    compile_name = "compile_term" if closed else "compile_open"
    variants = []  # every group's subject and tables, kept alive so that ids stay apart
    subject_compiles, source_runs = Counter(), Counter()
    real_evaluate, real_compile, real_law = (
        getattr(checker, evaluate_name), getattr(checker, compile_name), checker.extend_law)

    def evaluating(cp_, group, window, cfg_, tally):
        before = tally.cases
        variants.append((group.subject, group.tables))
        try:
            return real_evaluate(cp_, group, window, cfg_, tally)
        finally:
            if tally.cases == before:  # the budget was spent before this group
                variants.pop()

    def compiling(cp_, t):
        subject, tables = variants[-1]
        if t is subject:
            subject_compiles[t, id(tables)] += 1
        return real_compile(cp_, t)

    def extending(lang, term, behaviors, state):
        if lang is cp.source:
            source_runs[term, id(behaviors), state] += 1
        return real_law(lang, term, behaviors, state)

    monkeypatch.setattr(checker, evaluate_name, evaluating)
    monkeypatch.setattr(checker, compile_name, compiling)
    monkeypatch.setattr(checker, "extend_law", extending)
    return check_coherence(cp, cfg), variants, subject_compiles, source_runs


def test_each_group_compiles_its_layer_once_and_runs_the_source_once_per_state(
        comps, monkeypatch):
    # within one (layer, tables) group only the target input changes, so the
    # layer is compiled once and the source law runs once per preimage state
    cp, cfg = comps["embed-stack-clear"], CampaignConfig()
    verdict, variants, layer_compiles, source_runs = _count_group_work(cp, cfg, monkeypatch)
    assert isinstance(verdict, Pass) and verdict.cases == cfg.samples
    assert len(variants) > 1
    assert layer_compiles == Counter({(subject, id(tables)): 1 for subject, tables in variants})
    assert source_runs and max(source_runs.values()) == 1


def test_each_closed_term_is_compiled_once_and_runs_the_source_once_per_state(
        comps, monkeypatch):
    # a closed-mode group is one generated term over the window: the term is
    # compiled once, however many of its inputs are cases
    cp, cfg = comps["sandbox"], CampaignConfig(mode="closed")
    verdict, variants, term_compiles, source_runs = _count_group_work(cp, cfg, monkeypatch)
    assert isinstance(verdict, Pass) and verdict.cases == cfg.samples
    subjects = [subject for subject, _ in variants]
    assert len(subjects) > 1 and len(set(subjects)) == len(subjects)
    assert term_compiles == Counter({(subject, id(tables)): 1 for subject, tables in variants})
    assert source_runs and max(source_runs.values()) == 1


def test_secure_low_needs_no_fallback(comps):
    verdict = check_coherence(comps["embed-low-sec"], CampaignConfig(samples=10_000))
    assert isinstance(verdict, Pass)
    assert verdict.fallback_cases == 0


def test_case_stream_deterministic(comps):
    cfg = CampaignConfig()
    cp = comps["embed-flag"]
    window = gen.state_window(cp.target, cfg)

    def fingerprint():
        out = []
        for case in itertools.islice(_cases(open_cases(cp, cfg, window)), 200):
            entry = (print_term(case.subject), case.target_input)
            tables = tuple(
                (str(v), tuple(sorted(t.entries.items(), key=repr)))
                for v, t in sorted(case.tables.items(), key=lambda kv: str(kv[0]))
            )
            out.append((entry, tables))
        return out

    assert fingerprint() == fingerprint()


def test_closed_stream_smallest_first(comps):
    cfg = CampaignConfig()
    cp = comps["embed-flag"]
    window = gen.state_window(cp.target, cfg)
    first = next(closed_cases(cp, cfg, window))
    assert first.subject == skip()


def test_generated_size_one_terms(langs, cfg):
    got = list(gen.closed_terms(langs["while"], replace(cfg, max_term_size=1)))
    assert skip() in got
    locs = {t.payload[0] for t in got if t.tag == "assign"}
    assert locs == {0, 1}


def test_preservation_section3(comps):
    cfg = CampaignConfig()
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    entries = check_preservation(comps["embed-flag"], cfg, pairs=[(a, b)])
    violations = [e for e in entries if e.violated]
    assert len(violations) == 1
    violation = violations[0]
    assert isinstance(violation.source, Equivalent)
    assert isinstance(violation.target, Distinguished)
    assert violation.target.path == (Store.of({0: 1}),)
    assert {violation.target.left.label, violation.target.right.label} == {1, 2}

    preserved = check_preservation(comps["sandbox"], cfg, pairs=[(a, b)])
    assert not any(e.violated for e in preserved)
    assert isinstance(preserved[0].target, Equivalent)

    trivial = check_preservation(comps["embed-flag"], cfg, pairs=[(a, a)])
    assert not any(e.violated for e in trivial)


def test_context_closure_closed_pair(langs):
    cfg = CampaignConfig(samples=150)
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    report = check_context_closure(langs["while"], a, b, cfg)
    assert report.status == "closed"
    assert report.contexts_checked == 150
    assert not report.violations


def test_context_closure_trivial_pair(langs):
    report = check_context_closure(langs["while"], skip(), skip(), CampaignConfig(samples=40))
    assert report.status == "closed"


def _seq_peeking_while(langs):
    """A throwaway ``while`` whose seq rule is not natural: it sets cell 1
    when its left subject is a loop with a binary guard."""
    base = langs["while"]

    def rule(tag, payload, children, s):
        out = base.rule(tag, payload, children, s)
        if tag == "seq":
            left = children[0][0]
            if left.tag == "while" and isinstance(left.payload[0], Bin):
                return StepOutcome(out.state.set(1, 1), out.label, out.cont, out.flags)
        return out

    return LangDef("while", base.constructors, base.state_kind, base.has_label, rule, base.L)


def test_context_closure_shares_proved_pairs_without_changing_the_report(langs):
    # the report must be the one of checking every context on its own; at
    # depth 3 some violations need the last level of depth
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    peeking = _seq_peeking_while(langs)
    for lang, depth, status, count in ((peeking, 20, "violation", 162),
                                       (peeking, 3, "violation", 141),
                                       (langs["while"], 20, "closed", 0)):
        cfg = CampaignConfig(samples=400, depth=depth)
        window = gen.state_window(lang, cfg)
        contexts = gen.sample_contexts(lang, cfg)
        report = check_context_closure(lang, a, b, cfg)
        alone = [(ctx, check_bisim(lang, plug(ctx, a), plug(ctx, b), window, cfg.depth))
                 for ctx in contexts]
        assert report.status == status
        assert report.base == check_bisim(lang, a, b, window, cfg.depth)
        assert report.contexts_checked == len(contexts) == 400
        assert len(report.violations) == count
        # the same contexts, each with the same path, reason and outcomes
        assert report.violations == [(ctx, v) for ctx, v in alone
                                     if isinstance(v, Distinguished)]


def test_context_closure_steps_each_layer_once_across_its_contexts(langs):
    # the base pair and every context step through one memo: the rule sees
    # each (layer, state) once in the whole check, and the verdicts are the
    # ones fresh calls give
    from tests.test_semantics import counting_rule

    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    cfg = CampaignConfig(samples=200, depth=3)
    for base in (_seq_peeking_while(langs), langs["while"]):
        lang, applied = counting_rule(base)
        window = gen.state_window(base, cfg)
        contexts = gen.sample_contexts(base, cfg)
        report = check_context_closure(lang, a, b, cfg)
        assert applied and max(applied.values()) == 1
        fresh = [(ctx, check_bisim(base, plug(ctx, a), plug(ctx, b), window, cfg.depth))
                 for ctx in contexts]
        assert report.base == check_bisim(base, a, b, window, cfg.depth)
        assert report.violations == [(ctx, v) for ctx, v in fresh
                                     if isinstance(v, Distinguished)]
    assert report.status == "closed"


def test_campaigns_leave_the_languages_as_they_were(langs, comps):
    # no campaign keeps anything on a language: the registries are shared
    # by every test of a session
    def snapshot():
        owned = list(langs.values()) + [l for cp in comps.values()
                                        for l in (cp.source, cp.target)]
        return [repr(vars(lang)) for lang in owned]

    before = snapshot()
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    check_context_closure(langs["while"], a, b, CampaignConfig(samples=30, seed=11))
    check_preservation(comps["embed-int"], CampaignConfig(samples=20, seed=11))
    run(langs["while-flag"], seq(a, assign(1, Lit(3))), Store.of({0: 3, 1: 2}), 50)
    check_coherence(comps["unsandbox"], CampaignConfig(mode="closed", samples=60, seed=11))
    assert snapshot() == before


def _collected_memo_parts(action) -> list:
    """The memo entries and ``memo_entry`` partials that the cycle
    collector, rather than reference counting, would free after ``action``."""
    debug = gc.get_debug()
    try:
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        action()
        gc.collect()
        gc.set_debug(debug)
        return [o for o in gc.garbage
                if isinstance(o, semantics._Entry)
                or isinstance(getattr(o, "__self__", None), semantics._Entry)
                or isinstance(o, partial) and o.func is memo_entry]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def test_owned_memos_are_not_left_to_the_cycle_collector(langs, tmp_path):
    # a memo entry refers to its children's entries, never to the memo, so
    # every command's memos go when it returns, and no owner clears them
    a, b = "(while (var 0) (assign 0 (lit 0)))", "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"left": a, "right": b}]))
    commands = [
        ["run", "--lang", "while", "--term", f"(seq {a} (assign 1 (lit 3)))",
         "--input", "{0: 3}"],
        ["ctx-closure", "--lang", "while", "--left", a, "--right", b, "--samples", "30"],
        ["preserve", "--compiler", "embed-int", "--samples", "20"],
        ["preserve", "--compiler", "sandbox", "--pairs", str(pairs)],
        ["bisim", "--lang", "while", "--left", a, "--right", b],
        # both campaigns have cases that need the fallback bisimulation
        ["coherence", "--compiler", "sandbox", "--mode", "closed"],
        ["coherence", "--compiler", "sandbox", "--mode", "open"],
    ]
    reports = []
    for argv in commands:
        assert _collected_memo_parts(lambda: reports.append(execute(argv)[1])) == [], argv
    assert all(r.tallies["fallback_cases"] > 0 for r in reports[-2:])

    def leaky():
        memo: dict = {}
        memo_entry(langs["while"].rule, {}, memo, seq(skip(), skip()))[Store.of({})]
        memo[None] = memo  # a memo that refers to itself is left to the collector

    assert _collected_memo_parts(leaky)


# sha256 of the 1000 contexts check_context_closure samples at seed 0xC0FFEE,
# each printed plugged with ?h, one a line
CONTEXT_DIGESTS = {
    "while": "31e06cf1de1f8332417dfb29a6bb596e10eedbad3fed90c5d9ceaffeb7fc5d98",
    "low-sec": "86914ff4033c1c29bdfa018ffc672522e0c5309dc2a1e34ab76d991e172f83f9",
}


@pytest.mark.parametrize("name", sorted(CONTEXT_DIGESTS))
def test_sampled_contexts_are_the_recorded_ones(langs, name):
    cfg = CampaignConfig(seed=0xC0FFEE)
    contexts = gen.sample_contexts(langs[name], cfg)
    text = "\n".join(print_term(plug(ctx, Var("h"))) for ctx in contexts)
    assert hashlib.sha256(text.encode()).hexdigest() == CONTEXT_DIGESTS[name]


# sha256 of the closed terms gen.closed_terms yields, printed one a line, at
# the default config and with the budgets max_term_size=4, exprs_per_slot=2
CLOSED_TERM_DIGESTS = {
    ("while", "default"): "a23157fa84b01f576eb8f8d07dba1c61ce61a4ff1723cda4ef1b235f855ae903",
    ("while-b", "default"): "b66889cda667f52e1b5a38a3dcee4cefe892e7f60abfcdbdcfba02d8d18a5494",
    ("low-sec", "default"): "944ec7121cc56bfdd61931b58e0dcac92868fa2e2a506f28bf9ab2fd63b8c8f5",
    ("while", "small"): "1a5a7b18ddae3ef86c81b31bc0bb8fc46c261f3bb8eed27833615a86885ccf19",
    ("while-b", "small"): "a69926c90502dc83d680821fd4e635877ebbe2dafe5c742e21f9e88e0fa1c21c",
    ("low-sec", "small"): "2c5ce2c17911820dc05b6543c021d8721e9736897de774091491d0063eb8b171",
}


@pytest.mark.parametrize("name,budget", sorted(CLOSED_TERM_DIGESTS))
def test_closed_terms_are_the_recorded_ones(langs, name, budget):
    cfg = CampaignConfig()
    if budget == "small":
        cfg = replace(cfg, max_term_size=4, exprs_per_slot=2)
    text = "\n".join(print_term(t) for t in gen.closed_terms(langs[name], cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == CLOSED_TERM_DIGESTS[name, budget]


# sha256 of the first 300 expressions gen.expr_stream yields at the default
# config, printed one a line: the stream every campaign's expr payloads
# come from
EXPR_STREAM_DIGESTS = {
    "nat": "90a8b3c7b5affd708d32e083fe541fbbe7473da2b82e2176091aa5402a79f04e",
    "int": "85d9678fc25d0511f2c863706907d641300aa966528f11c1e744d5e8b6ad8f4b",
}


@pytest.mark.parametrize("mode", sorted(EXPR_STREAM_DIGESTS))
def test_expr_stream_is_the_recorded_one(mode):
    stream = gen.expr_stream(CampaignConfig(), int_mode=mode == "int")
    text = "\n".join(print_expr(e) for e in itertools.islice(stream, 300))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPR_STREAM_DIGESTS[mode]


def test_closed_low_cases_cross_out_of_range_pcs(comps):
    cfg = CampaignConfig()
    cp = comps["flatten-low"]
    window = gen.state_window(cp.target, cfg)
    from gsoscheck.terms import instr_flatten

    import itertools as it

    by_term = {}
    for group in it.islice(closed_cases(cp, cfg, window), 30):
        by_term[print_term(group.subject)] = {i2.pc for i2 in group.states}
    assert by_term
    for key, pcs in by_term.items():
        term = __import__("gsoscheck.terms", fromlist=["parse_term"]).parse_term(key)
        length = len(instr_flatten(compile_term(cp, term)))
        assert pcs == set(range(-1, length + 2)), key


@pytest.mark.parametrize("name", ["flatten-low", "embed-low-sec"])
def test_closed_pc_states_are_built_once_per_compiled_length(monkeypatch, name):
    # a pc target's groups share their states and images by compiled length,
    # so a closed campaign builds the pc states once per distinct length among
    # the terms it draws, not once per term.  flatten-low fails within its
    # first term; embed-low-sec passes and draws hundreds
    built, groups = [], []
    real_states, real_stream = gen.pc_states, checker.closed_cases

    def pc_states(cfg, stores, length=None):
        if length is not None:  # the window itself has no length
            built.append(length)
        return real_states(cfg, stores, length)

    def closed_cases(*args):
        for group in real_stream(*args):
            groups.append(group)
            yield group

    monkeypatch.setattr(gen, "pc_states", pc_states)
    monkeypatch.setattr(checker, "closed_cases", closed_cases)
    execute(["coherence", "--compiler", name, "--mode", "closed", "--samples", "20000"])
    # a group's pcs run from -1 to one past its compiled length
    lengths = [max(i2.pc for i2 in group.states) - 1 for group in groups]
    assert built == list(dict.fromkeys(lengths))
    if name == "embed-low-sec":
        assert len(groups) > 100 > len(built)


def test_context_closure_base_distinguished(langs):
    cfg = CampaignConfig(samples=10)
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    report = check_context_closure(langs["while-flag"], a, b, cfg)
    assert report.status == "base-distinguished"


def test_context_closure_samples_no_context_for_a_distinguished_base(langs, monkeypatch):
    # the report of a distinguished base pair reads no context, so none is drawn
    def sample_contexts(*args):
        raise AssertionError("contexts sampled for a distinguished base pair")

    monkeypatch.setattr(gen, "sample_contexts", sample_contexts)
    lang, cfg = langs["while"], CampaignConfig()
    report = check_context_closure(lang, skip(), assign(0, Lit(1)), cfg)
    assert report.status == "base-distinguished" and report.contexts_checked == 0
    assert report.base == check_bisim(lang, skip(), assign(0, Lit(1)),
                                      gen.state_window(lang, cfg), cfg.depth)
    assert report.violations == []


def test_context_closure_explicit_flag_context(langs):
    # precondition violated for the flag pair, but the explicit section-3
    # context distinguishes the plugged terms outright
    cfg = CampaignConfig()
    lang = langs["while-flag"]
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    w = while_(Bin("sub", Loc(1), Lit(1)), skip())
    ctx = (OneHoleLayer("seq", (), 0, (w,)), OneHoleLayer("obs", (1,), 0, ()))
    window = gen.store_window(cfg, int_mode=False)
    verdict = check_bisim(lang, plug(ctx, a), plug(ctx, b), window, cfg.depth)
    assert isinstance(verdict, Distinguished)


def test_frame_windows_take_the_languages_frame_length():
    # the registries and the windows each take a frame length; a frame
    # machine checked with windows built for another length is refused
    cp = compiler_registry(L=1)["embed-stack-clear"]
    for run_check in (check_coherence, check_preservation):
        with pytest.raises(ValueError, match="frames of length 1, the windows 2"):
            run_check(cp, CampaignConfig(samples=10))
    for lang in language_registry(3).values():
        if lang.state_kind in ("sp", "frames"):
            for run_check in (gen.state_window, run_law_suite):
                with pytest.raises(ValueError, match=f"{lang.name} has frames of length 3"):
                    run_check(lang, CampaignConfig())
            assert gen.state_window(lang, CampaignConfig(L=3))
        else:  # no other state has frames
            assert gen.state_window(lang, CampaignConfig())


def test_stack_campaign_flags_totalizations(comps):
    verdict = check_coherence(comps["embed-stack-clear"], CampaignConfig(samples=10_000))
    assert isinstance(verdict, Pass)
    assert verdict.illformed > 0  # var access with no live frame is skipped


def test_passing_compilers_preserve_bisimilarity(comps):
    # coherent pairs must carry bisimilar source pairs to bisimilar targets
    cfg = CampaignConfig()
    small = replace(cfg, max_term_size=4, exprs_per_slot=2)
    for name in ("sandbox", "sandbox-int", "embed-low-sec", "embed-stack-clear"):
        cp = comps[name]
        terms = list(itertools.islice(gen.closed_terms(cp.source, small), 20))
        pairs = [(a, b) for a, b in itertools.combinations(terms, 2)]
        entries = check_preservation(cp, cfg, pairs)
        eq_pairs = sum(1 for e in entries if isinstance(e.source, Equivalent))
        assert eq_pairs > 0, name
        assert not any(e.violated for e in entries), name
        # a target is checked only for a pair the source finds equivalent
        assert all(isinstance(e.source, Equivalent) for e in entries
                   if e.target is not None or e.target_illformed), name


def test_context_closure_other_languages(langs):
    cfg = CampaignConfig(samples=150)
    pairs = {
        "while-b": (while_(Loc(0), assign(0, Lit(0))),
                    while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))),
        "while-int": (assign(0, Bin("add", Loc(0), Lit(0))),
                      assign(0, Bin("sub", Loc(0), Lit(0)))),
        "while-flag": (assign(0, Bin("add", Loc(1), Lit(0))),
                       assign(0, Bin("add", Lit(0), Loc(1)))),
    }
    for name, (a, b) in pairs.items():
        rep = check_context_closure(langs[name], a, b, cfg)
        assert isinstance(rep.base, Equivalent), name
        assert rep.status == "closed", name


def test_campaign_config_has_only_fields_a_campaign_reads():
    names = {f.name for f in fields(CampaignConfig)}
    assert not names & {"threads", "max_expr_depth", "fuel"}
    assert CampaignConfig().echo() == {name: getattr(CampaignConfig(), name) for name in names}

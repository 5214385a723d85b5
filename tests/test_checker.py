"""Campaign behavior: the verdict table, witness soundness, stream
determinism, preservation and context closure."""
import itertools
from collections import Counter
from dataclasses import fields, replace

import pytest

from gsoscheck.checker import (
    CampaignConfig, CoherenceCase, Fail, Pass, check_coherence,
    check_context_closure, check_preservation, closed_cases,
    evaluate_closed_case, evaluate_open_case, open_cases,
)
from gsoscheck.languages import LangDef
from gsoscheck.semantics import (
    Distinguished, Equivalent, IncompleteTable, StepOutcome, check_bisim,
)
from gsoscheck.states import LowState, StackState, Store
from gsoscheck.terms import (
    Bin, IllFormed, Lit, Loc, assign, print_term, sandbox, seq, skip, while_,
)
from gsoscheck.spf import OneHoleLayer, plug
from gsoscheck import checker, gen

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
    cfg = CampaignConfig()
    cp = comps["embed-flag"]
    window = gen.state_window(cp.target, cfg)
    first = check_coherence(cp, cfg)
    again = check_coherence(cp, cfg)
    assert isinstance(first, Fail) and isinstance(again, Fail)
    assert first.case.subject == again.case.subject
    assert first.case.target_input == again.case.target_input
    assert first.divergence.describe() == again.divergence.describe()
    # and the single witness case reproduces its divergence directly
    div, _, _ = evaluate_open_case(cp, first.case, window, cfg)
    assert div is not None
    assert div.describe() == first.divergence.describe()


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
    cfg = CampaignConfig(mode="closed")
    window = gen.state_window(cp.target, cfg)
    case = CoherenceCase(while_(Lit(0), assign(0, Lit(0))), LowState(Store.of({0: 3}), 1))
    div, _, _ = evaluate_closed_case(cp, case, window, cfg)
    assert div is not None
    assert div.upper.cont is None
    assert div.upper.state == LowState(Store.of({0: 3}), 1)
    assert div.lower.cont is not None
    assert div.lower.state == LowState(Store.of({}), 2)


def test_pinned_int_case(comps):
    cp = comps["embed-int"]
    cfg = CampaignConfig()
    window = gen.state_window(cp.target, cfg)
    case = CoherenceCase(assign(0, Bin("min", Loc(0), Lit(0))), Store.of({0: -1}))
    div, _, _ = evaluate_open_case(cp, case, window, cfg)
    assert div is not None and div.field_name == "state"
    assert div.upper.state == Store.of({})
    assert div.lower.state == Store.of({0: -1})


def test_pinned_stack_case(comps):
    cp = comps["embed-stack"]
    cfg = CampaignConfig()
    window = gen.state_window(cp.target, cfg)
    case = CoherenceCase(
        __import__("gsoscheck.terms", fromlist=["frame"]).frame(),
        StackState(Store.of({0: 1}), 0))
    div, _, _ = evaluate_open_case(cp, case, window, cfg)
    assert div is not None and div.field_name == "state"
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
    for case in itertools.islice(open_cases(cp, cfg, window), cfg.samples):
        calls.clear()
        evaluate_open_case(cp, case, window, cfg)  # no memo: nothing shared
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


def _per_case_campaign(cp, cfg):
    """The campaign as a loop over the case stream, each case evaluated on
    its own with no memo: the reference for the grouped evaluation."""
    window = gen.state_window(cp.target, cfg)
    stream = open_cases(cp, cfg, window)
    cases = inconclusive = illformed = fallback = 0
    flags = frozenset()
    for case in itertools.islice(stream, cfg.samples):
        cases += 1
        try:
            div, fb, case_flags = evaluate_open_case(cp, case, window, cfg)
        except IllFormed:
            illformed += 1
            continue
        except IncompleteTable:
            inconclusive += 1
            continue
        flags |= case_flags
        fallback += fb
        if div is not None:
            return Fail(case, div, cases - 1, flags)
    return Pass(cases, next(stream, None) is None, inconclusive, illformed, fallback, flags)


OPEN_CHECKABLE = ("embed-flag", "sandbox", "unsandbox", "embed-int", "sandbox-int",
                  "embed-low-sec", "embed-stack", "embed-stack-clear")


@pytest.mark.parametrize("seed", [CampaignConfig.seed, CampaignConfig.seed + 7])
@pytest.mark.parametrize("name", OPEN_CHECKABLE)
def test_group_evaluation_equals_per_case_evaluation(comps, name, seed):
    # every budget reaches the verdict of the shipped campaign, except
    # sandbox-int's: un-memoised, its fallback cases take seconds
    cp = comps[name]
    assert cp.open_checkable
    cfg = CampaignConfig(samples=500 if name == "sandbox-int" else 6000, seed=seed)
    grouped, alone = check_coherence(cp, cfg), _per_case_campaign(cp, cfg)
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


def test_each_group_compiles_its_layer_once_and_runs_the_source_once_per_state(
        comps, monkeypatch):
    # within one (layer, tables) group only the target input changes, so the
    # layer is compiled once and the source law runs once per preimage state
    cp, cfg = comps["embed-stack-clear"], CampaignConfig()
    variants = []  # every group's tables, kept alive so that ids stay apart
    layer_compiles, source_runs = Counter(), Counter()
    real_evaluate, real_compile, real_law = (
        checker.evaluate_open_case, checker.compile_open, checker.extend_law)

    def evaluating(cp_, case, *rest, **kwargs):
        if not variants or variants[-1][1] is not case.tables:
            variants.append((case.subject, case.tables))
        return real_evaluate(cp_, case, *rest, **kwargs)

    def compiling(cp_, t):
        subject, tables = variants[-1]
        if t is subject:
            layer_compiles[t, id(tables)] += 1
        return real_compile(cp_, t)

    def extending(lang, term, behaviors, state):
        if lang is cp.source:
            source_runs[term, id(behaviors), state] += 1
        return real_law(lang, term, behaviors, state)

    monkeypatch.setattr(checker, "evaluate_open_case", evaluating)
    monkeypatch.setattr(checker, "compile_open", compiling)
    monkeypatch.setattr(checker, "extend_law", extending)
    verdict = check_coherence(cp, cfg)
    assert isinstance(verdict, Pass) and verdict.cases == cfg.samples
    assert len(variants) > 1
    assert layer_compiles == Counter({(subject, id(tables)): 1 for subject, tables in variants})
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
        for case in itertools.islice(open_cases(cp, cfg, window), 200):
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
    stream = closed_cases(cp, cfg, window)
    first = next(stream)
    assert first.subject == skip()


def test_generated_size_one_terms(langs, cfg):
    got = list(gen.closed_terms(langs["while"], cfg, 1))
    assert skip() in got
    locs = {t.payload[0] for t in got if t.tag == "assign"}
    assert locs == {0, 1}


def test_preservation_section3(comps):
    cfg = CampaignConfig()
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    report = check_preservation(comps["embed-flag"], cfg, pairs=[(a, b)])
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert isinstance(violation.source, Equivalent)
    assert isinstance(violation.target, Distinguished)
    assert violation.target.path == (Store.of({0: 1}),)
    assert {violation.target.left.label, violation.target.right.label} == {1, 2}

    preserved = check_preservation(comps["sandbox"], cfg, pairs=[(a, b)])
    assert not preserved.violations
    assert isinstance(preserved.entries[0].target, Equivalent)

    trivial = check_preservation(comps["embed-flag"], cfg, pairs=[(a, a)])
    assert not trivial.violations


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
        contexts = gen.sample_contexts(lang, 3, cfg.samples, cfg.seed, cfg)
        report = check_context_closure(lang, a, b, cfg, contexts)
        alone = [(ctx, check_bisim(lang, plug(ctx, a), plug(ctx, b), window, cfg.depth))
                 for ctx in contexts]
        assert report.status == status
        assert report.base == check_bisim(lang, a, b, window, cfg.depth)
        assert report.contexts_checked == len(contexts) == 400
        assert len(report.violations) == count
        # the same contexts, each with the same path, reason and outcomes
        assert report.violations == [(ctx, v) for ctx, v in alone
                                     if isinstance(v, Distinguished)]


def test_closed_low_cases_cross_out_of_range_pcs(comps):
    cfg = CampaignConfig()
    cp = comps["flatten-low"]
    window = gen.state_window(cp.target, cfg)
    from gsoscheck.terms import instr_flatten
    from gsoscheck.compilers import compile_term

    import itertools as it

    by_term = {}
    last_key = None
    for case in it.islice(closed_cases(cp, cfg, window), 2000):
        last_key = print_term(case.subject)
        by_term.setdefault(last_key, set()).add(case.target_input.pc)
    by_term.pop(last_key, None)  # the final group may be cut by the slice
    assert by_term
    for key, pcs in by_term.items():
        term = __import__("gsoscheck.terms", fromlist=["parse_term"]).parse_term(key)
        length = len(instr_flatten(compile_term(cp, term)))
        assert pcs == set(range(-1, length + 2)), key


def test_context_closure_base_distinguished(langs):
    cfg = CampaignConfig(samples=10)
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    report = check_context_closure(langs["while-flag"], a, b, cfg)
    assert report.status == "base-distinguished"


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


def test_stack_campaign_flags_totalizations(comps):
    verdict = check_coherence(comps["embed-stack-clear"], CampaignConfig(samples=10_000))
    assert isinstance(verdict, Pass)
    assert verdict.illformed > 0  # var access with no live frame is skipped


def test_passing_compilers_preserve_bisimilarity(comps):
    # coherent pairs must carry bisimilar source pairs to bisimilar targets
    cfg = CampaignConfig()
    for name in ("sandbox", "sandbox-int", "embed-low-sec", "embed-stack-clear"):
        cp = comps[name]
        terms = list(itertools.islice(gen.closed_terms(cp.source, cfg, 4, expr_cap=2), 20))
        pairs = [(a, b) for a, b in itertools.combinations(terms, 2)]
        rep = check_preservation(cp, cfg, pairs)
        eq_pairs = sum(1 for e in rep.entries if isinstance(e.source, Equivalent))
        assert eq_pairs > 0, name
        assert not rep.violations, name


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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets and tolerances are pinned here; the wall-clock limits come with a
small grace factor only where the stated bound is tight for interpreted
execution (none needed so far).
"""
import time

from gsoscheck.checker import (
    CampaignConfig, CoherenceCase, Fail, Pass, check_case, check_coherence,
    check_context_closure, check_preservation,
)
from gsoscheck.cli import EXAMPLE1_COMPILED, EXAMPLE1_SOURCE, execute
from gsoscheck.compilers import compile_term
from gsoscheck.laws import run_law_suite
from gsoscheck.semantics import Distinguished, Equivalent, check_bisim
from gsoscheck.states import LowState, Store
from gsoscheck.terms import Bin, Lit, Loc, assign, show_low, while_
from gsoscheck import gen

from tests.test_spf import functor_counts


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def timed(limit_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            if exc == (None, None, None):
                assert self.elapsed < limit_s, f"took {self.elapsed:.1f}s, limit {limit_s}s"

    return _Timer()


def test_criterion_1_fig3_embed_flag_fails_on_assignment():
    with timed(5) as t:
        code, rep, _ = execute(["demo", "fig3"])
    assert code == 0
    witness = rep.witness["divergence"]
    assert witness["field"] == "label"
    assert witness["upper"]["label"] == 0
    assert witness["lower"]["label"] != 0
    assert rep.witness["case"]["term"].startswith("(assign")
    assert rep.config["samples"] <= 10_000
    report(1, f"fig3 assignment-layer label divergence in {t.elapsed:.2f}s")


def test_criterion_2_fig4_sandbox_passes_exhaustively():
    with timed(10) as t:
        code, rep, _ = execute(["demo", "fig4"])
    assert code == 0
    tallies = rep.witness["tallies"]
    assert tallies["exhausted"] is True
    assert tallies["inconclusive"] == 0
    report(2, f"fig4 sandbox exhaustive pass over {tallies['cases']} cases in {t.elapsed:.2f}s")


def test_criterion_3_fig5_unsandbox_leaks_label():
    with timed(5) as t:
        code, rep, _ = execute(["demo", "fig5"])
    assert code == 0
    assert rep.witness["case"]["term"].startswith("(sandbox")
    div = rep.witness["divergence"]
    assert div["field"] == "label"
    assert div["upper"]["label"] == 0 and div["lower"]["label"] != 0
    report(3, f"fig5 sandboxed-layer label leak in {t.elapsed:.2f}s")


def test_criterion_4_int_mismatch_and_sandbox(comps):
    cfg = CampaignConfig(samples=4000)
    verdict = check_coherence(comps["embed-int"], cfg)
    assert isinstance(verdict, Fail)
    assert any(v < 0 for _, v in verdict.case.target_input.cells)

    pinned = CoherenceCase(assign(0, Bin("min", Loc(0), Lit(0))), Store.of({0: -1}))
    alone = check_case(comps["embed-int"], pinned, cfg)
    assert isinstance(alone, Fail)
    div = alone.divergence
    assert div.field_name == "state"
    assert div.lower.state.get(0) == -1 and div.upper.state.get(0) == 0

    passes = check_coherence(comps["sandbox-int"], CampaignConfig(samples=6000))
    assert isinstance(passes, Pass) and passes.exhausted and passes.inconclusive == 0
    report(4, "embed-int fails with a negative-cell witness (-1 vs 0 pinned); sandbox-int passes")


def test_criterion_5_example1_byte_exact(comps):
    out = compile_term(comps["flatten-low"], EXAMPLE1_SOURCE)
    assert show_low(out) == EXAMPLE1_COMPILED
    code, rep, lines = execute([
        "compile", "--compiler", "flatten-low", "--term",
        "(while (lt (var 0) (lit 2)) (assign 1 (add (var 1) (lit 1))))",
    ])
    assert code == 0 and lines == [EXAMPLE1_COMPILED]
    report(5, "Example 1 compiles byte-exactly under the documented printer")


def test_criterion_6_fig6_pinned_loop_witness(comps):
    code, rep, _ = execute(["demo", "fig6"])
    assert code == 0
    case = CoherenceCase(while_(Lit(0), assign(0, Lit(0))), LowState(Store.of({0: 3}), 1))
    alone = check_case(comps["flatten-low"], case, CampaignConfig(mode="closed"))
    assert isinstance(alone, Fail)
    div = alone.divergence
    assert div.upper.cont is None and div.upper.state.pc == 1
    assert div.upper.state.store == Store.of({0: 3})
    assert div.lower.cont is not None and div.lower.state.pc == 2
    assert div.lower.state.store == Store.of({})
    report(6, "fig6 pinned witness: (s,1) terminated upstairs vs (s[0->0],2) running downstairs")


def test_criterion_7_fig8_low_sec_passes():
    with timed(30) as t:
        code, rep, _ = execute(["demo", "fig8"])
    assert code == 0
    tallies = rep.witness["tallies"]
    assert tallies["exhausted"] is True and tallies["inconclusive"] == 0
    report(7, f"fig8 secure-low pass incl. out-of-range pcs, {tallies['cases']} cases in {t.elapsed:.2f}s")


def test_criterion_8_fig9_fails_fig10_passes(comps):
    code9, rep9, _ = execute(["demo", "fig9"])
    assert code9 == 0
    case = rep9.witness["case"]
    assert case["term"] == "frame"
    assert case["input"].endswith(", 0)")
    code10, rep10, _ = execute(["demo", "fig10"])
    assert code10 == 0
    report(8, "fig9 uncleared-frame state leak at sp 0; fig10 clearing rule passes")


def test_criterion_9_bisim_and_preservation(langs, comps):
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    cfg = CampaignConfig()
    window = gen.store_window(cfg, int_mode=False)
    assert isinstance(check_bisim(langs["while"], a, b, window, 20), Equivalent)
    violations = [e for e in check_preservation(comps["embed-flag"], cfg, pairs=[(a, b)])
                  if e.violated]
    assert len(violations) == 1
    target = violations[0].target
    assert isinstance(target, Distinguished)
    assert target.path == (Store.of({0: 1}),)
    assert {target.left.label, target.right.label} == {1, 2}
    report(9, "a ~ b in the base language; embedding distinguishes at {0:1} with labels 1 vs 2")


def test_criterion_10_sec3_context_split():
    code, rep, _ = execute(["demo", "sec3-context"])
    assert code == 0
    payload = rep.witness["payload"]
    assert payload["plugged_a"]["terminated"] is True
    assert payload["plugged_b"]["terminated"] is False
    report(10, "obs-logging context: one plugged program terminates, the other exhausts fuel 10^4")


def test_criterion_11_context_closure_1000(langs):
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    cfg = CampaignConfig(samples=1000)
    rep = check_context_closure(langs["while"], a, b, cfg)
    assert rep.status == "closed"
    assert rep.contexts_checked >= 1000
    assert not rep.violations
    report(11, f"zero violations over {rep.contexts_checked} contexts at depth {cfg.depth}")


def test_criterion_12_laws_under_60s(langs, cfg):
    with timed(60) as t:
        for lang in langs.values():
            outcome = run_law_suite(lang, cfg)
            assert outcome["unit"] > 0
            assert outcome["copoint"] > 0
            assert outcome["multiplication"] > 0
            assert outcome["plug_roundtrip"] > 0
    report(12, f"all nine law suites (unit/copoint/multiplication + plug round-trip) in {t.elapsed:.2f}s")


def test_criterion_13_derivative_oracle(langs):
    for lang in langs.values():
        for n in (1, 2, 3):
            layers, f_count, splits, df_count = functor_counts(lang, n)
            assert layers == f_count, (lang.name, n)
            assert splits == df_count, (lang.name, n)
    report(13, "derivative position counts match brute force for every syntax functor at |X| <= 3")

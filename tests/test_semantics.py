"""The engine against hand-derived transitions and an independent reference
interpreter, plus bounded bisimilarity."""
import itertools

import pytest

from gsoscheck.languages import LangDef, language_registry
from gsoscheck.semantics import (
    BehaviorTable, Distinguished, Equivalent, IncompleteTable, StepOutcome,
    check_bisim, extend_law, run, step,
)
from gsoscheck.states import FrameState, LowState, Store
from gsoscheck.terms import (
    Bin, IllFormed, Lit, Loc, Node, Var, assign, frame, obs, parse_term,
    sandbox, seq, skip, while_,
)
from gsoscheck import gen
from gsoscheck.cli import EXAMPLE1_SOURCE


# --- an independent small-step reference for the plain store machine ---

def reference_while_step(t: Node, cells: dict):
    """Direct structural walker, written without the law machinery; returns
    (cells', continuation | None)."""
    from tests.test_languages import oracle_eval

    if t.tag == "skip":
        return cells, None
    if t.tag == "assign":
        l, e = t.payload
        out = dict(cells)
        out[l] = oracle_eval(cells, e)
        return out, None
    if t.tag == "seq":
        p, q = t.children
        cells2, cont = reference_while_step(p, cells)
        return cells2, q if cont is None else seq(cont, q)
    if t.tag == "while":
        e = t.payload[0]
        body = t.children[0]
        if oracle_eval(cells, e) != 0:
            return cells, seq(body, while_(e, body))
        return cells, skip()
    raise AssertionError(t.tag)


def test_step_matches_reference_while(langs, cfg):
    lang = langs["while"]
    stores = gen.store_window(cfg, int_mode=False)
    for t in gen.closed_terms(lang, cfg, 4, expr_cap=3):
        for s in stores:
            got = step(lang, t, s)
            cells, cont = reference_while_step(t, dict(s.cells))
            assert got.state == Store.of(cells)
            assert got.cont == cont


def test_apply_law_skip(langs):
    out = langs["while"].rule("skip", (), (), Store.of({0: 2}))
    assert out.state == Store.of({0: 2}) and out.cont is None


def test_apply_law_seq_premise_steps(langs):
    # (p, beta) ; (q, gamma) with beta stepping to p' continues as p' ; q
    beta = BehaviorTable("x", {Store.of({}): (None, Store.of({0: 1}), "x")}, False)
    gamma = BehaviorTable("y", {}, False)
    out = langs["while"].rule(
        "seq", (),
        ((Var("x"), beta), (Var("y"), gamma)),
        Store.of({}),
    )
    assert out.state == Store.of({0: 1})
    assert out.cont == seq(Var("x"), Var("y"))


def test_apply_law_flag_assignment_labels(langs):
    s = Store.of({0: 3})
    out = langs["while-flag"].rule("assign", (1, Loc(0)), (), s)
    assert out.label == 3
    assert out.state == Store.of({0: 3, 1: 3})
    assert out.cont is None


def test_extend_law_unit(langs):
    table = BehaviorTable(
        "x", {Store.of({}): (2, Store.of({1: 1}), "x")}, True)
    out = extend_law(langs["while-flag"], Var("x"), {"x": table}, Store.of({}))
    assert out == StepOutcome(Store.of({1: 1}), 2, Var("x"))


def test_extend_law_double_sandbox_layer(langs):
    # the two-layer sandboxed assignment: inner label erased to 0
    sec = langs["while-sec"]
    t = sandbox(assign(0, Lit(2)))
    out = extend_law(sec, t, {}, Store.of({}))
    assert out.label == 0
    assert out.state == Store.of({0: 2})
    assert out.cont is None


def test_extend_law_incomplete_table(langs):
    table = BehaviorTable("x", {}, False)
    with pytest.raises(IncompleteTable):
        extend_law(langs["while"], Var("x"), {"x": table}, Store.of({}))


def test_step_examples(langs):
    out = step(langs["while"], while_(Loc(0), assign(0, Lit(0))), Store.of({0: 1}))
    assert out.cont == seq(assign(0, Lit(0)), while_(Loc(0), assign(0, Lit(0))))
    low_out = step(langs["low"], parse_term("(instr (nop) (stop))"),
                   LowState(Store.of({}), -1))
    assert low_out.cont is None and low_out.state == LowState(Store.of({}), -1)
    wb_out = step(langs["while-b"], frame(), FrameState())
    assert wb_out.cont is None and wb_out.state == FrameState(((0, 0),))


def test_step_is_deterministic(langs):
    t = while_(Loc(0), assign(0, Lit(0)))
    s = Store.of({0: 2})
    assert step(langs["while"], t, s) == step(langs["while"], t, s)


def test_step_cache_is_per_language():
    # languages built and dropped in turn may reuse each other's object id;
    # each must still step with its own rule
    for i in range(20):
        def rule(tag, payload, children, s, i=i):
            return StepOutcome(s.set(0, i + 1))

        lang = LangDef(f"probe-{i}", [("skip", (), 0)], "store", False, rule)
        assert step(lang, skip(), Store.of({})).state == Store.of({0: i + 1})
        del lang


def test_run_examples(langs, comps):
    r = run(langs["while"], skip(), Store.of({0: 1}), 10)
    assert r.terminated and r.steps == 1 and r.final == Store.of({0: 1})

    # Example 1's source loops forever when var 0 stays below 2
    r = run(langs["while"], EXAMPLE1_SOURCE, Store.of({}), 50)
    assert not r.terminated

    from gsoscheck.compilers import compile_term

    compiled = compile_term(comps["flatten-low"], EXAMPLE1_SOURCE)
    r = run(langs["low"], compiled, LowState(Store.of({0: 5}), 0), 10)
    assert r.terminated and r.final == LowState(Store.of({0: 5}), 3)


def test_check_bisim_reflexive(langs, cfg):
    lang = langs["while"]
    window = gen.store_window(cfg, int_mode=False)
    p = while_(Loc(0), assign(0, Lit(0)))
    assert isinstance(check_bisim(lang, p, p, window, 50), Equivalent)


def test_check_bisim_loop_guard_scaling(langs, cfg):
    # while (var 0) (0:=0)  ~  while (var 0 * 2) (0:=0) over nat stores
    lang = langs["while"]
    window = gen.store_window(cfg, int_mode=False)
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    assert isinstance(check_bisim(lang, a, b, window, 20), Equivalent)


def test_check_bisim_distinguishes_labels(langs, cfg):
    lang = langs["while-flag"]
    window = gen.store_window(cfg, int_mode=False)
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    verdict = check_bisim(lang, a, b, window, 4)
    assert isinstance(verdict, Distinguished)
    assert verdict.reason == "label"
    assert verdict.path == (Store.of({0: 1}),)
    assert {verdict.left.label, verdict.right.label} == {1, 2}


def test_check_bisim_symmetry_and_transitivity_spot(langs, cfg):
    lang = langs["while"]
    window = gen.store_window(cfg, int_mode=False)
    terms = list(itertools.islice(gen.closed_terms(lang, cfg, 3, expr_cap=2), 12))
    for a, b in itertools.combinations(terms[:8], 2):
        ab = check_bisim(lang, a, b, window, 10)
        ba = check_bisim(lang, b, a, window, 10)
        assert isinstance(ab, Equivalent) == isinstance(ba, Equivalent)
    for a, b, c in itertools.combinations(terms[:6], 3):
        ab = check_bisim(lang, a, b, window, 10)
        bc = check_bisim(lang, b, c, window, 10)
        if isinstance(ab, Equivalent) and isinstance(bc, Equivalent):
            assert isinstance(check_bisim(lang, a, c, window, 10), Equivalent)


def test_closed_extension_agrees_with_step(cfg):
    # the inductive extension restricted to closed terms is the one-step
    # operational model: the cached step, which shares entries between terms
    # and their subterms, against extend_law on a language whose cache stays
    # empty, in every language; both raise IllFormed on the same pairs
    cached, fresh = language_registry(), language_registry()
    for name, lang in cached.items():
        reference = fresh[name]
        window = gen.state_window(lang, cfg)
        illformed = 0
        for t in itertools.islice(gen.closed_terms(lang, cfg, 4, expr_cap=2), 120):
            for s in window:
                try:
                    want = extend_law(reference, t, {}, s)
                except IllFormed:
                    with pytest.raises(IllFormed):
                        step(lang, t, s)
                    illformed += 1
                    continue
                assert step(lang, t, s) == want, (name, t, s)
        assert not reference.steps
        if name in ("stack", "stack-clear"):
            assert illformed  # frame reads at sp = 0


def test_section3_context_split(langs):
    # plugging the two flag programs into (obs 1 _) ; while (var 1 - 1) skip
    # from store {0:1}: one terminates, the other diverges
    lang = langs["while-flag"]
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    w = while_(Bin("sub", Loc(1), Lit(1)), skip())
    store = Store.of({0: 1})
    ra = run(lang, seq(obs(1, a), w), store, 10_000)
    rb = run(lang, seq(obs(1, b), w), store, 10_000)
    assert ra.terminated
    assert not rb.terminated


def test_step_caches_closed_subterms():
    lang = language_registry()["while"]
    p, q = assign(0, Lit(1)), while_(Loc(0), skip())
    s = Store.of({})
    step(lang, seq(p, q), s)
    assert (p, s) in lang.steps
    assert lang.steps[p, s] == step(lang, p, s)
    with pytest.raises(IllFormed):
        step(lang, seq(Var("x"), q), s)


def _branching_language():
    """``top`` steps to its child after one step from a store whose cell 0 is
    nonzero, and after five (through ``wait`` 3) from the others; ``wait n``
    idles n + 1 steps before its child, and ``skip`` terminates."""
    def rule(tag, payload, children, s):
        match tag:
            case "skip":
                return StepOutcome(s)
            case "wait":
                (n,) = payload
                (x, _) = children[0]
                return StepOutcome(s, cont=Node("wait", (x,), (n - 1,)) if n else x)
            case "top":
                (x, _) = children[0]
                return StepOutcome(s, cont=x if s.get(0) else Node("wait", (x,), (3,)))
        raise IllFormed(tag)

    cons = [("skip", (), 0), ("wait", ("nat",), 1), ("top", (), 1)]
    return LangDef("branching", cons, "store", False, rule)


def test_check_bisim_reexplores_a_pair_met_with_more_depth_left():
    # wait 2 skip terminates on its 4th step and wait 3 skip on its 5th.  The
    # pair is first met down the long branch with 2 steps left, too few to
    # tell it apart, then down the short branch with 5 left: it must be
    # explored again there, not pruned as seen
    lang = _branching_language()
    x, y = Node("wait", (skip(),), (2,)), Node("wait", (skip(),), (3,))
    inputs = [Store.of({}), Store.of({0: 1})]
    verdict = check_bisim(lang, Node("top", (x,)), Node("top", (y,)), inputs, 6)
    assert isinstance(verdict, Distinguished)
    assert verdict.reason == "termination"
    assert verdict.path == (Store.of({0: 1}),) + (Store.of({}),) * 4
    assert isinstance(check_bisim(lang, x, y, inputs, 3), Equivalent)

"""The engine against hand-derived transitions and an independent reference
interpreter, plus bounded bisimilarity."""
import itertools
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from gsoscheck import checker, semantics
from gsoscheck.checker import CampaignConfig, Pass, check_coherence
from gsoscheck.languages import LangDef
from gsoscheck.semantics import (
    BehaviorTable, Distinguished, Equivalent, IncompleteTable, StepOutcome,
    check_bisim, extend_law, first_difference, memo_entry, run, step,
)
from gsoscheck.states import FrameState, LowState, StackState, Store
from gsoscheck.terms import (
    Bin, IllFormed, Lit, Loc, Node, Var, assign, frame, obs, parse_term,
    sandbox, seq, skip, while_,
)
from gsoscheck import gen
from gsoscheck.cli import EXAMPLE1_SOURCE, execute
from gsoscheck.spf import plug


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
    for t in gen.closed_terms(lang, replace(cfg, max_term_size=4, exprs_per_slot=3)):
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
    beta = BehaviorTable("x", {Store.of({}): (None, Store.of({0: 1}), "x")})
    gamma = BehaviorTable("y", {})
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
    table = BehaviorTable("x", {Store.of({}): (2, Store.of({1: 1}), "x")})
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
    table = BehaviorTable("x", {})
    with pytest.raises(IncompleteTable):
        extend_law(langs["while"], Var("x"), {"x": table}, Store.of({}))


def test_step_examples(langs):
    out = step(langs["while"], while_(Loc(0), assign(0, Lit(0))), Store.of({0: 1}))
    assert out.cont == seq(assign(0, Lit(0)), while_(Loc(0), assign(0, Lit(0))))
    low_out = step(langs["low"], parse_term("(instr (nop) (stop))"),
                   LowState(Store.of({}), -1))
    assert low_out.cont is None and low_out.state == LowState(Store.of({}), -1)
    wb_out = step(langs["while-b"], frame(), FrameState(()))
    assert wb_out.cont is None and wb_out.state == FrameState(((0, 0),))
    with pytest.raises(IllFormed):
        step(langs["while"], seq(Var("x"), skip()), Store.of({}))


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
    small = replace(cfg, max_term_size=3, exprs_per_slot=2)
    terms = list(itertools.islice(gen.closed_terms(lang, small), 12))
    for a, b in itertools.combinations(terms[:8], 2):
        ab = check_bisim(lang, a, b, window, 10)
        ba = check_bisim(lang, b, a, window, 10)
        assert isinstance(ab, Equivalent) == isinstance(ba, Equivalent)
    for a, b, c in itertools.combinations(terms[:6], 3):
        ab = check_bisim(lang, a, b, window, 10)
        bc = check_bisim(lang, b, c, window, 10)
        if isinstance(ab, Equivalent) and isinstance(bc, Equivalent):
            assert isinstance(check_bisim(lang, a, c, window, 10), Equivalent)


def test_closed_extension_agrees_with_step(langs, cfg):
    # the inductive extension restricted to closed terms is the one-step
    # operational model: step, and memo entries in one memo per language,
    # which shares entries between terms and their subterms, against
    # extend_law in every language; all raise IllFormed on the same pairs
    small = replace(cfg, max_term_size=4, exprs_per_slot=2)
    for name, lang in langs.items():
        memo: dict = {}
        window = gen.state_window(lang, cfg)
        illformed = 0
        for t in itertools.islice(gen.closed_terms(lang, small), 120):
            for s in window:
                try:
                    want = extend_law(lang, t, {}, s)
                except IllFormed:
                    with pytest.raises(IllFormed):
                        step(lang, t, s)
                    with pytest.raises(IllFormed):
                        memo_entry(lang.rule, {}, memo, t)[s]
                    illformed += 1
                    continue
                assert step(lang, t, s) == want, (name, t, s)
                assert memo_entry(lang.rule, {}, memo, t)[s] == want, (name, t, s)
        if name in ("stack", "stack-clear"):
            assert illformed  # frame reads at sp = 0


def test_memo_entry_hands_the_rule_one_children_tuple_per_term(langs, cfg):
    # within one memo the rule is handed the same (child, extension) tuple
    # for a term at every state; every tuple is kept, so no id is reused
    base = langs["while"]
    handed: dict = {}

    def rule(tag, payload, children, s):
        handed.setdefault(Node(tag, tuple(x for x, _ in children), payload), []).append(children)
        return base.rule(tag, payload, children, s)

    p = while_(Loc(0), assign(0, Lit(0)))
    q = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    window = gen.state_window(base, cfg)
    memo: dict = {}
    verdict = check_bisim(replace(base, rule=rule), seq(p, skip()), seq(q, skip()),
                          window, cfg.depth, memo=memo)
    for s in window:
        memo_entry(rule, {}, memo, seq(p, q))[s]
    assert isinstance(verdict, Equivalent)
    assert max(map(len, handed.values())) == len(window)
    for term, tuples in handed.items():
        assert all(t is tuples[0] for t in tuples), term


def test_a_missing_table_raises_at_every_query_of_a_shared_memo(langs):
    # a term's entry, and its children's, outlive a step that raises; the
    # variable without a table raises again, and the rest of the memo answers
    lang = langs["while"]
    x = BehaviorTable("x", {Store.of({}): (None, Store.of({0: 1}), "x")})
    behaviors, memo = {"x": x}, {}
    s = Store.of({})
    for _ in range(2):
        for t in (seq(Var("y"), skip()), Var("y")):
            with pytest.raises(IncompleteTable, match="no table for 'y'"):
                memo_entry(lang.rule, behaviors, memo, t)[s]
    for t in (seq(Var("x"), Var("y")), seq(skip(), Var("y")), skip()):
        assert memo_entry(lang.rule, behaviors, memo, t)[s] == extend_law(lang, t, behaviors, s)


def test_an_illformed_step_is_not_remembered_in_a_shared_memo(langs):
    # a frame read at sp = 0 raises each time it is queried; the same term
    # and memo answer at sp = 1
    lang = langs["stack"]
    t = seq(while_(Loc(0), assign(1, Loc(0))), skip())
    memo: dict = {}
    empty = StackState(Store.of({0: 1}), 0)
    for _ in range(2):
        with pytest.raises(IllFormed, match="sp = 0"):
            memo_entry(lang.rule, {}, memo, t)[empty]
    live = StackState(Store.of({0: 1}), 1)
    assert memo_entry(lang.rule, {}, memo, t)[live] == extend_law(lang, t, {}, live)


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


def test_step_outcome_is_immutable_with_the_dataclass_repr():
    o = StepOutcome(Store.of({0: 1}), cont=skip())
    for name in ("state", "label", "cont", "flags", "extra"):
        with pytest.raises(AttributeError):
            setattr(o, name, None)
    with pytest.raises(AttributeError):
        del o.cont
    assert o == StepOutcome(Store.of({0: 1}), None, skip(), frozenset())
    assert repr(StepOutcome(Store.of({}), 2)) == (
        "StepOutcome(state=Store(cells=()), label=2, cont=None, flags=frozenset())")


# --- check_bisim with behaviors extends each (term, state) once per call ---

def fresh_bisim(lang, p, q, inputs, depth, behaviors):
    """``check_bisim``'s exploration with every outcome taken from a fresh
    ``extend_law`` call: nothing is memoised."""
    seen: dict = {}

    def compare(a, b, d, path):
        if a == b or d <= 0 or seen.get((a, b), 0) >= d:
            return None
        seen[a, b] = d
        pending = []
        for s in inputs:
            oa, ob = extend_law(lang, a, behaviors, s), extend_law(lang, b, behaviors, s)
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

    return compare(p, q, depth, ()) or Equivalent(depth, len(inputs))


def counting_rule(lang):
    """``lang`` with its rule counting the (layer, state) pairs it is
    applied to, the layer rebuilt from the subjects it is handed."""
    applied = Counter()

    def rule(tag, payload, children, s):
        applied[Node(tag, tuple(x for x, _ in children), payload), s] += 1
        return lang.rule(tag, payload, children, s)

    return replace(lang, rule=rule), applied


@pytest.fixture(scope="module")
def fallback_calls(comps):
    """(language, p, q, inputs, depth, behaviors) of every fallback
    bisimulation of the benchmark's sandbox-int and sandbox campaigns at
    seed 0."""
    calls = []
    real = checker.check_bisim

    def recording(lang, p, q, inputs, depth, behaviors=None, proved=None, memo=None):
        calls.append((lang, p, q, list(inputs), depth, behaviors))
        return real(lang, p, q, inputs, depth, behaviors, proved, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "check_bisim", recording)
        for name, samples in (("sandbox-int", 6000), ("sandbox", 2000)):
            verdict = check_coherence(comps[name], CampaignConfig(samples=samples))
            assert isinstance(verdict, Pass) and verdict.fallback_cases > 0
    return calls


def _flag_pair():
    """Two open ``while`` programs over a variable x that steps once from
    {} and then terminates; after x they assign cell 1 from cell 0 or the
    constant 1, so from {0:1} and then {} they end in different stores."""
    x = Var("x")
    table = BehaviorTable("x", {Store.of({}): (None, Store.of({0: 1}), "x"),
                                Store.of({0: 1}): (None, Store.of({0: 1}), None),
                                Store.of({0: 2}): (None, Store.of({0: 2}), None)})
    p, q = seq(x, assign(1, Loc(0))), seq(x, assign(1, Lit(1)))
    return p, q, list(table.entries), {"x": table}


def test_memoised_bisim_agrees_with_fresh_extension(langs, fallback_calls):
    assert len(fallback_calls) == 36
    lang = langs["while"]
    p, q, inputs, behaviors = _flag_pair()
    cases = fallback_calls + [(lang, p, q, inputs, 4, behaviors)]
    for lang, p, q, inputs, depth, behaviors in cases:
        got = check_bisim(lang, p, q, inputs, depth, behaviors)
        assert got == fresh_bisim(lang, p, q, inputs, depth, behaviors)
    # the hand-built pair is told apart, through the variable's table
    assert got.path == (Store.of({0: 1}), Store.of({})) and got.reason == "state"
    assert got.left == StepOutcome(Store.of({}))
    assert got.right == StepOutcome(Store.of({1: 1}))


def test_bisim_applies_the_rule_once_per_layer_and_state(langs, fallback_calls):
    p, q, inputs, behaviors = _flag_pair()
    queried = Counter()
    table = behaviors["x"]

    def counted_table(s):
        queried[s] += 1
        return table(s)

    cases = fallback_calls + [(langs["while"], p, q, inputs, 4, {"x": counted_table})]
    for lang, p, q, inputs, depth, behaviors in cases:
        counted, applied = counting_rule(lang)
        check_bisim(counted, p, q, inputs, depth, behaviors)
        assert applied and max(applied.values()) == 1
    assert queried and max(queried.values()) == 1


# --- check_bisim explores each continuation pair once per level ---

BENCH_LEFT = "(while (var 0) (assign 0 (lit 0)))"
BENCH_RIGHT = "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"


def per_input_bisim(lang, p, q, inputs, depth, behaviors=None, proved=None, memo=None):
    """``check_bisim`` with the per-input exploration, kept as a literal
    reference: each input is stepped through a ``memo_entry`` memo, and the
    continuation pair it reaches is explored, repeats included."""
    inputs = list(inputs)
    proved = {} if proved is None else proved
    seen: dict = {}
    entry = partial(memo_entry, lang.rule, behaviors or {}, {} if memo is None else memo)

    def compare(a, b, d, path):
        if a == b or d <= 0 or seen.get((a, b), 0) >= d or proved.get((a, b), 0) >= d:
            return None
        seen[a, b] = d
        pending = []
        for s in inputs:
            oa, ob = entry(a)[s], entry(b)[s]
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
    proved.update(seen)
    return Equivalent(depth, len(inputs))


def explorations(bisim, lang, pairs, inputs, depth, behaviors=None):
    """``bisim`` on each pair in turn through one memo and one ``proved``
    dict: the verdicts, ``proved`` and the outcomes in every memo entry."""
    proved, memo = {}, {}
    verdicts = [bisim(lang, p, q, inputs, depth, behaviors, proved, memo) for p, q in pairs]
    return verdicts, proved, {t: dict(entry) for t, entry in memo.items()}


def test_bisim_explores_as_the_per_input_reference(langs, cfg, fallback_calls):
    lang = langs["while"]
    window = gen.state_window(lang, cfg)
    # the benchmark's ctx-closure pair and its first 200 contexts at seed 0
    left, right = parse_term(BENCH_LEFT), parse_term(BENCH_RIGHT)
    pairs = [(left, right)] + [(plug(ctx, left), plug(ctx, right))
                               for ctx in gen.sample_contexts(lang, cfg)[:200]]
    got = explorations(check_bisim, lang, pairs, window, cfg.depth)
    assert got == explorations(per_input_bisim, lang, pairs, window, cfg.depth)
    assert all(isinstance(v, Equivalent) for v in got[0]) and got[1]
    # the fallback pairs of the benchmark's coherence-fallback campaigns
    for lang, p, q, inputs, depth, behaviors in fallback_calls:
        assert (explorations(check_bisim, lang, [(p, q)], inputs, depth, behaviors)
                == explorations(per_input_bisim, lang, [(p, q)], inputs, depth, behaviors))
    # a loop on cell 0 whose body sets cell 1 to 1 or to 2: every input with
    # cell 0 set reaches the same continuation pair, which the first of
    # them tells apart
    lang = langs["while"]
    p, q = while_(Loc(0), assign(1, Lit(1))), while_(Loc(0), assign(1, Lit(2)))
    reached = Counter((extend_law(lang, p, {}, s).cont, extend_law(lang, q, {}, s).cont)
                      for s in window if s.get(0))
    assert len(reached) == 1 and sum(reached.values()) > 1
    got = explorations(check_bisim, lang, [(p, q)], window, cfg.depth)
    assert got == explorations(per_input_bisim, lang, [(p, q)], window, cfg.depth)
    (verdict,), proved, _ = got
    first = next(s for s in window if s.get(0))
    assert verdict.path == (first, window[0]) and verdict.reason == "state"
    assert proved == {}


def test_ctx_closure_explores_each_continuation_pair_once(monkeypatch):
    calls = Counter()
    real = semantics.compare

    def counting(*args):
        calls["compare"] += 1
        return real(*args)

    monkeypatch.setattr(semantics, "compare", counting)
    code, _, lines = execute(["ctx-closure", "--lang", "while", "--left", BENCH_LEFT,
                              "--right", BENCH_RIGHT, "--samples", "1000"])
    assert code == 0 and lines[0] == "status: closed over 1000 context(s)"
    # one call per distinct continuation pair that an explored pair reaches;
    # one call per input reaching such a pair made 29,881
    assert 0 < calls["compare"] <= 3245

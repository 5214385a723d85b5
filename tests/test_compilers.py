"""Translation pairs: syntax images, behavior clauses, monad-law conformance
and the flattening arithmetic."""
import itertools
from dataclasses import replace

import pytest

from gsoscheck.compilers import (
    compile_open, compile_term, div_blocks, override_blocks, translate_behavior,
)
from gsoscheck.semantics import StepOutcome
from gsoscheck.states import FrameState, LowState, StackState, Store
from gsoscheck.terms import (
    Bin, Br, IAssign, IllFormed, Lit, Loc, Nop, Stop, Un, Var, assign, frame,
    instr, instr_flatten, isandbox, loop, sandbox, seq, skip, sseq,
    subterms, term_size, while_,
)
from gsoscheck.cli import EXAMPLE1_COMPILED, EXAMPLE1_SOURCE
from gsoscheck import gen


def test_registry_names(comps):
    assert set(comps) == {
        "embed-flag", "sandbox", "unsandbox", "embed-int", "sandbox-int",
        "flatten-low", "embed-low-sec", "embed-stack", "embed-stack-clear",
    }
    assert not comps["flatten-low"].open_checkable
    assert all(cp.open_checkable for n, cp in comps.items() if n != "flatten-low")


def test_embedding_is_identity_on_trees(comps):
    a = while_(Loc(0), assign(0, Lit(0)))
    assert compile_term(comps["embed-flag"], a) == a
    assert compile_term(comps["embed-int"], a) == a
    assert compile_term(comps["embed-stack"], frame()) == frame()


def test_sandbox_wraps_every_constructor(comps):
    out = compile_term(comps["sandbox"], seq(skip(), skip()))
    assert out == sandbox(seq(sandbox(skip()), sandbox(skip())))
    source = while_(Loc(0), seq(assign(0, Lit(1)), skip()))
    compiled = compile_term(comps["sandbox"], source)
    boxes = sum(1 for t in subterms(compiled) if getattr(t, "tag", "") == "sandbox")
    assert boxes == term_size(source)


def test_unsandbox_strips_all_sandboxes(comps):
    assert compile_term(comps["unsandbox"], sandbox(sandbox(skip()))) == skip()
    nested = sandbox(seq(sandbox(assign(0, Lit(1))), sandbox(skip())))
    assert compile_term(comps["unsandbox"], nested) == seq(assign(0, Lit(1)), skip())


def test_unsandbox_inverts_sandboxing(comps, cfg, langs):
    small = replace(cfg, max_term_size=4, exprs_per_slot=2)
    for t in itertools.islice(gen.closed_terms(langs["while"], small), 80):
        boxed = compile_term(comps["sandbox"], t)
        assert compile_term(comps["unsandbox"], boxed) == t


def test_secure_low_images(comps):
    cp = comps["embed-low-sec"]
    assert compile_term(cp, skip()) == instr(Stop())
    assert compile_term(cp, assign(1, Lit(2))) == instr(IAssign(1, Lit(2)))
    body = assign(0, Lit(0))
    assert compile_term(cp, while_(Loc(0), body)) == loop(Loc(0), instr(IAssign(0, Lit(0))))
    assert compile_term(cp, seq(skip(), skip())) == sseq(instr(Stop()), instr(Stop()))


def test_flatten_example1_exact(comps):
    from gsoscheck.terms import show_low

    out = compile_term(comps["flatten-low"], EXAMPLE1_SOURCE)
    assert show_low(out) == EXAMPLE1_COMPILED
    assert instr_flatten(out) == [
        Br(Un("not", Bin("lt", Loc(0), Lit(2))), 3),
        IAssign(1, Bin("add", Loc(1), Lit(1))),
        Br(Lit(1), -2),
    ]


def test_flatten_concatenates_sequencing(comps):
    p = seq(skip(), assign(0, Lit(1)))
    out = instr_flatten(compile_term(comps["flatten-low"], p))
    assert out == [Nop(), IAssign(0, Lit(1))]


def test_flatten_branch_arithmetic(comps, langs, cfg):
    # forward offset = body length + 2, backward = -(body length + 1),
    # for every while subterm
    small = replace(cfg, max_term_size=4, exprs_per_slot=2)
    for t in itertools.islice(gen.closed_terms(langs["while"], small), 150):
        for sub in subterms(t):
            if sub.tag != "while":
                continue
            insts = instr_flatten(compile_term(comps["flatten-low"], sub))
            body_len = len(insts) - 2
            head, tail = insts[0], insts[-1]
            assert isinstance(head, Br) and head.off == body_len + 2
            assert head.e == Un("not", sub.payload[0])
            assert tail == Br(Lit(1), -(body_len + 1))


def test_layer_maps_satisfy_monad_law(comps, cfg):
    # compiling a term equals compiling its top layer over the compiled
    # children (sigma . mu = mu . sigma* . sigma)
    small = replace(cfg, max_term_size=4, exprs_per_slot=2)
    for name, cp in comps.items():
        if not cp.open_checkable:
            continue
        for t in itertools.islice(gen.closed_terms(cp.source, small), 60):
            whole = compile_term(cp, t)
            layered = cp.syntax.fn(
                t.tag, t.payload, tuple(compile_term(cp, c) for c in t.children))
            assert whole == layered, name
        assert compile_open(cp, Var("x")) == Var("x")


def test_sandbox_int_wraps_layerwise(comps):
    out = compile_term(comps["sandbox-int"], seq(skip(), skip()))
    assert out == isandbox(seq(isandbox(skip()), isandbox(skip())))


def test_behavior_flag_labels_zero(comps):
    cp = comps["embed-flag"]
    f = lambda s: StepOutcome(s.set(0, 4))
    out = translate_behavior(cp, f, Store.of({}))
    assert out == StepOutcome(Store.of({0: 4}), label=0)


def test_behavior_low_clauses(comps):
    cp = comps["flatten-low"]
    s = Store.of({1: 2})

    def terminating(store):
        return StepOutcome(store.set(0, 1))

    def stepping(store):
        return StepOutcome(store, cont=skip())

    # pc 0, termination: lands at pc 1
    out = translate_behavior(cp, terminating, LowState(s, 0))
    assert out.state == LowState(s.set(0, 1), 1) and out.cont is None
    # pc 0, step: stays at pc 0 with the source continuation
    out = translate_behavior(cp, stepping, LowState(s, 0))
    assert out.state == LowState(s, 0) and out.cont == skip()
    # pc != 0: the program terminates where it stands, whatever the source
    # outcome, here a labelled and flagged step with a continuation
    def flagged(store):
        return StepOutcome(store.set(0, 1), label=2, cont=skip(), flags=frozenset({"probe"}))

    out = translate_behavior(cp, flagged, LowState(s, 3))
    assert out == StepOutcome(LowState(s, 3))


def test_behavior_translation_is_its_two_maps(comps, cfg):
    # at every input of every target window: the output map of the source
    # outcome at the input map's image, the source consulted each time
    def outcome(state):
        return StepOutcome(state, label=1, cont=skip(), flags=frozenset({"probe"}))

    for name, cp in comps.items():
        window = gen.state_window(cp.target, cfg)
        consulted = []

        def source(state):
            consulted.append(state)
            return outcome(state)

        for i2 in window:
            want = cp.output_map(i2, outcome(cp.input_map(i2)))
            assert translate_behavior(cp, source, i2) == want, (name, i2)
        assert consulted == [cp.input_map(i2) for i2 in window], name


def test_behavior_int_clamps_input(comps):
    cp = comps["embed-int"]
    seen = []

    def probe(store):
        seen.append(store)
        return StepOutcome(store)

    out = translate_behavior(cp, probe, Store.of({0: -2, 1: 1}))
    assert seen == [Store.of({1: 1})]
    assert out.state == Store.of({1: 1})


def test_behavior_stack_frame_clause(comps):
    cp = comps["embed-stack"]
    s = Store.of({0: 5, 1: 1, 2: 9})

    def frame_behavior(m: FrameState):
        assert m == FrameState(())  # div at sp 0 is the empty stack
        return StepOutcome(FrameState(((0, 0),)))

    out = translate_behavior(cp, frame_behavior, StackState(s, 0))
    # s0 ++ drop L s, one live frame
    assert out.state == StackState(Store.of({2: 9}), 1)
    assert out.cont is None


def test_div_and_override_are_inverse_on_blocks(cfg):
    s = Store.of({0: 1, 1: 2, 2: 3, 3: 4, 4: 9})
    for sp in (0, 1, 2):
        m = div_blocks(s, sp, 2)
        assert len(m.frames) == sp
        assert override_blocks(m.frames, s, 2) == s
    assert div_blocks(s, 2, 2) == FrameState(((3, 4), (1, 2)))
    for st in gen.stack_window(cfg):  # put-get on every stack-window state
        frames = div_blocks(st.store, st.sp, cfg.L).frames
        assert override_blocks(frames, st.store, cfg.L) == st.store, st.show()


def _dict_override_blocks(frames: tuple, s: Store, L: int) -> Store:
    # the dict definition that override_blocks replaced
    cells = dict(s.cells)
    k = len(frames)
    for i in range(k):
        frame = frames[k - 1 - i]
        for j in range(L):
            cells[L * i + j] = frame[j]
    return Store.of(cells)


def test_override_blocks_matches_the_dict_definition(cfg):
    # every stack-window store under every frames-window stack
    stores = list(dict.fromkeys(st.store for st in gen.stack_window(cfg)))
    stacks = gen.frames_window(cfg)
    assert len(stores) > 20 and len(stacks) > 20
    for s in stores:
        for m in stacks:
            got = override_blocks(m.frames, s, cfg.L)
            assert got.cells == _dict_override_blocks(m.frames, s, cfg.L).cells, (
                s.show(), m.show())


def test_whole_term_compiler_rejects_open_use(comps):
    with pytest.raises(IllFormed):
        compile_open(comps["flatten-low"], skip())


def test_compiled_terms_validate_in_target(comps, cfg):
    small = replace(cfg, max_term_size=3, exprs_per_slot=2)
    for name, cp in comps.items():
        terms = itertools.islice(gen.closed_terms(cp.source, small), 40)
        for t in terms:
            cp.target.validate(compile_term(cp, t))

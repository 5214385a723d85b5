"""Expression evaluators against an independent oracle, plus the concrete
rule sets of the registry."""
import hashlib
import itertools
from dataclasses import replace

import pytest

from gsoscheck.languages import block_cells, evaluate, frame_cells
from gsoscheck.semantics import step
from gsoscheck.states import FrameState, LowState, StackState, Store
from gsoscheck.terms import (
    Bin, Br, IAssign, IllFormed, Lit, Loc, Node, Nop, Stop, Un, assign, frame,
    instr, instr_list, loop, parse_term, print_term, ret, seq, skip, sseq, while_,
)
from gsoscheck import gen


# --- an independent recursive oracle for nat expression evaluation ---

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b if a >= b else 0,
    "mul": lambda a, b: a * b,
    "lt": lambda a, b: int(a < b),
    "eq": lambda a, b: int(a == b),
    "min": lambda a, b: a if a <= b else b,
}


def oracle_eval(cells: dict, e) -> int:
    if isinstance(e, Lit):
        return e.n
    if isinstance(e, Loc):
        return cells.get(e.l, 0)
    if isinstance(e, Bin):
        return _OPS[e.op](oracle_eval(cells, e.lhs), oracle_eval(cells, e.rhs))
    if isinstance(e, Un):
        return int(oracle_eval(cells, e.e) == 0)
    raise AssertionError(e)


def test_eval_examples():
    assert evaluate(Lit(7), Store.get, Store.of({})) == 7
    assert evaluate(Bin("mul", Loc(0), Lit(2)), Store.get, Store.of({0: 1})) == 2
    assert evaluate(Bin("sub", Lit(2), Loc(0)), Store.get, Store.of({0: 3})) == 0


def test_eval_matches_oracle(cfg):
    import random

    stores = [dict(s.cells) for s in gen.store_window(cfg, int_mode=False)]
    # all expressions of size <= 3 (covers every depth-2 shape), plus a
    # deterministic sample of deeper ones built from depth-2 operands
    exprs = list(itertools.islice(gen.expr_stream(cfg, int_mode=False), 900))
    depth2 = [e for e in exprs if isinstance(e, (Bin, Un))][:120]
    rng = random.Random(99)
    for _ in range(300):
        op = rng.choice(("add", "sub", "mul", "lt", "eq", "min"))
        exprs.append(Bin(op, rng.choice(depth2), rng.choice(depth2)))
        exprs.append(Un("not", rng.choice(depth2)))
    for e in exprs:
        for cells in stores:
            assert evaluate(e, Store.get, Store.of(cells)) == oracle_eval(cells, e)


def test_eval_int_examples():
    def ev(e, cells):
        return evaluate(e, Store.get, Store.of(cells), nat=False)

    assert ev(Bin("min", Loc(0), Lit(0)), {0: -1}) == -1
    assert ev(Bin("min", Loc(0), Lit(0)), {}) == 0
    assert ev(Bin("sub", Lit(0), Loc(0)), {0: -2}) == 2


def test_eval_frames_examples():
    read, _ = frame_cells(2)
    assert evaluate(Loc(0), read, FrameState(((5, 0),))) == 5
    assert evaluate(Loc(1), read, FrameState(())) == 0
    assert evaluate(Loc(1), read, FrameState(((1, 2), (9, 9)))) == 2
    with pytest.raises(IllFormed):
        evaluate(Loc(2), read, FrameState(((1, 2),)))


def test_eval_sp_examples():
    read, _ = block_cells(2)
    assert evaluate(Loc(0), read, StackState(Store.of({0: 5}), 1)) == 5
    assert evaluate(Loc(0), read, StackState(Store.of({2: 7}), 2)) == 7
    assert evaluate(Lit(4), read, StackState(Store.of({}), 1)) == 4
    with pytest.raises(IllFormed):
        evaluate(Loc(0), read, StackState(Store.of({}), 0))


def test_update_examples():
    assert Store.of({}).set(0, 3) == Store.of({0: 3})
    _, write_frames = frame_cells(2)
    assert write_frames(FrameState(()), 0, 3) == FrameState(())
    _, write_block = block_cells(2)
    assert write_block(StackState(Store.of({}), 1), 1, 9) == StackState(Store.of({1: 9}), 1)
    assert write_block(StackState(Store.of({}), 2), 0, 4) == StackState(Store.of({2: 4}), 2)


def test_while_flag_sandbox_always_label_zero(langs, cfg):
    # every step of a sandboxed program carries label 0
    import random

    from gsoscheck.terms import sandbox

    sec = langs["while-sec"]
    rng = random.Random(5)
    flag = langs["while-flag"]
    for _ in range(40):
        inner = gen.random_term(flag, rng, cfg, rng.randint(1, 5))
        term = sandbox(inner)
        for s in gen.store_window(cfg, int_mode=False)[:6]:
            steps = 0
            current = term
            while steps < 15:
                out = step(sec, current, s)
                assert out.label == 0
                if out.cont is None or current.tag != "sandbox":
                    break
                current, s = out.cont, out.state
                steps += 1


def test_while_int_sandbox_clamps_input(langs):
    # the store visible to the inner term has negatives forgotten: writing
    # through a sandbox from a negative store behaves as from its clamp
    from gsoscheck.terms import isandbox

    lang = langs["while-int"]
    p = isandbox(assign(0, Bin("add", Loc(0), Lit(1))))
    out = step(lang, p, Store.of({0: -5, 1: -2}))
    # var 0 reads 0, not -5
    assert out.state == Store.of({0: 1})
    assert out.cont is None


def test_low_out_of_bounds_pc_terminates_unchanged(langs, cfg):
    low = langs["low"]
    programs = [
        instr_list([Nop()]),
        instr_list([Nop(), Stop()]),
        instr_list([IAssign(0, Lit(1)), Br(Lit(1), -1), Stop()]),
    ]
    for p in programs:
        length = len(p.children) + 1 if p.children else 1
        from gsoscheck.terms import instr_flatten

        length = len(instr_flatten(p))
        for s in gen.store_window(cfg, int_mode=False)[:4]:
            for pc in (-3, -1, length, length + 2):
                out = step(low, p, LowState(s, pc))
                assert out.cont is None
                assert out.state == LowState(s, pc)


def test_low_branch_rule(langs):
    low = langs["low"]
    p = instr(Br(Loc(0), 5), instr(Nop()))
    taken = step(low, p, LowState(Store.of({0: 2}), 0))
    assert taken.state == LowState(Store.of({0: 2}), 5)
    assert taken.cont == p
    skipped = step(low, p, LowState(Store.of({}), 0))
    assert skipped.state == LowState(Store.of({}), 1)


def test_low_sequencing_shift(langs):
    low = langs["low"]
    p = instr_list([Nop(), IAssign(0, Lit(7))])
    out = step(low, p, LowState(Store.of({}), 1))
    assert out.state == LowState(Store.of({0: 7}), 2)
    assert out.cont == p


def test_low_sec_loop_rules(langs):
    lowsec = langs["low-sec"]
    body = instr(IAssign(0, Lit(1)))
    lp = loop(Loc(0), body)
    stopped = step(lowsec, lp, LowState(Store.of({}), 0))
    assert stopped.state == LowState(Store.of({}), 0)
    assert stopped.cont == instr(Stop())
    unfolded = step(lowsec, lp, LowState(Store.of({0: 1}), 0))
    assert unfolded.cont == sseq(body, lp)
    parked = step(lowsec, lp, LowState(Store.of({}), 2))
    assert parked.cont is None and parked.state == LowState(Store.of({}), 2)


def test_low_sec_structured_seq_drops_premise_pc(langs):
    lowsec = langs["low-sec"]
    p = sseq(instr(IAssign(0, Lit(2))), instr(Stop()))
    out = step(lowsec, p, LowState(Store.of({}), 0))
    # the assignment terminates at pc 1 but the chain continues at pc 0
    assert out.state == LowState(Store.of({0: 2}), 0)
    assert out.cont == instr(Stop())


def test_low_sec_terminating_instructions_land_past_the_statement(langs):
    lowsec = langs["low-sec"]
    halted = step(lowsec, instr(Stop()), LowState(Store.of({}), 0))
    assert halted.cont is None and halted.state.pc == 1
    assigned = step(lowsec, instr(IAssign(1, Lit(3))), LowState(Store.of({}), 0))
    assert assigned.cont is None
    assert assigned.state == LowState(Store.of({1: 3}), 1)


def test_whileb_frame_and_return(langs):
    wb = langs["while-b"]
    pushed = step(wb, frame(), FrameState(()))
    assert pushed.cont is None and pushed.state == FrameState(((0, 0),))
    popped = step(wb, ret(), FrameState(((3, 4), (1, 2))))
    assert popped.state == FrameState(((1, 2),))
    emptied = step(wb, ret(), FrameState(()))
    assert emptied.state == FrameState(())
    assert "whileb-empty-stack" in emptied.flags


def test_whileb_frame_return_round_trip(langs, cfg):
    from gsoscheck.semantics import run

    wb = langs["while-b"]
    for m in gen.frames_window(cfg)[:12]:
        result = run(wb, seq(frame(), ret()), m, 5)
        assert result.terminated and result.final == m


def test_stack_frame_and_return(langs):
    st = langs["stack"]
    up = step(st, frame(), StackState(Store.of({0: 9}), 0))
    assert up.state == StackState(Store.of({0: 9}), 1)
    down = step(st, ret(), StackState(Store.of({}), 2))
    assert down.state == StackState(Store.of({}), 1)
    floor = step(st, ret(), StackState(Store.of({}), 0))
    assert floor.state == StackState(Store.of({}), 0)
    assert "stack-empty-return" in floor.flags


def test_stack_clear_frame_zeroes_exactly_the_new_block(langs):
    sc = langs["stack-clear"]
    s = Store.of({0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
    for sp in (0, 1, 2):
        out = step(sc, frame(), StackState(s, sp))
        assert out.state.sp == sp + 1
        got = out.state.store
        for i in range(6):
            if 2 * sp <= i < 2 * (sp + 1):
                assert got.get(i) == 0
            else:
                assert got.get(i) == s.get(i)


def test_stack_clear_frame_at_sp0(langs):
    # terminate with s0 ++ drop L s
    sc = langs["stack-clear"]
    s = Store.of({0: 3, 2: 7})
    out = step(sc, frame(), StackState(s, 0))
    assert out.state == StackState(Store.of({2: 7}), 1)


def test_stack_assignment_offsets(langs):
    st = langs["stack"]
    out = step(st, assign(0, Lit(9)), StackState(Store.of({}), 2))
    assert out.state.store == Store.of({2: 9})
    with pytest.raises(IllFormed):
        step(st, assign(0, Lit(1)), StackState(Store.of({}), 0))


def test_validation_rejects_ill_formed(langs):
    with pytest.raises(IllFormed):
        langs["while"].validate(parse_term("(obs 1 skip)"))
    with pytest.raises(IllFormed):
        langs["while-b"].validate(assign(5, Lit(0)))
    with pytest.raises(IllFormed):
        langs["while"].validate(while_(Lit(-1), skip()))
    langs["while-int"].validate(while_(Lit(-1), skip()))


@pytest.mark.parametrize("lang, term", [
    ("while", Node("seq", (skip(), skip()), (0,))),
    ("while", Node("while", (skip(),), (0,))),
    ("while", Node("assign", (), (Lit(1), Lit(0)))),
    ("while-flag", Node("obs", (skip(),), (Lit(0),))),
    ("low", Node("instr", (), (Lit(0),))),
    ("while", assign(0, Loc(-1))),
    ("while-b", assign(0, Bin("add", Loc(2), Lit(0)))),
    ("low", instr(IAssign(0, Lit(-1)))),
], ids=["seq-with-a-payload", "int-guard", "expr-as-loc", "expr-as-nat", "expr-as-inst",
        "negative-var", "var-outside-the-frame", "negative-literal-in-inst"])
def test_validation_checks_payload_kinds(lang, term, langs):
    # a payload must match its constructor's kinds, in number and in shape
    with pytest.raises(IllFormed):
        langs[lang].validate(term)


# sha256 of every step of the counter machines' small closed terms
# (max_term_size=3, exprs_per_slot=2) from each LowState of the first four
# window stores and the default pc window, one outcome a line:
# state|label|flags|continuation, or "terminated" for no continuation
COUNTER_STEP_DIGESTS = {
    "low": (6192, "efc3cc0e0fd7e2daa009f44cb720220e55f21cc39857ad077ed2447092890d88"),
    "low-sec": (11376, "428fb0213f7e4fd9944e3efa8a8183df33eaf55fbec5763e2767ddb5bb58807e"),
}


@pytest.mark.parametrize("name", sorted(COUNTER_STEP_DIGESTS))
def test_counter_machine_steps_are_the_recorded_ones(langs, cfg, name):
    lang = langs[name]
    states = [LowState(s, pc) for s in gen.store_window(cfg, int_mode=False)[:4]
              for pc in gen.pc_window(cfg)]
    lines = []
    for t in gen.closed_terms(lang, replace(cfg, max_term_size=3, exprs_per_slot=2)):
        for st in states:
            o = step(lang, t, st)
            cont = "terminated" if o.cont is None else print_term(o.cont)
            lines.append(f"{o.state.show()}|{o.label}|{sorted(o.flags)}|{cont}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == COUNTER_STEP_DIGESTS[name]

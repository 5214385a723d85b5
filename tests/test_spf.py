"""Functor derivatives, contexts and plugging."""

import pytest

from gsoscheck.spf import (
    Comp, Const, Id, One, OneHoleLayer, Prod, Sum, Zero,
    con_step, count_id_occurrences, count_positions,
    decompositions, derive, enum_values, plug,
)
from gsoscheck.terms import Bin, Lit, Loc, assign, obs, parse_term, seq, skip, while_
from gsoscheck import gen


def test_derive_identity_is_unit():
    assert derive(Id()) == One()


def test_derive_constant_is_empty():
    assert derive(Const("Expr")) == Zero()


def test_derive_binary_tree_shape():
    # d(1 + Id*Id) has two hole positions each carrying one subterm: it is
    # isomorphic to Bool x Id, checked by counting at several sizes
    d = derive(Sum(One(), Prod(Id(), Id())))
    for n in (1, 2, 3):
        assert count_positions(d, n) == 2 * n


def test_count_positions_examples():
    assert count_positions(Prod(Id(), Id()), 3) == 9
    assert count_positions(derive(Prod(Id(), Id())), 3) == 6
    assert count_positions(Zero(), 5) == 0


def test_count_positions_unknown_carrier():
    from gsoscheck.spf import UnknownCarrier

    with pytest.raises(UnknownCarrier):
        count_positions(Const("mystery"), 3)


def brute_marked_count(f, n, carriers):
    """Independent oracle: enumerate every value of f(X) and count the
    (value, marked Id occurrence) pairs."""
    xs = [("x", i) for i in range(n)]
    elems = {tag: [(tag, i) for i in range(size)] for tag, size in carriers.items()}
    return sum(count_id_occurrences(f, v) for v in enum_values(f, xs, elems))


CARRIER_SIZES = {"expr": 2, "loc": 2, "nat": 2, "inst": 2}


def test_derivative_position_soundness_registry(langs):
    # |dF(X)| * |X| equals the brute-force marked-position count, for every
    # registered syntax functor at |X| <= 3
    for lang in langs.values():
        f = lang.spf
        for n in (1, 2, 3):
            derived = count_positions(derive(f), n, CARRIER_SIZES) * n
            assert derived == brute_marked_count(f, n, CARRIER_SIZES), lang.name


def test_derivative_position_soundness_synthetic():
    cases = [
        Sum(One(), Prod(Id(), Id())),
        Prod(Const("expr"), Prod(Id(), Id())),
        Comp(Prod(Id(), Id()), Sum(One(), Id())),
        Comp(Sum(Const("nat"), Id()), Prod(Id(), Const("expr"))),
    ]
    for f in cases:
        for n in (1, 2, 3):
            derived = count_positions(derive(f), n, CARRIER_SIZES) * n
            assert derived == brute_marked_count(f, n, CARRIER_SIZES)


def test_con_step_layer_examples():
    q = skip()
    p = assign(0, Lit(1))
    layer = OneHoleLayer("seq", (), 0, (q,))
    assert con_step(layer, p) == seq(p, q)
    e = Loc(0)
    assert con_step(OneHoleLayer("while", (e,), 0, ()), p) == while_(e, p)
    assert con_step(OneHoleLayer("obs", (3,), 0, ()), p) == obs(3, p)


def test_plug_hole_law():
    p = parse_term("(seq (assign 0 (lit 1)) skip)")
    assert plug((), p) == p


def test_plug_single_layer():
    p = assign(0, Lit(1))
    ctx = (OneHoleLayer("seq", (), 0, (skip(),)),)
    assert plug(ctx, p) == seq(p, skip())


def test_plug_flag_context_example():
    # the two-layer context (obs 1 _) ; W, outermost layer first
    w = while_(Bin("sub", Loc(1), Lit(1)), skip())
    a_flag = while_(Loc(0), assign(0, Lit(0)))
    ctx = (
        OneHoleLayer("seq", (), 0, (w,)),
        OneHoleLayer("obs", (1,), 0, ()),
    )
    assert plug(ctx, a_flag) == seq(obs(1, a_flag), w)


def test_plug_unplug_round_trip(langs, cfg):
    for lang in langs.values():
        count = 0
        for t in gen.closed_terms(lang, cfg, 4, expr_cap=2):
            for ctx, sub in decompositions(t):
                assert plug(ctx, sub) == t
                count += 1
        assert count > 0


def test_sample_contexts_deterministic_and_pluggable(langs, cfg):
    lang = langs["while"]
    first = gen.sample_contexts(lang, 2, 100, 42, cfg)
    second = gen.sample_contexts(lang, 2, 100, 42, cfg)
    assert first == second
    assert first[0] == ()  # the bare hole is always included
    assert len(first) == 100
    probe = assign(0, Lit(1))
    for ctx in first:
        plugged = plug(ctx, probe)
        lang.validate(plugged)


def test_sample_contexts_zero_layers(langs, cfg):
    assert gen.sample_contexts(langs["while"], 0, 1, 7, cfg) == [()]

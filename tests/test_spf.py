"""Syntax functor counts, one-hole contexts and plugging."""
import itertools
import math
from dataclasses import replace

from gsoscheck.spf import OneHoleLayer, con_step, decompositions, plug
from gsoscheck.terms import (
    Bin, Lit, Loc, Node, Var, assign, obs, parse_term, print_term, seq, skip, while_,
)
from gsoscheck import gen


CARRIER_SIZES = {"expr": 2, "loc": 2, "nat": 2, "inst": 2}


def functor_counts(lang, n: int) -> tuple[int, int, int, int]:
    """The derivative oracle for ``lang``'s syntax functor F over n variables:
    (layers built, |F(X)|, splits one layer deep, |dF(X)| * |X|).

    The layers are built from the constructor table, with n distinct
    variables and CARRIER_SIZES distinct values per payload kind; their
    splits are the ones ``decompositions`` yields, a layer once per child
    position.  The counts are the closed forms of the same table read as
    F(X) = Σ_c K_c × X^{n_c}, whose derivative by the sum and product rules
    is dF(X) = Σ_c n_c × K_c × X^{n_c - 1}."""
    xs = [Var(f"x{i}") for i in range(n)]
    built = set()
    f_count = df_count = 0
    for tag, kinds, arity in lang.constructors:
        values = [[(k, i) for i in range(CARRIER_SIZES[k])] for k in kinds]
        for payload in itertools.product(*values):
            for children in itertools.product(xs, repeat=arity):
                built.add(Node(tag, children, payload))
        k_c = math.prod(CARRIER_SIZES[k] for k in kinds)
        f_count += k_c * n ** arity
        if arity:
            df_count += arity * k_c * n ** (arity - 1)
    splits = sum(len(ctx) == 1 for t in built for ctx, _ in decompositions(t))
    return len(built), f_count, splits, df_count * n


def test_derivative_position_soundness_registry(langs):
    # F counts the layers over |X| variables and |dF(X)| * |X| the splits
    # one layer deep, for every registered syntax functor at |X| <= 3
    for lang in langs.values():
        for n in (1, 2, 3):
            layers, f_count, splits, df_count = functor_counts(lang, n)
            assert layers == f_count and splits == df_count, (lang.name, n)


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


def recursive_decompositions(t):
    """The recursive splitter ``decompositions`` replaced, kept as its
    oracle: ((), t), then each child's splits under that child's layer."""
    yield (), t
    if isinstance(t, Var):
        return
    for i, child in enumerate(t.children):
        siblings = tuple(c for j, c in enumerate(t.children) if j != i)
        layer = OneHoleLayer(t.tag, t.payload, i, siblings)
        for ctx, sub in recursive_decompositions(child):
            yield (layer,) + ctx, sub


def test_decompositions_agree_with_the_recursive_splitter(langs, cfg):
    # the same (context, subterm) splits in the same order, on every closed
    # term up to size 3 and on the open layers
    small = replace(cfg, max_term_size=3, exprs_per_slot=2)
    splits = 0
    for lang in langs.values():
        for t in [*gen.closed_terms(lang, small), *gen.layer_shapes(lang, cfg)]:
            expected = list(recursive_decompositions(t))
            assert list(decompositions(t)) == expected, t
            splits += len(expected)
    assert splits == 4601
    # a split of a deeper, uneven term, checked by hand: preorder, child 0
    # before child 1, each layer keeping its payload and siblings
    t = parse_term("(seq (while (var 0) (seq skip ?x)) (obs 1 skip))")
    body, tail = t.children
    assert [(len(ctx), print_term(sub)) for ctx, sub in decompositions(t)] == [
        (0, print_term(t)), (1, print_term(body)), (2, "(seq skip ?x)"), (3, "skip"),
        (3, "?x"), (1, "(obs 1 skip)"), (2, "skip")]
    ctx, sub = list(decompositions(t))[4]
    assert ctx == (OneHoleLayer("seq", (), 0, (tail,)), OneHoleLayer("while", (Loc(0),), 0, ()),
                   OneHoleLayer("seq", (), 1, (skip(),)))
    assert all(type(layer) is OneHoleLayer for layer in ctx) and sub is Var("x")


def test_plug_unplug_round_trip(langs, cfg):
    for lang in langs.values():
        count = 0
        for t in gen.closed_terms(lang, replace(cfg, max_term_size=4, exprs_per_slot=2)):
            for ctx, sub in decompositions(t):
                assert plug(ctx, sub) == t
                count += 1
        assert count > 0


def test_sample_contexts_deterministic_and_pluggable(langs, cfg):
    lang = langs["while"]
    small = replace(cfg, samples=100, seed=42)
    first = gen.sample_contexts(lang, small)
    second = gen.sample_contexts(lang, small)
    assert first == second
    assert first[0] == ()  # the bare hole is always included
    assert len(first) == 100
    probe = assign(0, Lit(1))
    for ctx in first:
        plugged = plug(ctx, probe)
        lang.validate(plugged)


def test_sample_contexts_zero_layers(langs, cfg):
    # a one-context sample is the zero-layer context, the bare hole; a full
    # sample draws every depth from zero to CONTEXT_LAYERS and none deeper
    assert gen.sample_contexts(langs["while"], replace(cfg, samples=1, seed=7)) == [()]
    depths = {len(ctx) for ctx in gen.sample_contexts(langs["while"], cfg)}
    assert depths == set(range(gen.CONTEXT_LAYERS + 1))

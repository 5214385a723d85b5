"""``Node`` and the values in its payload: immutable, hash-consed, compared
and hashed by identity; and ``subterms``, the one walk of a term."""
import copy
import itertools
import pickle

import pytest

from gsoscheck import gen
from gsoscheck.compilers import compile_open, compile_term
from gsoscheck.spf import decompositions, plug
from gsoscheck.terms import (
    MAX_DEPTH, Bin, Br, IAssign, IllFormed, Lit, Loc, Node, Nop, Stop, Un, Var, assign,
    frame, instr, instr_list, is_closed, isandbox, loop, obs, parse_term, print_term, ret,
    sandbox, seq, skip, sseq, subterms, term_size, term_vars, while_,
)


VALUE_CLASSES = (Lit, Loc, Bin, Un, Nop, Stop, IAssign, Br, Var)


def fields(v) -> tuple:
    return tuple(getattr(v, name) for name in v.__match_args__)


def structure(v):
    """A key for ``v`` built from its class and fields all the way down, owing
    nothing to object identity."""
    if isinstance(v, VALUE_CLASSES):
        return (type(v).__name__, *map(structure, fields(v)))
    if isinstance(v, Node):
        return ("Node", v.tag, *map(structure, v.children), "|", *map(structure, v.payload))
    if isinstance(v, tuple):
        return ("tuple", *map(structure, v))
    return v


def values_in(t):
    """Every expression, instruction and variable in ``t``, each
    subexpression and every instruction of an ``instr`` list included."""
    pending = [t]
    while pending:
        v = pending.pop()
        if isinstance(v, VALUE_CLASSES):
            yield v
            pending.extend(fields(v))
        elif isinstance(v, Node):
            pending.extend(v.children + v.payload)
        elif isinstance(v, tuple):
            pending.extend(v)


def walk_closed(t) -> bool:
    """Closedness by a fresh recursive walk, nothing kept."""
    return not isinstance(t, Var) and all(walk_closed(c) for c in t.children)


def recursive_subterms(t):
    """The recursive walk that ``subterms`` replaced, kept as its oracle."""
    yield t
    if isinstance(t, Node):
        for c in t.children:
            yield from recursive_subterms(c)


def test_equal_trees_built_apart_are_equal():
    text = "(seq (while (var 0) (assign 0 (lit 0))) (sandbox skip))"
    a, b = parse_term(text), parse_term(text)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != parse_term("(seq (while (var 1) (assign 0 (lit 0))) (sandbox skip))")
    assert a != Var("x") and Var("x") != a


def test_equal_terms_are_one_object_however_built(langs, comps, cfg):
    lang, small = langs["while"], cfg._replace(max_term_size=3, exprs_per_slot=2)
    terms = list(itertools.islice(gen.closed_terms(lang, small), 60))
    terms.append(parse_term("(seq (while (lt (var 0) (lit 2)) (assign 1 (lit 1))) skip)"))
    assert len(terms) > 1
    for t in terms:
        rebuilt = [
            parse_term(print_term(t)),
            compile_open(comps["embed-flag"], t),  # identity layer map
            copy.copy(t),
            copy.deepcopy(t),
            pickle.loads(pickle.dumps(t)),
        ]
        rebuilt += [plug(ctx, sub) for ctx, sub in decompositions(t)]
        for u in rebuilt:
            assert u is t, print_term(t)
    # generating again yields the same objects
    again = list(itertools.islice(gen.closed_terms(lang, small), 60))
    assert all(u is t for u, t in zip(again, terms))
    # so are the expressions, instructions and variables from every source
    # that builds them: the parser, the expression stream and the compilers,
    # whose flatten-low writes IAssign and Br instructions
    every_lang = [t for lang in langs.values() for t in
                  [*itertools.islice(gen.closed_terms(lang, small), 60),
                   *gen.layer_shapes(lang, small)]]
    built = [parse_term(print_term(t)) for t in every_lang]
    for int_mode in (False, True):
        built += itertools.islice(gen.expr_stream(cfg, int_mode, cfg.store_cells), 300)
    for cp in comps.values():
        sources = list(itertools.islice(gen.closed_terms(cp.source, small), 60))
        built += [compile_term(cp, t) for t in sources]
        if cp.name != "flatten-low":  # the one whole-term translation
            built += [compile_open(cp, t) for t in gen.layer_shapes(cp.source, small)]
    values = [v for t in built for v in values_in(t)]
    assert {type(v) for v in values} == set(VALUE_CLASSES)
    one = {}
    for v in values:
        assert one.setdefault(structure(v), v) is v, v
        for u in (type(v)(*fields(v)), copy.copy(v), copy.deepcopy(v),
                  pickle.loads(pickle.dumps(v))):
            assert u is v, v
    # a value is one object for its class and fields together
    assert Lit(1) is not Loc(1) and Lit(1) != Loc(1)
    assert Nop() is not Stop() and Nop() != Stop()
    assert Un("not", Lit(0)) is not Lit(0)
    assert Var(1) is not Lit(1) and IAssign(0, Lit(1)) is not Br(Lit(1), 0)


def test_closed_agrees_with_a_recursive_walk(langs, cfg):
    small = cfg._replace(max_term_size=3, exprs_per_slot=2)
    for lang in langs.values():
        closed = list(itertools.islice(gen.closed_terms(lang, small), 40))
        layers = gen.layer_shapes(lang, cfg)
        # open terms with a variable up to three layers down, beside closed
        # siblings
        contexts = gen.sample_contexts(lang, cfg._replace(samples=40, seed=7))
        deep = [plug(ctx, Var("h")) for ctx in contexts if ctx]
        assert deep and not any(is_closed(t) for t in deep)
        for t in closed + layers + deep:
            assert is_closed(t) == walk_closed(t), t
    assert not is_closed(Var("x"))


def test_every_generated_term_is_valid_and_reads_back_from_its_print(langs, cfg):
    small = cfg._replace(max_term_size=3, exprs_per_slot=2)
    terms = [(lang, t) for lang in langs.values()
             for t in [*gen.closed_terms(lang, small), *gen.layer_shapes(lang, cfg)]]
    assert len(terms) == 1801
    for lang, t in terms:
        lang.validate(t)
        assert parse_term(print_term(t)) is t, (lang.name, t)


# the first layer shape of each constructor tag, as printed
FIRST_LAYERS = {
    "while": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)"],
    "while-flag": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
                   "(obs 0 ?x0)"],
    "while-sec": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
                  "(obs 0 ?x0)", "(sandbox ?x0)"],
    "while-int": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
                  "(isandbox ?x0)"],
    "low": ["(instr (nop))"],
    "low-sec": ["(instr (nop))", "(sseq ?x0 ?x1)", "(loop (lit 0) ?x0)"],
    "while-b": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
                "frame", "return"],
    "stack": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
              "frame", "return"],
    "stack-clear": ["skip", "(assign 0 (lit 0))", "(seq ?x0 ?x1)", "(while (lit 0) ?x0)",
                    "frame", "return"],
}


def test_printed_forms_are_pinned(langs, cfg):
    for lang in langs.values():
        first = {}
        for t in gen.layer_shapes(lang, cfg):
            first.setdefault(t.tag, t)
        assert [print_term(t) for t in first.values()] == FIRST_LAYERS[lang.name], lang.name
    for t, text in (
            (skip(), "skip"),
            (seq(assign(0, Lit(1)), skip()), "(seq (assign 0 (lit 1)) skip)"),
            (obs(1, assign(0, Loc(0))), "(obs 1 (assign 0 (var 0)))"),
            (sandbox(while_(Loc(0), skip())), "(sandbox (while (var 0) skip))"),
            (isandbox(assign(0, Bin("min", Loc(0), Lit(0)))),
             "(isandbox (assign 0 (min (var 0) (lit 0))))"),
            (instr_list([Br(Un("not", Bin("lt", Loc(0), Lit(2))), 3),
                         IAssign(1, Bin("add", Loc(1), Lit(1))), Br(Lit(1), -2)]),
             "(instr (br (not (lt (var 0) (lit 2))) 3) (assign 1 (add (var 1) (lit 1)))"
             " (br (lit 1) -2))"),
            (sseq(instr(Stop()), loop(Loc(0), instr(Nop()))),
             "(sseq (instr (stop)) (loop (var 0) (instr (nop))))"),
            (seq(frame(), ret()), "(seq frame return)")):
        assert print_term(t) == text


def test_node_is_immutable():
    t = while_(Lit(1), skip())
    with pytest.raises(AttributeError):
        t.tag = "skip"
    with pytest.raises(AttributeError):
        t.children = ()
    with pytest.raises(AttributeError):
        del t.payload
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t == while_(Lit(1), skip())


@pytest.mark.parametrize("value", [Lit(1), Loc(0), Bin("add", Loc(0), Lit(1)), Un("not", Lit(0)),
                                   Nop(), Stop(), IAssign(0, Lit(1)), Br(Lit(1), -2), Var("x")])
def test_values_are_immutable(value):
    before = structure(value)
    for name in value.__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert structure(value) == before


def test_repr_is_the_dataclass_repr():
    t = seq(skip(), while_(Lit(1), Var("x")))
    assert repr(t) == (
        "Node(tag='seq', children=(Node(tag='skip', children=(), payload=()), "
        "Node(tag='while', children=(Var(name='x'),), payload=(Lit(n=1),))), payload=())")
    assert [repr(v) for v in (Loc(0), Bin("add", Loc(0), Lit(-1)), Un("not", Lit(0)), Nop(),
                              Stop(), IAssign(1, Lit(2)), Br(Lit(1), -2), Var(("t", "x0")))] == [
        "Loc(l=0)", "Bin(op='add', lhs=Loc(l=0), rhs=Lit(n=-1))", "Un(op='not', e=Lit(n=0))",
        "Nop()", "Stop()", "IAssign(loc=1, e=Lit(n=2))", "Br(e=Lit(n=1), off=-2)",
        "Var(name=('t', 'x0'))"]


def test_parse_term_refuses_a_program_deeper_than_the_bound():
    # text nested past the stack of the reader, and a flat `instr` list as
    # long as a nest is deep, are ill-formed, not a RecursionError
    with pytest.raises(IllFormed, match="text nested deeper than 100 parentheses"):
        parse_term("(assign 0 " + "(not " * 2000 + "(lit 0)" + ")" * 2001)
    for text in ("(sandbox " * MAX_DEPTH + "skip" + ")" * MAX_DEPTH,
                 "(instr" + " (nop)" * MAX_DEPTH + " (stop))"):
        with pytest.raises(IllFormed, match="program nested deeper than 100 nodes"):
            parse_term(text)
    # a term of exactly MAX_DEPTH nodes on its longest path reads
    assert parse_term("(instr" + " (nop)" * (MAX_DEPTH - 1) + " (stop))").tag == "instr"
    nest = MAX_DEPTH - 1
    assert parse_term("(sandbox " * nest + "?x" + ")" * nest).tag == "sandbox"


def test_subterms_agrees_with_the_recursive_walk(langs, cfg):
    small = cfg._replace(max_term_size=3, exprs_per_slot=2)
    terms = [t for lang in langs.values()
             for t in [*gen.closed_terms(lang, small), *gen.layer_shapes(lang, cfg)]]
    for t in terms:
        assert list(subterms(t)) == list(recursive_subterms(t)), print_term(t)
    # preorder, children left to right
    t = seq(while_(Lit(1), Var("a")), seq(Var("b"), skip()))
    assert [print_term(u) for u in subterms(t)] == [
        print_term(t), "(while (lit 1) ?a)", "?a", "(seq ?b skip)", "?b", "skip"]
    assert term_vars(t) == ["a", "b"] and term_size(t) == 6


def test_a_deep_term_is_walked_without_recursion(langs):
    # 5,000 nested seqs, deeper on the left, with one variable per level
    deep, closed = Var(0), Node("skip")
    for i in range(1, 5001):
        deep = Node("seq", (deep, Var(i)))
        closed = Node("seq", (closed, Node("skip")))
    assert term_size(deep) == term_size(closed) == 10_001
    assert term_vars(deep) == list(range(5001))
    assert not is_closed(deep) and is_closed(closed)
    for t in (deep, closed):
        langs["while"].validate(t)

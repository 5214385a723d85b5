"""Simple polynomial functors, their derivatives, and one-hole contexts.

The functor grammar is identity, constants, finite sums, finite products
and composition; no fixed points.  Derivatives follow the usual rules

    d(Id) = One        d(K) = Zero        d(G + H) = dG + dH
    d(G x H) = dG x H + G x dH            d(G . H) = (dG . H) x dH

taken literally, with no simplification: Zero summands and One factors
stay in the shape.  The tested contract is cardinality, never syntactic
shape: over n variables, a language's functor F counts its layers, and
|dF| * n counts the splits ``decompositions`` yields at depth one, each
layer once per child position.  No command runs the functor algebra; it
states the syntax functor that ``decompositions`` and ``plug`` compute
with, and the tests hold the two to each other.

A single-hole context for a syntax functor is a list of derivative layers,
outermost first; plugging folds the one-step reconstruction over the list,
innermost layer applied first, and the empty list is the bare hole.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .terms import IllFormed, Node, OpenTerm, Var


class UnknownCarrier(Exception):
    """A constant carrier tag has no entry in the supplied size/element map."""


# ---------------------------------------------------------------------------
# functor expressions

@dataclass(frozen=True)
class Id:
    pass


@dataclass(frozen=True)
class Const:
    carrier: str


@dataclass(frozen=True)
class Sum:
    left: "SpfExpr"
    right: "SpfExpr"


@dataclass(frozen=True)
class Prod:
    left: "SpfExpr"
    right: "SpfExpr"


@dataclass(frozen=True)
class Comp:
    outer: "SpfExpr"
    inner: "SpfExpr"


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


SpfExpr = Union[Id, Const, Sum, Prod, Comp, Zero, One]


def _right_nested(node, empty: SpfExpr, shapes: Sequence[SpfExpr]) -> SpfExpr:
    """``node(shapes[0], node(shapes[1], ...))``; ``empty`` for no shapes."""
    if not shapes:
        return empty
    out = shapes[-1]
    for s in reversed(shapes[:-1]):
        out = node(s, out)
    return out


def derive(f: SpfExpr) -> SpfExpr:
    """Symbolic derivative: the functor of one-hole decompositions."""
    match f:
        case Id():
            return One()
        case Const() | One() | Zero():
            return Zero()
        case Sum(g, h):
            return Sum(derive(g), derive(h))
        case Prod(g, h):
            return Sum(Prod(derive(g), h), Prod(g, derive(h)))
        case Comp(g, h):
            return Prod(Comp(derive(g), h), derive(h))
    raise IllFormed(f"not a functor expression: {f!r}")


def count_positions(f: SpfExpr, x_size: int, sizes: Optional[dict[str, int]] = None) -> int:
    """Number of inhabitants of ``f`` applied to a set of ``x_size`` elements.

    Used to test derivatives by counting: |dF(X)| * |X| equals the number of
    F(X) inhabitants with one Id occurrence marked.
    """
    sizes = sizes or {}
    match f:
        case Id():
            return x_size
        case Const(c):
            if c not in sizes:
                raise UnknownCarrier(c)
            return sizes[c]
        case One():
            return 1
        case Zero():
            return 0
        case Sum(g, h):
            return count_positions(g, x_size, sizes) + count_positions(h, x_size, sizes)
        case Prod(g, h):
            return count_positions(g, x_size, sizes) * count_positions(h, x_size, sizes)
        case Comp(g, h):
            return count_positions(g, count_positions(h, x_size, sizes), sizes)
    raise IllFormed(f"not a functor expression: {f!r}")


# ---------------------------------------------------------------------------
# language-layer contexts

@dataclass(frozen=True)
class OneHoleLayer:
    """One derivative layer of a syntax functor applied to terms: the
    constructor tag, its payload, the marked child position and the sibling
    subterms at the other positions."""

    tag: str
    payload: tuple
    hole: int
    siblings: tuple  # terms at non-hole child positions, in order


Context = tuple  # of OneHoleLayer, outermost first; () is the bare hole


def con_step(layer: OneHoleLayer, filler: OpenTerm) -> Node:
    """Insert ``filler`` at the marked position of a one-hole layer."""
    children = layer.siblings[: layer.hole] + (filler,) + layer.siblings[layer.hole :]
    return Node(layer.tag, children, layer.payload)


def plug(ctx: Context, p: OpenTerm) -> OpenTerm:
    """Plug ``p`` into a single-hole context (a left fold over the layers,
    innermost applied first); the empty context is the identity."""
    out = p
    for layer in reversed(ctx):
        out = con_step(layer, out)
    return out


def decompositions(t: OpenTerm):
    """All (context, subterm) splits of a term; the brute-force unplugger.

    plug(ctx, sub) == t for every yielded pair, starting with ((), t).
    """
    yield (), t
    if isinstance(t, Var):
        return
    for i, child in enumerate(t.children):
        siblings = tuple(c for j, c in enumerate(t.children) if j != i)
        layer = OneHoleLayer(t.tag, t.payload, i, siblings)
        for ctx, sub in decompositions(child):
            yield (layer,) + ctx, sub


# ---------------------------------------------------------------------------
# the syntax functor of a language

def language_spf(constructors: Sequence[tuple[str, tuple, int]]) -> SpfExpr:
    """An ordered sum of constructor shapes, each a right-nested product of
    Const (payload) and Id (child) factors."""
    return _right_nested(Sum, Zero(), [
        _right_nested(Prod, One(), [Const(k) for k in kinds] + [Id()] * arity)
        for _, kinds, arity in constructors])

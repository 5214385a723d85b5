"""Simple polynomial functors, their derivatives, and one-hole contexts.

The functor grammar is identity, constants, finite sums, finite products
and composition; no fixed points.  Derivatives follow the usual rules

    d(Id) = One        d(K) = Zero        d(G + H) = dG + dH
    d(G x H) = dG x H + G x dH            d(G . H) = (dG . H) x dH

taken literally, with no simplification: Zero summands and One factors
stay in the shape.  The tested contract is isomorphism (cardinality
agreement), never syntactic shape.

A single-hole context for a syntax functor is a list of derivative layers,
outermost first; plugging folds the one-step reconstruction over the list,
innermost layer applied first, and the empty list is the bare hole.
"""
from __future__ import annotations

import itertools
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

UNIT = ("unit",)


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
# generic values of f(X)
#
# Value encoding: Id slots hold the X element itself, constants hold a
# carrier element, One is the UNIT token, sums are ('inl', v) / ('inr', v)
# and products are ('pair', l, r).  Composition reuses the outer encoding
# with inner values sitting in the Id slots.

def enum_values(f: SpfExpr, xs: Sequence, carriers: Optional[dict[str, Sequence]] = None):
    carriers = carriers or {}
    match f:
        case Id():
            yield from xs
        case Const(c):
            if c not in carriers:
                raise UnknownCarrier(c)
            yield from carriers[c]
        case One():
            yield UNIT
        case Zero():
            return
        case Sum(g, h):
            for v in enum_values(g, xs, carriers):
                yield ("inl", v)
            for v in enum_values(h, xs, carriers):
                yield ("inr", v)
        case Prod(g, h):
            for l, r in itertools.product(
                list(enum_values(g, xs, carriers)), list(enum_values(h, xs, carriers))
            ):
                yield ("pair", l, r)
        case Comp(g, h):
            inner = list(enum_values(h, xs, carriers))
            yield from enum_values(g, inner, carriers)
        case _:
            raise IllFormed(f"not a functor expression: {f!r}")


def count_id_occurrences(f: SpfExpr, value) -> int:
    """Id occurrences inside one value of f(X); the brute-force side of the
    derivative/position oracle."""
    match f:
        case Id():
            return 1
        case Const() | One():
            return 0
        case Sum(g, h):
            tag, v = value[0], value[1]
            return count_id_occurrences(g if tag == "inl" else h, v)
        case Prod(g, h):
            return count_id_occurrences(g, value[1]) + count_id_occurrences(h, value[2])
        case Comp(g, h):
            total = 0
            for slot in _id_slots(g, value):
                total += count_id_occurrences(h, slot)
            return total
    raise IllFormed(f"not a functor expression: {f!r}")


def _id_slots(f: SpfExpr, value):
    match f:
        case Id():
            yield value
        case Const() | One():
            return
        case Sum(g, h):
            yield from _id_slots(g if value[0] == "inl" else h, value[1])
        case Prod(g, h):
            yield from _id_slots(g, value[1])
            yield from _id_slots(h, value[2])
        case Comp(g, h):
            for slot in _id_slots(g, value):
                yield from _id_slots(h, slot)


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

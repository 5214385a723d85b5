"""One-hole contexts of a language's syntax functor, and plugging.

A language's constructor table is its syntax functor

    F(X) = Σ_c K_c × X^{n_c}

where constructor c has n_c children and K_c is the product of its payload
carriers.  By the sum and product rules of differentiation, its derivative
is

    dF(X) = Σ_c n_c × K_c × X^{n_c - 1}

a constructor with one child position marked as the hole and its siblings
at the others; ``OneHoleLayer`` is one such layer.  Over n variables,
|F(X)| counts a language's layers and |dF(X)| * n the splits
``decompositions`` yields one layer deep; the tests hold the two to each
other (criterion 13).

A single-hole context is a tuple of derivative layers, outermost first;
plugging folds the one-step reconstruction over it, innermost layer applied
first, and the empty tuple is the bare hole.
"""
from __future__ import annotations

from typing import NamedTuple

from .terms import Node, OpenTerm


class OneHoleLayer(NamedTuple):
    """One derivative layer of a syntax functor applied to terms: the
    constructor tag, its payload, the marked child position and the sibling
    subterms at the other positions; a named tuple, cheap to build."""

    tag: str
    payload: tuple
    hole: int
    siblings: tuple  # terms at non-hole child positions, in order


Context = tuple  # of OneHoleLayer, outermost first; () is the bare hole


def con_step(layer: OneHoleLayer, filler: OpenTerm) -> Node:
    """Insert ``filler`` at the marked position of a one-hole layer."""
    tag, payload, hole, siblings = layer
    return Node(tag, siblings[:hole] + (filler,) + siblings[hole:], payload)


def plug(ctx: Context, p: OpenTerm) -> OpenTerm:
    """Plug ``p`` into a single-hole context (a left fold over the layers,
    innermost applied first); the empty context is the identity."""
    out = p
    for layer in reversed(ctx):
        out = con_step(layer, out)
    return out


def decompositions(t: OpenTerm):
    """All (context, subterm) splits of a term; the brute-force unplugger.

    plug(ctx, sub) == t for every yielded pair, in preorder from one explicit
    stack, with no nested generators: ((), t), child 0's splits, child 1's."""
    pending = [((), t)]
    while pending:
        ctx, t = pending.pop()
        yield ctx, t
        if type(t) is Node:
            children = t.children
            for i in reversed(range(len(children))):  # child 0 is popped first
                layer = OneHoleLayer(t.tag, t.payload, i, children[:i] + children[i + 1:])
                pending.append((ctx + (layer,), children[i]))

"""Deterministic bounded generation: expressions, input-state windows,
terms, behavior tables and single-hole contexts.

Everything is either exhaustively enumerated smallest-first or drawn from a
seeded RNG, so identical configurations produce identical streams.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from .terms import (
    BIN_OPS, UN_OPS, Bin, Br, Expr, IAssign, Lit, Loc, Node, Nop, Stop, Un, Var,
)
from .states import FrameState, LowState, StackState, Store
from .semantics import BehaviorTable
from .spf import Context, OneHoleLayer


# ---------------------------------------------------------------------------
# expressions

def expr_stream(cfg, int_mode: bool, n_locs: Optional[int] = None) -> Iterator[Expr]:
    """Expressions in increasing size; literals before dereferences, operators
    in their fixed order."""
    n_locs = cfg.store_cells if n_locs is None else n_locs
    lits = list(range(0, cfg.max_value + 1))
    if int_mode:
        lits += [-v for v in range(1, cfg.max_value + 1)]
    by_size: list[list[Expr]] = [[]]
    atoms = [Lit(n) for n in lits] + [Loc(l) for l in range(n_locs)]
    by_size.append(list(atoms))
    yield from atoms
    size = 2
    while True:
        level: list[Expr] = []
        for op in UN_OPS:
            for e in by_size[size - 1]:
                level.append(Un(op, e))
        for op in BIN_OPS:
            for ls in range(1, size - 1):
                for a in by_size[ls]:
                    for b in by_size[size - 1 - ls]:
                        level.append(Bin(op, a, b))
        by_size.append(level)
        yield from level
        size += 1


def exprs(cfg, int_mode: bool, n_locs: Optional[int] = None) -> list:
    """The first ``cfg.exprs_per_slot`` expressions of the stream, at least one."""
    return list(itertools.islice(expr_stream(cfg, int_mode, n_locs),
                                 max(1, cfg.exprs_per_slot)))


# ---------------------------------------------------------------------------
# input-state windows

def store_window(cfg, int_mode: bool) -> list[Store]:
    values = list(range(0, cfg.max_value + 1))
    if int_mode:
        values += [-v for v in range(1, cfg.max_value + 1)]
    out = []
    for combo in itertools.product(values, repeat=cfg.store_cells):
        out.append(Store.of({i: v for i, v in enumerate(combo)}))
    return out


def pc_window(cfg, length: Optional[int] = None) -> list[int]:
    top = (length if length is not None else cfg.sp_max) + 1
    return list(range(-1, top + 1))


def pc_states(cfg, stores: list[Store], length: Optional[int] = None) -> list[LowState]:
    """Every store paired with every program counter of ``pc_window``."""
    return [LowState(s, pc) for s in stores for pc in pc_window(cfg, length)]


def _wide_stores(cfg, rng: random.Random, n_cells: int, count: int) -> list[Store]:
    if cfg.max_value < 1:
        return [Store.of({})] * count  # no nonzero value to put in a cell
    out = []
    for _ in range(count):
        cells = {}
        for i in range(n_cells):
            if rng.random() < 0.5:
                cells[i] = rng.randint(1, cfg.max_value)
        out.append(Store.of(cells))
    return out


def stack_window(cfg) -> list[StackState]:
    rng = random.Random(cfg.seed ^ 0x57AC)
    stores = store_window(cfg, int_mode=False)
    stores += _wide_stores(cfg, rng, cfg.L * (cfg.sp_max + 1), 8)
    return [StackState(s, sp) for s in dict.fromkeys(stores) for sp in range(0, cfg.sp_max + 1)]


def frames_window(cfg) -> list[FrameState]:
    values = list(range(0, cfg.max_value + 1))
    singles = [tuple(c) for c in itertools.product(values, repeat=cfg.L)]
    out = [FrameState(())]
    out += [FrameState((f,)) for f in singles]
    rng = random.Random(cfg.seed ^ 0xF4A3)
    for _ in range(16):
        depth = rng.randint(2, max(2, cfg.sp_max))
        frames = tuple(
            tuple(rng.randint(0, cfg.max_value) for _ in range(cfg.L)) for _ in range(depth)
        )
        out.append(FrameState(frames))
    return list(dict.fromkeys(out))


def state_window(lang, cfg) -> list:
    if lang.state_kind in ("sp", "frames") and lang.L != cfg.L:
        raise ValueError(f"{lang.name} has frames of length {lang.L}, the windows {cfg.L}")
    match lang.state_kind:
        case "store":
            return store_window(cfg, int_mode=False)
        case "int-store":
            return store_window(cfg, int_mode=True)
        case "pc":
            return pc_states(cfg, store_window(cfg, int_mode=False))
        case "sp":
            return stack_window(cfg)
        case "frames":
            return frames_window(cfg)
    raise ValueError(f"unknown state kind {lang.state_kind}")


# ---------------------------------------------------------------------------
# one-layer shapes and closed terms

def _payload_choices(lang, kind: str, cfg) -> list:
    n_locs = min(cfg.store_cells, lang.L) if lang.state_kind in ("frames", "sp") else cfg.store_cells
    match kind:
        case "loc":
            return list(range(n_locs))
        case "expr":
            return exprs(cfg, lang.state_kind == "int-store", n_locs=n_locs)
        case "nat":
            return list(range(cfg.store_cells))
        case "inst":
            base = list(itertools.islice(expr_stream(cfg, False, n_locs), 2))
            out: list = [Nop(), Stop()]
            out += [IAssign(l, base[1]) for l in range(n_locs)]
            out += [Br(base[0], 2), Br(base[1], -1)]
            return out
    raise ValueError(f"unknown payload kind {kind}")


def _constructor_payloads(lang, cfg) -> list:
    """Each constructor's tag and arity, with every combination of its
    payload choices."""
    return [(tag, arity, list(itertools.product(*(_payload_choices(lang, k, cfg) for k in kinds))))
            for tag, kinds, arity in lang.constructors]


def layer_shapes(lang, cfg) -> list[Node]:
    """Every constructor of the language instantiated once per payload choice,
    children filled with distinct variables x0, x1, ..."""
    out = []
    for tag, arity, combos in _constructor_payloads(lang, cfg):
        children = tuple(Var(f"x{i}") for i in range(arity))
        out += [Node(tag, children, combo) for combo in combos]
    return out


def closed_terms(lang, cfg) -> Iterator[Node]:
    """Closed well-formed terms in increasing size (node count), up to
    ``cfg.max_term_size``."""
    shapes = _constructor_payloads(lang, cfg)
    by_size: list[list[Node]] = [[]]  # the terms of each size, built smallest first
    for size in range(1, cfg.max_term_size + 1):
        level = []
        for tag, arity, combos in shapes:
            if arity == 0 and size == 1:
                level += [Node(tag, (), combo) for combo in combos]
            elif arity == 1 and size >= 2:
                level += [Node(tag, (c,), combo) for c in by_size[size - 1] for combo in combos]
            elif arity == 2 and size >= 3:
                level += [Node(tag, (a, b), combo) for ls in range(1, size - 1)
                          for a in by_size[ls] for b in by_size[size - 1 - ls] for combo in combos]
        by_size.append(level)
        yield from level


# ---------------------------------------------------------------------------
# behavior tables

def sample_table(rng: random.Random, var, domain: list, has_label: bool,
                 cont_vars: list, cfg) -> BehaviorTable:
    """A total table on ``domain``: outputs stay inside the domain so bounded
    exploration never escapes the sampled window.  A label is drawn only
    when ``has_label``; otherwise every entry's label is None."""
    entries = {}
    for state in domain:
        label = rng.randint(0, cfg.max_value) if has_label else None
        out = domain[rng.randrange(len(domain))]
        cont = None
        if cont_vars and rng.random() < 0.5:
            cont = cont_vars[rng.randrange(len(cont_vars))]
        entries[state] = (label, out, cont)
    return BehaviorTable(var, entries)


# called by nothing; perfbench/tracer.py binds it by name, so it stays until
# the tracer stops doing so
def widen_entry(rng: random.Random, state, has_label: bool, cont_vars: list, cfg):
    label = rng.randint(0, cfg.max_value) if has_label else None
    return (label, state, None)


# ---------------------------------------------------------------------------
# terms and contexts, randomly sampled

CONTEXT_LAYERS = 3  # the most layers a sampled context has


def random_term(lang, rng: random.Random, cfg, size: int,
                choices: Optional[dict] = None) -> Node:
    """A random closed term of ``size`` nodes.  ``choices`` maps each payload
    kind met so far to its choices and may be shared across calls; filling
    it draws nothing from ``rng``."""
    choices = {} if choices is None else choices
    nullary = [c for c in lang.constructors if c[2] == 0]
    non_null = [c for c in lang.constructors if c[2] > 0]
    if size <= 1 or not non_null:
        tag, kinds, _ = nullary[rng.randrange(len(nullary))]
        payload = tuple(_rand_payload(lang, k, rng, cfg, choices) for k in kinds)
        return Node(tag, (), payload)
    tag, kinds, arity = non_null[rng.randrange(len(non_null))]
    payload = tuple(_rand_payload(lang, k, rng, cfg, choices) for k in kinds)
    budget = size - 1
    sizes = []
    for i in range(arity):
        left = arity - i - 1
        take = rng.randint(1, max(1, budget - left))
        sizes.append(take)
        budget -= take
    children = tuple(random_term(lang, rng, cfg, sz, choices) for sz in sizes)
    return Node(tag, children, payload)


def _rand_payload(lang, kind: str, rng: random.Random, cfg, choices: dict):
    options = choices.get(kind)
    if options is None:
        options = choices[kind] = _payload_choices(lang, kind, cfg)
    return options[rng.randrange(len(options))]


def sample_contexts(lang, cfg) -> list[Context]:
    """``cfg.samples`` pseudo-random single-hole contexts of at most
    ``CONTEXT_LAYERS`` layers, drawn from ``cfg.seed``, the bare hole first."""
    rng = random.Random(cfg.seed)
    holed = [c for c in lang.constructors if c[2] > 0]
    choices: dict = {}  # payload kind -> its choices, see random_term
    out: list[Context] = [()]
    while len(out) < cfg.samples:
        depth = rng.randint(0, CONTEXT_LAYERS)
        layers = []
        for _ in range(depth):
            tag, kinds, arity = holed[rng.randrange(len(holed))]
            payload = tuple(_rand_payload(lang, k, rng, cfg, choices) for k in kinds)
            hole = rng.randrange(arity)
            siblings = tuple(
                random_term(lang, rng, cfg, rng.randint(1, 3), choices)
                for _ in range(arity - 1)
            )
            layers.append(OneHoleLayer(tag, payload, hole, siblings))
        out.append(tuple(layers))
    return out[:cfg.samples]

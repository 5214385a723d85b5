"""The distributive-law axiom suite run by the `laws` command.

For every registered language this checks, at desk scale:

  * unit: the extension on a bare variable answers straight from its table,
    continuation re-injected as a variable;
  * copoint: every layer the extension hands the rule, rebuilt from the
    subjects the rule receives, is a subterm of the term being extended,
    never a rewrite of one (the rule is watched, not the engine's output);
  * multiplication: on doubly-nested open terms, extending and then
    flattening agrees with flattening and then extending;
  * plugging: every (context, subterm) split of a term plugs back to it,
    and the empty context is the identity.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import replace
from functools import partial

from .terms import IllFormed, Node, OpenTerm, Var, print_term, subst, subterms, term_vars
from .semantics import StepOutcome, extend_law
from .spf import decompositions, plug
from . import gen


def _nested_behavior(lang, tables, inner, state) -> StepOutcome:
    """The behavior of the outer variable ("t", inner): run the inner open
    term and re-inject its continuation as an outer variable."""
    o = extend_law(lang, inner, tables, state)
    cont = Var(("t", o.cont)) if o.cont is not None else None
    return StepOutcome(o.state, o.label, cont, o.flags)


def _flatten_nested(t: OpenTerm) -> OpenTerm:
    """Collapse each outer variable ("t", u) back to the inner open term u
    it stands for (the mu step); a nested term has no other variables."""
    return subst(t, {x: x[1] for x in term_vars(t)})


def _outcome_key(o: StepOutcome):
    return (o.label, o.state, o.cont)


def check_unit_law(lang, cfg, inputs) -> int:
    """extend on Var x equals the table entry with the continuation
    variable-injected."""
    rng = random.Random(cfg.seed ^ 0x301)
    checked = 0
    for variant in range(cfg.table_variants):
        table = gen.sample_table(rng, "x0", inputs, lang.has_label, ["x0", "x1"], cfg)
        for s in inputs:
            got = extend_law(lang, Var("x0"), {"x0": table}, s)
            label, out, cont = table.entries[s]
            expected = StepOutcome(out, label, Var(cont) if cont is not None else None)
            if _outcome_key(got) != _outcome_key(expected):
                raise AssertionError(f"unit law failed for {lang.name} at {s}")
            checked += 1
    return checked


def _nested_cases(lang, cfg):
    """Doubly-nested open terms: an outer shape over variables, each variable
    standing for a small inner open term over x0/x1."""
    small = replace(cfg, exprs_per_slot=2)
    inner_pool = [Var("x0"), Var("x1")] + gen.layer_shapes(lang, small)
    outers = [Var("n0")] + gen.layer_shapes(lang, small)
    for outer in outers:
        names = list(dict.fromkeys(term_vars(outer)))
        for offset in range(2):
            mapping = {
                name: inner_pool[(i + offset) % len(inner_pool)]
                for i, name in enumerate(names)
            }
            yield outer, mapping


def check_multiplication_law(lang, cfg, inputs) -> int:
    """lambda . mu = H mu . lambda . T lambda on the nested case stream."""
    rng = random.Random(cfg.seed ^ 0x302)
    checked = 0
    for outer, mapping in _nested_cases(lang, cfg):
        tables = {
            x: gen.sample_table(rng, x, inputs, lang.has_label, ["x0", "x1"], cfg)
            for x in ("x0", "x1")
        }
        flat = subst(outer, mapping)
        nested = subst(outer, {k: Var(("t", v)) for k, v in mapping.items()})
        # one extension step queries only the outer variables of `nested`
        nested_behaviors = {("t", u): partial(_nested_behavior, lang, tables, u)
                            for u in mapping.values()}
        for s in inputs:
            try:
                via_flat = extend_law(lang, flat, tables, s)
            except IllFormed:
                try:
                    extend_law(lang, nested, nested_behaviors, s)
                except IllFormed:
                    continue
                raise AssertionError(
                    f"multiplication law: only one route ill-formed for {lang.name}")
            via_nested = extend_law(lang, nested, nested_behaviors, s)
            collapsed = StepOutcome(
                via_nested.state, via_nested.label,
                _flatten_nested(via_nested.cont) if via_nested.cont is not None else None)
            if _outcome_key(via_flat) != _outcome_key(collapsed):
                raise AssertionError(
                    f"multiplication law failed for {lang.name}: "
                    f"{outer} / {mapping} at {s}")
            checked += 1
    return checked


def _watch(rule, flat, layers, tag, payload, children, state):
    """``rule``, first checking that the layer it is handed, rebuilt from
    the subjects it receives, is one of ``layers``, the subterms of
    ``flat``."""
    layer = Node(tag, tuple(subject for subject, _ in children), payload)
    if layer not in layers:
        raise AssertionError(f"copoint law failed: the rule was handed {print_term(layer)},"
                             f" which is not a subterm of {print_term(flat)}")
    return rule(tag, payload, children, state)


def check_copoint_law(lang, cfg, inputs) -> int:
    """The extension hands the rule each layer of the term as it stands:
    every (tag, subjects, payload) the rule receives rebuilds a subterm of
    the extended term, never a rewrite of one."""
    rng = random.Random(cfg.seed ^ 0x303)
    checked = 0
    for outer, mapping in itertools.islice(_nested_cases(lang, cfg), 40):
        tables = {
            x: gen.sample_table(rng, x, inputs, lang.has_label, ["x0", "x1"], cfg)
            for x in ("x0", "x1")
        }
        flat = subst(outer, mapping)
        watched = replace(lang, rule=partial(_watch, lang.rule, flat, set(subterms(flat))))
        for s in inputs[:4]:
            try:
                extend_law(watched, flat, tables, s)
            except IllFormed:
                continue
            checked += 1
    return checked


def check_plug_roundtrip(lang, cfg) -> int:
    """plug inverts the brute-force splitter on every generated term.  The
    first split of each term is ((), t), so its check is the hole law: the
    empty context is the identity."""
    small = replace(cfg, exprs_per_slot=2)
    checked = 0
    for t in gen.closed_terms(lang, small):
        for ctx, sub in decompositions(t):
            if plug(ctx, sub) != t:
                raise AssertionError(f"plug round-trip failed on {t}")
            checked += 1
    return checked


def run_law_suite(lang, cfg) -> dict:
    if lang.state_kind == "pc":
        # keep whole pc ranges so shifted lookups stay inside the table domain
        inputs = gen.pc_states(cfg, gen.store_window(cfg, int_mode=False)[:2])
    else:
        inputs = gen.state_window(lang, cfg)[:8]
    return {
        "language": lang.name,
        "unit": check_unit_law(lang, cfg, inputs),
        "copoint": check_copoint_law(lang, cfg, inputs),
        "multiplication": check_multiplication_law(lang, cfg, inputs),
        "plug_roundtrip": check_plug_roundtrip(lang, cfg),
    }

"""Boundary tracing of gsoscheck from outside its source tree.

The tracer wraps the public functions of gsoscheck's modules in place and
restores them afterwards; nothing under ``src/`` is edited.  A wrapped
function may be bound under several names (``checker.step`` is the same
object as ``semantics.step``), so every module attribute of the package that
holds the original is rebound, and callers see the wrapper whichever name
they look up.

Each wrapped call is a span with a name, a start, an end and its parent span.
Spans of the coarse boundaries (commands, campaigns, cases, fallback
bisimulations, law checks) are kept in memory and written once at the end.
Spans of hot functions (``extend_law``, ``step``, rule functions, ...) still
take part in the parent/child accounting that self times need, but are only
aggregated, never stored.  The hottest primitives (term hashing,
``is_closed``, ``Store`` reads and writes) are plain counters.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function, group, stored): `group` is the span name used for
# aggregation; spans of one group nested in each other count once in the
# group's inclusive time.
SPANS = [
    ("checker", "check_coherence", "check_coherence", True),
    ("checker", "check_context_closure", "check_context_closure", True),
    ("checker", "evaluate_open_case", "evaluate", True),
    ("checker", "evaluate_closed_case", "evaluate", True),
    ("checker", "open_cases", "generate", True),
    ("checker", "closed_cases", "generate", True),
    ("semantics", "check_bisim", "check_bisim", True),
    ("semantics", "extend_law", "extend_law", False),
    ("semantics", "step", "step", False),
    ("compilers", "translate_behavior", "translate_behavior", False),
    ("compilers", "compile_open", "compile", False),
    ("compilers", "compile_term", "compile", False),
    ("spf", "plug", "plug", False),
    ("spf", "decompositions", "decompositions", False),
    ("laws", "run_law_suite", "run_law_suite", True),
    ("laws", "check_unit_law", "laws.unit", True),
    ("laws", "check_copoint_law", "laws.copoint", True),
    ("laws", "check_multiplication_law", "laws.multiplication", True),
    ("laws", "check_plug_roundtrip", "laws.plug_roundtrip", True),
]
GEN_FUNCTIONS = [
    "expr_stream", "exprs", "store_window", "pc_window", "stack_window",
    "frames_window", "state_window", "layer_shapes", "closed_terms",
    "sample_table", "widen_entry", "random_term", "sample_contexts",
]
COUNTERS = [
    "terms.Node.hash", "terms.is_closed",
    "states.Store.get", "states.Store.set", "states.Store.of",
]


class _TimedIterator:
    """Times each ``next()`` on a generator as one span, so generation is
    charged when items are drawn, not when the generator is built."""

    def __init__(self, tracer, it, group, stored, label):
        self._tracer, self._it = tracer, it
        self._group, self._stored, self._label = group, stored, label

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._group, self._stored, self._label)
        try:
            return next(self._it)
        finally:
            tracer.exit()


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frame: [group, start, child seconds, stored span index, nearest
        # stored ancestor index]
        self.stack: list = []
        self.spans: list = []  # [label, parent index, start, end]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of a group only
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.under_s = defaultdict(float)  # (parent group, group) -> seconds
        self.under_calls = defaultdict(int)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.step_keys: list = []
        self.fallback_keys: list = []
        self.campaign = 0
        self.widenings = 0
        self._undo: list = []

    # --- spans ---------------------------------------------------------

    # A span's interval starts before its own bookkeeping on entry, and the
    # bookkeeping after its end is charged to the parent's child time, so
    # tracing cost shows in the traced function rather than as unexplained
    # time in its caller.

    def enter(self, group, stored, label):
        start = self.clock()
        stack = self.stack
        ancestor = stack[-1][4] if stack else -1
        index = -1
        if stored:
            index = len(self.spans)
            self.spans.append([label, ancestor, start, 0.0])
            ancestor = index
        self.depth[group] += 1
        stack.append([group, start, 0.0, index, ancestor])

    def exit(self):
        end = self.clock()
        stack = self.stack
        group, start, child, index, _ = stack.pop()
        spent = end - start
        self.calls[group] += 1
        self.self_s[group] += spent - child
        self.depth[group] -= 1
        if self.depth[group] == 0:
            self.inclusive[group] += spent
        if index >= 0:
            self.spans[index][3] = end
        if stack:
            parent = stack[-1]
            self.under_calls[parent[0], group] += 1
            spent += self.clock() - end
            parent[2] += spent
            self.under_s[parent[0], group] += spent

    def span(self, fn, group, stored, label=None, before=None):
        """Wrap ``fn`` so that each call (or, for a generator function, each
        item drawn) is one span of ``group``."""
        label = label or group
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TimedIterator(self, fn(*args, **kwargs), group, stored, label)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                self.enter(group, stored, label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit()
        wrapper.__wrapped__ = fn
        return wrapper

    def open(self, label):
        """A stored span opened by the caller, e.g. around one command."""
        self.enter(label, True, label)

    close = exit

    # --- installing ----------------------------------------------------

    def _rebind(self, old, new):
        """Point every attribute of every gsoscheck module that holds ``old``
        at ``new``."""
        for name, module in list(sys.modules.items()):
            if name != "gsoscheck" and not name.startswith("gsoscheck."):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, old))

    def _set_class_attr(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        from gsoscheck import gen, languages, states, terms

        modules = {name: sys.modules["gsoscheck." + name] for name in
                   ("checker", "semantics", "compilers", "spf", "laws")}
        hooks = {
            "check_coherence": self._new_campaign,
            "check_bisim": self._note_bisim,
            "step": self._note_step,
        }
        for mod, fn_name, group, stored in SPANS:
            old = getattr(modules[mod], fn_name)
            self._rebind(old, self.span(old, group, stored, f"{mod}.{fn_name}",
                                        hooks.get(fn_name)))
        for fn_name in GEN_FUNCTIONS:
            old = getattr(gen, fn_name)
            hook = self._note_widening if fn_name == "widen_entry" else None
            self._rebind(old, self.span(old, "gen", False, before=hook))

        registry = languages.language_registry

        def traced_registry(*args, **kwargs):
            langs = registry(*args, **kwargs)
            for lang in langs.values():
                lang.rule = self.span(lang.rule, "rule", False)
            return langs

        self._rebind(registry, traced_registry)

        self._rebind(terms.is_closed, self._counted("terms.is_closed", terms.is_closed))
        self._set_class_attr(terms.Node, "__hash__",
                             self._counted("terms.Node.hash", terms.Node.__hash__))
        self._set_class_attr(states.Store, "get",
                             self._counted("states.Store.get", states.Store.get))
        self._set_class_attr(states.Store, "set",
                             self._counted("states.Store.set", states.Store.set))
        self._set_class_attr(states.Store, "of", staticmethod(
            self._counted("states.Store.of", states.Store.of)))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # --- hooks on arguments ----------------------------------------------

    def _new_campaign(self, args):
        self.campaign += 1

    def _note_bisim(self, args):
        if self.stack and self.stack[-1][0] == "evaluate":
            self.fallback_keys.append((self.campaign, args[1], args[2]))

    def _note_widening(self, args):
        self.widenings += 1

    def _note_step(self, args):
        lang, term, state = args
        self.step_keys.append((lang.name, lang.L, term, state))

    # --- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far.  Call after
        ``uninstall``: distinct keys are counted by hashing terms, which
        must not show up in the term-hash counter."""
        if self._undo:
            raise RuntimeError("uninstall the tracer before reading metrics")
        calls, incl, self_s = self.calls, self.inclusive, self.self_s
        under_s, under_calls = self.under_s, self.under_calls

        def ratio(a, b):
            return a / b if b else 0.0

        stages = {
            "generate": under_s["check_coherence", "generate"],
            "upper": under_s["evaluate", "translate_behavior"],
            "compile": under_s["evaluate", "compile"],
            "lower": under_s["evaluate", "extend_law"] + under_s["evaluate", "step"],
            "compare": self_s["evaluate"],
            "fallback": under_s["evaluate", "check_bisim"],
        }
        fallback_calls = under_calls["evaluate", "check_bisim"]
        fallback_distinct = len(set(self.fallback_keys))
        step_misses = under_calls["step", "extend_law"]
        out = {f"checker.stage.{name}.s": secs for name, secs in stages.items()}
        out.update({
            "checker.fallback.calls": fallback_calls,
            "checker.fallback.distinct": fallback_distinct,
            "checker.fallback.useful_ratio": ratio(fallback_distinct, fallback_calls),
            "checker.stage.coverage": ratio(
                stages["generate"] + under_s["check_coherence", "evaluate"],
                incl["check_coherence"]),
            "checker.ctx.bisim.s": under_s["check_context_closure", "check_bisim"],
            "gen.s": incl["gen"],
            "gen.widen_entry.calls": self.widenings,
            "compilers.translate_behavior.calls": calls["translate_behavior"],
            "compilers.translate_behavior.s": incl["translate_behavior"],
            "compilers.compile.calls": calls["compile"],
            "compilers.compile.s": incl["compile"],
            "semantics.extend_law.calls": calls["extend_law"],
            "semantics.extend_law.self_s": self_s["extend_law"],
            "semantics.step.calls": calls["step"],
            "semantics.step.misses": step_misses,
            "semantics.step.hit_ratio": ratio(calls["step"] - step_misses, calls["step"]),
            "semantics.step.distinct_keys": len(set(self.step_keys)),
            "semantics.check_bisim.calls": calls["check_bisim"],
            "semantics.check_bisim.s": incl["check_bisim"],
            "languages.rule.calls": calls["rule"],
            "languages.rule.self_s": self_s["rule"],
            "spf.plug.calls": calls["plug"],
            "spf.plug.s": incl["plug"],
            "spf.decompositions.s": incl["decompositions"],
            "laws.unit.s": incl["laws.unit"],
            "laws.copoint.s": incl["laws.copoint"],
            "laws.multiplication.s": incl["laws.multiplication"],
            "laws.plug_roundtrip.s": incl["laws.plug_roundtrip"],
        })
        out.update({f"{key}.calls": n for key, n in self.counts.items()})
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh)

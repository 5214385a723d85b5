"""Command-line front end.

Commands: run, compile, coherence, bisim, ctx-closure, preserve, laws,
demo, replay.  Exit codes: 1 for a verdict in ``FAILING_VERDICTS`` (a
counterexample or an expected verdict missed), 0 for any other verdict, 2
for usage or parse errors, 3 for an internal error, with its traceback on
standard error.  All campaigns are deterministic per (config, seed); the
seed is ``--seed`` or, without it, the default
``CampaignConfig._field_defaults["seed"]``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from functools import cache, partial

from .terms import (
    MAX_DEPTH, IllFormed, Node, is_closed, parse_term, print_term, show_low, subst, term_depth,
)
from .semantics import Distinguished, Equivalent, check_bisim, run as run_term
from .languages import language_registry
from .compilers import compiler_registry, compile_term
from .checker import (
    CampaignConfig, CoherenceCase, Fail, Pass, check_case, check_coherence,
    check_context_closure, check_preservation, describe_outcome,
)
from .laws import run_law_suite
from .reports import Report, load_report, read_json
from . import gen


def _count(text: str, least: int = 0) -> int:
    """A count from the command line: a natural number of at least
    ``least``, anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}: {value}")
    return value


def _seed(text: str) -> int:
    """A seed from the command line: an integer literal in any base, as
    ``0xC0FFEE``; anything else is a usage error."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed value: {text!r}") from None


# a budget of 0 samples, term size or depth would check nothing and pass;
# a frame of 0 cells leaves out every assignment, so no frame leak can show;
# 0 store cells or a top value of 0 leave only all-zero stores, where no
# leaked nonzero value can show
_budget = partial(_count, least=1)

# each CampaignConfig field a command line sets, with its parser, in flag
# order; a command takes the first three only when it reads them
_BUDGETS = {"samples": _budget, "max_term_size": _budget, "depth": _budget, "seed": _seed,
            "store_cells": _budget, "max_value": _budget, "sp_max": _count}
_PER_COMMAND = tuple(_BUDGETS)[:3]

FAILING_VERDICTS = frozenset({"fail", "distinguished", "base-distinguished", "violation",
                              "mismatch", "differs"})


def _add_frame_len_and_json(p: argparse.ArgumentParser):
    p.add_argument("--frame-len", type=_budget, default=CampaignConfig._field_defaults["L"])
    p.add_argument("--json", action="store_true")


def _add_budget_flags(p: argparse.ArgumentParser, *reads: str):
    """The campaign budget, with just those of ``samples``, ``max_term_size``
    and ``depth`` that the command reads, named in ``reads``; the others
    keep their defaults, which the report still echoes."""
    for name, parse in _BUDGETS.items():
        default = CampaignConfig._field_defaults[name]
        if name in reads or name not in _PER_COMMAND:
            p.add_argument("--" + name.replace("_", "-"), type=parse, default=default)
        else:
            p.set_defaults(**{name: default})
    # ignored: perfbench/run.py still appends --threads 1 to every command line
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    _add_frame_len_and_json(p)


def _config(args) -> CampaignConfig:
    return CampaignConfig(L=args.frame_len, **{name: getattr(args, name) for name in _BUDGETS})


def _lookup(registry: dict, kind: str, name: str):
    """The registry entry ``name``; an unknown name is a usage error."""
    if name not in registry:
        raise IllFormed(f"unknown {kind} {name}")
    return registry[name]


def _program(text: str, lang, closed: bool = True) -> Node:
    """A program of ``lang`` read from the command line.  A term that does
    not parse, is open (unless ``closed`` is false) or is ill-formed in
    ``lang`` is a usage error."""
    term = parse_term(text)
    if closed and not is_closed(term):
        raise IllFormed(f"not a closed program: {text}")
    lang.validate(term)
    return term


# ---------------------------------------------------------------------------
# plain commands

def _cmd_run(args) -> tuple[Report, list]:
    lang = _lookup(language_registry(args.frame_len), "language", args.lang)
    term = _program(args.term, lang)
    state = lang.state_kind.parse(args.input, lang.L)
    result = run_term(lang, term, state, args.fuel)
    lines = []
    if args.trace:
        current = term
        for state_in, out in result.trace:
            label = f" ({out.label})" if out.label is not None else ""
            src = f"⟨{state_in.show()}, {print_term(current)}⟩"
            if out.cont is None:
                lines.append(f"{src} ⇓{label} {out.state.show()}")
            else:
                lines.append(
                    f"{src} →{label} "
                    f"⟨{out.state.show()}, {print_term(out.cont)}⟩")
                current = out.cont
    if result.terminated:
        lines.append(f"terminated after {result.steps} step(s): {result.final.show()}")
        verdict = "terminated"
    else:
        lines.append(f"out of fuel after {result.steps} step(s): {result.final.show()}"
                     f" residual {print_term(result.residual)}")
        verdict = "out-of-fuel"
    report = Report(config={"fuel": args.fuel}, verdict=verdict,
                    witness={"final": result.final.show(), "steps": result.steps})
    return report, lines


def _cmd_compile(args) -> tuple[Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    # a layer map also translates open terms
    term = _program(args.term, cp.source, closed=not cp.open_checkable)
    out = compile_term(cp, term)
    text = show_low(out) if isinstance(out, Node) and out.tag == "instr" else print_term(out)
    report = Report(config={}, verdict="compiled", witness={"target": text})
    return report, [text]


def _cmd_coherence(args) -> tuple[Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    cfg = _config(args)._replace(mode=args.mode)
    verdict = check_coherence(cp, cfg)
    if isinstance(verdict, Pass):
        lines = [
            f"PASS {cp.name}: {verdict.cases} case(s)"
            + (" exhausted" if verdict.exhausted else " (budget reached)")
        ]
        if verdict.fallback_cases:
            lines.append(
                f"note: {verdict.fallback_cases} case(s) agreed only up to bounded"
                f" behavioral comparison of continuations (depth {cfg.fallback_depth})"
            )
        if verdict.inconclusive:
            lines.append(f"warning: {verdict.inconclusive} inconclusive case(s)")
        if verdict.illformed:
            lines.append(f"note: {verdict.illformed} ill-formed case(s) skipped")
        if verdict.flags:
            lines.append("note: totalized rules exercised: " + ", ".join(sorted(verdict.flags)))
        return Report(config=cfg.echo(), verdict="pass", tallies=_tallies(verdict)), lines
    witness = verdict.describe()
    lines = [
        f"FAIL {cp.name} after {verdict.cases_before} passing case(s)",
        f"  case:  {print_term(verdict.case.subject)}  at  {verdict.case.target_input.show()}",
        f"  diverges in: {verdict.divergence.field_name}",
        f"  upper: {_show_outcome(witness['divergence']['upper'])}",
        f"  lower: {_show_outcome(witness['divergence']['lower'])}",
    ]
    report = Report(config=cfg.echo(), verdict="fail", witness=witness,
                    tallies={"cases_before": verdict.cases_before,
                             "flags": sorted(verdict.flags)})
    return report, lines


def _tallies(verdict: Pass) -> dict:
    return {**verdict._asdict(), "flags": sorted(verdict.flags)}


def _show_outcome(d: dict) -> str:
    label = f" label {d['label']}" if d["label"] is not None else ""
    cont = f" -> {d['continuation']}" if d["continuation"] is not None else " (terminated)"
    return f"{d['state']}{label}{cont}"


def _cmd_bisim(args) -> tuple[Report, list]:
    lang = _lookup(language_registry(args.frame_len), "language", args.lang)
    cfg = _config(args)
    left, right = _program(args.left, lang), _program(args.right, lang)
    window = gen.state_window(lang, cfg)
    verdict = check_bisim(lang, left, right, window, cfg.depth)
    if isinstance(verdict, Equivalent):
        lines = [f"EQUIVALENT to depth {verdict.depth} over {verdict.inputs} input(s)"]
        return Report(config=cfg.echo(), verdict="equivalent",
                      tallies={"depth": verdict.depth, "inputs": verdict.inputs}), lines
    witness = {
        "path": [s.show() for s in verdict.path],
        "reason": verdict.reason,
        "left": describe_outcome(verdict.left),
        "right": describe_outcome(verdict.right),
    }
    lines = [
        "DISTINGUISHED",
        f"  input path: {witness['path']}",
        f"  reason: {verdict.reason}",
        f"  left:  {_show_outcome(witness['left'])}",
        f"  right: {_show_outcome(witness['right'])}",
    ]
    return Report(config=cfg.echo(), verdict="distinguished", witness=witness), lines


def _cmd_ctx_closure(args) -> tuple[Report, list]:
    lang = _lookup(language_registry(args.frame_len), "language", args.lang)
    cfg = _config(args)
    left, right = _program(args.left, lang), _program(args.right, lang)
    report_obj = check_context_closure(lang, left, right, cfg)
    lines = [f"status: {report_obj.status} over {report_obj.contexts_checked} context(s)"]
    witness = None
    if report_obj.status == "violation":
        ctx, verdict = report_obj.violations[0]
        witness = {"context_layers": len(ctx), "reason": verdict.reason}
        lines.append(f"  VIOLATION: context of {len(ctx)} layer(s) distinguishes the pair")
    report = Report(config=cfg.echo(), verdict=report_obj.status, witness=witness,
                    tallies={"contexts": report_obj.contexts_checked,
                             "violations": len(report_obj.violations)})
    return report, lines


def _cmd_preserve(args) -> tuple[Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    cfg = _config(args)
    pairs = _load_pairs(args.pairs, cp) if args.pairs else None
    entries = check_preservation(cp, cfg, pairs)
    lines = []
    for e in entries:
        src = "equivalent" if isinstance(e.source, Equivalent) else "distinguished"
        line = f"source {src}: {print_term(e.left)}  /  {print_term(e.right)}"
        if e.target_illformed:
            line += "  => target ill-formed"
        if e.target is not None:
            tgt = "equivalent" if isinstance(e.target, Equivalent) else "DISTINGUISHED"
            line += f"  => target {tgt}"
            if isinstance(e.target, Distinguished):
                t = e.target
                labels = f": {t.left.label} vs {t.right.label}" if t.reason == "label" else ""
                line += f" at {[s.show() for s in t.path]} ({t.reason}{labels})"
        lines.append(line)
    violations = [e for e in entries if e.violated]
    illformed = sum(e.target_illformed for e in entries)
    witness = None
    if violations:
        v = violations[0]
        witness = {
            "left": print_term(v.left), "right": print_term(v.right),
            "target_path": [s.show() for s in v.target.path],
            "reason": v.target.reason,
            "target_left": describe_outcome(v.target.left),
            "target_right": describe_outcome(v.target.right),
        }
        lines.append(f"{len(violations)} preservation violation(s)")
    if illformed:
        lines.append(f"note: {illformed} pair(s) ill-formed in the target skipped")
    report = Report(config=cfg.echo(), verdict="violation" if violations else "preserved",
                    witness=witness,
                    tallies={"pairs": len(entries), "violations": len(violations),
                             "illformed": illformed})
    return report, lines


def _load_pairs(path: str, cp) -> list:
    """The pairs of a ``--pairs`` file; one compiling deeper than twice
    ``MAX_DEPTH`` is a usage error, one not compiling is left to
    ``check_preservation``.  A layer map wraps each layer at most once
    (``sandbox``, ``isandbox``), so the bound passes every such image of a
    parsed program and stops the long ``instr`` chains of ``flatten-low``."""
    data = read_json(path)
    if not isinstance(data, list) or not all(
            isinstance(d, dict) and isinstance(d.get("left"), str)
            and isinstance(d.get("right"), str) for d in data):
        raise IllFormed(f"{path}: expected a list of {{left, right}} objects of terms")
    if not data:
        raise IllFormed(f"{path}: no pairs to check")
    pairs = [(_program(d["left"], cp.source), _program(d["right"], cp.source)) for d in data]
    for i, p in enumerate(p for pair in pairs for p in pair):
        try:
            deep = term_depth(compile_term(cp, p)) > 2 * MAX_DEPTH
        except IllFormed:
            continue
        if deep:
            raise IllFormed(f"{path}: pair {i // 2} compiles to a program nested deeper"
                            f" than {2 * MAX_DEPTH} nodes")
    return pairs


def _cmd_laws(args) -> tuple[Report, list]:
    langs = language_registry(args.frame_len)
    cfg = _config(args)
    names = [args.lang] if args.lang != "all" else list(langs)
    lines = []
    tallies = {}
    verified = {}  # the plug round-trip's terms, checked once for all languages
    for name in names:
        outcome = run_law_suite(_lookup(langs, "language", name), cfg, verified)
        tallies[name] = outcome
        lines.append(
            f"{name}: unit {outcome['unit']}, copoint {outcome['copoint']},"
            f" multiplication {outcome['multiplication']},"
            f" plug round-trip {outcome['plug_roundtrip']} -- ok"
        )
    return Report(config=cfg.echo(), verdict="pass", tallies=tallies), lines


# ---------------------------------------------------------------------------
# demos: pinned configurations reproducing the case studies

def _label_leak(tag: str):
    """A failure on a ``tag`` layer, labelled 0 upstairs and otherwise below."""
    return lambda v, cfg: (isinstance(v, Fail) and v.case.subject.tag == tag
                           and v.divergence.field_name == "label" and v.divergence.upper.label == 0
                           and v.divergence.lower.label not in (0, None))


def _exhausted(v, cfg) -> bool:
    return isinstance(v, Pass) and v.exhausted and v.inconclusive == 0


def _frame_leak(v, cfg) -> bool:
    inp = v.case.target_input if isinstance(v, Fail) else None
    return (inp is not None and v.case.subject.tag == "frame" and inp.sp == 0
            and any(inp.store.get(i) != 0 for i in range(cfg.L))
            and v.divergence.field_name == "state" and v.divergence.lower.state.store == inp.store)


def _coherence_demo(compiler: str, cfg: CampaignConfig, claim, expectation: str,
                    pinned: str | None = None):
    """Reproduced when ``claim(verdict, cfg)`` holds of the campaign and the
    ``pinned`` witness text, evaluated alone first, gives its very divergence."""
    cp = compiler_registry()[compiler]
    ok = True
    if pinned is not None:
        witness = json.loads(pinned)
        case = CoherenceCase(_program(witness["case"]["term"], cp.source),
                             cp.target.state_kind.parse(witness["case"]["input"], cfg.L))
        alone = check_case(cp, case, cfg)
        ok = isinstance(alone, Fail) and alone.divergence.describe() == witness["divergence"]
    verdict = check_coherence(cp, cfg)
    return ok and claim(verdict, cfg), verdict, cfg, expectation


EXAMPLE1_SOURCE = parse_term("(while (lt (var 0) (lit 2)) (assign 1 (add (var 1) (lit 1))))")
EXAMPLE1_COMPILED = "br !(var 0 < 2) 3 ;; assign 1 (var 1 + 1) ;; br (lit 1) -2"


def _demo_example1():
    text = show_low(compile_term(compiler_registry()["flatten-low"], EXAMPLE1_SOURCE))
    return (text == EXAMPLE1_COMPILED, text, CampaignConfig(),
            "the loop compiles to the exact three-instruction sequence")


def _demo_sec3_context():
    flag = language_registry()["while-flag"]
    context = "(seq (obs 1 ?hole) (while (sub (var 1) (lit 1)) skip))"
    ctx = _program(context, flag, closed=False)
    store = flag.state_kind.parse("{0:1}", flag.L)
    run_a, run_b = (run_term(flag, subst(ctx, {"hole": _program(p, flag)}), store, 10_000)
                    for p in ("(while (var 0) (assign 0 (lit 0)))",
                              "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"))
    payload = {"context": context.replace("?hole", "_"),
               "plugged_a": {"terminated": run_a.terminated, "steps": run_a.steps},
               "plugged_b": {"terminated": run_b.terminated, "steps": run_b.steps}}
    return run_a.terminated and not run_b.terminated, payload, CampaignConfig(), (
        "one plugged program terminates and the other exhausts its fuel")


DEMO_FNS = {
    "fig3": partial(_coherence_demo, "embed-flag", CampaignConfig(samples=10_000),
                    _label_leak("assign"),
                    "embed-flag must fail on an assignment layer with label v vs 0"),
    "fig4": partial(_coherence_demo, "sandbox", CampaignConfig(samples=2000), _exhausted,
                    "sandbox must pass exhaustively with no inconclusive cases"),
    "fig5": partial(_coherence_demo, "unsandbox", CampaignConfig(samples=2000),
                    _label_leak("sandbox"),
                    "unsandbox must leak the inner label on a sandboxed layer"),
    "fig6": partial(
        _coherence_demo, "flatten-low", CampaignConfig(mode="closed"),
        lambda v, cfg: isinstance(v, Fail),
        "the flattening compiler is not a coalgebra homomorphism: pinned loop"
        " at pc 1 terminates upstairs but steps into the dead body downstairs",
        pinned='{"case": {"term": "(while (lit 0) (assign 0 (lit 0)))", "input": "({0:3}, 1)"},'
               ' "divergence": {"field": "state", "upper": {"state": "({0:3}, 1)",'
               ' "label": null, "continuation": null}, "lower": {"state": "({}, 2)",'
               ' "label": null, "continuation":'
               ' "(instr (br (not (lit 0)) 3) (assign 0 (lit 0)) (br (lit 1) -2))"}}}'),
    "fig8": partial(_coherence_demo, "embed-low-sec", CampaignConfig(samples=10_000),
                    _exhausted, "the secure primitives must pass, including out-of-range pcs"),
    "fig9": partial(_coherence_demo, "embed-stack", CampaignConfig(samples=10_000),
                    _frame_leak, "plain stack allocation must leak the uncleared block at sp 0"),
    "fig10": partial(_coherence_demo, "embed-stack-clear", CampaignConfig(samples=10_000),
                     _exhausted, "the clearing frame rule must restore coherence"),
    "sec6-fail": partial(
        _coherence_demo, "embed-int", CampaignConfig(samples=4000),
        lambda v, cfg: isinstance(v, Fail) and any(n < 0 for _, n in v.case.target_input.cells),
        "identity compilation into the int machine must fail on a negative store;"
        " the pinned min-assignment diverges -1 vs 0",
        pinned='{"case": {"term": "(assign 0 (min (var 0) (lit 0)))", "input": "{0:-1}"},'
               ' "divergence": {"field": "state", "upper": {"state": "{}", "label": null,'
               ' "continuation": null}, "lower": {"state": "{0:-1}", "label": null,'
               ' "continuation": null}}}'),
    "sec6-pass": partial(_coherence_demo, "sandbox-int", CampaignConfig(samples=6000),
                         _exhausted, "the negative-forgetting sandbox must restore coherence"),
    "example1": _demo_example1,
    "sec3-context": _demo_sec3_context,
}


def _cmd_demo(args) -> tuple[Report, list]:
    ok, payload, cfg, expectation = DEMO_FNS[args.name]()
    lines = [f"demo {args.name}: {'reproduced' if ok else 'NOT REPRODUCED'} -- {expectation}"]
    if isinstance(payload, Fail):
        witness = payload.describe()
        lines.append(f"  witness: {print_term(payload.case.subject)}"
                     f" at {payload.case.target_input.show()}")
    elif isinstance(payload, Pass):
        witness = {"tallies": _tallies(payload)}
        lines.append(f"  {payload.cases} case(s), {payload.fallback_cases} via bounded"
                     f" continuation comparison")
    else:  # the text or the runs of a demo that is no campaign
        witness = {"payload": payload}
        lines.append(f"  {payload}")
    return Report(config=cfg.echo(), verdict="reproduced" if ok else "mismatch",
                  witness=witness), lines


def _cmd_replay(args) -> tuple[Report, list]:
    saved = load_report(args.report)
    try:  # a command that argparse ends (help, a bad flag) or a replay compares nothing
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rerun = build_parser().parse_args(saved.command).fn
    except SystemExit as end:
        if end.code:  # argparse has printed why on standard error
            raise IllFormed(
                f"the saved command does not parse: {' '.join(saved.command)}") from None
        rerun = None
    if rerun in (None, _cmd_replay):
        raise IllFormed(f"the saved command runs no campaign: {' '.join(saved.command)}")
    _, fresh, _ = execute(list(saved.command))
    same = saved.matches(fresh)
    lines = [f"replay of {' '.join(saved.command)}: {'identical' if same else 'DIFFERS'}"]
    report = Report(config=saved.config,
                    verdict="identical" if same else "differs",
                    witness=None if same else {"fresh": fresh.verdict, "saved": saved.verdict})
    return report, lines


# ---------------------------------------------------------------------------
# wiring

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later command line of the process; parsing leaves it unchanged."""
    top = argparse.ArgumentParser(prog="gsoscheck")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a program to termination or fuel exhaustion")
    p.add_argument("--lang", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--fuel", type=_count, default=10_000)
    p.add_argument("--trace", action="store_true")
    _add_frame_len_and_json(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compile", help="translate a source program")
    p.add_argument("--compiler", required=True)
    p.add_argument("--term", required=True)
    _add_frame_len_and_json(p)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("coherence", help="run a coherence campaign")
    p.add_argument("--compiler", required=True)
    p.add_argument("--mode", choices=("open", "closed", "auto"), default="auto")
    _add_budget_flags(p, "samples", "max_term_size")
    p.set_defaults(fn=_cmd_coherence)

    p = sub.add_parser("bisim", help="bounded bisimilarity of two programs")
    p.add_argument("--lang", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_budget_flags(p, "depth")
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("ctx-closure", help="contextual closure of a bisimilar pair")
    p.add_argument("--lang", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_budget_flags(p, "samples", "depth")
    p.set_defaults(fn=_cmd_ctx_closure)

    p = sub.add_parser("preserve", help="bisimilarity preservation through a compiler")
    p.add_argument("--compiler", required=True)
    p.add_argument("--pairs", help="JSON file: [{left, right}, ...] in term syntax")
    _add_budget_flags(p, "samples", "max_term_size", "depth")
    p.set_defaults(fn=_cmd_preserve)

    p = sub.add_parser("laws", help="distributive-law axiom suite")
    p.add_argument("--lang", default="all")
    _add_budget_flags(p, "max_term_size")
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("demo", help="reproduce a pinned case study")
    p.add_argument("name", choices=tuple(DEMO_FNS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("replay", help="re-run a saved report and compare")
    p.add_argument("--report", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_replay)
    return top


def execute(argv: list) -> tuple[int, Report, list]:
    """Run one command line: its exit code, its report and its lines.  The
    report echoes ``argv`` and the wall time of the whole command, parsing
    included; the code is 1 for a verdict in ``FAILING_VERDICTS``, else 0;
    under ``--json``, however abbreviated, the one line is the report.

    The command body runs with the cyclic garbage collector paused.  What a
    command builds is acyclic: terms and outcomes are immutable and
    hash-consed, and a memo entry refers only to its children's entries, so
    reference counting frees all of it and a collection would only traverse
    the live memos and free nothing (``tests/test_checker.py`` checks that
    no command leaves a cycle behind).  The collector is switched back on
    afterwards only if it was on before, so a nested ``replay`` or a caller
    that had switched it off keeps its setting."""
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        report, lines = args.fn(args)
    finally:
        if collecting:
            gc.enable()
    report.command = list(argv)
    report.wall_time_s = time.monotonic() - started
    if args.json:
        lines = [report.to_json()]
    return int(report.verdict in FAILING_VERDICTS), report, lines


def main(argv=None) -> int:
    try:
        code, _, lines = execute(list(sys.argv[1:] if argv is None else argv))
    except IllFormed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a verdict (1) or a usage error (2)
        sys.__excepthook__(*sys.exc_info())  # the interpreter's traceback
        return 3
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early, as `| head` does: the rest
        # has nowhere to go, and the interpreter's last flush must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

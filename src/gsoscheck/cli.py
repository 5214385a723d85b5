"""Command-line front end.

Commands: run, compile, coherence, bisim, ctx-closure, preserve, laws,
demo, replay.  Exit codes: 0 pass/reproduced, 1 counterexample or expected
verdict missed, 2 usage or parse errors.  All campaigns are deterministic
per (config, seed); the seed is ``--seed`` or, without it, the default
``CampaignConfig.seed``.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, replace
from functools import partial

from .terms import (
    Bin, IllFormed, Lit, Loc, Node, assign, is_closed, parse_term, print_term,
    show_low, skip, while_,
)
from .states import LowState, Store, parse_state, show_state
from .semantics import Distinguished, Equivalent, check_bisim, run as run_term
from .languages import language_registry
from .compilers import compiler_registry, compile_term
from .checker import (
    CampaignConfig, CoherenceCase, Fail, Pass, check_coherence,
    check_context_closure, check_preservation, evaluate_closed_case,
    evaluate_open_case, describe_outcome,
)
from .spf import OneHoleLayer, plug
from .laws import run_law_suite
from .reports import Report, load_report, read_json
from . import gen

DEMOS = (
    "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
    "sec6-fail", "sec6-pass", "example1", "sec3-context",
)


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


# a budget of 0 samples, term size or depth would check nothing and pass;
# a frame of 0 cells leaves out every assignment, so no frame leak can show;
# 0 store cells or a top value of 0 leave only all-zero stores, where no
# leaked nonzero value can show
_budget = partial(_count, least=1)


def _add_frame_len_and_json(p: argparse.ArgumentParser):
    p.add_argument("--frame-len", type=_budget, default=CampaignConfig.L)
    p.add_argument("--json", action="store_true")


def _add_budget_flags(p: argparse.ArgumentParser, sampled: bool = True):
    """The campaign budget; ``sampled=False`` leaves out ``--samples`` and
    ``--max-term-size`` for a command that samples no cases or terms, whose
    report still echoes their defaults."""
    if sampled:
        p.add_argument("--samples", type=_budget, default=CampaignConfig.samples)
        p.add_argument("--max-term-size", type=_budget, default=CampaignConfig.max_term_size)
    else:
        p.set_defaults(samples=CampaignConfig.samples,
                       max_term_size=CampaignConfig.max_term_size)
    p.add_argument("--depth", type=_budget, default=CampaignConfig.depth)
    p.add_argument("--seed", type=lambda v: int(v, 0), default=CampaignConfig.seed)
    p.add_argument("--store-cells", type=_budget, default=CampaignConfig.store_cells)
    p.add_argument("--max-value", type=_budget, default=CampaignConfig.max_value)
    p.add_argument("--sp-max", type=_count, default=CampaignConfig.sp_max)
    # ignored: perfbench/run.py still appends --threads 1 to every command line
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    _add_frame_len_and_json(p)


def _config(args) -> CampaignConfig:
    return CampaignConfig(
        store_cells=args.store_cells,
        max_value=args.max_value,
        max_term_size=args.max_term_size,
        depth=args.depth,
        samples=args.samples,
        L=args.frame_len,
        sp_max=args.sp_max,
        seed=args.seed,
    )


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

def _cmd_run(args) -> tuple[int, Report, list]:
    lang = _lookup(language_registry(args.frame_len), "language", args.lang)
    term = _program(args.term, lang)
    state = parse_state(lang.state_kind, args.input, lang.L)
    result = run_term(lang, term, state, args.fuel)
    lines = []
    if args.trace:
        current = term
        for state_in, out in result.trace:
            label = f" ({out.label})" if out.label is not None else ""
            src = f"⟨{show_state(state_in)}, {print_term(current)}⟩"
            if out.cont is None:
                lines.append(f"{src} ⇓{label} {show_state(out.state)}")
            else:
                lines.append(
                    f"{src} →{label} "
                    f"⟨{show_state(out.state)}, {print_term(out.cont)}⟩")
                current = out.cont
    if result.terminated:
        lines.append(f"terminated after {result.steps} step(s): {show_state(result.final)}")
        verdict = "terminated"
    else:
        lines.append(f"out of fuel after {result.steps} step(s): {show_state(result.final)}"
                     f" residual {print_term(result.residual)}")
        verdict = "out-of-fuel"
    report = Report(config={"fuel": args.fuel}, verdict=verdict,
                    witness={"final": show_state(result.final), "steps": result.steps})
    return 0, report, lines


def _cmd_compile(args) -> tuple[int, Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    # a layer map also translates open terms
    term = _program(args.term, cp.source, closed=not cp.open_checkable)
    out = compile_term(cp, term)
    low = cp.target.state_kind == "pc" and isinstance(out, Node) and out.tag == "instr"
    text = show_low(out) if low else print_term(out)
    report = Report(config={}, verdict="compiled", witness={"target": text})
    return 0, report, [text]


def _cmd_coherence(args) -> tuple[int, Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    cfg = replace(_config(args), mode=args.mode)
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
        return 0, Report(config=cfg.echo(), verdict="pass", tallies=_tallies(verdict)), lines
    witness = verdict.describe()
    lines = [
        f"FAIL {cp.name} after {verdict.cases_before} passing case(s)",
        f"  case:  {print_term(verdict.case.subject)}  at  {show_state(verdict.case.target_input)}",
        f"  diverges in: {verdict.divergence.field_name}",
        f"  upper: {_show_outcome(witness['divergence']['upper'])}",
        f"  lower: {_show_outcome(witness['divergence']['lower'])}",
    ]
    report = Report(config=cfg.echo(), verdict="fail", witness=witness,
                    tallies={"cases_before": verdict.cases_before,
                             "flags": sorted(verdict.flags)})
    return 1, report, lines


def _tallies(verdict: Pass) -> dict:
    return {**asdict(verdict), "flags": sorted(verdict.flags)}


def _show_outcome(d: dict) -> str:
    label = f" label {d['label']}" if d["label"] is not None else ""
    cont = f" -> {d['continuation']}" if d["continuation"] is not None else " (terminated)"
    return f"{d['state']}{label}{cont}"


def _cmd_bisim(args) -> tuple[int, Report, list]:
    lang = _lookup(language_registry(args.frame_len), "language", args.lang)
    cfg = _config(args)
    left, right = _program(args.left, lang), _program(args.right, lang)
    window = gen.state_window(lang, cfg)
    verdict = check_bisim(lang, left, right, window, cfg.depth)
    if isinstance(verdict, Equivalent):
        lines = [f"EQUIVALENT to depth {verdict.depth} over {verdict.inputs} input(s)"]
        report = Report(config=cfg.echo(), verdict="equivalent",
                        tallies={"depth": verdict.depth, "inputs": verdict.inputs})
        return 0, report, lines
    lines = [
        "DISTINGUISHED",
        f"  input path: {[show_state(s) for s in verdict.path]}",
        f"  reason: {verdict.reason}",
        f"  left:  {_show_outcome(describe_outcome(verdict.left))}",
        f"  right: {_show_outcome(describe_outcome(verdict.right))}",
    ]
    report = Report(
        config=cfg.echo(), verdict="distinguished",
        witness={
            "path": [show_state(s) for s in verdict.path],
            "reason": verdict.reason,
            "left": describe_outcome(verdict.left),
            "right": describe_outcome(verdict.right),
        })
    return 1, report, lines


def _cmd_ctx_closure(args) -> tuple[int, Report, list]:
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
    return (0 if report_obj.status == "closed" else 1), report, lines


def _cmd_preserve(args) -> tuple[int, Report, list]:
    cp = _lookup(compiler_registry(L=args.frame_len), "compiler", args.compiler)
    cfg = _config(args)
    pairs = _load_pairs(args.pairs, cp.source) if args.pairs else None
    result = check_preservation(cp, cfg, pairs)
    lines = []
    for e in result.entries:
        src = "equivalent" if isinstance(e.source, Equivalent) else "distinguished"
        line = f"source {src}: {print_term(e.left)}  /  {print_term(e.right)}"
        if e.target_illformed:
            line += "  => target ill-formed"
        if e.target is not None:
            tgt = "equivalent" if isinstance(e.target, Equivalent) else "DISTINGUISHED"
            line += f"  => target {tgt}"
            if isinstance(e.target, Distinguished):
                line += (f" at {[show_state(s) for s in e.target.path]}"
                         f" ({e.target.reason}:"
                         f" {e.target.left.label} vs {e.target.right.label})"
                         if e.target.reason == "label" else
                         f" at {[show_state(s) for s in e.target.path]} ({e.target.reason})")
        lines.append(line)
    violations = result.violations
    witness = None
    if violations:
        v = violations[0]
        witness = {
            "left": print_term(v.left), "right": print_term(v.right),
            "target_path": [show_state(s) for s in v.target.path],
            "reason": v.target.reason,
            "target_left": describe_outcome(v.target.left),
            "target_right": describe_outcome(v.target.right),
        }
        lines.append(f"{len(violations)} preservation violation(s)")
    if result.illformed:
        lines.append(f"note: {result.illformed} pair(s) ill-formed in the target skipped")
    report = Report(config=cfg.echo(), verdict="violation" if violations else "preserved",
                    witness=witness,
                    tallies={"pairs": len(result.entries), "violations": len(violations),
                             "illformed": result.illformed})
    return (1 if violations else 0), report, lines


def _load_pairs(path: str, lang) -> list:
    data = read_json(path)
    if not isinstance(data, list) or not all(
            isinstance(d, dict) and isinstance(d.get("left"), str)
            and isinstance(d.get("right"), str) for d in data):
        raise IllFormed(f"{path}: expected a list of {{left, right}} objects of terms")
    return [(_program(d["left"], lang), _program(d["right"], lang)) for d in data]


def _cmd_laws(args) -> tuple[int, Report, list]:
    langs = language_registry(args.frame_len)
    cfg = _config(args)
    names = [args.lang] if args.lang != "all" else list(langs)
    lines = []
    tallies = {}
    for name in names:
        outcome = run_law_suite(_lookup(langs, "language", name), cfg)
        tallies[name] = {k: v for k, v in outcome.items() if k != "language"}
        lines.append(
            f"{name}: unit {outcome['unit']}, copoint {outcome['copoint']},"
            f" multiplication {outcome['multiplication']},"
            f" plug round-trip {outcome['plug_roundtrip']} -- ok"
        )
    return 0, Report(config=cfg.echo(), verdict="pass", tallies=tallies), lines


# ---------------------------------------------------------------------------
# demos: pinned configurations reproducing the case studies

def _demo_label_leak(compiler: str, samples: int, tag: str, expectation: str):
    cfg = CampaignConfig(samples=samples)
    verdict = check_coherence(compiler_registry()[compiler], cfg)
    ok = (
        isinstance(verdict, Fail)
        and verdict.case.subject.tag == tag
        and verdict.divergence.field_name == "label"
        and verdict.divergence.upper.label == 0
        and verdict.divergence.lower.label not in (0, None)
    )
    return ok, verdict, cfg, expectation


def _demo_exhaustive_pass(compiler: str, samples: int, expectation: str):
    cfg = CampaignConfig(samples=samples)
    verdict = check_coherence(compiler_registry()[compiler], cfg)
    ok = isinstance(verdict, Pass) and verdict.exhausted and verdict.inconclusive == 0
    return ok, verdict, cfg, expectation


def _demo_fig6():
    cp = compiler_registry()["flatten-low"]
    cfg = CampaignConfig(mode="closed")
    pinned = CoherenceCase(
        while_(Lit(0), assign(0, Lit(0))),
        LowState(Store.of({0: 3}), 1),
    )
    window = gen.state_window(cp.target, cfg)
    div, _, _ = evaluate_closed_case(cp, pinned, window, cfg)
    ok = (
        div is not None
        and div.upper.cont is None
        and div.upper.state == LowState(Store.of({0: 3}), 1)
        and div.lower.cont is not None
        and div.lower.state == LowState(Store.of({}), 2)
    )
    campaign = check_coherence(cp, cfg)
    ok = ok and isinstance(campaign, Fail)
    return ok, campaign if isinstance(campaign, Fail) else div, cfg, (
        "the flattening compiler is not a coalgebra homomorphism: pinned loop"
        " at pc 1 terminates upstairs but steps into the dead body downstairs")


def _demo_fig9():
    cp = compiler_registry()["embed-stack"]
    cfg = CampaignConfig(samples=10_000)
    verdict = check_coherence(cp, cfg)
    ok = False
    if isinstance(verdict, Fail):
        case = verdict.case
        inp = case.target_input
        block0 = [inp.store.get(i) for i in range(cfg.L)]
        ok = (
            case.subject.tag == "frame"
            and inp.sp == 0
            and any(v != 0 for v in block0)
            and verdict.divergence.field_name == "state"
            and verdict.divergence.lower.state.store == inp.store
        )
    return ok, verdict, cfg, (
        "plain stack allocation must leak the uncleared block at sp 0")


def _demo_sec6_fail():
    cp = compiler_registry()["embed-int"]
    cfg = CampaignConfig(samples=4000)
    pinned = CoherenceCase(
        assign(0, Bin("min", Loc(0), Lit(0))),
        Store.of({0: -1}),
    )
    window = gen.state_window(cp.target, cfg)
    div, _, _ = evaluate_open_case(cp, pinned, window, cfg)
    pinned_ok = (
        div is not None
        and div.field_name == "state"
        and div.upper.state == Store.of({})
        and div.lower.state == Store.of({0: -1})
    )
    campaign = check_coherence(cp, cfg)
    campaign_ok = isinstance(campaign, Fail) and any(
        v < 0 for _, v in campaign.case.target_input.cells
    )
    return pinned_ok and campaign_ok, campaign, cfg, (
        "identity compilation into the int machine must fail on a negative store;"
        " the pinned min-assignment diverges -1 vs 0")


EXAMPLE1_SOURCE = while_(
    Bin("lt", Loc(0), Lit(2)),
    assign(1, Bin("add", Loc(1), Lit(1))),
)
EXAMPLE1_COMPILED = "br !(var 0 < 2) 3 ;; assign 1 (var 1 + 1) ;; br (lit 1) -2"


def _demo_example1():
    out = compile_term(compiler_registry()["flatten-low"], EXAMPLE1_SOURCE)
    text = show_low(out)
    ok = text == EXAMPLE1_COMPILED
    return ok, text, CampaignConfig(), "the loop compiles to the exact three-instruction sequence"


def _demo_sec3_context():
    langs = language_registry()
    flag = langs["while-flag"]
    a = while_(Loc(0), assign(0, Lit(0)))
    b = while_(Bin("mul", Loc(0), Lit(2)), assign(0, Lit(0)))
    diverge_check = while_(Bin("sub", Loc(1), Lit(1)), skip())
    ctx = (
        OneHoleLayer("seq", (), 0, (diverge_check,)),
        OneHoleLayer("obs", (1,), 0, ()),
    )
    store = Store.of({0: 1})
    fuel = 10_000
    run_a = run_term(flag, plug(ctx, a), store, fuel)
    run_b = run_term(flag, plug(ctx, b), store, fuel)
    ok = run_a.terminated and not run_b.terminated
    payload = {
        "context": "(seq (obs 1 _) (while (sub (var 1) (lit 1)) skip))",
        "plugged_a": {"terminated": run_a.terminated, "steps": run_a.steps},
        "plugged_b": {"terminated": run_b.terminated, "steps": run_b.steps},
    }
    return ok, payload, CampaignConfig(), (
        "one plugged program terminates and the other exhausts its fuel")


DEMO_FNS = {
    "fig3": partial(_demo_label_leak, "embed-flag", 10_000, "assign",
                    "embed-flag must fail on an assignment layer with label v vs 0"),
    "fig4": partial(_demo_exhaustive_pass, "sandbox", 2000,
                    "sandbox must pass exhaustively with no inconclusive cases"),
    "fig5": partial(_demo_label_leak, "unsandbox", 2000, "sandbox",
                    "unsandbox must leak the inner label on a sandboxed layer"),
    "fig6": _demo_fig6,
    "fig8": partial(_demo_exhaustive_pass, "embed-low-sec", 10_000,
                    "the secure primitives must pass, including out-of-range pcs"),
    "fig9": _demo_fig9,
    "fig10": partial(_demo_exhaustive_pass, "embed-stack-clear", 10_000,
                     "the clearing frame rule must restore coherence"),
    "sec6-fail": _demo_sec6_fail,
    "sec6-pass": partial(_demo_exhaustive_pass, "sandbox-int", 6000,
                         "the negative-forgetting sandbox must restore coherence"),
    "example1": _demo_example1,
    "sec3-context": _demo_sec3_context,
}


def _cmd_demo(args) -> tuple[int, Report, list]:
    ok, payload, cfg, expectation = DEMO_FNS[args.name]()
    lines = [f"demo {args.name}: {'reproduced' if ok else 'NOT REPRODUCED'} -- {expectation}"]
    witness = None
    if isinstance(payload, Fail):
        witness = payload.describe()
        lines.append(f"  witness: {print_term(payload.case.subject)}"
                     f" at {show_state(payload.case.target_input)}")
    elif isinstance(payload, Pass):
        witness = {"tallies": _tallies(payload)}
        lines.append(f"  {payload.cases} case(s), {payload.fallback_cases} via bounded"
                     f" continuation comparison")
    elif isinstance(payload, (dict, str)):
        witness = {"payload": payload}
        lines.append(f"  {payload}")
    report = Report(config=cfg.echo(), verdict="reproduced" if ok else "mismatch",
                    witness=witness)
    return (0 if ok else 1), report, lines


def _cmd_replay(args) -> tuple[int, Report, list]:
    saved = load_report(args.report)
    code, fresh, _ = execute(list(saved.command))
    same = saved.matches(fresh)
    lines = [f"replay of {' '.join(saved.command)}: {'identical' if same else 'DIFFERS'}"]
    report = Report(config=saved.config,
                    verdict="identical" if same else "differs",
                    witness=None if same else {"fresh": fresh.verdict, "saved": saved.verdict})
    return (0 if same else 1), report, lines


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
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
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_coherence)

    p = sub.add_parser("bisim", help="bounded bisimilarity of two programs")
    p.add_argument("--lang", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_budget_flags(p, sampled=False)
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("ctx-closure", help="contextual closure of a bisimilar pair")
    p.add_argument("--lang", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_ctx_closure)

    p = sub.add_parser("preserve", help="bisimilarity preservation through a compiler")
    p.add_argument("--compiler", required=True)
    p.add_argument("--pairs", help="JSON file: [{left, right}, ...] in term syntax")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_preserve)

    p = sub.add_parser("laws", help="distributive-law axiom suite")
    p.add_argument("--lang", default="all")
    _add_budget_flags(p)
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("demo", help="reproduce a pinned case study")
    p.add_argument("name", choices=DEMOS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("replay", help="re-run a saved report and compare")
    p.add_argument("--report", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_replay)
    return top


def execute(argv: list) -> tuple[int, Report, list]:
    """Run one command line; its report echoes ``argv`` and the wall time of
    the whole command, parsing included."""
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    code, report, lines = args.fn(args)
    report.command = list(argv)
    report.wall_time_s = time.monotonic() - started
    return code, report, lines


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, report, lines = execute(argv)
    except IllFormed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if "--json" in argv:
        print(report.to_json())
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

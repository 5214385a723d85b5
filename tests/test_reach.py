"""Reach: every function of the checking core is run by some command.

One small command line per CLI command runs under ``cProfile``; every
function and method defined in the modules below, nested ones included,
must be among the calls it records, or be on the allow-list with its
reason.  A function only a unit test calls is machinery no user runs.
"""
import cProfile
import importlib
import inspect
import json
import pstats

from gsoscheck.cli import execute

MODULES = ("checker", "semantics", "gen", "spf", "laws", "compilers")

OPEN_CHECKABLE = ("embed-flag", "sandbox", "unsandbox", "embed-int", "sandbox-int",
                  "embed-low-sec", "embed-stack", "embed-stack-clear")

WHILE_PAIR = ["--left", "(while (var 0) (assign 0 (lit 0)))",
              "--right", "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"]

ALLOWED = {
    "gen.widen_entry": "bound by name by the benchmark's tracer, which still counts it",
    "spf.derive": "the symbolic syntax functor, held to decompositions by criterion 13",
    "spf.count_positions": "the symbolic syntax functor, held to decompositions by criterion 13",
    "spf.language_spf": "the symbolic syntax functor, held to decompositions by criterion 13",
    "spf._right_nested": "builds language_spf's sums and products",
}


def _command_lines(tmp_path) -> list:
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"left": "skip", "right": "(seq skip skip)"}]))
    saved = tmp_path / "run.json"
    lines = [["coherence", "--compiler", name, "--samples", "200"] for name in OPEN_CHECKABLE]
    lines += [
        ["coherence", "--compiler", "flatten-low", "--samples", "200"],
        ["compile", "--compiler", "flatten-low", "--term", "(while (var 0) skip)"],
        ["preserve", "--compiler", "embed-stack", "--samples", "10"],
        ["preserve", "--compiler", "sandbox", "--pairs", str(pairs)],
        ["laws", "--lang", "low-sec"],
        ["bisim", "--lang", "while", *WHILE_PAIR],
        ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "20"],
        ["run", "--lang", "while", "--term", "(seq skip skip)", "--input", "{}",
         "--trace"],
        ["demo", "fig6"],
        ["demo", "sec6-fail"],
        ["demo", "example1"],
        ["demo", "sec3-context"],
    ]
    _, report, _ = execute(["run", "--lang", "while", "--term", "skip", "--input", "{}"])
    saved.write_text(report.to_json())
    lines.append(["replay", "--report", str(saved)])
    return lines


def _defined(module) -> dict:
    """Qualified name -> (file, first line, name) of every function and
    method whose source is ``module``'s; lambdas and comprehensions count as
    part of the function around them."""
    path = inspect.getsourcefile(module)
    out = {}

    def visit(code):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                out[f"{module.__name__.split('.')[-1]}.{const.co_qualname}"] = (
                    const.co_filename, const.co_firstlineno, const.co_name)
            visit(const)

    with open(path) as f:
        visit(compile(f.read(), path, "exec"))
    return out


def test_every_core_function_is_reached_by_a_command(tmp_path):
    lines = _command_lines(tmp_path)
    profile = cProfile.Profile()
    profile.enable()
    try:
        for argv in lines:
            execute(argv)
    finally:
        profile.disable()
    called = set(pstats.Stats(profile).stats)
    defined = {}
    for name in MODULES:
        defined.update(_defined(importlib.import_module("gsoscheck." + name)))
    unreached = sorted(q for q, key in defined.items() if key not in called)
    assert unreached == sorted(ALLOWED)

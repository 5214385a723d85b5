"""Reach: every function of the checking core is run by some command.

One small command line per CLI command runs under ``cProfile``; every
function and method defined in the modules below, nested ones included,
must be among the calls it records, or be on the allow-list with its
reason.  A function only a unit test calls is machinery no user runs: it
is deleted or wired into a command, not allow-listed.  The allow-list holds
only names the benchmark's tracer binds by name.
"""
import cProfile
import importlib
import inspect
import json
import pstats

from gsoscheck.cli import execute

from tests.test_cli import _load_perfbench

MODULES = ("checker", "semantics", "gen", "spf", "laws", "compilers", "languages", "states",
           "reports")

OPEN_CHECKABLE = ("embed-flag", "sandbox", "unsandbox", "embed-int", "sandbox-int",
                  "embed-low-sec", "embed-stack", "embed-stack-clear")

WHILE_PAIR = ["--left", "(while (var 0) (assign 0 (lit 0)))",
              "--right", "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"]

ALLOWED = {
    "gen.widen_entry": "bound by name by the benchmark's tracer, which still counts it",
    "semantics.step": "the public one-step API, bound by name by the benchmark's tracer;"
                      " commands step through memo_entry",
}


def _command_lines(tmp_path) -> list:
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"left": "skip", "right": "(seq skip skip)"}]))
    saved = tmp_path / "run.json"
    lines = [["coherence", "--compiler", name, "--samples", "200"] for name in OPEN_CHECKABLE]
    lines += [
        # the whole campaign: 209 of its 816 cases need the fallback bisimulation
        ["coherence", "--compiler", "sandbox"],
        ["coherence", "--compiler", "flatten-low", "--samples", "200"],
        ["compile", "--compiler", "flatten-low", "--term", "(while (var 0) skip)"],
        ["preserve", "--compiler", "embed-stack", "--samples", "10"],
        ["preserve", "--compiler", "sandbox", "--pairs", str(pairs)],
        ["laws", "--lang", "low-sec", "--json"],
        ["bisim", "--lang", "while", *WHILE_PAIR],
        ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "20"],
        ["run", "--lang", "while", "--term", "(seq skip skip)", "--input", "{}",
         "--trace"],
        ["run", "--lang", "low", "--term", "(instr (nop) (stop))", "--input", "({0: 1}, 0)"],
        ["run", "--lang", "while-b", "--term", "(seq frame return)", "--input", "[[1, 2]]"],
        ["demo", "fig6"],
        ["demo", "fig9"],
        ["demo", "fig10"],
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

    def visit(code, prefix):
        # ``prefix`` qualifies the names defined in ``code`` as ``__qualname__``
        # does: ``Class.`` in a class body, ``outer.<locals>.`` in a function
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                out[qualname] = (const.co_filename, const.co_firstlineno, const.co_name)
                visit(const, qualname + ".<locals>.")
            else:
                visit(const, qualname + ".")

    with open(path) as f:
        visit(compile(f.read(), path, "exec"), module.__name__.split(".")[-1] + ".")
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


def test_every_allowed_name_is_bound_by_the_benchmark_tracer():
    tracer = _load_perfbench("tracer")
    bound = {f"{module}.{fn}" for module, fn, _, _ in tracer.SPANS}
    bound |= {f"gen.{fn}" for fn in tracer.GEN_FUNCTIONS}
    assert set(ALLOWED) <= bound


def test_the_benchmark_tracer_binds_distinct_functions():
    # `perfbench/run.py --trace 1` looks every name up with getattr: a
    # deleted one stops the traced run with an AttributeError, and a name
    # that is an alias of another would be wrapped twice
    tracer = _load_perfbench("tracer")
    bound = {}
    for module, fn, _, _ in tracer.SPANS:
        obj = getattr(importlib.import_module("gsoscheck." + module), fn, None)
        assert inspect.isfunction(obj), f"{module}.{fn}"
        assert id(obj) not in bound, (f"{module}.{fn}", bound.get(id(obj)))
        bound[id(obj)] = f"{module}.{fn}"
    gen = importlib.import_module("gsoscheck.gen")
    for fn in tracer.GEN_FUNCTIONS:
        assert inspect.isfunction(getattr(gen, fn, None)), f"gen.{fn}"

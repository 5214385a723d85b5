"""Reach: every function of the checking core is run by some command.

One small command line per CLI command runs under ``cProfile``; every
function and method defined in the modules below, nested ones included,
must be among the calls it records, or be on the allow-list with its
reason.  A function only a unit test calls is machinery no user runs: it
is deleted or wired into a command, not allow-listed.  The allow-list holds
only names the benchmark's tracer binds by name.  Six guards read the
source: no module but ``states`` tells state kinds apart by name, no
module tells payload kinds apart by name, no
module but ``semantics`` calls the ``StepOutcome`` class, no function
but ``checker._evaluate_group`` adds to a campaign's case counts, no
function but the two language builders calls ``LangDef``, and only the
records listed in ``DATACLASSES`` are dataclasses.
"""
import ast
import cProfile
import importlib
import inspect
import json
import pstats
from pathlib import Path

import gsoscheck
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
        # the whole campaign: 209 of its 816 cases have a continuation
        # mismatch, each settled by sandbox absorption's normal form, so the
        # bounded fallback bisimulation never runs
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
        ["run", "--lang", "stack", "--term", "skip", "--input", "({}, 1)"],
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


def _names_state_kind(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "state_kind"
               or isinstance(n, ast.Name) and n.id == "state_kind" for n in ast.walk(node))


def _strings(node) -> bool:
    """A string constant, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_no_module_but_the_state_table_tells_state_kinds_by_name():
    # a state kind's properties are the fields of its record in states.py;
    # a module that compares a state_kind with a name keeps its own table
    found = []
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(_names_state_kind, sides)) and any(map(_strings, sides)):
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.Match) and _names_state_kind(node.subject):
                if any(isinstance(p, ast.MatchValue) and _strings(p.value)
                       for case in node.cases for p in ast.walk(case.pattern)):
                    found.append((path.name, node.lineno))
    assert found == []


PAYLOAD_KIND_NAMES = {"nat", "loc", "expr", "inst"}


def _payload_kind_name(node) -> bool:
    """A payload kind's name as a string constant, or a tuple, list or set
    holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_payload_kind_name, node.elts))
    return isinstance(node, ast.Constant) and node.value in PAYLOAD_KIND_NAMES


def test_no_module_tells_payload_kinds_apart_by_name():
    # a payload kind's choices and check are the fields of its PayloadKind
    # record in languages.py; a case or comparison on a kind's name is a
    # second table of kinds, which a new kind would have to be added to
    found = []
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops) \
                        and any(map(_payload_kind_name, [node.left, *node.comparators])):
                    found.append((path.name, node.lineno))
            elif isinstance(node, ast.match_case):
                if any(isinstance(p, ast.MatchValue) and _payload_kind_name(p.value)
                       for p in ast.walk(node.pattern)):
                    found.append((path.name, node.pattern.lineno))
    assert found == []


def test_no_module_but_semantics_calls_the_outcome_class():
    # every outcome in src is built by semantics.outcome, from its four
    # fields, with no frame of its own; the class constructor runs one
    found = []
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        if path.name == "semantics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "StepOutcome"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "StepOutcome"):
                found.append((path.name, node.lineno))
    assert found == []


TALLY_COUNTS = ("cases", "illformed", "inconclusive", "fallback_cases")

# the empty tallies a campaign's fold starts from, one per fold
FOLD_STARTS = {("checker.py", "check_coherence"), ("checker.py", "check_case")}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _counts(node, where) -> bool:
    """``node`` adds to a tally's counts: an augmented addition to a count, a
    ``Pass`` built with anything but the empty seed of a fold, or a
    ``_replace`` that sets a count (or keywords it cannot name)."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and _name(node.target) in TALLY_COUNTS
    if not isinstance(node, ast.Call):
        return False
    if _name(node.func) == "Pass":
        return not (where in FOLD_STARTS and ast.unparse(node) == "Pass(0, True)")
    if _name(node.func) == "_replace":
        return any(k.arg is None or k.arg in TALLY_COUNTS for k in node.keywords)
    return False


def test_no_function_but_the_group_body_adds_to_the_case_counts():
    # a campaign's budget check and tally are one loop, in
    # checker._evaluate_group; a second loop that counts cases must be kept
    # in step with it, whether it adds in place or builds a new tally.  A
    # nested function counts as part of the top-level definition around it
    found = []
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (path.name, getattr(top, "name", None))
            if where == ("checker.py", "_evaluate_group"):
                continue
            found += [(*where, node.lineno) for node in ast.walk(top) if _counts(node, where)]
    assert found == []


# the only functions in src that build a language: each builds it from one
# table, whose rows give both its constructors and its rules
LANGUAGE_BUILDERS = {("languages.py", "structured_language"), ("languages.py", "counter_language")}


def test_no_function_but_the_two_builders_calls_the_language_class():
    found = []
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = (path.name, getattr(top, "name", None))
            if where in LANGUAGE_BUILDERS:
                continue
            found += [(*where, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and _name(node.func) == "LangDef"]
    assert found == []


# the records that stay dataclasses, each with what a named tuple cannot do
# for it; every other record is a NamedTuple, whose class is built at import
# with no generated code to compile
DATACLASSES = {
    ("reports.py", "Report"): "perfbench/child.py reads it with dataclasses.asdict",
    ("languages.py", "LangDef"): "perfbench/tracer.py assigns its rule",
}


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def test_only_the_listed_records_are_dataclasses():
    found = set()
    for path in sorted(Path(gsoscheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found.add((path.name, node.name))
    assert found == set(DATACLASSES)


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

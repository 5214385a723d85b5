"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run real passes in child interpreters (about half a minute in all).
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import GEN_FUNCTIONS, SPANS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return run.load_json(run.BENCH / "expected.json")


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass per workload, with the stored spans."""
    run.build()
    out = {}
    for workload in ("coherence-fallback", "coherence-direct", "laws"):
        spans = tmp_path_factory.mktemp(workload) / "spans.json"
        cmds = run.commands(workload, 0)
        out[workload] = (run.run_child({"commands": cmds}),
                         run.run_child({"commands": cmds, "trace": True, "spans": str(spans)}),
                         run.load_json(spans)["spans"])
    return out


def test_traced_and_untraced_reports_are_equal(passes, expected):
    for plain, traced, _ in passes.values():
        assert [op["report"] for op in traced["ops"]] == [op["report"] for op in plain["ops"]]
        for op in traced["ops"]:
            assert run.check_op(op, expected, 0) == []


def test_spans_nest_inside_their_parents(passes):
    for _, _, spans in passes.values():
        assert spans
        for name, parent, start, end in spans:
            assert start <= end, name
            if parent >= 0:
                _, _, p_start, p_end = spans[parent]
                assert p_start <= start and end <= p_end, name


def test_stage_coverage_on_coherence_workloads(passes):
    for workload in ("coherence-fallback", "coherence-direct"):
        assert passes[workload][1]["layers"]["checker.stage.coverage"] >= 0.9, workload


def test_fallback_counts(passes):
    fallback = passes["coherence-fallback"][1]["layers"]
    assert fallback["checker.fallback.calls"] == 647 + 209
    assert fallback["checker.fallback.distinct"] == 9 + 9
    assert passes["coherence-direct"][1]["layers"]["checker.fallback.calls"] == 0


def test_counts_repeat_exactly(passes):
    cmds = run.commands("laws", 0)
    again = run.run_child({"commands": cmds, "trace": True})["layers"]
    first = passes["laws"][1]["layers"]
    counts = [k for k in first if k.endswith(".calls")]
    assert counts
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}


def test_wrong_expected_entry_is_counted_as_failure(expected):
    run.build()
    assert run.measure("coherence-direct", 0, 0, False, expected)["failed"] == 0
    wrong = copy.deepcopy(expected)
    wrong["ops"]["coherence.embed-flag"]["default_seed"]["witness"]["field"] = "state"
    m = run.measure("coherence-direct", 0, 0, False, wrong)
    assert m["failed"] == 1 and m["failed"] / m["attempted"] > 0
    assert m["problems"][0].startswith("coherence.embed-flag: witness")


def test_other_seeds_check_verdict_class_and_exhaustion_only(expected):
    op = {
        "argv": ["coherence", "--compiler", "sandbox", "--samples", "2000"],
        "exit": 0,
        "report": {"verdict": "pass", "witness": None,
                   "tallies": dict(expected["ops"]["coherence.sandbox"]
                                   ["default_seed"]["tallies"], fallback_cases=207)},
    }
    assert run.check_op(op, expected, 1) == []
    assert run.check_op(op, expected, 0) != []
    op["report"]["tallies"]["exhausted"] = False
    assert run.check_op(op, expected, 1) != []
    op["exit"] = 1
    assert len(run.check_op(op, expected, 1)) == 2


def test_tracer_rebinds_every_binding_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    import gsoscheck.cli  # noqa: F401  (loads every module of the package)
    from gsoscheck import gen, states, terms

    def bindings(fn):
        return [(name, attr) for name, mod in sys.modules.items()
                if name.startswith("gsoscheck") for attr, v in vars(mod).items() if v is fn]

    originals = [getattr(sys.modules["gsoscheck." + mod], fn) for mod, fn, _, _ in SPANS]
    originals += [getattr(gen, fn) for fn in GEN_FUNCTIONS] + [terms.is_closed]
    before = {id(fn): bindings(fn) for fn in originals}
    assert len(before[id(terms.is_closed)]) >= 2  # terms and semantics
    node_hash, store_get = terms.Node.__hash__, states.Store.get
    tracer = Tracer()
    tracer.install()
    try:
        for fn in originals:
            assert bindings(fn) == [], fn.__name__
        assert terms.Node.__hash__ is not node_hash
    finally:
        tracer.uninstall()
    assert {id(fn): bindings(fn) for fn in originals} == before
    assert terms.Node.__hash__ is node_hash and states.Store.get is store_get


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

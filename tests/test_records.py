"""Records: the immutable records of the package are named tuples, with the
reprs their dataclasses had and no default shared between instances."""
import importlib
import pkgutil

import pytest

import gsoscheck
from gsoscheck.checker import (
    CampaignConfig, CoherenceCase, ContextClosureReport, Divergence, Fail, Pass,
    PreservationEntry,
)
from gsoscheck.compilers import CompilerPair, LayerMap, WholeTerm
from gsoscheck.semantics import NO_FLAGS, Distinguished, Equivalent, RunResult, outcome
from gsoscheck.states import Store
from gsoscheck.terms import skip


def _named_tuples() -> list:
    out = []
    for info in pkgutil.iter_modules(gsoscheck.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module("gsoscheck." + info.name)
        out += [cls for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
                and cls.__module__ == module.__name__]
    return out


def test_every_named_tuple_default_is_hashable():
    # a named tuple's default is one object that every instance shares, so
    # a mutable one (a dict, a list) would carry state from one to the next
    records = _named_tuples()
    assert {CampaignConfig, CoherenceCase, Equivalent, CompilerPair, Pass,
            PreservationEntry} <= set(records)
    unhashable = []
    for cls in records:
        for name, default in cls._field_defaults.items():
            try:
                hash(default)
            except TypeError:
                unhashable.append((cls.__name__, name))
    assert unhashable == []


OUT = outcome((Store.of({}), 0, None, NO_FLAGS))
OUT_REPR = "StepOutcome(state=Store(cells=()), label=0, cont=None, flags=frozenset())"
SKIP_REPR = "Node(tag='skip', children=(), payload=())"
CASE = CoherenceCase(skip(), Store.of({0: 2}), {})
CASE_REPR = f"CoherenceCase(subject={SKIP_REPR}, target_input=Store(cells=((0, 2),)), tables={{}})"
DIV = Divergence("label", OUT, OUT)
DIV_REPR = f"Divergence(field_name='label', upper={OUT_REPR}, lower={OUT_REPR})"


REPRS = [
    (CampaignConfig(),
     "CampaignConfig(store_cells=2, max_value=3, max_term_size=4, depth=20, samples=1000, L=2,"
     " sp_max=3, seed=12648430, mode='auto', exprs_per_slot=12, table_variants=2,"
     " fallback_depth=8)"),
    (CASE, CASE_REPR),
    (DIV, DIV_REPR),
    (Fail(CASE, DIV, 3, frozenset({"sub"})),
     f"Fail(case={CASE_REPR}, divergence={DIV_REPR}, cases_before=3, flags=frozenset({{'sub'}}))"),
    (Pass(816, True, 0, 3, 209, frozenset({"sub"})),
     "Pass(cases=816, exhausted=True, inconclusive=0, illformed=3, fallback_cases=209,"
     " flags=frozenset({'sub'}))"),
    (PreservationEntry(skip(), skip(), Equivalent(20, 16), Equivalent(20, 16)),
     f"PreservationEntry(left={SKIP_REPR}, right={SKIP_REPR},"
     " source=Equivalent(depth=20, inputs=16), target=Equivalent(depth=20, inputs=16),"
     " target_illformed=False)"),
    (ContextClosureReport("closed", 3, Equivalent(20, 16), []),
     "ContextClosureReport(status='closed', contexts_checked=3,"
     " base=Equivalent(depth=20, inputs=16), violations=[])"),
    (Equivalent(20, 16), "Equivalent(depth=20, inputs=16)"),
    (Distinguished((Store.of({}),), OUT, OUT, "label"),
     f"Distinguished(path=(Store(cells=()),), left={OUT_REPR}, right={OUT_REPR}, reason='label')"),
    (RunResult([(Store.of({}), OUT)], True, Store.of({})),
     f"RunResult(trace=[(Store(cells=()), {OUT_REPR})], terminated=True,"
     " final=Store(cells=()), residual=None)"),
    (LayerMap(len), "LayerMap(fn=<built-in function len>)"),
    (WholeTerm(len), "WholeTerm(fn=<built-in function len>)"),
    (CompilerPair("c", "while", "low", LayerMap(len), len, abs),
     "CompilerPair(name='c', source='while', target='low',"
     " syntax=LayerMap(fn=<built-in function len>), input_map=<built-in function len>,"
     " output_map=<built-in function abs>, normal_form=None)"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_a_record_has_the_repr_of_its_dataclass(record, text):
    # the strings are the reprs of the same instances when these records
    # were dataclasses
    assert repr(record) == text

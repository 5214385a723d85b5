"""Distributive-law axioms for every registered language."""
from functools import partial

import pytest

from gsoscheck import gen, laws, semantics
from gsoscheck.laws import check_copoint_law, run_law_suite
from gsoscheck.terms import Node, Var, sandbox


@pytest.mark.parametrize("name", [
    "while", "while-flag", "while-sec", "while-int", "low", "low-sec",
    "while-b", "stack", "stack-clear",
])
def test_law_suite(name, langs, cfg):
    outcome = run_law_suite(langs[name], cfg)
    assert outcome["unit"] > 0
    assert outcome["copoint"] > 0
    assert outcome["multiplication"] > 0
    assert outcome["plug_roundtrip"] > 0


def test_copoint_law_catches_an_engine_that_rewrites_subjects(langs, cfg, monkeypatch):
    lang = langs["while"]
    inputs = gen.state_window(lang, cfg)[:8]
    assert check_copoint_law(lang, cfg, inputs) == 72

    def rewriting_extend_law(lang, term, behaviors, state):
        # hands the rule each node child wrapped in a sandbox layer
        if isinstance(term, Var):
            return behaviors[term.name](state)
        pairs = tuple((sandbox(c) if isinstance(c, Node) else c,
                       partial(rewriting_extend_law, lang, c, behaviors))
                      for c in term.children)
        return lang.rule(term.tag, term.payload, pairs, state)

    monkeypatch.setattr(semantics, "extend_law", rewriting_extend_law)
    monkeypatch.setattr(laws, "extend_law", rewriting_extend_law)
    with pytest.raises(AssertionError, match="copoint law failed"):
        check_copoint_law(lang, cfg, inputs)

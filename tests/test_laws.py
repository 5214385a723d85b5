"""Distributive-law axioms for every registered language."""
import re
from functools import partial

import pytest

from gsoscheck import cli, gen, laws, semantics, spf
from gsoscheck.checker import CampaignConfig
from gsoscheck.cli import execute, main
from gsoscheck.languages import language_registry
from gsoscheck.laws import check_copoint_law, run_law_suite
from gsoscheck.terms import Node, Var, sandbox, subterms

DEFAULT_L = CampaignConfig._field_defaults["L"]
SMALL = CampaignConfig()._replace(exprs_per_slot=2)  # the plug round-trip's terms


@pytest.mark.parametrize("name", [
    "while", "while-flag", "while-sec", "while-int", "low", "low-sec",
    "while-b", "stack", "stack-clear",
])
def test_law_suite(name, langs, cfg):
    outcome = run_law_suite(langs[name], cfg, {})
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


# A closed term of n nodes has n (context, subterm) splits, so the plug
# round-trip's tally is the node count of the terms it is run on.  The
# frame machines' terms shrink with the frame length.
@pytest.mark.parametrize("frame_len, splits", [
    (DEFAULT_L, [920, 2840, 4505, 1685, 5910, 17106, 1666, 1666, 1666]),
    (1, [920, 2840, 4505, 1685, 5910, 17106, 920, 920, 920]),
])
def test_plug_roundtrip_tallies_count_every_split_of_every_term(frame_len, splits):
    langs = language_registry(frame_len)
    small = CampaignConfig(L=frame_len)._replace(exprs_per_slot=2)
    nodes = {name: sum(len(list(subterms(t))) for t in gen.closed_terms(lang, small))
             for name, lang in langs.items()}
    assert list(nodes.values()) == splits
    flag = ["--frame-len", str(frame_len)]
    _, whole, _ = execute(["laws", *flag])
    assert {name: t["plug_roundtrip"] for name, t in whole.tallies.items()} == nodes
    # a run over all nine languages shares its checked terms; one over a
    # single language starts from none, and both count the same
    for name in langs:
        _, single, _ = execute(["laws", "--lang", name, *flag])
        assert single.tallies == {name: whole.tallies[name]}


def _last_term(langs, owner, earlier):
    """The last closed term ``owner`` generates that none of the ``earlier``
    languages does."""
    seen = {t for name in earlier for t in gen.closed_terms(langs[name], SMALL)}
    return [t for t in gen.closed_terms(langs[owner], SMALL) if t not in seen][-1]


@pytest.mark.parametrize("owner", [
    "low-sec",  # generated only by a later language
    "while",    # generated by seven languages, `while` first
])
def test_a_planted_plug_fault_is_found_through_the_shared_record(owner, monkeypatch, capsys):
    langs = language_registry()
    names = list(langs)
    target = _last_term(langs, owner, names[:names.index(owner)])
    if owner == "while":
        assert sum(target in set(gen.closed_terms(lang, SMALL)) for lang in langs.values()) == 7

    def faulty_plug(ctx, sub):
        out = spf.plug(ctx, sub)
        return out.children[0] if out is target else out

    started = []

    def recording_suite(lang, cfg, verified=None):
        started.append(lang.name)
        return run_law_suite(lang, cfg, verified)

    monkeypatch.setattr(laws, "plug", faulty_plug)
    monkeypatch.setattr(cli, "run_law_suite", recording_suite)
    with pytest.raises(AssertionError, match=re.escape(f"plug round-trip failed on {target}")):
        execute(["laws"])
    assert started == names[:names.index(owner) + 1]  # raised in the first to build it
    assert main(["laws"]) == 3
    assert f"plug round-trip failed on {target}" in capsys.readouterr().err

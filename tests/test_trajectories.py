"""The one-step square, checked along whole random execution trajectories.

Campaigns sample one-layer and small closed cases over fixed windows; these
tests walk deep random programs step by step from arbitrary states, so the
square is exercised on continuations and states no window enumerates.
"""
import random

import pytest

from gsoscheck.checker import CampaignConfig
from gsoscheck.compilers import compile_term, translate_behavior
from gsoscheck.semantics import step
from gsoscheck.states import LowState, StackState, Store
from gsoscheck.terms import IllFormed
from gsoscheck import gen


def walk_square(cp, p, i2, fuel=40, exact_continuations=True):
    src, tgt = cp.source, cp.target
    current_p, current_q, state = p, compile_term(cp, p), i2
    for _ in range(fuel):
        upper = translate_behavior(cp, lambda s1, t=current_p: step(src, t, s1), state)
        lower = step(tgt, current_q, state)
        assert upper.label == lower.label
        assert upper.state == lower.state
        assert (upper.cont is None) == (lower.cont is None)
        if upper.cont is None:
            return
        if exact_continuations:
            assert compile_term(cp, upper.cont) == lower.cont
            current_q = lower.cont
        else:
            current_q = lower.cont
        current_p, state = upper.cont, upper.state


def test_stack_clear_square_along_trajectories(comps):
    cp = comps["embed-stack-clear"]
    cfg = CampaignConfig()
    rng = random.Random(7)
    checked = 0
    for _ in range(150):
        p = gen.random_term(cp.source, rng, cfg, rng.randint(1, 6), {})
        s = Store.of({i: rng.randint(0, 3) for i in range(8) if rng.random() < 0.5})
        try:
            walk_square(cp, p, StackState(s, rng.randint(0, 3)))
            checked += 1
        except IllFormed:
            pass  # variable access with no live frame
    assert checked > 80


def test_secure_low_square_along_trajectories(comps):
    cp = comps["embed-low-sec"]
    cfg = CampaignConfig()
    rng = random.Random(11)
    for _ in range(150):
        p = gen.random_term(cp.source, rng, cfg, rng.randint(1, 6), {})
        s = Store.of({i: rng.randint(0, 3) for i in range(2) if rng.random() < 0.7})
        walk_square(cp, p, LowState(s, rng.choice([-1, 0, 1, 2])))


def test_sandbox_observables_along_trajectories(comps):
    # continuations drift by redundant sandbox layers, so compare the two
    # trajectories on observables only: they must stay in lockstep
    cp = comps["sandbox"]
    cfg = CampaignConfig()
    rng = random.Random(13)
    for _ in range(150):
        p = gen.random_term(cp.source, rng, cfg, rng.randint(1, 6), {})
        s = Store.of({i: rng.randint(0, 3) for i in range(2) if rng.random() < 0.7})
        walk_square(cp, p, s, exact_continuations=False)

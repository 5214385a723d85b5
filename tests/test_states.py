"""Machine states: stores and the pc, stack and frame states, immutable and
hash-consed, one object for their class and fields however they were
built.  ``Store.set`` and ``clamp_negatives`` against their definitions."""
import copy
import itertools
import pickle

import pytest

from gsoscheck import gen
from gsoscheck.semantics import step
from gsoscheck.terms import IllFormed
from gsoscheck.states import (
    INT_STORE, PC, STORE, FrameState, LowState, StackState, Store, clamp_negatives,
)

STATE_CLASSES = (Store, LowState, StackState, FrameState)


def fields(u) -> tuple:
    return tuple(getattr(u, name) for name in u.__match_args__)


def test_equal_stores_are_equal_however_built(cfg):
    stores = gen.store_window(cfg, int_mode=True) + [Store.of({0: 1, 5: 7})]
    for s in stores:
        cells = dict(s.cells)
        last = max(cells, default=0)
        rebuilt = [
            Store(s.cells),
            Store(tuple(sorted(cells.items()))),  # a new tuple of the same cells
            Store.of(cells),
            Store.of({**cells, 9: 0}),  # a zero cell is no cell
            s.set(last, cells.get(last, 0)),
            copy.copy(s),
            copy.deepcopy(s),
            pickle.loads(pickle.dumps(s)),
        ]
        if all(v > 0 for v in cells.values()):
            rebuilt.append(clamp_negatives(Store.of({**cells, 3: -1})))
            rebuilt.append(STORE.parse(s.show(), cfg.L))
        rebuilt.append(INT_STORE.parse(s.show(), cfg.L))
        for u in rebuilt:
            assert u is s, s.show()
    assert Store.of({0: 1}) is not Store.of({0: 2})
    # a store is built from its one field, given by position, like every Value
    for bad in ((), ((), ())):
        with pytest.raises(TypeError):
            Store(*bad)
    with pytest.raises(TypeError):
        Store(cells=())
    # a store inside another state is the same object there too
    assert LowState(Store.of({0: 1}), 2) is LowState(Store.of({0: 1}).set(1, 0), 2)


def _dict_set(s: Store, l: int, v: int) -> Store:
    # the dict definition that Store.set replaced
    items = {k: w for k, w in s.cells}
    items[l] = v
    return Store.of(items)


def test_set_matches_the_dict_definition(cfg):
    # every store of the int-store window and 8 wide stores, cells 0-7,
    # values -3..3: set writes into the sorted tuple what a dict rebuild would
    stores = gen.store_window(cfg, int_mode=True)
    # the stack window's stores beyond its nat window are its 8 wide ones
    nat = set(gen.store_window(cfg, int_mode=False))
    wide = [s for s in dict.fromkeys(st.store for st in gen.stack_window(cfg)) if s not in nat]
    assert len(wide) == 8 and all(max(dict(s.cells)) < 8 for s in wide)
    stores += wide
    for s in stores:
        for l in range(8):
            for v in range(-3, 4):
                got = s.set(l, v)
                assert got.cells == _dict_set(s, l, v).cells, (s.show(), l, v)


def test_clamp_negatives_returns_a_nonnegative_store_as_it_is(cfg):
    def rebuilt(s):  # every nonpositive cell dropped into a new store
        return Store(tuple((k, v) for k, v in s.cells if v > 0))

    stores = gen.store_window(cfg, int_mode=True) + [Store.of({0: -1, 4: 2, 7: -5})]
    assert any(v < 0 for s in stores for _, v in s.cells)
    for s in stores:
        if all(v >= 0 for _, v in s.cells):
            assert clamp_negatives(s) is s
        assert clamp_negatives(s) is rebuilt(s)
    assert clamp_negatives(Store.of({0: -1, 1: 2})) is Store.of({1: 2})


def test_repr_is_the_dataclass_repr():
    assert repr(Store(())) == "Store(cells=())"
    assert repr(Store.of({1: 2, 0: 3})) == "Store(cells=((0, 3), (1, 2)))"
    assert [repr(u) for u in (LowState(Store.of({0: 1}), 2), StackState(Store(()), 1),
                              FrameState(((1, 2), (0, 3))), FrameState(()))] == [
        "LowState(store=Store(cells=((0, 1),)), pc=2)",
        "StackState(store=Store(cells=()), sp=1)",
        "FrameState(frames=((1, 2), (0, 3)))",
        "FrameState(frames=())"]


def test_a_store_never_equals_another_state_kind(langs, cfg):
    s = Store.of({0: 1})
    assert Store(()) != FrameState(()) and FrameState(()) != Store(())
    assert LowState(s, 1) != StackState(s, 1) and StackState(s, 1) != LowState(s, 1)
    # a frame stack with the same field tuple as a store is still no store
    assert Store(((0, 1),)) != FrameState(((0, 1),))
    states = {type(u): set() for u in (Store(()), LowState(s, 0), StackState(s, 0), FrameState(()))}
    for lang in langs.values():
        for u in gen.state_window(lang, cfg):
            states[type(u)].add(u)
    assert all(states.values())
    for kind, of_kind in states.items():
        for other, of_other in states.items():
            if kind is not other:
                for u in of_kind:
                    assert all(u != v for v in of_other), (u, other)


def test_equal_states_are_one_object_however_built(langs, cfg):
    small = cfg._replace(max_term_size=3, exprs_per_slot=2)
    built = []  # (state kind, state)
    for lang in langs.values():
        window = gen.state_window(lang, cfg)
        built += [(lang.state_kind, u) for u in window]
        # the output state of each rule, over every closed term up to size 3
        for t, u in itertools.product(gen.closed_terms(lang, small), window):
            try:
                built.append((lang.state_kind, step(lang, t, u).state))
            except IllFormed:  # a stack machine's assignment at sp 0
                pass
    stores = gen.store_window(cfg, int_mode=False)
    for length in (None, 1, 3):
        built += [(PC, u) for u in gen.pc_states(cfg, stores, length)]
    assert {type(u) for _, u in built} == set(STATE_CLASSES)
    assert {kind for kind, u in built if type(u) is Store} == {STORE, INT_STORE}
    one = {}  # keyed on class and fields, which compare and hash by value
    for kind, u in built:
        assert one.setdefault((type(u), fields(u)), u) is u, u
    for kind, u in dict.fromkeys(built):
        for v in (type(u)(*fields(u)), kind.parse(u.show(), cfg.L), copy.copy(u),
                  copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert v is u, u
    s = Store.of({0: 1})
    assert LowState(s, 1) is LowState(Store.of({1: 0, 0: 1}), 1)
    assert LowState(s, 1) is not LowState(s, 2) and LowState(s, 1) is not StackState(s, 1)


@pytest.mark.parametrize("state", [Store.of({0: 1}), LowState(Store.of({0: 1}), 2),
                                   StackState(Store(()), 1), FrameState(((1, 2),))],
                         ids=lambda u: type(u).__name__)
def test_states_are_immutable(state):
    before = fields(state)
    for name in state.__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(state, name, 0)
    for name in state.__match_args__:
        with pytest.raises(AttributeError):
            delattr(state, name)
    assert fields(state) == before


"""``Store``: an immutable map whose hash is its field tuple's, so dict and
set order is the same however a store was built."""
import copy
import pickle

import pytest

from gsoscheck import gen
from gsoscheck.states import (
    FrameState, LowState, StackState, Store, clamp_negatives, parse_state,
)


def test_hash_is_the_field_tuple_hash():
    for s in (Store(), Store.of({0: 1}), Store.of({1: 2, 0: -3})):
        assert hash(s) == hash((s.cells,))


def test_equal_stores_are_equal_however_built(cfg):
    stores = gen.store_window(cfg, int_mode=True) + [Store.of({0: 1, 5: 7})]
    for s in stores:
        cells = dict(s.cells)
        last = max(cells, default=0)
        rebuilt = [
            Store(s.cells),
            Store(cells=s.cells),
            Store.of(cells),
            Store.of({**cells, 9: 0}),  # a zero cell is no cell
            s.set(last, cells.get(last, 0)),
            copy.copy(s),
            copy.deepcopy(s),
            pickle.loads(pickle.dumps(s)),
        ]
        if all(v > 0 for v in cells.values()):
            rebuilt.append(clamp_negatives(Store.of({**cells, 3: -1})))
            rebuilt.append(parse_state("store", s.show(), cfg.L))
        rebuilt.append(parse_state("int-store", s.show(), cfg.L))
        for u in rebuilt:
            assert u == s, s.show()
            assert hash(u) == hash((s.cells,))
    assert Store.of({0: 1}) != Store.of({0: 2})
    # a store inside another state compares and hashes through itself
    assert {LowState(Store.of({0: 1}), 2): 1}[LowState(Store.of({0: 1}).set(1, 0), 2)] == 1


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


def test_store_is_immutable():
    s = Store.of({0: 1})
    with pytest.raises(AttributeError):
        s.cells = ()
    with pytest.raises(AttributeError):
        del s.cells
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s == Store.of({0: 1})


def test_clamp_negatives_returns_a_nonnegative_store_as_it_is(cfg):
    def rebuilt(s):  # every nonpositive cell dropped into a new store
        return Store(tuple((k, v) for k, v in s.cells if v > 0))

    stores = gen.store_window(cfg, int_mode=True) + [Store.of({0: -1, 4: 2, 7: -5})]
    assert any(v < 0 for s in stores for _, v in s.cells)
    for s in stores:
        if all(v >= 0 for _, v in s.cells):
            assert clamp_negatives(s) is s
        assert clamp_negatives(s) == rebuilt(s)
    assert clamp_negatives(Store.of({0: -1, 1: 2})) == Store.of({1: 2})


def test_repr_is_the_dataclass_repr():
    assert repr(Store()) == "Store(cells=())"
    assert repr(Store.of({1: 2, 0: 3})) == "Store(cells=((0, 3), (1, 2)))"


def test_a_store_never_equals_another_state_kind(langs, cfg):
    s = Store.of({0: 1})
    assert Store() != FrameState() and FrameState() != Store()
    assert LowState(s, 1) != StackState(s, 1) and StackState(s, 1) != LowState(s, 1)
    # a frame stack with the same field tuple as a store is still no store
    assert Store(((0, 1),)) != FrameState(((0, 1),))
    states = {type(u): set() for u in (Store(), LowState(s, 0), StackState(s, 0), FrameState())}
    for lang in langs.values():
        for u in gen.state_window(lang, cfg):
            states[type(u)].add(u)
    assert all(states.values())
    for kind, of_kind in states.items():
        for other, of_other in states.items():
            if kind is not other:
                for u in of_kind:
                    assert all(u != v for v in of_other), (u, other)

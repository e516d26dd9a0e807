from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaforest.errors import BadIndex, DepthMismatch
from zetaforest.indices import (
    all_indices,
    bumps,
    positive_compositions,
    tuple_add,
    tuple_reverse,
    weight,
)

tuples = st.lists(st.integers(0, 4), max_size=4).map(tuple)


def test_weight_depth():
    assert weight((1, 2, 3)) == 6
    assert weight(()) == 0


def test_reverse():
    assert tuple_reverse((1, 2, 3)) == (3, 2, 1)
    assert tuple_reverse(()) == ()
    assert tuple_reverse((5,)) == (5,)


def test_add():
    assert tuple_add((2, 1), (0, 3)) == (2, 4)
    assert tuple_add((4, 7), (0, 0)) == (4, 7)
    with pytest.raises(DepthMismatch):
        tuple_add((1, 2), (1, 2, 3))


def test_bumps_count_positive_entries():
    # with every k_i > 0 no weight vanishes: all C(d + cap, cap) vectors appear
    for d in range(5):
        for cap in range(5):
            got = list(bumps((1, 3, 2, 1)[:d], cap))
            assert len(got) == comb(d + cap, cap)
            assert all(sum(l) <= cap for l, _ in got)
    assert list(bumps((), 3)) == [((), 1)]
    assert list(bumps((1, 2), -1)) == []


def test_bumps_rejects_negative_entries():
    for ks in ((-1,), (2, 0, -3)):
        with pytest.raises(BadIndex):
            list(bumps(ks, 2))


def test_bumps_zero_entries_stay_unbumped():
    assert list(bumps((0,), 3)) == [((0,), 1)]
    got = list(bumps((0, 2, 0, 1), 2))
    assert all(l[0] == 0 and l[2] == 0 for l, _ in got)
    assert [l for l, _ in got] == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 0, 0)]


@given(st.lists(st.integers(0, 4), max_size=5).map(tuple), st.integers(0, 4))
def test_bumps_weights_and_order(ks, cap):
    got = list(bumps(ks, cap))
    ls = [l for l, _ in got]
    assert ls == sorted(ls)
    assert len(set(ls)) == len(ls)
    for l, b in got:
        assert b == prod(comb(k + e - 1, e) for k, e in zip(ks, l) if k) and b
        assert all(e == 0 for k, e in zip(ks, l) if k == 0)
    # every vector over the positions with k_i > 0 appears
    assert len(got) == comb(sum(1 for k in ks if k) + cap, cap)


def test_bumps_small_example():
    assert list(bumps((2, 1), 2)) == [
        ((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((1, 0), 2), ((1, 1), 2), ((2, 0), 3),
    ]


def test_bumps_deep_index():
    # the recursive enumerator it replaces raised RecursionError here
    got = list(bumps((1,) * 1500, 1))
    assert len(got) == 1501
    assert got[0] == ((0,) * 1500, 1) and got[-1] == ((1,) + (0,) * 1499, 1)
    assert sum(1 for _ in bumps((2, 0) * 750, 1)) == 751


@given(tuples)
def test_reverse_involution(k):
    assert tuple_reverse(tuple_reverse(k)) == k


def test_positive_compositions():
    assert sorted(positive_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(positive_compositions(3, 5)) == []
    assert list(positive_compositions(0, 0)) == [()]
    assert len(list(positive_compositions(7, 3))) == 15  # C(6, 2)


def test_all_indices():
    got = all_indices(2)
    assert got == [(), (1,), (2,), (1, 1)]
    assert len(all_indices(4)) == 1 + 1 + 2 + 4 + 8

from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetaforest.errors import BadIndex, BadOrder
from zetaforest.indices import all_indices, bumps, weight

from enum_oracles import positive_compositions


def _vectors(ks, got):
    """The bump vectors l of `bumps(ks, ...)` output, from each ks + l."""
    return [tuple(b - k for b, k in zip(bumped, ks)) for bumped, _, _ in got]


def test_weight_depth():
    assert weight((1, 2, 3)) == 6
    assert weight(()) == 0


def test_bumps_count_positive_entries():
    # with every k_i > 0 no weight vanishes: all C(d + order - 1, d) vectors appear
    for d in range(5):
        for order in range(1, 6):
            got = list(bumps((1, 3, 2, 1)[:d], order))
            assert len(got) == comb(d + order - 1, d)
            assert all(degree < order for _, degree, _ in got)
    assert list(bumps((), 3)) == [((), 0, 1)]


def test_bumps_rejects_order_below_one():
    # once yielded nothing for a negative cap
    for ks in ((), (1, 2)):
        for order in (0, -1):
            with pytest.raises(BadOrder):
                next(bumps(ks, order))


def test_bumps_rejects_negative_entries():
    for ks in ((-1,), (2, 0, -3)):
        with pytest.raises(BadIndex):
            list(bumps(ks, 3))


def test_bumps_zero_entries_stay_unbumped():
    assert list(bumps((0,), 4)) == [((0,), 0, 1)]
    got = list(bumps((0, 2, 0, 1), 3))
    assert all(b[0] == 0 and b[2] == 0 for b, _, _ in got)
    assert _vectors((0, 2, 0, 1), got) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 0, 0)]


@given(st.lists(st.integers(0, 4), max_size=5).map(tuple), st.integers(1, 5))
def test_bumps_weights_and_order(ks, order):
    got = list(bumps(ks, order))
    ls = _vectors(ks, got)
    assert ls == sorted(ls)
    assert len(set(ls)) == len(ls)
    for l, (_, degree, c) in zip(ls, got):
        assert min(l, default=0) >= 0 and degree == sum(l) < order
        assert c == (-1) ** sum(ks) * prod(comb(k + e - 1, e) for k, e in zip(ks, l) if k) and c
        assert all(e == 0 for k, e in zip(ks, l) if k == 0)
    # every vector over the positions with k_i > 0 appears
    assert len(got) == comb(sum(1 for k in ks if k) + order - 1, order - 1)


def test_bumps_small_example():
    # wt(2, 1) is odd, so every weight is negative
    assert list(bumps((2, 1), 3)) == [
        ((2, 1), 0, -1), ((2, 2), 1, -1), ((2, 3), 2, -1),
        ((3, 1), 1, -2), ((3, 2), 2, -2), ((4, 1), 2, -3),
    ]


def _series_mul(f, g, order):
    return [sum(f[i] * g[d - i] for i in range(d + 1)) for d in range(order)]


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), max_size=3), st.integers(1, 4))
def test_bumps_is_the_expansion_of_the_poles(poles, order):
    # prod_i (t - a_i)^-k_i by long division of power series, against the
    # terms c * prod_i a_i^-(k_i + l_i) t^wt(l) that bumps yields
    expected = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for a, k in poles:
        inverse = [-Fraction(1, a) ** (d + 1) for d in range(order)]  # 1 / (t - a)
        for _ in range(k):
            expected = _series_mul(expected, inverse, order)
    got = [Fraction(0)] * order
    for bumped, degree, c in bumps(tuple(k for _, k in poles), order):
        got[degree] += c * prod(Fraction(1, a) ** e for (a, _), e in zip(poles, bumped))
    assert got == expected


def test_bumps_deep_index():
    # the recursive enumerator it replaces raised RecursionError here
    got = list(bumps((1,) * 1500, 2))
    assert len(got) == 1501
    assert got[0] == ((1,) * 1500, 0, 1) and got[-1] == ((2,) + (1,) * 1499, 1, 1)
    assert sum(1 for _ in bumps((2, 0) * 750, 2)) == 751


def test_positive_compositions():
    assert sorted(positive_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(positive_compositions(3, 5)) == []
    assert list(positive_compositions(0, 0)) == [()]
    assert len(list(positive_compositions(7, 3))) == 15  # C(6, 2)


def test_all_indices():
    got = all_indices(2)
    assert got == [(), (1,), (2,), (1, 1)]
    assert len(all_indices(4)) == 1 + 1 + 2 + 4 + 8


def test_all_indices_matches_brute_force():
    # every tuple of entries 1..W of each depth, kept by weight, sorted
    for W in range(8):
        brute = [k for d in range(W + 1) for k in product(range(1, W + 1), repeat=d) if sum(k) <= W]
        assert all_indices(W) == sorted(brute, key=lambda k: (sum(k), len(k), k))

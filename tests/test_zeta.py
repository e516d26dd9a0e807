import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest.catalog import (
    builtin_catalog,
    harvestable_catalog,
    hybrid_tree,
    linear_tree,
    random_tree,
    star_tree,
    unit_tree,
)
from zetaforest.errors import (
    BadIndex,
    NegativeEdgeIndex,
    NotATree,
    NotConnected,
    NotInH1,
    UnknownVertex,
)
from zetaforest.indices import all_indices
from zetaforest.rationals import Rat
from zetaforest.series import rat_series
from zetaforest.trees import Tree, parse_tree
from zetaforest.words import HElem, harmonic, word_from_index
from zetaforest.zeta import (
    _product,
    _zeta_numerator,
    z_m_eval,
    z_shat,
    zeta_index,
    zeta_shat_tree,
    zeta_tree,
    zeta_tree_u,
)

import enum_oracles


def z(*k):
    return HElem.from_index(k)


def test_zeta_index_examples():
    assert zeta_index((1,), 3) == Rat(3, 2)
    assert zeta_index((), 9) == 1
    assert zeta_index((), 0) == 1
    assert zeta_index((1, 1), 2) == 0
    assert zeta_index((2,), 4) == 1 + Rat(1, 4) + Rat(1, 9)


def test_zeta_index_is_its_numerator_over_l_to_the_weight():
    for M in range(11):
        L = math.lcm(*range(1, M))
        for k in all_indices(5):
            assert zeta_index(k, M) == Rat(_zeta_numerator(k, M), L ** sum(k)), (k, M)


def test_zeta_index_rejects_non_index():
    for k in ((-1,), (2, -1), (0,)):
        with pytest.raises(BadIndex):
            zeta_index(k, 4)


def test_zeta_index_takes_int_entries_only():
    # a float entry equal to an int must not reach the cache keyed by
    # (k, M), where it would stand for the int index from then on
    _zeta_numerator.cache_clear()
    for k in ((1.0,), (2.0,), (1.5,), (True,)):
        with pytest.raises(BadIndex):
            zeta_index(k, 6)
    assert zeta_index((1,), 6) == Rat(137, 60)
    assert zeta_index([1, 2], 5) == Rat(17, 32)  # any sequence, keyed as a tuple


def test_zeta_index_nested_order():
    # 0 < n_1 < n_2 < 4 with exponents (1, 2)
    expected = (
        Rat(1, 1) * Rat(1, 4) + Rat(1, 1) * Rat(1, 9) + Rat(1, 2) * Rat(1, 9)
    )
    assert zeta_index((1, 2), 4) == expected


# --- the reversal congruence at primes -------------------------------------------

# every nonempty index of weight <= 6, at primes p, modulo p^3
REVERSAL_CASES = [(k, p) for k in all_indices(6) if k for p in (5, 7, 11, 13)]
REVERSAL_ORDER = 3


def reversal_failures(t_sign: int = 1) -> int:
    """The cases where zeta_index(reverse(k), p) is not (-1)^wt(k) times the
    sum over bump vectors l with wt(l) < N of b(k; l) (t_sign p)^wt(l)
    zeta_index(k + l, p), modulo p^N.

    Substituting n -> p - n reverses the order of the summation variables
    and turns n^-k into (p - n)^-k = (-1)^k sum_l C(k + l - 1, l) p^l n^-(k+l).
    b(k; l) = prod C(k_i + l_i - 1, l_i) is computed here with `math.comb`,
    not read from `bumps`.  Every denominator is prime to p, as every
    summation variable lies in 1..p-1."""
    n, failures = REVERSAL_ORDER, 0
    for k, p in REVERSAL_CASES:
        rhs = 0
        for l in itertools.product(range(n), repeat=len(k)):
            if sum(l) < n:
                b = math.prod(math.comb(ki + li - 1, li) for ki, li in zip(k, l))
                bumped = tuple(ki + li for ki, li in zip(k, l))
                rhs += b * (t_sign * p) ** sum(l) * zeta_index(bumped, p)
        diff = zeta_index(k[::-1], p) - (-1) ** sum(k) * rhs
        failures += diff.numerator % p**n != 0
    return failures


def test_reversal_congruence_at_primes():
    assert len(REVERSAL_CASES) == 252
    assert reversal_failures() == 0


def test_reversal_congruence_catches_t_to_minus_t():
    # p^wt(l) read as (-p)^wt(l): most cases fail
    assert reversal_failures(-1) == 206


# --- the tree and word congruences at primes ---------------------------------------

# one seeded tree per isomorphism class, b() left out: zeta_shat_tree(b(), M, N)
# is 0, while B * zeta_tree(b(), p) is 1
_DRAWS = random.Random(15)
CONGRUENCE_TREES = list({t.key: t for t in (random_tree(_DRAWS, max_vertices=5, k_cap=2)
                                            for _ in range(400)) if len(t.vertices) > 1}.values())
CONGRUENCE_CASES = [(t, p) for t in CONGRUENCE_TREES for p in (5, 7)]
CONGRUENCE_ORDER = 3


def tree_congruence_failures() -> tuple:
    """The cases where zeta_shat_tree(X, p, N), and where z_shat of the word
    of X's harvestable form, at t = p is not B * zeta_tree(X, p) modulo p^N,
    B the number of black vertices of X; the counts on the tree side and on
    the word side.

    With t = p each flipped base -a + t is p - a, so each of the B re-rooted
    sums is zeta_tree(X, p), and the truncation at t^N costs a multiple of
    p^N; every denominator is prime to p, as every base lies in 1..p-1."""
    from zetaforest.trees import harvestable_form, w_word

    n, failures = CONGRUENCE_ORDER, [0, 0]
    for t, p in CONGRUENCE_CASES:
        expected = len(t.black) * zeta_tree(t, p)
        sides = (zeta_shat_tree(t, p, n), z_shat(w_word(harvestable_form(t)), p, n))
        for i, side in enumerate(sides):
            at_p = sum(c * p**d for d, c in enumerate(side.coeffs))
            failures[i] += (at_p - expected).numerator % p**n != 0
    return tuple(failures)


def test_tree_and_word_congruences_at_primes():
    assert len(CONGRUENCE_TREES) == 119 and len(CONGRUENCE_CASES) == 238
    assert tree_congruence_failures() == (0, 0)


def test_tree_and_word_congruences_catch_t_to_minus_t(monkeypatch):
    # the tree sums' and phi_hat's expansions read at -t instead of t
    from zetaforest import symmetrize, zeta
    from zetaforest.indices import bumps
    from zetaforest.symmetrize import _phi_hat_index

    def flipped(ks, order):
        for bumped, d, c in bumps(ks, order):
            yield bumped, d, (-1) ** d * c

    def clear():
        # rows walked with the true bumps must not serve the patched run
        _phi_hat_index.cache_clear()
        zeta._edge_factors.cache_clear()
        zeta._walks.clear()

    for module in (symmetrize, zeta):
        monkeypatch.setattr(module, "bumps", flipped)
    clear()
    try:
        assert tree_congruence_failures() == (224, 224)
    finally:
        clear()


def test_zeta_tree_examples():
    assert zeta_tree(unit_tree(), 5) == 1
    assert zeta_tree(star_tree(0, (1, 1)), 3) == 1
    # star at M=4: (m_rt, m_a, m_b) in {(2,1,1), (1,2,1), (1,1,2)},
    # the 0-edge contributes no factor: 1/(1*1) + 1/(2*1) + 1/(1*2)
    assert zeta_tree(star_tree(0, (1, 1)), 4) == Rat(1, 1) + Rat(1, 2) + Rat(1, 2)


def test_a_sweep_below_a_stored_walk_neither_walks_nor_orients(monkeypatch):
    # after one walk at M = 7, every M = 1..7 is a slice of the stored rows
    from zetaforest import trees, zeta

    t = hybrid_tree(1, 2, 1, 2, 1)
    sweep = range(1, 8)
    zeta._walks.clear()
    expected = [(zeta_tree(t, M), zeta_shat_tree(t, M, 3)) for M in sweep]
    zeta._walks.clear()
    zeta_tree(t, 7), zeta_shat_tree(t, 7, 3)
    monkeypatch.setattr(zeta, "_tree_rows", lambda *args: pytest.fail("walked"))
    monkeypatch.setattr(trees, "orient", lambda adj, top: pytest.fail("oriented"))
    assert [(zeta_tree(t, M), zeta_shat_tree(t, M, 3)) for M in sweep] == expected
    zeta._walks.clear()


def test_a_walk_caches_nothing_on_its_tree():
    # a walk builds its adjacency and orientations for itself, so a tree
    # kept by a table or a caller carries no O(V) maps for it
    from zetaforest import zeta

    zeta._walks.clear()
    for key in ("b(1:w(1:b(),2:b(1:b())),2:w(1:b(),1:b()))", "b(2:b(1:b(2:b())))"):
        t = parse_tree(key)
        u = max(t.black)
        zeta_tree(t, 6), zeta_tree_u(t, u, 6, 3), zeta_shat_tree(t, 6, 3)
        assert zeta.walk_info().misses > 0
        assert not {"adj", "parent"} & t.__dict__.keys(), key
    zeta._walks.clear()


def test_zeta_tree_matches_index_on_linear():
    for r in range(0, 4):
        for ks in itertools.product((1, 2, 3), repeat=r):
            for M in range(1, 9):
                assert zeta_tree(linear_tree(*ks), M) == zeta_index(ks, M)


def test_zeta_tree_u_examples():
    e1 = linear_tree(1)
    leaf = max(e1.vertices)
    # the factor never involves the root's variable
    assert zeta_tree_u(e1, e1.root, 3, 3) == rat_series([Rat(3, 2), 0, 0], 3)
    assert zeta_tree_u(e1, leaf, 3, 3) == rat_series(
        [Rat(-3, 2), Rat(-5, 4), Rat(-9, 8)], 3
    )
    assert zeta_tree_u(e1, leaf, 1, 3) == rat_series([0, 0, 0], 3)
    with pytest.raises(UnknownVertex):
        zeta_tree_u(e1, 77, 3, 3)


def test_zeta_tree_u_root_term_is_plain_sum():
    for t in (linear_tree(1, 2), star_tree(1, (1, 2)), hybrid_tree(1, 1, 1, 1, 1)):
        for M in range(1, 8):
            got = zeta_tree_u(t, t.root, M, 3)
            assert got.coeffs[0] == zeta_tree(t, M)
            assert not got.coeffs[1] and not got.coeffs[2]


def test_zeta_shat_examples():
    e1 = linear_tree(1)
    assert zeta_shat_tree(e1, 3, 3) == rat_series([0, Rat(-5, 4), Rat(-9, 8)], 3)
    # the unit pair has an empty shifted index set
    for M in range(1, 5):
        assert zeta_shat_tree(unit_tree(), M, 2) == rat_series([0, 0], 2)


def test_z_m_eval_examples():
    assert z_m_eval(z(1), 3) == Rat(3, 2)
    assert z_m_eval(HElem.unit(), 12) == 1
    # weight 0 takes no lcm, so any M works
    assert z_m_eval(HElem.unit(), 10**20) == zeta_index((), 10**20) == 1
    assert z_m_eval(HElem.zero(), 10**20) == 0
    assert z_m_eval(harmonic(z(1), z(1)), 3) == Rat(9, 4)
    with pytest.raises(NotInH1):
        z_m_eval(HElem.word("x"), 3)


def test_z_m_eval_cancels_and_empty():
    empty = HElem.zero()
    # z_1 and z_2 agree below M = 3, and z_(1,1) and z_(2,1) at M = 3
    pair = HElem({"y": 1, "yx": -1})
    rational_pair = HElem({"yy": Rat(1, 3), "yxy": Rat(-1, 3)})
    for M in range(11):
        for a in (empty, pair, rational_pair):
            got = z_m_eval(a, M)
            assert type(got) is Rat and got == enum_oracles.z_m_eval(a, M), (a, M)
        assert z_m_eval(empty, M) == 0
        assert (z_m_eval(pair, M) == 0) == (M <= 2)
        assert (z_m_eval(rational_pair, M) == 0) == (M <= 3)


_coeffs = st.one_of(
    st.integers(-20, 20),
    st.builds(Rat, st.integers(-30, 30), st.integers(1, 12)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(1, 3), max_size=4), _coeffs), max_size=5),
       st.integers(0, 10))
def test_z_m_eval_matches_term_by_term_reference(terms, M):
    # M = 0..10 reaches M <= depth, where an index sums to 0
    a = HElem([(word_from_index(tuple(k)), c) for k, c in terms])
    assert z_m_eval(a, M) == enum_oracles.z_m_eval(a, M)


def test_z_shat_examples():
    assert z_shat(z(1), 3, 3) == rat_series([0, Rat(-5, 4), Rat(-9, 8)], 3)
    assert z_shat(HElem.unit(), 5, 2) == rat_series([1, 0], 2)
    assert z_shat(z(2), 4, 1) == rat_series([Rat(49, 18)], 1)


def test_harmonic_homomorphism_small():
    pairs = [((1,), (2,)), ((2,), (2,)), ((1, 1), (2,)), ((1, 2), (1,))]
    for k, l in pairs:
        for M in range(2, 11):
            lhs = z_m_eval(harmonic(z(*k), z(*l)), M)
            assert lhs == zeta_index(k, M) * zeta_index(l, M)


def test_w_bridge_small():
    from zetaforest.trees import w_word

    for ks in [(1,), (2,), (1, 2), (2, 1), (1, 1, 1)]:
        t = linear_tree(*ks)
        for M in range(1, 8):
            assert zeta_shat_tree(t, M, 3) == z_shat(w_word(t), M, 3)


def test_w_bridge_harvestable_catalog():
    # the shifted tree sum of any harvestable pair equals the evaluated
    # symmetrization of its word
    from zetaforest.catalog import harvestable_catalog
    from zetaforest.trees import w_word

    for t in harvestable_catalog():
        if len(t.vertices) == 1:
            continue
        word = w_word(t)
        for M in range(1, 7):
            assert zeta_shat_tree(t, M, 3) == z_shat(word, M, 3), (t.key, M)


def test_shat_linearity_in_coefficients():
    a = 2 * z(1) - 3 * z(2)
    got = z_shat(a, 4, 2)
    expected = z_shat(z(1), 4, 2).scale(2) - z_shat(z(2), 4, 2).scale(3)
    assert got == expected


def assert_matches_enumeration(t, M, order=3):
    assert zeta_tree(t, M) == enum_oracles.zeta_tree(t, M), (t.key, M)
    total = rat_series([0] * order, order)
    for u in sorted(t.black):
        expected = enum_oracles.zeta_tree_u(t, u, M, order)
        assert zeta_tree_u(t, u, M, order) == expected, (t.key, u, M)
        total = total + expected
    assert zeta_shat_tree(t, M, order) == total, (t.key, M)


def test_oracles_match_enumeration():
    rng = random.Random(0)
    trees = builtin_catalog() + harvestable_catalog()
    trees += [random_tree(rng) for _ in range(40)]
    # white roots, which add no value of their own to the total at the root
    white = ("w(1:b(),2:b())", "w(0:b(),1:b(),1:b())", "w(1:w(1:b(),1:b()),2:b())")
    trees += [parse_tree(s) for s in white]
    for t in trees:
        for M in range(0, 9):
            assert_matches_enumeration(t, M)
    for k in all_indices(5):
        for M in range(-1, 12):
            assert zeta_index(k, M) == enum_oracles.zeta_index(k, M), (k, M)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_oracles_match_enumeration_on_random_trees(seed, M):
    t = random_tree(random.Random(seed), max_vertices=7, k_cap=3)
    assert_matches_enumeration(t, M)


@pytest.mark.parametrize("order", [1, 2, 4])
def test_oracles_match_enumeration_at_each_t_order(order):
    rng = random.Random(order)
    trees = builtin_catalog() + harvestable_catalog()
    trees += [random_tree(rng, max_vertices=7, k_cap=3) for _ in range(20)]
    for t in trees:
        for M in range(0, 7):
            assert_matches_enumeration(t, M, order)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_black_leaf_shapes_match_enumeration(order):
    # a black leaf's vector is its edge's factor rows, or one row under a 0-edge
    shapes = [
        unit_tree(),
        parse_tree("b(1:w(0:b(),1:b()))"),  # a black leaf under a 0-edge
        parse_tree("b(0:b(),1:b(),1:b(),2:b())"),  # a star of black leaves
        star_tree(1, (0, 1, 2, 3)),
        parse_tree("b(2:b())"),  # the old root is a leaf, under a flipped edge
    ]
    for t in shapes:
        for M in range(0, 8):
            assert_matches_enumeration(t, M, order)


def naive_product(a, b, order, cap, pointwise):
    """Cauchy product over t-degree, one term at a time."""
    out = [[0] * (cap + 1) for _ in range(min(order, len(a) + len(b) - 1))]
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            if i + j >= order:
                continue
            for m, x in enumerate(ra):
                for n, y in enumerate(rb):
                    if (m == n) if pointwise else (m + n <= cap):
                        out[i + j][m if pointwise else m + n] += x * y
    return out


def test_product_matches_naive_cauchy_and_convolution():
    rng = random.Random(7)

    def rows(count, cap):
        # sparse rows, some of them all zero
        return [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cap + 1)]
                for _ in range(count)]

    for _ in range(400):
        cap, order = rng.randint(0, 6), rng.randint(1, 5)
        a, b = rows(rng.randint(1, 5), cap), rows(rng.randint(1, 5), cap)
        if rng.random() < 0.2:
            a[0] = [0] * (cap + 1)
        for pointwise in (True, False):
            expected = naive_product(a, b, order, cap, pointwise)
            assert _product(a, b, order, cap, pointwise) == expected, (a, b, order, cap)


def test_deep_chain_does_not_recurse():
    chain = linear_tree(*[1] * 1500)
    leaf = max(chain.vertices)
    assert zeta_tree(chain, 3) == 0
    assert zeta_tree_u(chain, chain.root, 3, 3) == rat_series([0, 0, 0], 3)
    assert zeta_tree_u(chain, leaf, 3, 3) == rat_series([0, 0, 0], 3)
    # at t-order 4 the far leaf, then the old root, is a black leaf of the walk
    assert zeta_tree_u(chain, chain.root, 3, 4) == rat_series([0, 0, 0, 0], 4)
    assert zeta_tree_u(chain, leaf, 3, 4) == rat_series([0, 0, 0, 0], 4)


def test_broken_structure_is_rejected():
    # no oracle sees a structure that is not a tree: Tree.build rejects it
    broken = [
        ((0, [0, 1, 2], [], [(1, 2, 1)]), NotATree),
        ((0, [0, 1, 2, 3], [], [(1, 2, 1), (2, 3, 1), (1, 3, 1)]), NotConnected),
        ((0, [0, 1, 2], [], [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), NotATree),
        ((0, [0, 1], [], [(0, 1, -1)]), NegativeEdgeIndex),
        ((9, [0], [], []), UnknownVertex),
    ]
    for fields, error in broken:
        with pytest.raises(error):
            Tree.build(*fields)


def test_unvalidated_trees_raise_the_structural_error():
    # u = 1 would not be reachable from the root; the edge count fails first
    with pytest.raises(NotATree):
        Tree.build(0, [0, 1, 2], [], [(1, 2, 1)])
    # vertex 5 has no color; it is not taken for a white terminal
    with pytest.raises(UnknownVertex):
        Tree.build(0, [0], [], [(0, 5, 1)])


# --- one walk per tree serves every M -------------------------------------------

_SLICE_DRAWS = random.Random(30)
SLICE_TREES = list(dict.fromkeys(builtin_catalog() + harvestable_catalog()
                                 + [random_tree(_SLICE_DRAWS) for _ in range(40)]))
SLICE_MS = range(1, 13)
SLICE_ORDERS = range(1, 5)


def oracle_calls(t):
    """(label, call) for every oracle call on `t` at one M: zeta_tree,
    zeta_tree_u at every black u and zeta_shat_tree, at t-orders 1-4."""
    calls = [("tree", lambda M: zeta_tree(t, M))]
    for order in SLICE_ORDERS:
        calls.append((("shat", order), lambda M, order=order: zeta_shat_tree(t, M, order)))
        calls += [(("u", u, order), lambda M, u=u, order=order: zeta_tree_u(t, u, M, order))
                  for u in sorted(t.black)]
    return calls


def test_slices_equal_cold_walks():
    from zetaforest import zeta

    rng = random.Random(31)
    shuffled = list(SLICE_MS)
    for t in SLICE_TREES:
        calls = oracle_calls(t)
        cold = {}
        for M in SLICE_MS:
            for label, call in calls:
                zeta._walks.clear()
                cold[label, M] = call(M)
        for M in range(1, 5):
            assert cold["tree", M] == enum_oracles.zeta_tree(t, M), (t.key, M)
            for label, _ in calls:
                if label[0] == "u":
                    assert cold[label, M] == enum_oracles.zeta_tree_u(t, label[1], M, label[2])
            for order in SLICE_ORDERS:
                total = rat_series([0] * order, order)
                for u in t.black:
                    total = total + cold[("u", u, order), M]
                assert cold[("shat", order), M] == total, (t.key, order, M)
        rng.shuffle(shuffled)
        for sweep in (SLICE_MS, SLICE_MS[::-1], shuffled):
            zeta._walks.clear()
            for M in sweep:
                for label, call in calls:
                    assert call(M) == cold[label, M], (t.key, label, M)
    zeta._walks.clear()


def test_one_walk_per_tree_and_largest_m(monkeypatch):
    # descending, the first call walks at the largest M and every later one
    # reads a slice; ascending, each M at which a tuple exists walks again
    from zetaforest import zeta

    walks = []
    walk = zeta._tree_rows
    monkeypatch.setattr(zeta, "_tree_rows", lambda t, top, *rest: walks.append(top) or walk(t, top, *rest))
    for t in SLICE_TREES:
        b = len(t.black)
        for sweep, shat_walks in ((SLICE_MS[::-1], b), (SLICE_MS, b * len(range(max(2, b), 13)))):
            zeta._walks.clear()
            walks.clear()
            [zeta_tree(t, M) for M in sweep]
            misses = 1 if sweep[0] > sweep[-1] else 13 - b
            assert walks == [t.root] * misses, t.key
            hits, _, entries, bits = zeta.walk_info()
            assert (hits, entries) == (13 - b - misses, 1) and bits > 0
            walks.clear()
            [zeta_shat_tree(t, M, 3) for M in sweep]
            assert len(walks) == shat_walks and set(walks) == t.black, t.key
    zeta._walks.clear()


def test_walk_table_stays_within_its_bits(monkeypatch):
    from zetaforest import zeta
    from zetaforest.table import BoundedTable

    budget = 12_000  # the six chains' walks pass it from M = 17 on
    table = BoundedTable(budget)
    monkeypatch.setattr(zeta, "_walks", table)
    chains = [linear_tree(*[1] * n) for n in range(2, 8)]
    stored = []  # keys in the order they were last stored
    for M in range(8, 30, 3):
        for t in chains:
            assert zeta_tree(t, M) == zeta_index((1,) * (len(t.vertices) - 1), M)
            key = (t.root, t.black, t.white, t.edges, (), 1)
            stored = [k for k in stored if k != key] + [key]
            info = table.info()
            assert info.charge == sum(charge for _, charge in table.entries.values()) <= budget
            # the oldest entries went first: the table holds the newest ones
            assert list(table.entries) == stored[-info.entries:]
            assert table.entries[key][0][0] == M  # the stored walk's cap
    assert info.entries < len(chains)  # some went
    assert table.info().misses == len(range(8, 30, 3)) * len(chains)
    # a walk larger than the whole budget is returned, not stored
    long_chain = linear_tree(*[2] * 12)
    entries = dict(table.entries)
    assert zeta_tree(long_chain, 60) == zeta_index((2,) * 12, 60)
    assert table.entries == entries
    assert zeta_tree(long_chain, 40) == zeta_index((2,) * 12, 40)
    assert table.info().misses == len(range(8, 30, 3)) * len(chains) + 2


def test_process_walk_table_is_bounded():
    from zetaforest import zeta

    info = zeta.walk_info()
    assert info.charge == sum(charge for _, charge in zeta._walks.entries.values()) <= zeta.WALK_BITS

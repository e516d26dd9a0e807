"""Acceptance criteria, one test per criterion, all equalities exact.

Criteria with a stated time budget assert it; everything else runs at the
stated desk-scale bounds.  The terminal summary prints one line per
criterion (see conftest.py).
"""

import itertools
import random
import time

from zetaforest.catalog import (
    builtin_catalog,
    harvestable_catalog,
    linear_tree,
    random_harvestable,
    symmetric_hybrid_tree,
    unit_tree,
)
from zetaforest.indices import all_indices
from zetaforest.rationals import Rat
from zetaforest.series import rat_series
from zetaforest.symmetrize import phi
from zetaforest.trees import (
    Tree,
    TreeCombo,
    cap_phi,
    circ_h,
    harvestable_form,
    is_essentially_positive,
    is_harvestable,
    w_word,
)
from zetaforest.verify import (
    btt_lhs,
    btt_rhs,
    diagram_rhs,
    harvested_terms,
    kaneko_lhs,
    kaneko_rhs,
    main_lhs,
    main_rhs,
    root_change_rhs,
    t_btt_lhs,
    t_btt_rhs,
)
from zetaforest.words import HElem, harmonic, right_mul_x_pow, shuffle
from zetaforest.zeta import z_m_eval, z_m_series, z_shat, zeta_index, zeta_shat_tree, zeta_tree

from tree_helpers import one_term


def z(*k):
    return HElem.from_index(k)


def test_a01_word_algebra_axioms():
    start = time.perf_counter()
    words = [z(*k) for k in all_indices(4)]
    unit = HElem.unit()
    for a in words:
        assert shuffle(a, unit) == a and shuffle(unit, a) == a
        assert harmonic(a, unit) == a and harmonic(unit, a) == a
    for i, a in enumerate(words):
        for b in words[i:]:
            assert shuffle(a, b) == shuffle(b, a)
            assert harmonic(a, b) == harmonic(b, a)
    rng = random.Random(0)
    pool = all_indices(4)
    for _ in range(200):
        a, b, c = (z(*rng.choice(pool)) for _ in range(3))
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))
        assert harmonic(harmonic(a, b), c) == harmonic(a, harmonic(b, c))
    assert time.perf_counter() - start < 10.0


def test_a02_harmonic_evaluation_homomorphism():
    assert z_m_eval(harmonic(z(1), z(1)), 3) == Rat(9, 4)
    assert Rat(9, 4) == Rat(3, 2) ** 2
    idxs = all_indices(4)
    for i, k in enumerate(idxs):
        for l in idxs[i:]:
            prod = harmonic(z(*k), z(*l))
            for M in range(2, 11):
                assert z_m_eval(prod, M) == zeta_index(k, M) * zeta_index(l, M)


def test_a03_linear_tree_bridge():
    for r in range(0, 5):
        for ks in itertools.product((1, 2, 3), repeat=r):
            t = linear_tree(*ks)
            for M in range(1, 13):
                assert zeta_tree(t, M) == zeta_index(ks, M)
    # the unit pair is the one degenerate case of the shifted sum
    for M in range(1, 13):
        assert zeta_shat_tree(unit_tree(), M, 3) == rat_series([0, 0, 0], 3)
    for r in range(1, 5):
        for ks in itertools.product((1, 2, 3), repeat=r):
            t = linear_tree(*ks)
            elem = z(*ks)
            assert w_word(t) == elem
            for M in range(1, 13):
                assert zeta_shat_tree(t, M, 3) == z_shat(elem, M, 3)


def test_a04_skip_one_product_formula():
    start = time.perf_counter()
    for r in (1, 2, 3):
        for ks in itertools.product((1, 2, 3), repeat=r + 1):
            assert btt_lhs(ks) == btt_rhs(ks), ks
    assert time.perf_counter() - start < 60.0


def test_a05_tree_word_symmetrization_identity():
    # the diagram w(Phi_hat(X)) is the main identity's one tree side
    assert diagram_rhs is main_rhs
    for t in builtin_catalog():
        assert len(t.vertices) <= 7
        lhs = main_lhs(t, 3)
        assert lhs == main_rhs(t, 3), t.key
        terms = harvested_terms(t, 3)
        for M in range(1, 11):
            assert z_m_series(lhs, M) == root_change_rhs(terms, M, 3), (t.key, M)


def test_a06_t_adic_skip_one_formula():
    for r in (1, 2):
        for ks in itertools.product((1, 2), repeat=r + 1):
            assert t_btt_lhs(ks, 3) == t_btt_rhs(ks, 3), ks


def test_a07_shuffle_reflection_identities():
    idxs = all_indices(5)
    for k in idxs:
        for l in idxs:
            if sum(k) + sum(l) > 5:
                continue
            assert kaneko_lhs(k, l, 3) == kaneko_rhs(k, l, 3), (k, l)
            lhs0 = phi(shuffle(z(*k), z(*l)))
            sign = -1 if sum(l) % 2 else 1
            rhs0 = sign * phi(HElem.from_index(k + tuple(reversed(l))))
            assert lhs0 == rhs0, (k, l)


def test_a08_root_change_oracle():
    pairs = [t for t in harvestable_catalog() if len(t.vertices) > 1]
    assert pairs
    for t in pairs:
        assert is_harvestable(t)
        terms = harvested_terms(t, 3)
        for M in range(1, 15):
            assert zeta_shat_tree(t, M, 3) == root_change_rhs(terms, M, 3), (t.key, M)


def test_a09_mirror_symmetry_vanishing():
    for k1 in (1, 2):
        for k2 in (1, 2):
            for l in (1, 3):
                t = symmetric_hybrid_tree(k1, k2, l)
                assert cap_phi(t) == TreeCombo.zero(), (k1, k2, l)
                assert phi(w_word(harvestable_form(t))) == HElem.zero(), (k1, k2, l)


def test_a10_harvestable_form_contract():
    for t in builtin_catalog():
        assert is_essentially_positive(t)
        hf = harvestable_form(t)
        assert is_harvestable(hf), t.key
        hf.validate()
        for M in range(1, 9):
            assert zeta_shat_tree(t, M, 3) == zeta_shat_tree(hf, M, 3), (t.key, M)


def test_a11_glue_product_algebra():
    rng = random.Random(0)
    unit = unit_tree()
    for _ in range(100):
        a, b, c = (random_harvestable(rng, max_vertices=5, k_cap=2) for _ in range(3))
        assert circ_h(a, b).key == circ_h(b, a).key
        assert circ_h(circ_h(a, b), c).key == circ_h(a, circ_h(b, c)).key
        assert circ_h(a, unit).key == a.key


def test_a12_worked_figures():
    # the four-term constant image of a depth-3 chain, term by term
    for k1, k2, k3 in itertools.product((1, 2), repeat=3):
        t = linear_tree(k1, k2, k3)
        term1 = linear_tree(k3, k2, k1)
        term2 = Tree.build(0, range(4), [], [(0, 1, k1), (0, 2, k2), (2, 3, k3)])
        term3 = Tree.build(0, range(4), [], [(0, 1, k2), (1, 2, k1), (0, 3, k3)])
        term4 = linear_tree(k1, k2, k3)
        sign = lambda e: -1 if e % 2 else 1
        expected = (
            one_term(term1, sign(k1 + k2 + k3))
            + one_term(term2, sign(k2 + k3))
            + one_term(term3, sign(k3))
            + one_term(term4, 1)
        )
        assert cap_phi(t) == expected, (k1, k2, k3)
    # the hybrid word, literally
    from zetaforest.catalog import hybrid_tree

    for k1, k2, k3, k4, l in [
        (1, 1, 1, 1, 0),
        (1, 2, 1, 2, 1),
        (2, 1, 2, 1, 2),
        (1, 1, 2, 2, 3),
    ]:
        expected = right_mul_x_pow(
            shuffle(right_mul_x_pow(shuffle(z(k1), z(k2)), l), z(k3)), k4
        )
        assert w_word(hybrid_tree(k1, k2, k3, k4, l)) == expected

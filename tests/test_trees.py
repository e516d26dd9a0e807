import inspect
import random
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest.catalog import (
    black_fork_tree,
    builtin_catalog,
    hybrid_tree,
    linear_tree,
    random_harvestable,
    random_tree,
    star_tree,
    symmetric_hybrid_tree,
    unit_tree,
)
from zetaforest.errors import (
    BadOrder,
    InvalidTree,
    NotATree,
    NotConnected,
    NotEssentiallyPositive,
    NotHarvestable,
    RootNotBlack,
    TerminalNotBlack,
    UnknownVertex,
)
from zetaforest.table import BoundedTable
from zetaforest.trees import (
    Tree,
    TreeCombo,
    cap_phi,
    cap_phi_hat,
    circ_h,
    circ_product,
    harvestable_form,
    is_essentially_positive,
    is_harvestable,
    parse_tree,
    tree_to_json,
    w_word,
)
from zetaforest.words import HElem, right_mul_x_pow, shuffle
from zetaforest.zeta import zeta_tree

from enum_oracles import symmetrization_reference
from tree_helpers import change_root, one_term


def z(*k):
    return HElem.from_index(k)


def relabel(t: Tree, perm: dict) -> Tree:
    return Tree.build(
        perm[t.root],
        [perm[v] for v in t.black],
        [perm[v] for v in t.white],
        [(perm[u], perm[v], k) for u, v, k in t.edges],
    )


# --- canonical keys ---------------------------------------------------------


def test_key_and_json_of_deep_chain():
    n = 1500
    assert n > sys.getrecursionlimit()
    ks = [1 + i % 3 for i in range(n)]
    t = Tree.build(0, range(n + 1), [], [(i, i + 1, k) for i, k in enumerate(ks)])
    assert t.key == "b(" + "".join(f"{k}:b(" for k in ks) + ")" * (n + 1)
    obj, walked = tree_to_json(t), []
    while obj["edges"]:
        assert obj["color"] == "b"
        (edge,) = obj["edges"]
        walked.append(edge["index"])
        obj = edge["child"]
    assert walked == ks
    # a 1200-deep nest of alternating colors, as well as the chain itself
    depth = 1200
    nest = Tree.build(0, range(0, depth + 1, 2), range(1, depth, 2),
                      [(i, i + 1, 1 + i % 2) for i in range(depth)])
    for deep in (t, nest):
        assert parse_tree(deep.key) == deep


def test_key_and_child_order_come_from_one_walk(monkeypatch):
    # count the walks of `Tree.kids`; a cached_property set on the class
    # after it was made learns its name from __set_name__
    dsl, walks = "b(1:b(2:b()),2:w(1:b(),1:b()))", []
    walk = Tree.kids.func
    counted = cached_property(lambda t: walks.append(t) or walk(t))
    counted.__set_name__(Tree, "kids")
    monkeypatch.setattr(Tree, "kids", counted)
    t = parse_tree(dsl)
    assert t.to_json()["dsl"] == dsl
    assert walks == [t]
    t = parse_tree(dsl)
    assert t.key == dsl and walks[-1] is t  # the key is the walk's
    cap_phi_hat(t, 3)
    assert len(walks) == 2


def test_non_planar_equality():
    # the same shape drawn with children in different positions
    a = Tree.build(
        0, [0, 3, 5], [1, 2, 4],
        [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 4, 4), (4, 5, 5)],
    )
    b = Tree.build(
        0, [0, 3, 5], [1, 2, 4],
        [(0, 4, 4), (4, 5, 5), (0, 1, 1), (1, 2, 2), (2, 3, 3)],
    )
    assert a.key == b.key


def test_key_stable_under_relabeling():
    t = hybrid_tree(1, 2, 1, 2, 1)
    rng = random.Random(7)
    ids = sorted(t.vertices)
    for _ in range(20):
        shuffled = ids[:]
        rng.shuffle(shuffled)
        perm = dict(zip(ids, shuffled))
        assert relabel(t, perm).key == t.key


def test_unit_key():
    assert unit_tree().key == "b()"


def test_key_distinguishes_colors_roots_indices():
    a = linear_tree(1, 2)
    assert a.key != linear_tree(2, 1).key
    assert a.key != change_root(a, sorted(a.vertices)[2]).key
    s = star_tree(1, (1, 1))
    all_black = Tree.build(0, sorted(s.vertices), [], s.edges)
    assert s.key != all_black.key


# --- validate: Tree.build rejects every invalid structure ---------------------


def test_validate_catalog_ok():
    for t in builtin_catalog():
        t.validate()


def test_catalog_trees_are_essentially_positive_with_black_roots():
    # the catalog suites take every tree as it is, with no filter
    for t in builtin_catalog():
        assert is_essentially_positive(t) and t.root in t.black, t.key


def test_validate_white_leaf():
    with pytest.raises(TerminalNotBlack):
        Tree.build(0, [0], [1], [(0, 1, 1)])


def test_validate_disconnected():
    # right vertex/edge count, but one component is a cycle and one is isolated
    with pytest.raises(NotConnected):
        Tree.build(0, [0, 1, 2, 3], [], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(NotATree):
        Tree.build(0, [0, 1, 2], [], [(0, 1, 1)])


def test_validate_single_white_vertex():
    with pytest.raises(TerminalNotBlack):
        Tree.build(0, [], [0], [])


# --- reachability and essential positivity -----------------------------------


def test_build_rejects_an_unreachable_vertex():
    # vertex 1 hangs off no path to the root; with one edge too few, the
    # edge count is checked first
    with pytest.raises(NotATree):
        Tree.build(0, [0, 1, 2], [], [(1, 2, 1)])
    with pytest.raises(NotConnected):
        Tree.build(0, [0, 1, 2, 3], [], [(1, 2, 1), (2, 3, 1), (1, 3, 1)])


def test_edge_endpoint_without_a_color():
    # vertex 5 is in neither color set: no silent white vertex
    with pytest.raises(UnknownVertex):
        Tree.build(0, [0], [], [(0, 5, 1)])


def test_build_rejects_ids_and_indices_that_are_not_ints():
    # every tree must round-trip through parse_tree, whose keys have decimal
    # indices, and a string id must not reach the edge sort
    with pytest.raises(InvalidTree, match="index 1.5"):
        Tree.build(0, [0, 1], [], [(0, 1, 1.5)])
    with pytest.raises(InvalidTree, match="index True"):
        Tree.build(0, [0, 1], [], [(0, 1, True)])
    with pytest.raises(InvalidTree, match="vertex id 'a'"):
        Tree.build(0, ["a", 0], [], [(0, "a", 1)])
    with pytest.raises(InvalidTree, match="vertex id True"):
        Tree.build(True, [0, 1], [], [(0, 1, 1)])


def test_tree_is_an_immutable_value():
    t = linear_tree(2, 1)
    same = Tree(t.root, frozenset(t.black), frozenset(t.white), tuple(t.edges))
    assert t == same and hash(t) == hash(same) and t is not same
    assert t != change_root(t, 2) and t != (t.root, t.black, t.white, t.edges)
    assert Tree(root=t.root, black=t.black, white=t.white, edges=t.edges) == t
    with pytest.raises(AttributeError):
        t.root = 1
    with pytest.raises(AttributeError):
        del t.edges
    assert t.key == "b(1:b(2:b()))" and t.__dict__["key"] == t.key  # cached
    assert t.to_json() == {"dsl": t.key, "tree": tree_to_json(t)}


def test_essential_positivity():
    assert is_essentially_positive(linear_tree(1, 2, 1))
    zero_edge = Tree.build(0, [0, 1], [], [(0, 1, 0)])
    assert not is_essentially_positive(zero_edge)
    assert is_essentially_positive(hybrid_tree(1, 1, 1, 1, 0))
    assert is_essentially_positive(unit_tree())


# --- root change and glue product --------------------------------------------


def test_change_root():
    t = linear_tree(1, 2)
    assert change_root(t, t.root).key == t.key
    other_end = 2
    assert change_root(t, other_end).key == linear_tree(2, 1).key
    with pytest.raises(UnknownVertex):
        change_root(t, 31)


def test_circ_worked_example():
    left = Tree.build(
        5, [0, 3, 5], [1, 2, 4],
        [(0, 1, 1), (1, 2, 2), (2, 5, 3), (3, 4, 4), (4, 5, 5)],
    )
    right = Tree.build(
        4, [0, 1, 3, 4], [2],
        [(0, 2, 11), (1, 2, 12), (2, 3, 13), (3, 4, 14)],
    )
    expected = Tree.build(
        0, [0, 1, 4, 6, 7, 9], [2, 3, 5, 8],
        [(1, 2, 1), (2, 3, 2), (3, 0, 3), (4, 5, 4), (5, 0, 5),
         (6, 8, 11), (7, 8, 12), (8, 9, 13), (9, 0, 14)],
    )
    assert circ_product(left, right).key == expected.key


def test_circ_unit_and_commutative():
    u = unit_tree()
    a = hybrid_tree(1, 2, 1, 2, 1)
    b = linear_tree(1, 1)
    assert circ_product(a, u).key == a.key
    assert circ_product(u, a).key == a.key
    assert circ_product(a, b).key == circ_product(b, a).key


def test_circ_associative_on_random_trees():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (random_tree(rng, 4, 2) for _ in range(3))
        assert circ_product(circ_product(a, b), c).key == circ_product(a, circ_product(b, c)).key


def test_circ_rejects_white_root():
    w_root = Tree.build(0, [1, 2, 3], [0], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    with pytest.raises(RootNotBlack):
        circ_product(w_root, unit_tree())


# --- harvestability -----------------------------------------------------------


def test_harvestable_examples():
    assert is_harvestable(linear_tree(1, 2, 3))
    assert is_harvestable(hybrid_tree(1, 2, 1, 2, 0))
    assert is_harvestable(unit_tree())
    two_kids = Tree.build(0, [0, 1, 2], [], [(0, 1, 1), (0, 2, 1)])
    assert not is_harvestable(two_kids)
    three_kids = Tree.build(0, range(4), [], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert not is_harvestable(three_kids)
    assert not is_harvestable(black_fork_tree(1, (1, 1)))
    # 0-edge onto a black child of a white vertex
    assert not is_harvestable(star_tree(1, (0, 1)))
    # 0-edge between adjacent blacks
    assert not is_harvestable(linear_tree(0, 1))


def test_harvestable_form_identity_on_plain_linear():
    t = linear_tree(1, 2)
    assert harvestable_form(t).key == t.key


def test_harvestable_form_two_black_children():
    t = Tree.build(0, [0, 1, 2], [], [(0, 1, 1), (0, 2, 2)])
    assert harvestable_form(t).key == star_tree(0, (1, 2)).key


def test_harvestable_form_contracts_hybrid_l0():
    t = hybrid_tree(1, 2, 3, 4, 0)
    got = harvestable_form(t)
    expected = Tree.build(
        0, [0, 2, 3, 4], [1],
        [(0, 1, 4), (1, 2, 1), (1, 3, 2), (1, 4, 3)],
    )
    assert got.key == expected.key


def test_harvestable_form_unit():
    assert harvestable_form(unit_tree()).key == "b()"


@pytest.mark.parametrize("fields, expected", [
    # a 0-edge block is named by its black vertex, not by its least id
    ((0, [0, 5, 2], [1], [(0, 1, 1), (1, 5, 0), (5, 2, 2)]),
     (0, {0, 2, 5}, set(), ((0, 5, 1), (2, 5, 2)))),
    # the root's block keeps the root, which is then branched and hoisted
    ((0, [0, 2, 3], [1], [(0, 1, 0), (1, 2, 1), (1, 3, 2)]),
     (0, {0, 2, 3}, {4}, ((0, 4, 0), (2, 4, 1), (3, 4, 2)))),
    # a white-only block is named by its least id
    ((0, [0, 2, 4, 5], [1, 3], [(0, 3, 1), (3, 1, 0), (3, 4, 1), (1, 2, 2), (1, 5, 3)]),
     (0, {0, 2, 4, 5}, {1}, ((0, 1, 1), (1, 2, 2), (1, 4, 1), (1, 5, 3)))),
    # a white vertex of degree 2 is spliced, its two indices summed
    ((0, [0, 2, 3], [1], [(0, 1, 1), (1, 2, 2), (2, 3, 1)]),
     (0, {0, 2, 3}, set(), ((0, 2, 3), (2, 3, 1)))),
    # branched blacks in increasing id order, then the root, take fresh ids
    # from the largest id plus one
    ((0, range(7), [], [(0, 3, 1), (0, 1, 1), (3, 4, 1), (3, 5, 2), (1, 2, 1), (1, 6, 3)]),
     (0, set(range(7)), {7, 8, 9},
      ((0, 9, 0), (1, 7, 0), (1, 9, 1), (2, 7, 1), (3, 8, 0), (3, 9, 1), (4, 8, 1), (5, 8, 2),
       (6, 7, 3)))),
    # all of it at once: the root's block, a white block, a splice of a
    # white 1 left with degree 2, and the root hoisted to 10
    ((2, [2, 7, 4, 9, 5], [1, 3, 8, 6],
      [(2, 8, 0), (8, 3, 1), (3, 6, 0), (6, 7, 2), (6, 4, 1), (3, 1, 2), (1, 9, 3), (8, 5, 2)]),
     (2, {2, 4, 5, 7, 9}, {3, 10},
      ((2, 10, 0), (3, 4, 1), (3, 7, 2), (3, 9, 5), (3, 10, 1), (5, 10, 2)))),
])
def test_harvestable_form_fields(fields, expected):
    # every field, so the ids are pinned and not only the key
    got = harvestable_form(Tree.build(*fields))
    root, black, white, edges = expected
    assert (got.root, got.black, got.white, got.edges) == (root, black, white, edges)
    assert type(got.black) is type(got.white) is frozenset and type(got.edges) is tuple


def test_harvestable_form_requires_essential_positivity():
    with pytest.raises(NotEssentiallyPositive):
        harvestable_form(linear_tree(0, 1))
    # a block of 0-edges through a white vertex, named by key and reason
    t = parse_tree("b(1:b(),2:w(0:b(),0:b(),1:b()))")
    for fails in (harvestable_form, lambda t: cap_phi_hat(t, 2)):
        with pytest.raises(NotEssentiallyPositive) as err:
            fails(t)
        assert str(err.value) == f"{t.key}: two black vertices are joined by 0-edges"


def test_harvestable_form_rejects_white_terminal():
    # no tree reaches it: a white leaf on a positive edge, a white block of
    # 0-edges hanging from one positive edge, and a white leaf on a 0-edge
    for fields in (
        (0, [0], [1], [(0, 1, 1)]),
        (0, [0, 2], [1, 3, 4], [(0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 0)]),
        (0, [0], [1], [(0, 1, 0)]),
    ):
        with pytest.raises(TerminalNotBlack):
            Tree.build(*fields)


def test_harvestable_form_output_always_harvestable():
    # the trees the library derives from valid trees without validating them
    rng = random.Random(11)
    for _ in range(150):
        t = random_tree(rng, 7, 2)
        hf = harvestable_form(t)
        assert is_harvestable(hf), (t.key, hf.key)
        for derived in (hf, circ_product(hf, hf), circ_h(hf, hf),
                        *(change_root(t, v) for v in sorted(t.vertices))):
            derived.validate()


def test_harvestable_form_idempotent_on_image():
    rng = random.Random(13)
    for _ in range(80):
        hf = harvestable_form(random_tree(rng, 6, 2))
        assert harvestable_form(hf).key == hf.key


def test_harvestable_form_returns_its_input_when_it_changes_nothing():
    # contracting, splicing and hoisting change nothing exactly on a
    # harvestable tree with no 0-edge; then the input itself comes back
    from zetaforest.trees import symmetrization_terms

    seen = kept = 0
    for t in builtin_catalog():
        for x in (t, *(tree for _, _, tree in symmetrization_terms(t, 3))):
            hf = harvestable_form(x)
            unchanged = is_harvestable(x) and all(k for _, _, k in x.edges)
            assert (hf is x) == (hf == x) == unchanged, x.key
            seen, kept = seen + 1, kept + unchanged
    assert 0 < kept < seen


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_harvestable_form_contract_on_random_trees(seed):
    rng = random.Random(seed)
    t = random_tree(rng, max_vertices=7, k_cap=2)
    hf = harvestable_form(t)
    assert is_harvestable(hf), (t.key, hf.key)
    hf.validate()
    assert harvestable_form(hf).key == hf.key
    for M in range(7):
        assert zeta_tree(t, M) == zeta_tree(hf, M), (t.key, M)
    ids = list(t.vertices)
    perm = dict(zip(ids, rng.sample(range(3, 3 + 2 * len(ids)), len(ids))))
    assert harvestable_form(relabel(t, perm)).key == hf.key


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_circ_h_laws_on_random_triples(seed):
    rng = random.Random(seed)
    a, b, c = (random_harvestable(rng, max_vertices=5, k_cap=2) for _ in range(3))
    assert circ_h(a, b).key == circ_h(b, a).key
    assert circ_h(circ_h(a, b), c).key == circ_h(a, circ_h(b, c)).key
    assert circ_h(a, unit_tree()).key == a.key


def test_circ_h_examples():
    u = unit_tree()
    assert circ_h(u, u).key == "b()"
    assert circ_h(linear_tree(2), linear_tree(3)).key == star_tree(0, (2, 3)).key


def test_circ_h_three_stems():
    # gluing three stems one at a time funnels them into a single white vertex
    stems = [linear_tree(1), linear_tree(2), linear_tree(1, 1)]
    left = circ_h(circ_h(stems[0], stems[1]), stems[2])
    right = circ_h(stems[0], circ_h(stems[1], stems[2]))
    assert left.key == right.key
    expected = Tree.build(
        0, [0, 2, 3, 4, 5], [1],
        [(0, 1, 0), (1, 2, 1), (1, 3, 2), (1, 4, 1), (4, 5, 1)],
    )
    assert left.key == expected.key


# --- word extraction -----------------------------------------------------------


def test_w_word_linear():
    assert w_word(linear_tree(1, 2)) == z(1, 2)
    assert w_word(linear_tree(2, 1, 3)) == z(2, 1, 3)
    assert w_word(unit_tree()) == HElem.unit()


def test_w_word_hybrid_matches_closed_form():
    for k1, k2, k3, k4, l in [(1, 2, 1, 2, 1), (1, 1, 1, 1, 0), (2, 1, 1, 2, 3)]:
        t = hybrid_tree(k1, k2, k3, k4, l)
        expected = right_mul_x_pow(
            shuffle(right_mul_x_pow(shuffle(z(k1), z(k2)), l), z(k3)), k4
        )
        assert w_word(t) == expected


def test_w_word_star():
    assert w_word(star_tree(0, (1, 1))) == shuffle(z(1), z(1))
    assert w_word(star_tree(2, (1, 3))) == right_mul_x_pow(shuffle(z(1), z(3)), 2)


def test_w_word_rejects_non_harvestable():
    with pytest.raises(NotHarvestable):
        w_word(black_fork_tree(1, (1, 1)))
    # each harvestability rule, in the order they are checked, and its words
    for key, fault in (
        ("w(1:b(),1:b())", "the root is white"),
        ("b(1:b(),1:b())", "the root is not terminal"),
        ("b(1:w(1:b()))", "a white vertex has fewer than 3 edges"),
        ("b(1:b(1:b(),1:b()))", "a black vertex has more than 2 edges"),
        ("b(1:b(0:b()))", "a 0-edge joins two black vertices"),
        ("b(1:w(0:b(),1:b(),1:b()))", "a 0-edge joins a white vertex to its black child"),
    ):
        t = parse_tree(key)
        assert not is_harvestable(t)
        with pytest.raises(NotHarvestable) as err:
            w_word(t)
        assert str(err.value) == f"{key}: {fault}"


# --- tree-level symmetrization ---------------------------------------------------


def test_cap_phi_hat_unit():
    got = cap_phi_hat(unit_tree(), 2)
    assert got.coeffs[0] == one_term(unit_tree())
    assert not got.coeffs[1]


def test_cap_phi_linear_r3_figure():
    for ks in [(1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2)]:
        k1, k2, k3 = ks
        t = linear_tree(k1, k2, k3)
        # the four diagrams, built from scratch
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
        assert cap_phi(t) == expected


def test_cap_phi_hat_constant_term_is_cap_phi():
    for t in builtin_catalog():
        assert cap_phi_hat(t, 3).coeffs[0] == cap_phi(t)


def test_cap_phi_symmetric_hybrid_vanishes():
    t = symmetric_hybrid_tree(1, 2, 1)
    assert cap_phi(t) == TreeCombo.zero()


def test_cap_phi_hat_rejects_bad_input():
    with pytest.raises(NotEssentiallyPositive):
        cap_phi_hat(linear_tree(0, 1), 2)
    w_root = Tree.build(0, [1, 2, 3], [0], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    with pytest.raises(RootNotBlack):
        cap_phi_hat(w_root, 2)


def test_symmetrization_takes_edges_in_either_orientation():
    # the constructor does not sort edges the way Tree.build does
    built = Tree.build(0, [0, 1, 2], [], [(0, 1, 2), (1, 2, 1)])
    raw = Tree(0, built.black, built.white, ((1, 0, 2), (2, 1, 1)))
    assert cap_phi_hat(raw, 3) == cap_phi_hat(built, 3)


def test_t_order_below_one_is_one_error():
    from zetaforest.symmetrize import phi_hat
    from zetaforest.trees import symmetrization_terms
    from zetaforest.words import HElem

    t = linear_tree(2, 1)
    with pytest.raises(BadOrder):
        symmetrization_terms(t, 0)
    with pytest.raises(BadOrder):
        cap_phi_hat(t, 0)
    with pytest.raises(BadOrder):
        phi_hat(HElem.word("y"), 0)
    assert issubclass(BadOrder, ValueError)


def test_essential_positivity_preserved_by_symmetrization_terms():
    from zetaforest.trees import symmetrization_terms

    for t in builtin_catalog():
        for _, _, shifted in symmetrization_terms(t, 3):
            assert is_essentially_positive(shifted)
            assert shifted.root in shifted.black


def _check_keys(t: Tree, order: int) -> int:
    """Every key of `cap_phi_hat` against a fresh canonical walk of the tree
    it parses to; the number of keys."""
    keys = [key for combo in cap_phi_hat(t, order).coeffs for key in combo._terms]
    for key in keys:
        assert parse_tree(key).key == key
    return len(keys)


def _check_against_reference(t: Tree, order: int) -> int:
    """`symmetrization_terms` and `cap_phi_hat` yield the reference's terms
    merged by (degree, key): zero sums dropped, each (degree, key) once, in
    key order, each tree parsed from its key; the number of reference terms."""
    from zetaforest.trees import symmetrization_terms

    reference = symmetrization_reference(t, order)
    rows = [{} for _ in range(order)]
    for d, c, key, _, _ in reference:
        rows[d][key] = rows[d].get(key, 0) + c
    expected = [(d, key, c) for d, row in enumerate(rows) for key, c in sorted(row.items()) if c]
    got = list(symmetrization_terms(t, order))
    assert got == [(d, c, parse_tree(key)) for d, key, c in expected]
    assert list(symmetrization_terms(t, order)) == got  # read again, from the table if stored
    series = cap_phi_hat(t, order).coeffs
    assert [(d, key, c) for d, combo in enumerate(series) for key, c in combo._sorted()] == expected
    return len(reference)


def _relabelled_random_trees(rng: random.Random, n: int) -> list:
    """Seeded trees of up to 25 vertices, their ids shuffled so that no tie
    between siblings follows them."""
    out = []
    for _ in range(n):
        t = random_tree(rng, max_vertices=25, k_cap=2)
        ids = rng.sample(range(100), len(t.vertices))
        out.append(relabel(t, dict(zip(sorted(t.vertices), ids))))
    sizes = {len(t.vertices) for t in out}
    assert min(sizes) < 5 and max(sizes) > 20
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetrization_keys_match_fresh_walks(order):
    # each key comes from the walk that encodes what lies above each vertex
    # once for all its children; it must be the canonical key of its parse
    rng = random.Random(order)
    trees = _relabelled_random_trees(rng, 40 if order < 4 else 20)
    counts = _with_low_recursion_limit(lambda: [_check_keys(t, order) for t in trees])
    assert sum(counts) >= len(trees)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetrization_matches_the_reference(order, monkeypatch):
    # a dropped, duplicated, unmerged or misweighted term changes the list,
    # read cold and from the table of terms
    from zetaforest import trees as trees_module

    monkeypatch.setattr(trees_module, "_terms", BoundedTable(trees_module.TERM_BYTES))
    rng = random.Random(100 + order)
    trees = builtin_catalog() + _relabelled_random_trees(rng, 40)
    counts = _with_low_recursion_limit(lambda: [_check_against_reference(t, order) for t in trees])
    assert all(n >= len(t.black) for t, n in zip(trees, counts))


def test_symmetrization_terms_are_kept_by_the_tree_fields(monkeypatch):
    # an equal tree parsed anew reads the same term objects; another order
    # misses, and its terms are the lower degrees, built anew
    from zetaforest import trees as trees_module
    from zetaforest.trees import symmetrization_terms

    table = BoundedTable(trees_module.TERM_BYTES)
    monkeypatch.setattr(trees_module, "_terms", table)
    key = "b(1:w(1:b(),2:b(1:b())),2:b())"
    first = symmetrization_terms(parse_tree(key), 3)
    again = symmetrization_terms(parse_tree(key), 3)
    assert again is first and table.info()[:3] == (1, 1, 1)
    lower = symmetrization_terms(parse_tree(key), 2)
    assert table.info()[:3] == (1, 2, 2)
    assert lower == tuple(term for term in first if term[0] < 2)
    assert all(a[2] is not b[2] for a, b in zip(lower, first))


def test_term_table_charges_stay_within_budget(monkeypatch):
    # stored terms stay flat over a long run of trees, and the charge
    # estimates no fewer bytes than the stored terms hold
    import gc
    import tracemalloc

    from zetaforest import trees as trees_module
    from zetaforest.trees import symmetrization_terms

    table = BoundedTable(trees_module.TERM_BYTES)
    monkeypatch.setattr(trees_module, "_terms", table)
    rng = random.Random(31)
    drawn = 0
    while drawn < 300:
        t = random_tree(rng, 9, 2)
        if len(t.vertices) == 9:
            drawn += 1
            symmetrization_terms(t, 3)
            assert table.charge == sum(c for _, c in table.entries.values()) <= table.budget
    assert table.info().misses == 300 and table.info().entries < 100
    catalog = builtin_catalog()
    for t in catalog:
        cap_phi_hat(t, 3)  # fill the caches below the table first
    table.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for t in catalog:
            symmetrization_terms(t, 3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.info().entries == len(catalog) and held <= table.charge


def _with_low_recursion_limit(check):
    """`check()` with the recursion limit 100 frames above the current depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        return check()
    finally:
        sys.setrecursionlimit(limit)


def test_symmetrization_keys_on_a_long_chain():
    # 300 edges, 0-edges between the whites: a recursive encoder would need a
    # frame per vertex, more than the lowered limit allows
    colors = "b" + ("w" * 149 + "b") * 2
    t = Tree.build(0, [i for i, c in enumerate(colors) if c == "b"],
                   [i for i, c in enumerate(colors) if c == "w"],
                   [(i, i + 1, (1, 0, 2)[i % 3]) for i in range(300)])
    assert _with_low_recursion_limit(lambda: _check_keys(t, 2)) > 300
    assert _with_low_recursion_limit(lambda: _check_against_reference(t, 2)) > 300


def test_symmetrization_on_a_wide_star():
    # a black root with 200 black leaves: one vertex hands its entries to 200
    # children, and the isomorphic terms merge
    t = Tree.build(0, range(201), [], [(0, i, 1 + i % 3) for i in range(1, 201)])
    n = _with_low_recursion_limit(lambda: _check_against_reference(t, 3))
    assert n == 1 + 200 * 3
    assert _with_low_recursion_limit(lambda: _check_keys(t, 3)) == 4 + 3 + 3
    assert len(cap_phi_hat(t, 3).coeffs[0]) == 4


def _spider(white_center: bool, legs: list) -> Tree:
    """A center with one path of black vertices per leg, each leg its edge
    indices read outward from the center."""
    black, edges, n = [] if white_center else [0], [], 1
    for leg in legs:
        prev = 0
        for k in leg:
            black.append(n)
            edges.append((prev, n, k))
            prev, n = n, n + 1
    return Tree.build(0, black, [0] if white_center else [], edges)


# 6-10 children at one vertex, many of them equal (index, subtree) pairs, so
# that an entry from above ties with its siblings in the sorted child list
HIGH_DEGREE = [
    _spider(False, [(1,), (1,), (2,), (1,), (2,), (1,)]),
    _spider(False, [(1,)] * 10),
    _spider(False, [(1,), (1,), (1, 2), (1, 2), (2, 1, 1), (1,), (2,)]),
    _spider(True, [(0,), (1,), (1,), (2, 1), (2, 1), (1, 1, 2), (1,)]),
    _spider(False, [(1, 1), (1, 1), (1,), (1, 1), (2,), (1, 1), (1,), (1, 2), (1, 1)]),
]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetrization_at_high_degree(order):
    # rooted at the center and at every leg's first and last vertex: the
    # center's children then take entries from above among equal siblings
    checked = 0
    for t in HIGH_DEGREE:
        assert 6 <= t.degree(0) <= 10
        for root in sorted(v for v in t.black if v == 0 or t.degree(v) == 1 or 0 in t.adj[v]):
            s = change_root(t, root)
            assert _check_against_reference(s, order) >= len(s.black)
            _check_keys(s, order)
            checked += 1
    assert checked > 40


def _caterpillar(color: str, spine: list, leaves: list) -> Tree:
    """A spine of `color` vertices 0..n-1 joined by the indices `spine`, and
    at spine vertex i one black leaf per index in `leaves[i]`."""
    n = len(leaves)
    edges = [(i, i + 1, k) for i, k in enumerate(spine)]
    for i, ks in enumerate(leaves):
        for k in ks:
            edges.append((i, len(edges) + 1, k))
    spine_ids, leaf_ids = range(n), range(n, len(edges) + 1)
    black = [*spine_ids, *leaf_ids] if color == "b" else leaf_ids
    white = [] if color == "b" else spine_ids
    return Tree.build(0, black, white, edges)


# caterpillars (leaves at every spine vertex) and brooms (a bristle of equal
# leaves at the spine's end): most vertices are black leaves, which `kids`
# writes as b() and `cap_phi_hat` keys at their parent
LEAF_HEAVY = [
    _caterpillar("b", [1, 2], [[1, 1], [2, 1, 2], [1, 2, 2, 1]]),
    _caterpillar("b", [2, 1, 1, 2], [[2, 1], [1, 1], [2, 2, 1], [1, 2], [1, 1, 1, 1]]),
    _caterpillar("b", [1, 1, 1], [[2, 2], [1, 2], [2, 1], [1, 1, 1, 1]]),
    _caterpillar("w", [1, 2], [[0, 1, 1], [2, 1], [0, 2, 2, 1]]),
    _caterpillar("w", [2, 1, 1], [[1, 2], [0, 1, 1], [2, 2], [0, 1, 2, 2]]),
    _caterpillar("w", [1, 1, 2, 1], [[1, 1], [2, 1], [0, 2], [1, 2], [0, 1, 1, 1]]),
]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_symmetrization_on_leaf_heavy_trees(order):
    # rooted at the first spine vertex if it is black, at that vertex's first
    # leaf and at the last spine vertex's last leaf
    checked = 0
    for t in LEAF_HEAVY:
        leaves = sorted(v for v in t.black if t.degree(v) == 1 and v != 0)
        assert len(leaves) * 3 > 2 * len(t.vertices)
        for root in sorted({0} & t.black) + [leaves[0], leaves[-1]]:
            s = change_root(t, root)
            assert _check_against_reference(s, order) >= len(s.black)
            _check_keys(s, order)
            checked += 1
    assert checked == 15


def test_kids_and_key_at_the_edges_of_the_leaf_rule():
    # a root keeps its children whatever its degree; a black leaf is b()
    for dsl, kids in (
        ("b()", {0: []}),
        ("b(1:b())", {1: [], 0: [(1, "b()", 1)]}),
        ("b(0:w(1:b(),1:b()))",
         {3: [], 2: [], 1: [(1, "b()", 2), (1, "b()", 3)], 0: [(0, "w(1:b(),1:b())", 1)]}),
    ):
        t = parse_tree(dsl)
        assert list(t.kids.items()) == list(kids.items())
        assert t.key == dsl
    leaf = change_root(parse_tree("b(1:b())"), 1)
    assert list(leaf.kids.items()) == [(0, []), (1, [(1, "b()", 0)])]
    assert leaf.key == "b(1:b())"


# --- combinations ---------------------------------------------------------------


def test_tree_combo_merges_isomorphic():
    a = linear_tree(1, 2)
    ids = sorted(a.vertices)
    b = relabel(a, {v: v + 10 for v in ids})
    combo = one_term(a) + one_term(b)
    assert combo == one_term(a, 2)
    assert not (combo - one_term(b, 2))


def test_tree_combo_terms_are_parsed_from_keys():
    rng = random.Random(12)
    for _ in range(40):
        t = random_tree(rng, max_vertices=7)
        ids = sorted(t.vertices)
        shuffled = [v + 100 for v in ids]
        rng.shuffle(shuffled)
        copy = relabel(t, dict(zip(ids, shuffled)))
        for a, b in zip(cap_phi_hat(t, 3).coeffs, cap_phi_hat(copy, 3).coeffs):
            for tree, _ in a.terms():
                assert tree == parse_tree(tree.key)
            assert a.terms() == b.terms()
            assert a.to_json() == b.to_json()
    a = linear_tree(1, 2)
    b = relabel(a, {v: v + 10 for v in a.vertices})
    for combo in (TreeCombo([(a, 1), (b, 2)]), one_term(b) + one_term(a, 2)):
        ((rep, c),) = combo.terms()
        assert rep == parse_tree(a.key) and c == 3


def test_cap_phi_hat_cancellation_leaves_values_untouched():
    t = symmetric_hybrid_tree(1, 2, 3)
    first = cap_phi_hat(t, 3)
    assert not first.coeffs[0] and first.coeffs[1]  # the constant terms cancel

    def snapshot(s):
        return [[(tree.key, c) for tree, c in combo.terms()] for combo in s.coeffs]

    before = snapshot(first)
    assert not (first - first)
    assert snapshot(first) == before
    cold = cap_phi_hat(Tree.build(t.root, t.black, t.white, t.edges), 3)
    assert cap_phi_hat(t, 3) == cold == first


def test_tree_combo_str():
    c = one_term(unit_tree(), 2) - one_term(linear_tree(1))
    assert str(c) == "2*b() + -b(1:b())"

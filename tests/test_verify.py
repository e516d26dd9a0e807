import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest import table, trees, verify
from zetaforest.catalog import builtin_catalog, random_tree
from zetaforest.errors import BadIndex, BadOrder, BadRunConfig, UnknownSuite
from zetaforest.series import TSeries
from zetaforest.trees import Tree, harvestable_form, parse_tree
from zetaforest.verify import (
    SUITE_NAMES,
    RunConfig,
    btt_lhs,
    btt_rhs,
    harvested_terms,
    main_lhs,
    main_rhs,
    root_change_rhs,
    run_suite,
    t_btt_lhs,
    t_btt_rhs,
)
from zetaforest.words import HElem
from zetaforest.zeta import z_m_series, zeta_tree

from enum_oracles import symmetrization_reference

CFG = RunConfig(t_order=3, m_max=5, weight_max=3, seed=0, count=25)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_all_suites_pass(name):
    report = run_suite(name, CFG)
    assert report.ok, report.to_text()
    assert report.cases > 0


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", CFG)


def test_report_shapes():
    report = run_suite("vanish", CFG)
    text = report.to_text()
    assert text.splitlines()[0] == "suite: vanish"
    assert "failures: 0" in text
    obj = report.to_json()
    assert set(obj) == {"suite", "config", "cases", "failures", "ok"}


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(t_order=0)
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    # a float, a string or a bool once raised a bare TypeError in run_suite,
    # or ran and printed itself in the report
    for field in ({"weight_max": 2.5}, {"t_order": 2.0}, {"m_max": "3"}, {"count": 1.5},
                  {"seed": 0.5}, {"t_order": True}):
        with pytest.raises(BadRunConfig, match=f"{next(iter(field))} must be an int"):
            RunConfig(**field)


def test_minimizer_reduces_indices(monkeypatch):
    # an artificial predicate failing whenever the weight is at least 4;
    # run_suite should walk down to a minimal failing index
    def check(ks):
        return f"weight={sum(ks)}" if sum(ks) >= 4 else None

    monkeypatch.setitem(verify._SUITES, "fake", lambda cfg: verify._cases(
        [(3, 2, 3)], lambda ks: f"index={ks}", check, verify._index_shrinks))
    report = run_suite("fake", CFG)
    assert report.cases == 1
    [failure] = report.failures
    assert failure.detail == "weight=4"
    ks = eval(failure.case.split("=")[1])
    assert sum(ks) == 4


def _failed_keys(report) -> list:
    """The minimized keys of a report's `FAIL key :: detail` lines."""
    lines = [line for line in report.to_text().splitlines() if line.startswith("FAIL ")]
    assert len(lines) == len(report.failures) > 0
    return [line[len("FAIL "):].split(" :: ")[0] for line in lines]


def test_btt_failure_is_minimized_to_weight_four(monkeypatch):
    # a right-hand side wrong from weight 4 up: every failing index of depth
    # 2..4 shrinks, through the suite's own rebuild, to one of weight 4, and
    # each of those is reported once
    right = verify.btt_rhs
    monkeypatch.setattr(verify, "btt_rhs",
                        lambda ks: right(ks) + HElem.from_index((1,)) if sum(ks) >= 4 else right(ks))
    report = run_suite("btt", RunConfig(weight_max=5))
    keys = _failed_keys(report)
    assert len(set(keys)) == len(keys)
    minimal = {tuple(map(int, key.removeprefix("index=").split(","))) for key in keys}
    assert minimal == {ks for ks in verify.all_indices(4) if 2 <= len(ks) <= 4 and sum(ks) == 4}
    assert all(f.detail.startswith("lhs=") and " rhs=" in f.detail for f in report.failures)


def test_harvest_failure_is_minimized_to_four_vertices(monkeypatch):
    # a harvestability check wrong from 4 vertices up: every failing catalog
    # tree shrinks, lowering indices and dropping leaves, to a tree whose
    # harvestable form has at least 4 vertices and none of whose shrinks fails
    right = trees.is_harvestable
    monkeypatch.setattr(trees, "is_harvestable", lambda t: right(t) and len(t.vertices) < 4)
    report = run_suite("harvest", RunConfig(t_order=2, m_max=2))
    keys = _failed_keys(report)
    for key, failure in zip(keys, report.failures):
        t = parse_tree(key.removeprefix("tree="))
        form = harvestable_form(t)
        assert failure.detail == f"harvestable form is not harvestable: {form.key}"
        assert len(form.vertices) >= 4
        smaller = verify._tree_shrinks(t)
        assert all(len(harvestable_form(t2).vertices) < 4 for t2 in smaller)
    assert keys == ["tree=b(0:w(0:w(1:b()),1:b()))", "tree=b(0:w(1:b(),1:b()))",
                    "tree=b(1:b(1:b(),1:b()))", "tree=b(1:b(1:b(1:b())))"]


def test_skip_one_builders_reject_bad_input():
    # the empty index raised IndexError from rows[0] or ks[-1]; the depth-1
    # index gave a right-hand side outside the y-initial subspace
    for build in (t_btt_lhs, t_btt_rhs):
        with pytest.raises(BadOrder):
            build((1, 1), 0)
        for ks in ((), (2,)):
            with pytest.raises(BadIndex):
                build(ks, 2)
    for build in (btt_lhs, btt_rhs):
        for ks in ((), (2,)):
            with pytest.raises(BadIndex):
                build(ks)


def test_seed_changes_random_cases():
    a = run_suite("assoc", RunConfig(t_order=3, count=5, seed=1))
    b = run_suite("assoc", RunConfig(t_order=3, count=5, seed=2))
    keys_a = a.cases
    assert a.ok and b.ok
    assert keys_a == 5 and b.cases == 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_main_identity_on_random_trees(seed):
    t = random_tree(random.Random(seed), max_vertices=9, k_cap=2)
    lhs = main_lhs(t, 3)
    assert lhs == main_rhs(t, 3), t.key
    terms = harvested_terms(t, 3)
    for M in range(1, 9):
        assert z_m_series(lhs, M) == root_change_rhs(terms, M, 3), (t.key, M)


def test_harvested_terms_keep_the_numbers():
    # the merged terms, parsed from their keys, against the reference's
    # unmerged terms on the input's own labels: merging keeps every tree sum
    rng = random.Random(19)
    for t in builtin_catalog() + [random_tree(rng, max_vertices=8, k_cap=2) for _ in range(20)]:
        terms = harvested_terms(t, 3)
        reference = [(d, c, harvestable_form(Tree.build(root, t.black, t.white, edges)))
                     for d, c, _, root, edges in symmetrization_reference(t, 3)]
        for M in range(1, 9):
            rows = [0, 0, 0]
            for d, c, hf in reference:
                rows[d] += c * zeta_tree(hf, M)
            assert root_change_rhs(terms, M, 3) == TSeries(tuple(rows), 3), (t.key, M)


def _plus_at(s: TSeries, degree: int, extra) -> TSeries:
    """`s` with `extra` added to its t^degree coefficient."""
    coeffs = list(s.coeffs)
    coeffs[degree] = coeffs[degree] + extra
    return TSeries(coeffs, s.order)


Z1 = HElem.from_index((1,))


def test_kaneko_failure_is_minimized_to_weight_three(monkeypatch):
    # a right-hand side wrong at t^0 from total weight 3 up when l is not
    # empty: each failing pair shrinks, in k or in l, to one of weight 3
    right = verify.kaneko_rhs
    monkeypatch.setattr(verify, "kaneko_rhs", lambda k, l, order: _plus_at(right(k, l, order), 0, Z1)
                        if sum(k) + sum(l) >= 3 and l else right(k, l, order))
    report = run_suite("kaneko", RunConfig(t_order=2, weight_max=4))
    assert report.cases == 48
    assert _failed_keys(report) == ["k= l=1,1,1", "k= l=1,2", "k= l=2,1", "k= l=3",
                                    "k=1 l=1,1", "k=1 l=2", "k=1,1 l=1", "k=2 l=1"]


def test_t_btt_failure_is_minimized_to_weight_four(monkeypatch):
    # a right-hand side wrong at t^1 from weight 4 up when an entry is at
    # least 2: each failing index shrinks to one of weight 4 with such an entry
    right = verify.t_btt_rhs
    monkeypatch.setattr(verify, "t_btt_rhs", lambda ks, order: _plus_at(right(ks, order), 1, Z1)
                        if sum(ks) >= 4 and max(ks) >= 2 else right(ks, order))
    report = run_suite("t-btt", RunConfig(t_order=3, weight_max=5))
    assert report.cases == 20
    assert _failed_keys(report) == [f"index={ks} t_order=3"
                                    for ks in ("1,1,2", "1,2,1", "1,3", "2,1,1", "2,2", "3,1")]


def test_root_change_failure_is_minimized_to_four_vertices(monkeypatch):
    # a shifted tree sum wrong at t^0 on trees of 4 vertices or more when
    # M >= 3: each failing tree shrinks, at its own M, to one of 4 vertices
    from zetaforest import zeta

    right = zeta.zeta_shat_tree
    monkeypatch.setattr(zeta, "zeta_shat_tree", lambda t, M, order: _plus_at(right(t, M, order), 0, 1)
                        if len(t.vertices) >= 4 and M >= 3 else right(t, M, order))
    report = run_suite("root-change", RunConfig(t_order=2, m_max=4))
    assert report.cases == 128
    trees_ = ["b(0:w(1:b(),1:b()))", "b(1:b(0:w(1:b(),1:b())))", "b(1:b(1:b(1:b())))"]
    assert _failed_keys(report) == [f"tree={t} M={M} t_order=2" for t in trees_ for M in (3, 4)]


def test_main_failure_is_minimized_to_four_vertices(monkeypatch):
    # a left-hand side wrong at t^1 on trees of 4 vertices or more: each
    # failing catalog tree shrinks to one of 4 vertices, failing the word identity
    right = verify.main_lhs
    monkeypatch.setattr(verify, "main_lhs", lambda t, order: _plus_at(right(t, order), 1, Z1)
                        if len(t.vertices) >= 4 else right(t, order))
    report = run_suite("main", RunConfig(t_order=2, m_max=3))
    assert report.cases == 33
    assert _failed_keys(report) == ["tree=b(0:w(0:w(1:b())))", "tree=b(0:w(1:b(),1:b()))",
                                    "tree=b(1:b(1:b(),1:b()))", "tree=b(1:b(1:b(1:b())))"]
    assert all(f.detail.startswith("word identity:") for f in report.failures)


def test_closed_suite_runs_no_check_after_its_sweep(monkeypatch):
    # every shrink of a btt index is an input of the sweep, so the descent
    # reads its results and checks nothing more: one check per case
    calls = []
    right = verify.btt_rhs

    def rhs(ks):
        calls.append(ks)
        return right(ks) + Z1 if sum(ks) >= 4 else right(ks)

    monkeypatch.setattr(verify, "btt_rhs", rhs)
    report = run_suite("btt", RunConfig(weight_max=5))
    assert report.cases == len(calls) == 25
    assert len(report.failures) == 7


def test_catalog_suite_checks_each_distinct_tree_once(monkeypatch):
    # the catalog is not closed under shrinks: the descent checks a shrink
    # the first time it meets it, and reads every later meeting by key
    keys = []
    right = verify.main_lhs

    def lhs(t, order):
        keys.append(t.key)
        return _plus_at(right(t, order), 1, Z1) if len(t.vertices) >= 4 else right(t, order)

    monkeypatch.setattr(verify, "main_lhs", lhs)
    report = run_suite("main", RunConfig(t_order=2, m_max=3))
    assert len(keys) == len(set(keys)) == 72
    assert len(report.failures) == 4


def test_root_change_builds_each_trees_terms_once(monkeypatch):
    # cases are (tree, M) pairs: a tree's harvested terms are built when a
    # case of it is first checked, and serve every M and every later meeting
    from zetaforest import zeta

    keys = []
    right, terms = zeta.zeta_shat_tree, verify.harvested_terms

    def built(t, order):
        keys.append(t.key)
        return terms(t, order)

    monkeypatch.setattr(verify, "harvested_terms", built)
    assert run_suite("root-change", RunConfig(t_order=3, m_max=10)).ok
    assert len(keys) == len(set(keys)) == 32  # one per catalog tree
    keys.clear()
    monkeypatch.setattr(zeta, "zeta_shat_tree", lambda t, M, order: _plus_at(right(t, M, order), 0, 1)
                        if len(t.vertices) >= 4 and M >= 3 else right(t, M, order))
    report = run_suite("root-change", RunConfig(t_order=2, m_max=4))
    assert len(keys) == len(set(keys)) == 68  # one per distinct tree checked
    trees_ = ["b(0:w(1:b(),1:b()))", "b(1:b(0:w(1:b(),1:b())))", "b(1:b(1:b(1:b())))"]
    assert _failed_keys(report) == [f"tree={t} M={M} t_order=2" for t in trees_ for M in (3, 4)]


@pytest.mark.parametrize("suite, walks", [("main", 325), ("root-change", 345), ("harvest", 84)])
def test_catalog_suites_walk_each_tree_once(suite, walks):
    # each tree's M runs from m_max down, so each (tree, walked vertices,
    # t-order) is walked once, at m_max, and every M below reads a slice
    table.clear()
    assert run_suite(suite, RunConfig(t_order=3, m_max=10)).ok
    assert table.info()["walks"][1:3] == (walks, walks)  # misses, entries
    table.clear()


def test_catalog_suites_report_the_least_failing_m(monkeypatch):
    # checked from m_max down, a tree's failure still names its least failing M
    from zetaforest import zeta

    series, plain = zeta.z_m_series, zeta.zeta_tree
    monkeypatch.setattr(zeta, "z_m_series", lambda s, M: _plus_at(series(s, M), 0, 1) if M >= 3 else series(s, M))
    monkeypatch.setattr(zeta, "zeta_tree", lambda t, M: plain(t, M) + (M >= 4 and not trees.is_harvestable(t)))
    for suite, detail in (("main", "numeric at M=3: "), ("harvest", "plain sums differ at M=4")):
        report = run_suite(suite, RunConfig(t_order=2, m_max=6))
        assert report.failures and all(f.detail.startswith(detail) for f in report.failures), suite

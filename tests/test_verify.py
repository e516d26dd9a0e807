import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest.catalog import random_tree
from zetaforest.errors import UnknownSuite
from zetaforest.verify import (
    SUITE_NAMES,
    Case,
    RunConfig,
    _minimize,
    diagram_rhs,
    harvested_terms,
    main_lhs,
    main_rhs,
    root_change_rhs,
    run_suite,
)
from zetaforest.zeta import z_m_series

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


def test_minimizer_reduces_indices():
    # an artificial predicate failing whenever the weight is at least 4;
    # the minimizer should walk down to a minimal failing index
    def make(ks):
        if not ks or not all(e >= 1 for e in ks):
            return None

        def check():
            return f"weight={sum(ks)}" if sum(ks) >= 4 else None

        def shrink():
            out = []
            for i, e in enumerate(ks):
                if e > 1:
                    c = make(ks[:i] + (e - 1,) + ks[i + 1 :])
                    if c:
                        out.append(c)
            for i in range(len(ks)):
                c = make(ks[:i] + ks[i + 1 :])
                if c:
                    out.append(c)
            return out

        return Case(key=f"index={ks}", check=check, shrink=shrink)

    case = make((3, 2, 3))
    detail = case.check()
    assert detail is not None
    mcase, mdetail = _minimize(case, detail)
    assert mdetail == "weight=4"
    key = mcase.key
    ks = eval(key.split("=")[1])
    assert sum(ks) == 4


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
    assert lhs == main_rhs(t, 3) == diagram_rhs(t, 3), t.key
    terms = harvested_terms(t, 3)
    for M in range(1, 9):
        assert z_m_series(lhs, M) == root_change_rhs(terms, M, 3), (t.key, M)

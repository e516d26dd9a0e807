"""The package's one cache: what it charges, and that its bound holds."""

import gc
import random
import tracemalloc
from sys import getsizeof

from zetaforest import table
from zetaforest.catalog import random_tree
from zetaforest.rationals import Rat
from zetaforest.table import charge
from zetaforest.trees import parse_tree
from zetaforest.verify import RunConfig, main_lhs, run_suite
from zetaforest.words import HElem

KINDS = {"bump_cuts", "edge_factors", "index", "phi_hat_rows", "terms", "walks", "word_products"}


def test_charge_counts_each_distinct_object_once():
    s = "y" * 100
    pair = (s, s)
    assert charge(pair) == getsizeof(pair) + getsizeof(s)
    assert charge(pair, s) == charge(pair)
    # instance dicts and slots are walked too
    word = HElem({"yx": 3})
    assert charge(word) == sum(map(getsizeof, (word, word._terms, "yx", 3, 1)))
    t = parse_tree("b(2:b())")
    assert charge(t) > charge(t.__dict__) > getsizeof(t.__dict__) + getsizeof(t.edges)
    # depth costs no recursion
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    assert charge(deep) == 100_000 * getsizeof([deep]) + getsizeof([])


def test_charge_reads_a_rat_by_its_shape():
    # a Rat in a container is charged its size and its two ints once, and
    # the same as by the slot walk a Rat passed alone takes
    r = Rat(3, 10**30)
    assert charge([r, r]) == getsizeof([r, r]) + getsizeof(r) + getsizeof(3) + getsizeof(10**30)
    assert charge(r) == charge([r]) - getsizeof([r])


def test_table_charges_at_least_what_clearing_frees():
    # one short run stores every kind; clearing the table frees no more
    # bytes than its entries were charged
    table.clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert run_suite("main", RunConfig(t_order=3, m_max=4)).ok
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        info, charged = table.info(), table.TABLE.bytes
        table.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert set(info) == KINDS and all(kind.entries for kind in info.values())
    assert charged == sum(kind.bytes for kind in info.values()) >= freed > 0


def test_table_stays_flat_within_a_small_budget(monkeypatch):
    # main_lhs over seeded random trees of at most 7 vertices would fill
    # the word caches without end (300 such runs on 9-vertex trees once held
    # 237 MB); under a small budget the charges never pass it, and every
    # kind the run stores has entries evicted
    budget = 1 << 20
    cache = table.TABLE
    monkeypatch.setattr(cache, "budget", budget)
    table.clear()
    rng = random.Random(31)
    try:
        for _ in range(400):
            main_lhs(random_tree(rng, 7, 2), 3)
            assert cache.bytes == sum(size for _, size in cache.entries.values()) <= budget
        info = table.info()
        assert set(info) == {"phi_hat_rows", "word_products"}
        assert all(kind.misses > kind.entries for kind in info.values())
    finally:
        table.clear()

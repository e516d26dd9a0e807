import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest.catalog import random_tree
from zetaforest.errors import BadIndex, NotInH1
from zetaforest.rationals import Rat
from zetaforest.series import TSeries
from zetaforest.symmetrize import phi_hat
from zetaforest.trees import cap_phi_hat, parse_tree, w_word
from zetaforest.verify import main_rhs
from zetaforest.words import (
    HElem,
    _word_product,
    harmonic,
    right_mul_x_pow,
    shuffle,
    word_from_index,
    z_decompose,
)

indices = st.lists(st.integers(1, 3), max_size=3).map(tuple)
words = st.text(alphabet="xy", max_size=5)
h1_words = st.one_of(st.just(""), st.text(alphabet="xy", max_size=4).map(lambda w: "y" + w))


def naive_shuffle(u, v):
    """Independent oracle: choose the positions of u among len(u)+len(v) slots."""
    out = {}
    n = len(u) + len(v)
    for posns in itertools.combinations(range(n), len(u)):
        w = [None] * n
        for c, p in zip(u, posns):
            w[p] = c
        rest = iter(v)
        w = "".join(next(rest) if c is None else c for c in w)
        out[w] = out.get(w, 0) + 1
    return out


def naive_harmonic(k, l):
    """Independent oracle: pairs of order-preserving position choices covering
    1..n; shared positions add their entries."""
    out = {}
    for n in range(max(len(k), len(l)), len(k) + len(l) + 1):
        for pk in itertools.combinations(range(n), len(k)):
            for pl in itertools.combinations(range(n), len(l)):
                if set(pk) | set(pl) != set(range(n)):
                    continue
                idx = [0] * n
                for e, p in zip(k, pk):
                    idx[p] += e
                for e, p in zip(l, pl):
                    idx[p] += e
                idx = tuple(idx)
                out[idx] = out.get(idx, 0) + 1
    return out


def test_word_from_index_examples():
    assert word_from_index((2,)) == "yx"
    assert word_from_index(()) == ""
    assert word_from_index((2, 3)) == "yxyxx"


def test_z_decompose_examples():
    assert z_decompose("yxyxx") == (2, 3)
    assert z_decompose("") == ()
    with pytest.raises(NotInH1):
        z_decompose("xy")


@given(indices)
def test_z_round_trip(k):
    assert z_decompose(word_from_index(k)) == k


def test_round_trip_all_small_weights():
    def all_indices(w):
        if w == 0:
            yield ()
            return
        for first in range(1, w + 1):
            for rest in all_indices(w - first):
                yield (first,) + rest

    for w in range(7):
        for k in all_indices(w):
            assert z_decompose(word_from_index(k)) == k


def test_shuffle_examples():
    y = HElem.word("y")
    assert shuffle(y, y) == HElem({"yy": 2})
    assert shuffle(HElem.word("x"), y) == HElem({"xy": 1, "yx": 1})
    assert shuffle(HElem.word("yx"), y) == HElem({"yyx": 2, "yxy": 1})


def test_shuffle_unit_law():
    a = HElem({"yx": 2, "xy": -1})
    assert shuffle(a, HElem.unit()) == a
    assert shuffle(HElem.unit(), a) == a


@given(words, words)
@settings(max_examples=60)
def test_shuffle_matches_position_oracle(u, v):
    expected = HElem(naive_shuffle(u, v))
    assert shuffle(HElem.word(u), HElem.word(v)) == expected


@given(words, words)
@settings(max_examples=60)
def test_shuffle_commutative(u, v):
    a, b = HElem.word(u), HElem.word(v)
    assert shuffle(a, b) == shuffle(b, a)


@given(
    st.text(alphabet="xy", max_size=4),
    st.text(alphabet="xy", max_size=4),
    st.text(alphabet="xy", max_size=4),
)
@settings(max_examples=40)
def test_shuffle_associative(u, v, w):
    a, b, c = HElem.word(u), HElem.word(v), HElem.word(w)
    assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_all_y_shuffle_counts():
    for p in range(5):
        for q in range(5):
            got = shuffle(HElem.word("y" * p), HElem.word("y" * q))
            assert got == HElem({"y" * (p + q): comb(p + q, p)})


def test_long_words_do_not_recurse():
    # the kernel fills its prefix table row by row, so the word length is not
    # bounded by the interpreter's recursion limit
    y600 = HElem.word("y" * 600)
    assert shuffle(y600, y600) == HElem({"y" * 1200: comb(1200, 600)})


def test_w_word_of_deep_fork():
    chain = "b()"
    for _ in range(519):
        chain = f"b(1:{chain})"
    got = w_word(parse_tree(f"b(1:w(1:{chain},1:{chain}))"))
    assert got == HElem({"y" * 1040 + "x": comb(1040, 520)})


@given(words, words)
@settings(max_examples=40)
def test_shuffle_term_count_bound(u, v):
    got = shuffle(HElem.word(u), HElem.word(v))
    assert len(got) <= comb(len(u) + len(v), len(u))


def test_kernel_caches_each_unordered_pair_once():
    # both products are commutative, so (a, b) and (b, a) share one entry,
    # keyed by the words; the two products of one pair are two entries
    _word_product.cache_clear()
    for product, a, b in ((shuffle, "yxy", "yx"), (harmonic, "yxyy", "yxx"), (harmonic, "yxy", "yx")):
        a, b = HElem.word(a), HElem.word(b)
        assert product(a, b) == product(b, a)
    info = _word_product.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_harmonic_examples():
    z1 = HElem.from_index((1,))
    z2 = HElem.from_index((2,))
    assert harmonic(z1, z1) == HElem({"yy": 2, "yx": 1})
    assert harmonic(HElem.unit(), z2) == z2
    assert harmonic(z1, z2) == HElem({"yyx": 1, "yxy": 1, "yxx": 1})


def test_harmonic_requires_h1():
    for other in (HElem.word("y"), HElem.unit(), HElem.zero()):
        with pytest.raises(NotInH1):
            harmonic(HElem.word("xy"), other)
        with pytest.raises(NotInH1):
            harmonic(other, HElem.word("xy"))


@given(indices, indices)
@settings(max_examples=60)
def test_harmonic_matches_position_oracle(k, l):
    got = harmonic(HElem.from_index(k), HElem.from_index(l))
    expected = HElem({word_from_index(i): c for i, c in naive_harmonic(k, l).items()})
    assert got == expected


@given(indices, indices, indices)
@settings(max_examples=40)
def test_harmonic_commutative_associative(k, l, m):
    a, b, c = (HElem.from_index(i) for i in (k, l, m))
    assert harmonic(a, b) == harmonic(b, a)
    assert harmonic(harmonic(a, b), c) == harmonic(a, harmonic(b, c))


@given(h1_words, h1_words)
@settings(max_examples=40)
def test_h1_closure(u, v):
    a, b = HElem.word(u), HElem.word(v)
    assert shuffle(a, b).is_h1
    assert harmonic(a, b).is_h1


def test_right_mul_x_pow():
    assert right_mul_x_pow(HElem.word("y"), 1) == HElem.word("yx")
    e = HElem({"yy": 1, "yx": 1})
    assert right_mul_x_pow(e, 0) == e
    assert right_mul_x_pow(HElem.word("y", 2), 2) == HElem({"yxx": 2})
    with pytest.raises(BadIndex):
        right_mul_x_pow(e, -1)


@given(st.integers(-3, 3), st.integers(-3, 3), h1_words, h1_words)
@settings(max_examples=40)
def test_bilinearity(ca, cb, u, v):
    a, b = HElem.word(u), HElem.word(v)
    w = HElem.word("yx")
    lhs = shuffle(ca * a + cb * b, w)
    rhs = ca * shuffle(a, w) + cb * shuffle(b, w)
    assert lhs == rhs
    lhs = (ca * a + cb * b).concat(w)
    rhs = ca * a.concat(w) + cb * b.concat(w)
    assert lhs == rhs


@given(words, words, words)
@settings(max_examples=40)
def test_concat_associative(u, v, w):
    a, b, c = HElem.word(u), HElem.word(v), HElem.word(w)
    assert a.concat(b).concat(c) == a.concat(b.concat(c))
    assert a.concat(b) == HElem.word(u + v)


def test_helem_arithmetic_and_zero_pruning():
    a = HElem({"y": Rat(1, 2)})
    b = HElem({"y": Rat(-1, 2), "x": 1})
    s = a + b
    assert s == HElem({"x": 1})
    assert not (s - s)
    assert 0 * a == HElem.zero()
    assert len(a + a) == 1


def test_rendering():
    assert str(HElem.zero()) == "0"
    assert str(HElem.unit()) == "1"
    e = HElem({"yx": 2, "": Rat(-1, 2), "yyy": 1})
    assert str(e) == "-1/2 + 2*yx + yyy"
    assert str(HElem({"y": -1})) == "-y"


def test_to_json():
    e = HElem({"yx": Rat(3, 2), "": 1})
    assert e.to_json() == {
        "terms": [
            {"coeff": "1", "word": "1"},
            {"coeff": "3/2", "word": "yx"},
        ]
    }


# --- exactness with mixed int / Rat coefficients --------------------------------

coeffs = st.one_of(st.integers(-3, 3), st.builds(Rat, st.integers(-3, 3), st.integers(1, 3)))
h1_elems = st.dictionaries(h1_words, coeffs, max_size=3).map(HElem)


def coeff_types(*values) -> set:
    """The types of every coefficient of combinations and of series of them."""
    out = set()
    for v in values:
        for combo in v.coeffs if isinstance(v, TSeries) else (v,):
            out.update(type(c) for _, c in combo.terms())
    return out


@given(h1_elems, h1_elems, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_coefficients_are_int_or_rat(a, b, seed):
    words_out = [shuffle(a, b), harmonic(a, b), phi_hat(a, 3)]
    assert coeff_types(*words_out) <= {int, Rat}
    if coeff_types(a, b) <= {int}:  # integer input stays integer
        assert coeff_types(*words_out) <= {int}
    t = random_tree(random.Random(seed), max_vertices=6, k_cap=2)
    assert coeff_types(cap_phi_hat(t, 3), main_rhs(t, 3)) <= {int}


@given(h1_elems, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
@settings(max_examples=60, deadline=None)
def test_rational_scalar_is_the_per_term_product(a, p, q):
    s = Rat(p, q)
    expected = [(w, Fraction(int(c.numerator), int(c.denominator)) * Fraction(p, q))
                for w, c in a.terms()]
    for got in (a * s, s * a):
        assert [(w, Fraction(int(c.numerator), int(c.denominator))) for w, c in got.terms()] == [
            (w, c) for w, c in expected if c]
        assert coeff_types(got) <= {Rat}


def test_non_integer_scalars_become_rat():
    half = HElem({"y": 1}) * Rat(1, 2)
    assert half.terms() == [("y", Rat(1, 2))]
    assert coeff_types(half) == {Rat}
    assert coeff_types(HElem({"y": True}), HElem({"y": 1}) * True) == {Rat}
    assert coeff_types(HElem({"y": 0.5})) == {Rat}
    assert coeff_types(HElem({"y": 2}) * 3, 3 * HElem({"y": 2})) == {int}


def test_int_and_rat_coefficients_agree():
    assert HElem({"y": 2}) == HElem({"y": Rat(2)})
    assert HElem({"y": 2}) != HElem({"y": Rat(5, 2)})
    i, r = HElem({"yx": 3, "": 3}), HElem({"yx": Rat(3), "": Rat(3)})
    assert str(i) == str(r) == "3 + 3*yx"
    assert i.to_json() == r.to_json()
    mixed = HElem({"y": 1, "yx": Rat(1, 2), "yy": Rat(4)})
    assert len(mixed - mixed) == 0
    assert len(HElem({"y": 1}) - HElem({"y": Rat(1)})) == 0

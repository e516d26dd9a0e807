import random
from fractions import Fraction
from math import comb, gcd

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

from enum_oracles import (
    dict_phi_hat,
    dict_product,
    dict_sum,
    fraction_dict,
    naive_harmonic,
    naive_harmonic_words,
    naive_shuffle,
)

indices = st.lists(st.integers(1, 3), max_size=3).map(tuple)
words = st.text(alphabet="xy", max_size=5)
h1_words = st.one_of(st.just(""), st.text(alphabet="xy", max_size=4).map(lambda w: "y" + w))


def test_word_from_index_examples():
    assert word_from_index((2,)) == "yx"
    assert word_from_index(()) == ""
    assert word_from_index((2, 3)) == "yxyxx"


def test_z_decompose_examples():
    assert z_decompose("yxyxx") == (2, 3)
    assert z_decompose("") == ()
    with pytest.raises(NotInH1):
        z_decompose("xy")


def test_z_decompose_names_the_first_letter_outside_the_alphabet():
    for w, letter in (("yz", "z"), ("yxzy", "z"), ("yé", "é"), ("yxyq1", "q"), ("y\n", "\n")):
        with pytest.raises(BadIndex) as err:
            z_decompose(w)
        assert str(err.value) == f"letter {letter!r} is not in the alphabet"
    for w in ("xy", "zy", " y"):
        with pytest.raises(NotInH1):
            z_decompose(w)


def test_index_entries_are_ints():
    for k in ((2.0,), (1.5,), (True,), (1, 2.0)):
        with pytest.raises(BadIndex, match="must be ints"):
            HElem.from_index(k)
    with pytest.raises(BadIndex, match="must be positive"):
        word_from_index((1, 0))
    assert word_from_index([1, 2]) == "yyx"


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
    values = [c for _, c in expected if c]
    # all int over denominator 1, all Rat otherwise, nothing for zero
    want = {int} if all(c.denominator == 1 for c in values) else {Rat}
    for got in (a * s, s * a):
        assert [(w, Fraction(int(c.numerator), int(c.denominator))) for w, c in got.terms()] == [
            (w, c) for w, c in expected if c]
        assert coeff_types(got) == (want if values else set())


def test_non_integer_scalars_become_rat():
    # a combination's coefficients are all int when its common denominator
    # is 1 and all Rat otherwise, whatever types built it
    half = HElem({"y": 1}) * Rat(1, 2)
    assert half.terms() == [("y", Rat(1, 2))]
    assert coeff_types(half) == {Rat}
    mixed = HElem({"y": 1, "yx": Rat(1, 2)})
    assert [(w, type(c)) for w, c in mixed.terms()] == [("y", Rat), ("yx", Rat)]
    assert coeff_types(HElem({"y": 0.5}), HElem({"y": 3}) * 0.5) == {Rat}
    assert coeff_types(HElem({"y": True}), HElem({"y": 1}) * True) == {int}
    assert coeff_types(HElem({"y": Rat(3)}), HElem({"y": 1}) * Rat(3), HElem({"y": 2}) * Rat(1, 2)) == {int}
    assert coeff_types(HElem({"y": 2}) * 3, 3 * HElem({"y": 2}), half * 2, half + half) == {int}


def is_canonical(a: HElem) -> bool:
    """Nonzero int numerators over a positive denominator that shares no
    factor with all of them; the zero combination has denominator 1."""
    values = list(a._terms.values())
    return (type(a._den) is int and a._den > 0 and all(type(c) is int and c for c in values)
            and gcd(a._den, *values) == 1)


rat_dicts = st.dictionaries(h1_words, st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))),
    max_size=4)


@given(rat_dicts, rat_dicts, st.integers(-12, 12).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 12)))
@settings(max_examples=60, deadline=None)
def test_combination_arithmetic_matches_fraction_dicts(da, db, p, q):
    a, b, s = HElem(da), HElem(db), Rat(p, q)
    assert fraction_dict(a) == dict_sum((1, da))
    expected = [
        (a + b, dict_sum((1, da), (1, db))),
        (a - b, dict_sum((1, da), (-1, db))),
        (a * s, dict_sum((s, da))),
        (s * a, dict_sum((s, da))),
        (a * p, dict_sum((p, da))),
        (a.concat(b), dict_product(da, db, lambda u, v: {u + v: 1})),
        (shuffle(a, b), dict_product(da, db, naive_shuffle)),
        (harmonic(a, b), dict_product(da, db, naive_harmonic_words)),
        *zip(phi_hat(a, 3).coeffs, dict_phi_hat(da, 3)),
    ]
    for got, want in expected:
        assert is_canonical(got)
        assert fraction_dict(got) == want
        assert coeff_types(got) <= ({int} if got._den == 1 else {Rat})
    assert a + b - b == a
    assert (a * s) * Rat(q, p) == a


def test_add_into_takes_integer_combinations_only():
    # the private dict it fills holds numerators over denominator 1
    data = {"y": 1}
    HElem({"y": 2, "yx": 1}).add_into(data, 3)
    assert data == {"y": 7, "yx": 3}
    for combo, scalar in ((HElem({"y": Rat(1, 2)}), 1), (HElem({"y": 1}), Rat(1, 2))):
        with pytest.raises(ValueError):
            combo.add_into(data, scalar)
    assert data == {"y": 7, "yx": 3}


def test_int_and_rat_coefficients_agree():
    assert HElem({"y": 2}) == HElem({"y": Rat(2)})
    assert HElem({"y": 2}) != HElem({"y": Rat(5, 2)})
    i, r = HElem({"yx": 3, "": 3}), HElem({"yx": Rat(3), "": Rat(3)})
    assert str(i) == str(r) == "3 + 3*yx"
    assert i.to_json() == r.to_json()
    mixed = HElem({"y": 1, "yx": Rat(1, 2), "yy": Rat(4)})
    assert len(mixed - mixed) == 0
    assert len(HElem({"y": 1}) - HElem({"y": Rat(1)})) == 0

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest import symmetrize
from zetaforest.errors import NotInH1
from zetaforest.indices import all_indices, bumps
from zetaforest.rationals import Rat
from zetaforest.series import TSeries
from zetaforest.symmetrize import _phi_hat_index, phi, phi_hat
from zetaforest.verify import RunConfig, run_suite
from zetaforest.words import HElem, right_mul_x_pow, shuffle, word_from_index
from zetaforest.zeta import z_shat, zeta_index

from enum_oracles import letter_phi_hat

indices = st.lists(st.integers(1, 3), max_size=3).map(tuple)
# denominators sharing factors, so their lcm is smaller than their product;
# denominator 1 gives a Rat equal to an integer
rationals = st.builds(Rat, st.integers(-12, 12).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 12)))


def z(k):
    return HElem.from_index(k)


def test_phi_hat_unit():
    got = phi_hat(HElem.unit(), 3)
    assert got == TSeries((HElem.unit(), HElem.zero(), HElem.zero()), 3)


def test_phi_hat_z1():
    got = phi_hat(z((1,)), 3)
    assert got.coeffs[0] == HElem.zero()
    assert got.coeffs[1] == -z((2,))
    assert got.coeffs[2] == -z((3,))


def test_phi_hat_cancellation_leaves_cached_rows_untouched():
    order = 3
    # the images are cached by word: z_(1,2) = yyx and z_(2,1) = yxy
    cached = [_phi_hat_index(w, order) for w in ("yyx", "yxy")]
    before = [[row.terms() for row in s.coeffs] for s in cached]
    a = z((1, 2)) + z((2, 1))
    out = phi_hat(a, order)
    # yyx has coefficients 3 and -3 in the two images
    assert "yyx" in dict(cached[0].coeffs[0].terms())
    assert "yyx" not in dict(out.coeffs[0].terms())
    assert [[row.terms() for row in s.coeffs] for s in cached] == before
    again = phi_hat(a, order)
    _phi_hat_index.cache_clear()
    assert again == phi_hat(a, order) == out


def test_phi_hat_z2_constant():
    assert phi_hat(z((2,)), 1).coeffs[0] == 2 * z((2,))


def test_phi_examples():
    assert phi(z((1,))) == HElem.zero()
    assert phi(HElem.unit()) == HElem.unit()
    # z_2 = z_1 x, and its image doubles it
    assert phi(right_mul_x_pow(z((1,)), 1)) == 2 * z((2,))


def test_phi_rejects_non_h1():
    with pytest.raises(NotInH1):
        phi(HElem.word("xy"))


@given(st.integers(-3, 3), st.integers(-3, 3), indices, indices)
@settings(max_examples=40, deadline=None)
def test_phi_hat_linear(ca, cb, k, l):
    a, b = z(k), z(l)
    lhs = phi_hat(ca * a + cb * b, 3)
    rhs = phi_hat(a, 3).scale(ca) + phi_hat(b, 3).scale(cb)
    assert lhs == rhs


@given(indices)
@settings(max_examples=30, deadline=None)
def test_phi_hat_constant_term_is_phi(k):
    assert phi_hat(z(k), 4).coeffs[0] == phi(z(k))


@given(indices)
@settings(max_examples=30, deadline=None)
def test_phi_hat_truncation_consistent(k):
    full = phi_hat(z(k), 4)
    assert full.coeffs[:2] == phi_hat(z(k), 2).coeffs


def test_phi_hat_preserves_h1():
    for k in [(1,), (2, 1), (1, 1, 2)]:
        for coeff in phi_hat(z(k), 3).coeffs:
            assert coeff.is_h1


def test_phi_of_product_small():
    # phi((z_1 sh z_1) x): all three skip-one terms coincide and carry sign
    # (-1)^{1+1}, so the image is three times the argument.
    elem = right_mul_x_pow(shuffle(z((1,)), z((1,))), 1)
    assert phi(elem) == 3 * elem


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


@st.composite
def rational_elems(draw):
    """y-initial elements with Rat coefficients, sometimes with c*(z_(1,2) +
    z_(2,1)), whose word yyx cancels in the degree-0 image."""
    terms = draw(st.dictionaries(indices, rationals, max_size=4))
    if draw(st.booleans()):
        c = draw(rationals)
        terms.update({(1, 2): c, (2, 1): c})
    return HElem({word_from_index(k): c for k, c in terms.items()})


@given(rational_elems())
@settings(max_examples=60, deadline=None)
def test_phi_hat_of_rational_input_matches_fraction_sums(a):
    # the reference sums c * phi_hat(z_w, N) word by word in Fraction
    for order in range(1, 5):
        rows = [{} for _ in range(order)]
        for w, c in a.terms():
            for row, image in zip(rows, phi_hat(HElem.word(w), order).coeffs):
                for v, m in image.terms():
                    row[v] = row.get(v, 0) + _fraction(c) * m
        got = phi_hat(a, order)
        for row, coeff in zip(rows, got.coeffs):
            terms = {v: _fraction(x) for v, x in coeff.terms()}
            assert 0 not in terms.values()
            assert terms == {v: x for v, x in row.items() if x}


def test_phi_hat_of_integral_rationals_is_its_integer_twin():
    # one path: every denominator is 1, so D = 1 and no Rat is built
    got = phi_hat(HElem({"y": Rat(3), "yx": Rat(-2)}), 3)
    assert got == phi_hat(HElem({"y": 3, "yx": -2}), 3)
    assert {type(c) for coeff in got.coeffs for _, c in coeff.terms()} == {int}


# --- finite congruences at primes ---------------------------------------------

# every nonempty index of weight <= 6, at primes p and t-orders N
INDEX_CONGRUENCE_CASES = [(k, p, n) for k in all_indices(6) if k for p in (5, 7, 11, 13) for n in (2, 3, 4)]
# the same at N = 5, where the terms of degree 4 first count
INDEX_CONGRUENCE_CASES_N5 = [(k, p, 5) for k in all_indices(6) if k for p in (5, 7, 11, 13)]


def index_congruence_failures(cases: list = INDEX_CONGRUENCE_CASES) -> int:
    """The cases where z_shat(z_k, p, N) at t = p is not (depth(k) + 1) *
    zeta_index(k, p) modulo p^N.

    With t = p each shifted base -a + t is p - a, so each of the depth + 1
    terms of phi_hat(z_k) sums to zeta_index(k, p), and the truncation at
    t^N costs a multiple of p^N; every denominator is prime to p, as every
    base lies in 1..p-1.  So the difference, in lowest terms, has a
    numerator divisible by p^N."""
    failures = 0
    for k, p, n in cases:
        at_p = sum(c * p**d for d, c in enumerate(z_shat(z(k), p, n).coeffs))
        failures += (at_p - (len(k) + 1) * zeta_index(k, p)).numerator % p**n != 0
    return failures


def test_index_congruence_at_primes():
    assert len(INDEX_CONGRUENCE_CASES) == 756
    assert index_congruence_failures() == 0


def test_index_congruence_catches_t_to_minus_t(monkeypatch):
    # phi_hat's expansion read at -t instead of t: most cases fail
    def flipped(ks, order):
        for bumped, d, c in bumps(ks, order):
            yield bumped, d, (-1) ** d * c

    monkeypatch.setattr(symmetrize, "bumps", flipped)
    _phi_hat_index.cache_clear()
    try:
        assert index_congruence_failures() == 636
    finally:
        _phi_hat_index.cache_clear()


def test_index_congruence_at_degree_five():
    assert len(INDEX_CONGRUENCE_CASES_N5) == 252
    assert index_congruence_failures(INDEX_CONGRUENCE_CASES_N5) == 0


def test_index_congruence_catches_weights_wrong_from_degree_four(monkeypatch):
    # phi_hat's weights doubled from t-degree 4 up: invisible below N = 5
    def doubled(ks, order):
        for bumped, d, c in bumps(ks, order):
            yield bumped, d, 2 * c if d >= 4 else c

    monkeypatch.setattr(symmetrize, "bumps", doubled)
    _phi_hat_index.cache_clear()
    try:
        assert index_congruence_failures() == 0
        assert index_congruence_failures(INDEX_CONGRUENCE_CASES_N5) == 172
    finally:
        _phi_hat_index.cache_clear()


def _t_to_minus_t(ks, order):
    for bumped, d, c in bumps(ks, order):
        yield bumped, d, (-1) ** d * c


def _doubled_from_degree_four(ks, order):
    for bumped, d, c in bumps(ks, order):
        yield bumped, d, 2 * c if d >= 4 else c


def letter_reference_failures(order: int) -> int:
    """The indices k of weight <= 6 where phi_hat(z_k) differs from the
    letter-level reference at `order`."""
    words = [word_from_index(k) for k in all_indices(6)]
    assert len(words) == 64
    return sum(phi_hat(HElem.word(w), order).coeffs != tuple(map(HElem, letter_phi_hat(w, order)))
               for w in words)


def test_phi_hat_matches_letter_level_reference():
    for order in (1, 3, 5):
        assert letter_reference_failures(order) == 0, order


@pytest.mark.parametrize("mutant, order, failures", [
    (_t_to_minus_t, 3, 63),
    (_doubled_from_degree_four, 3, 0),
    (_doubled_from_degree_four, 5, 63),
])
def test_letter_level_reference_catches_faults_in_bumps(monkeypatch, mutant, order, failures):
    # the empty index alone has no bump, so one of the 64 survives each fault
    monkeypatch.setattr(symmetrize, "bumps", mutant)
    _phi_hat_index.cache_clear()
    try:
        assert letter_reference_failures(order) == failures
    finally:
        _phi_hat_index.cache_clear()


def test_word_suites_above_degree_three(monkeypatch):
    # kaneko at t-order 6 and t-btt at t-order 8 pass, and catch phi_hat's
    # weights doubled from t-degree 4 up, each at one minimal case
    runs = [("kaneko", RunConfig(t_order=6, weight_max=3), ["k= l=1"]),
            ("t-btt", RunConfig(t_order=8, weight_max=5), ["index=1,1 t_order=8"])]
    for name, cfg, _ in runs:
        assert run_suite(name, cfg).ok, name
    monkeypatch.setattr(symmetrize, "bumps", _doubled_from_degree_four)
    _phi_hat_index.cache_clear()
    try:
        for name, cfg, failed in runs:
            assert [f.case for f in run_suite(name, cfg).failures] == failed, name
    finally:
        _phi_hat_index.cache_clear()

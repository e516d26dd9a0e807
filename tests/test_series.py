import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaforest.errors import OrderMismatch, ZetaForestError
from zetaforest.rationals import Rat
from zetaforest.series import TSeries
from zetaforest.words import HElem

from enum_oracles import _neg_power_coeffs
from series_helpers import rat_series

rat_coeffs = st.lists(
    st.integers(-5, 5).map(Rat), min_size=4, max_size=4
)


def s(*cs):
    return rat_series(cs, len(cs))


def test_add_examples():
    assert s(1, 1) + s(1, -1) == s(2, 0)
    zero = s(0, 0)
    assert zero + s(3, 5) == s(3, 5)
    assert s(0, 1) + s(0, 0) == s(0, 1)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatch):
        s(1, 2) + s(1, 2, 3)


@given(rat_coeffs, rat_coeffs, rat_coeffs)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    A, B, C = (rat_series(x, 4) for x in (a, b, c))
    assert A + B == B + A
    assert (A + B) + C == A + (B + C)
    assert (A + B) - B == A


@given(rat_coeffs, rat_coeffs)
@settings(max_examples=40)
def test_truncation_consistency(a, b):
    A, B = rat_series(a, 4), rat_series(b, 4)
    assert (A + B).coeffs[:2] == (rat_series(a[:2], 2) + rat_series(b[:2], 2)).coeffs
    assert (A - B.scale(3)).coeffs[:3] == (rat_series(a[:3], 3) - rat_series(b[:3], 3).scale(3)).coeffs


def test_neg_power_examples():
    # the (a + t)^-k expansion behind the reference oracle's flipped factors
    assert _neg_power_coeffs(Rat(-2), 1, 3) == (Rat(-1, 2), Rat(-1, 4), Rat(-1, 8))
    assert _neg_power_coeffs(Rat(3), 2, 3) == (Rat(1, 9), Rat(-2, 27), Rat(1, 27))
    assert _neg_power_coeffs(Rat(7), 0, 2) == (1, 0)
    assert _neg_power_coeffs(Rat(0), 0, 2) == (1, 0)


@pytest.mark.parametrize("a", [1, -1, 2, -2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_neg_power_inverts_positive_power(a, k):
    order = 6
    # (a + t)^k by repeated multiplication, then times the expansion
    product = [Rat(1)] + [Rat(0)] * (order - 1)
    for factor in [(a, 1)] * k + [_neg_power_coeffs(Rat(a), k, order)]:
        product = [sum(product[i] * factor[d - i] for i in range(d + 1) if d - i < len(factor))
                   for d in range(order)]
    assert product == [1] + [0] * (order - 1)


def test_map_linear():
    A = s(1, 2, 3)
    assert A.map(lambda c: c) == A
    assert A.map(lambda c: c * 0) == s(0, 0, 0)
    assert A.map(lambda c: 2 * c) == s(2, 4, 6)


def test_str_and_json():
    A = s(Rat(3, 2), Rat(-5, 4), 0)
    assert str(A) == "3/2 + -5/4*t + 0*t^2 + O(t^3)"
    assert A.to_json() == {"t_order": 3, "coeffs": ["3/2", "-5/4", "0"]}
    e = TSeries((HElem({"yx": 2, "": 1}), HElem.zero()), 2)
    assert str(e) == "(1 + 2*yx) + 0*t + O(t^2)"
    # a coefficient with its own to_json() is encoded through it
    assert e.to_json() == {"t_order": 2, "coeffs": [e.coeffs[0].to_json(), {"terms": []}]}


def test_constructor_checks():
    with pytest.raises(ValueError):
        TSeries((Rat(1),), 2)
    with pytest.raises(OrderMismatch) as err:
        TSeries((Rat(1),), 2)
    assert isinstance(err.value, ZetaForestError)
    with pytest.raises(ValueError):
        TSeries((), 0)
    with pytest.raises(OrderMismatch):
        s(1, 2) - s(1, 2, 3)

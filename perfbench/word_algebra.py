"""word-algebra: the symbolic identities, with no oracle call.

Strata: unit and commutativity laws of shuffle and quasi-shuffle up to
weight 5; seeded associativity triples up to weight 3 (the cost and cache
size of a triple grow steeply with its weight: weight-5 triples reach
hundreds of MB, and a few heavy draws would make the mix depend on the
seed); the Kaneko reflection at t-order 4 up to weight 4; t-BTT at t-order
4; BTT; the main word and diagram identities at t-order 2 over the built-in
catalog; and seeded linearity checks of phi_hat, which exercise the series
layer.  The benchmark builds the left-hand sides from phi_hat, shuffle and
harmonic and calls the right-hand-side builders of ``verify`` whole.
"""

from __future__ import annotations

import operator
import random

from common import compositions, indices_up_to, load_data, random_fraction, stratify
from zetaforest.series import TSeries
from zetaforest.symmetrize import phi, phi_hat
from zetaforest.trees import harvestable_form, parse_tree, w_word
from zetaforest.verify import btt_rhs, diagram_rhs, kaneko_rhs, main_rhs, t_btt_rhs
from zetaforest.words import HElem, harmonic, right_mul_x_pow, shuffle

KANEKO_ORDER = 4
T_BTT_ORDER = 4
MAIN_ORDER = 2
LINEAR_ORDER = 4
ASSOC_TRIPLES = 300
LINEAR_CASES = 600


def z(k) -> HElem:
    return HElem.from_index(k)


def series_eq(T, a, b) -> bool:
    return T.call("series.eq", operator.eq, a, b)


def unit_law(k):
    a, one = z(k), HElem.unit()

    def check(T):
        for f in (shuffle, harmonic):
            name = "words." + f.__name__
            if T.call(name, f, a, one) != a or T.call(name, f, one, a) != a:
                return f"{f.__name__} unit law broken"
        return None

    return f"{k}", check, sum(k)


def commutative(k, l):
    a, b = z(k), z(l)

    def check(T):
        for f in (shuffle, harmonic):
            name = "words." + f.__name__
            ab = T.call(name, f, a, b)
            if ab != T.call(name, f, b, a):
                return f"{f.__name__} not commutative"
            if not ab.is_h1:
                return f"{f.__name__} left the y-initial subspace"
        return None

    return f"{k},{l}", check, sum(k) + sum(l)


def associative(k, l, m):
    a, b, c = z(k), z(l), z(m)

    def check(T):
        for f in (shuffle, harmonic):
            name = "words." + f.__name__
            left = T.call(name, f, T.call(name, f, a, b), c)
            if left != T.call(name, f, a, T.call(name, f, b, c)):
                return f"{f.__name__} not associative"
        return None

    return f"{k}/{l}/{m}", check, sum(k) + sum(l) + sum(m)


def kaneko(k, l):
    a, b = z(k), z(l)
    mirror = z(k + tuple(reversed(l)))
    sign = -1 if sum(l) % 2 else 1

    def check(T):
        prod = T.call("words.shuffle", shuffle, a, b)
        lhs = T.call("symmetrize.phi_hat", phi_hat, prod, KANEKO_ORDER)
        if not series_eq(T, lhs, T.call("verify.kaneko_rhs", kaneko_rhs, k, l, KANEKO_ORDER)):
            return "series identity"
        if T.call("symmetrize.phi", phi, prod) != sign * T.call("symmetrize.phi", phi, mirror):
            return "constant term"
        return None

    return f"{k},{l}", check, sum(k) + sum(l)


def shuffle_of(T, ks) -> HElem:
    out = HElem.unit()
    for k in ks:
        out = T.call("words.shuffle", shuffle, out, z((k,)))
    return out


def t_btt(ks):
    def check(T):
        word = T.call("words.right_mul_x_pow", right_mul_x_pow, shuffle_of(T, ks[:-1]), ks[-1])
        lhs = T.call("symmetrize.phi_hat", phi_hat, word, T_BTT_ORDER)
        rhs = T.call("verify.t_btt_rhs", t_btt_rhs, ks, T_BTT_ORDER)
        return None if series_eq(T, lhs, rhs) else "t-btt"

    return f"{ks}", check, sum(ks)


def btt(ks):
    def check(T):
        word = T.call("words.right_mul_x_pow", right_mul_x_pow, shuffle_of(T, ks[:-1]), ks[-1])
        lhs = T.call("symmetrize.phi", phi, word)
        return None if lhs == T.call("verify.btt_rhs", btt_rhs, ks) else "btt"

    return f"{ks}", check, sum(ks)


def main_identity(t):
    def check(T):
        hf = T.call("trees.harvestable_form", harvestable_form, t)
        word = T.call("trees.w_word", w_word, hf)
        lhs = T.call("symmetrize.phi_hat", phi_hat, word, MAIN_ORDER)
        if not series_eq(T, lhs, T.call("verify.main_rhs", main_rhs, t, MAIN_ORDER)):
            return "word identity"
        if not series_eq(T, lhs, T.call("verify.diagram_rhs", diagram_rhs, t, MAIN_ORDER)):
            return "diagram"
        return None

    return t.key, check, (len(t.vertices), len(t.black))


def linearity(ks, ls, c):
    a = sum((z(k) for k in ks), HElem.zero())
    b = sum((z(l) for l in ls), HElem.zero())
    combo = a + c * b

    def check(T):
        lhs = T.call("symmetrize.phi_hat", phi_hat, combo, LINEAR_ORDER)
        pa = T.call("symmetrize.phi_hat", phi_hat, a, LINEAR_ORDER)
        pb = T.call("symmetrize.phi_hat", phi_hat, b, LINEAR_ORDER)
        rhs = T.call("series.add", TSeries.__add__, pa, T.call("series.scale", TSeries.scale, pb, c))
        return None if series_eq(T, lhs, rhs) else "phi_hat not linear"

    return f"{ks}+({c}){ls}", check, sum(map(sum, ks + ls))


def setup(seed: int) -> list:
    rng = random.Random(seed)
    idx5 = indices_up_to(5)
    idx4 = indices_up_to(4)
    idx3 = indices_up_to(3)
    nonempty5 = idx5[1:]
    builtin = [parse_tree(s) for s in load_data("catalog.json")["builtin"]]
    strata = {
        "unit": [unit_law(k) for k in idx5],
        "commutative": [commutative(k, l) for i, k in enumerate(idx5) for l in idx5[i:]],
        "associative": [associative(*(rng.choice(idx3) for _ in range(3))) for _ in range(ASSOC_TRIPLES)],
        "kaneko": [kaneko(k, l) for k in idx4 for l in idx4 if sum(k) + sum(l) <= 4],
        "t-btt": [t_btt(ks) for r in (2, 3) for ks in compositions((1, 2, 3), r)],
        "btt": [btt(ks) for r in (2, 3, 4) for ks in compositions((1, 2, 3), r)],
        "main": [main_identity(t) for t in builtin],
        "linearity": [
            linearity(rng.sample(nonempty5, 2), rng.sample(nonempty5, 2), random_fraction(rng))
            for _ in range(LINEAR_CASES)
        ],
    }
    return stratify(strata, rng)

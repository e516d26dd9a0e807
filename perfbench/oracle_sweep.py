"""oracle-sweep: every identity with a brute-force numeric side, at t-order 3
and M = 1..10 (the documented ``verify --t-order 3 -M 10`` bounds).

Strata: root change over the harvestable catalog, the harvestable-form
contract and the numeric side of the main identity over the built-in catalog,
the linear-tree bridge (zeta_tree = zeta_index, zeta_shat_tree = z_shat),
multiplicativity of z_m_eval, and seeded small random trees.  The benchmark
calls the oracles itself, so their time lands in the ``zeta`` layer.
"""

from __future__ import annotations

import random

from common import chain, compositions, indices_up_to, load_data, random_tree, stratify
from zetaforest.symmetrize import phi_hat
from zetaforest.trees import Tree, harvestable_form, is_harvestable, parse_tree, symmetrization_terms, w_word
from zetaforest.words import HElem, harmonic
from zetaforest.zeta import z_m_eval, z_shat, zeta_index, zeta_shat_tree, zeta_tree

ORDER = 3
MS = range(1, 11)
RANDOM_TREES = 24


def tree_cost(t, M):
    return len(t.black), len(t.vertices), M


def linear(ks):
    """All-black chain for the index ks: its last entry on the root edge."""
    return chain("b" * (len(ks) + 1), ks[::-1])


def terms(t, order):
    return list(symmetrization_terms(t, order))


def root_change_rhs(T, t, M):
    rows = [0] * ORDER
    for degree, coeff, shifted in T.call("trees.symmetrization_terms", terms, t, ORDER):
        hf = T.call("trees.harvestable_form", harvestable_form, shifted)
        rows[degree] += coeff * T.call("zeta.zeta_tree", zeta_tree, hf, M)
    return rows


def root_change(t, M):
    def check(T):
        lhs = T.call("zeta.zeta_shat_tree", zeta_shat_tree, t, M, ORDER)
        rhs = root_change_rhs(T, t, M)
        return None if list(lhs.coeffs) == rhs else f"root change: {lhs} != {rhs}"

    return f"{t.key} M={M}", check, tree_cost(t, M)


def harvest(t, M):
    def check(T):
        hf = T.call("trees.harvestable_form", harvestable_form, t)
        if not T.call("trees.is_harvestable", is_harvestable, hf):
            return "harvestable form is not harvestable"
        if T.call("zeta.zeta_shat_tree", zeta_shat_tree, t, M, ORDER) != T.call(
            "zeta.zeta_shat_tree", zeta_shat_tree, hf, M, ORDER
        ):
            return "shifted sums differ"
        if T.call("zeta.zeta_tree", zeta_tree, t, M) != T.call("zeta.zeta_tree", zeta_tree, hf, M):
            return "plain sums differ"
        return None

    return f"{t.key} M={M}", check, tree_cost(t, M)


def main_numeric(t, M):
    def check(T):
        hf = T.call("trees.harvestable_form", harvestable_form, t)
        word = T.call("trees.w_word", w_word, hf)
        lhs = T.call("symmetrize.phi_hat", phi_hat, word, ORDER)
        values = [T.call("zeta.z_m_eval", z_m_eval, c, M) for c in lhs.coeffs]
        rhs = root_change_rhs(T, t, M)
        return None if values == rhs else f"numeric main: {values} != {rhs}"

    return f"{t.key} M={M}", check, tree_cost(t, M)


def bridge(chain_tree, ks, M):
    word = HElem.from_index(ks)

    def check(T):
        if T.call("zeta.zeta_tree", zeta_tree, chain_tree, M) != T.call("zeta.zeta_index", zeta_index, ks, M):
            return "zeta_tree != zeta_index"
        if ks and T.call("zeta.zeta_shat_tree", zeta_shat_tree, chain_tree, M, ORDER) != T.call(
            "zeta.z_shat", z_shat, word, M, ORDER
        ):
            return "zeta_shat_tree != z_shat"
        return None

    return f"{ks} M={M}", check, (len(ks), M)


def multiplicative(k, l, M):
    a, b = HElem.from_index(k), HElem.from_index(l)

    def check(T):
        prod = T.call("words.harmonic", harmonic, a, b)
        lhs = T.call("zeta.z_m_eval", z_m_eval, prod, M)
        rhs = T.call("zeta.z_m_eval", z_m_eval, a, M) * T.call("zeta.z_m_eval", z_m_eval, b, M)
        return None if lhs == rhs else f"{lhs} != {rhs}"

    return f"{k}*{l} M={M}", check, (sum(k) + sum(l), M)


def random_case(t, M):
    """Harvestable-form contract on t, then root change on its harvestable form."""
    label, harvest_check, cost = harvest(t, M)

    def check(T):
        detail = harvest_check(T)
        if detail is None:
            hf = T.call("trees.harvestable_form", harvestable_form, t)
            detail = root_change(hf, M)[1](T)
        return detail

    return label, check, cost


def setup(seed: int) -> list:
    rng = random.Random(seed)
    catalog = load_data("catalog.json")
    builtin = [parse_tree(s) for s in catalog["builtin"]]
    harvestable = [parse_tree(s) for s in catalog["harvestable"] if s != "b()"]
    chains = [ks for r in range(4) for ks in compositions((1, 2, 3), r)]
    small = indices_up_to(3)
    randoms = [Tree.build(*random_tree(rng, rng.randint(3, 7), 2)) for _ in range(RANDOM_TREES)]
    strata = {
        "root-change": [root_change(t, M) for t in harvestable for M in MS],
        "harvest": [harvest(t, M) for t in builtin for M in MS],
        "main-numeric": [main_numeric(t, M) for t in builtin for M in MS],
        "bridge": [bridge(Tree.build(*linear(ks)), ks, M) for ks in chains for M in MS],
        "multiplicative": [
            multiplicative(k, l, M) for i, k in enumerate(small) for l in small[i:] for M in MS if M > 1
        ],
        "random": [random_case(t, rng.choice(MS)) for t in randoms],
    }
    return stratify(strata, rng)

"""Exact symbolic calculus for truncated multiple harmonic sums.

The package has three layers: the word algebra on two letters with shuffle
and quasi-shuffle products and its t-adic symmetrization map; 2-colored
rooted trees with edge indices, their products, harvestable forms, the word
extraction map and the tree-level symmetrization; and exact truncated-sum
oracles that evaluate everything numerically for machine verification.
"""

from .errors import ZetaForestError
from .indices import bumps, tuple_add, tuple_reverse, weight
from .rationals import Rat
from .series import TSeries
from .symmetrize import phi, phi_hat
from .trees import (
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
    unit_tree,
    w_word,
)
from .verify import RunConfig, run_suite
from .words import (
    HElem,
    harmonic,
    right_mul_x_pow,
    shuffle,
    word_from_index,
    z_decompose,
)
from .zeta import (
    z_m_eval,
    z_shat,
    zeta_index,
    zeta_shat_tree,
    zeta_tree,
    zeta_tree_u,
)

__all__ = [
    "HElem",
    "Rat",
    "RunConfig",
    "TSeries",
    "Tree",
    "TreeCombo",
    "ZetaForestError",
    "bumps",
    "cap_phi",
    "cap_phi_hat",
    "circ_h",
    "circ_product",
    "harmonic",
    "harvestable_form",
    "is_essentially_positive",
    "is_harvestable",
    "parse_tree",
    "phi",
    "phi_hat",
    "right_mul_x_pow",
    "run_suite",
    "shuffle",
    "tree_to_json",
    "tuple_add",
    "tuple_reverse",
    "unit_tree",
    "w_word",
    "weight",
    "word_from_index",
    "z_decompose",
    "z_m_eval",
    "z_shat",
    "zeta_index",
    "zeta_shat_tree",
    "zeta_tree",
    "zeta_tree_u",
]

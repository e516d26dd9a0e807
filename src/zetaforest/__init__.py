"""Exact symbolic calculus for truncated multiple harmonic sums.

The package has three layers: the word algebra on two letters with shuffle
and quasi-shuffle products and its t-adic symmetrization map; 2-colored
rooted trees with edge indices, their products, harvestable forms, the word
extraction map and the tree-level symmetrization; and exact truncated-sum
oracles that evaluate everything numerically for machine verification.

Every public name is loaded from its submodule on first use (PEP 562), so
`import zetaforest` alone loads no submodule and a command-line run loads
only the layers its command calls.
"""

from importlib import import_module

_EXPORTS = {
    "ZetaForestError": "errors",
    "bumps": "indices",
    "weight": "indices",
    "Rat": "rationals",
    "TSeries": "series",
    "phi": "symmetrize",
    "phi_hat": "symmetrize",
    "Tree": "trees",
    "TreeCombo": "trees",
    "cap_phi": "trees",
    "cap_phi_hat": "trees",
    "circ_h": "trees",
    "circ_product": "trees",
    "harvestable_form": "trees",
    "is_essentially_positive": "trees",
    "is_harvestable": "trees",
    "parse_tree": "trees",
    "tree_to_json": "trees",
    "unit_tree": "trees",
    "w_word": "trees",
    "RunConfig": "verify",
    "run_suite": "verify",
    "HElem": "words",
    "harmonic": "words",
    "right_mul_x_pow": "words",
    "shuffle": "words",
    "word_from_index": "words",
    "z_decompose": "words",
    "z_m_eval": "zeta",
    "z_shat": "zeta",
    "zeta_index": "zeta",
    "zeta_shat_tree": "zeta",
    "zeta_tree": "zeta",
    "zeta_tree_u": "zeta",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


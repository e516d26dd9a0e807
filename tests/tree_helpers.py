"""Tree builders that only the tests use."""

from __future__ import annotations

from zetaforest.errors import UnknownVertex
from zetaforest.trees import Tree, TreeCombo


def change_root(t: Tree, v: int) -> Tree:
    """`t` re-rooted at its vertex `v`."""
    if v not in t.vertices:
        raise UnknownVertex(f"vertex {v} is not in the tree")
    return Tree(v, t.black, t.white, t.edges)


def one_term(t: Tree, coeff=1) -> TreeCombo:
    """The combination of the one tree `t` with coefficient `coeff`."""
    return TreeCombo([(t, coeff)])

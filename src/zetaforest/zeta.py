"""Exact truncated-sum oracles.

These evaluate every identity numerically by brute-force enumeration with
exact rationals, independently of the symbolic pipelines they check:

* ``zeta_index(k, M)``       -- sum over 0 < n_1 < ... < n_r < M of prod n_i^-k_i
* ``zeta_tree(X, M)``        -- sum over positive black tuples with total M of
                                prod over edges of (sum of m_v below)^-k_e
* ``zeta_tree_u(X, u, M, N)``-- same shape but summed over tuples where m_u is
                                the negative of the others' total, and every
                                factor whose summand set contains u gets +t,
                                expanded as a truncated series
* ``zeta_shat_tree(X, M, N)``-- sum of zeta_tree_u over all black u
* ``z_m_eval`` / ``z_shat``  -- linear extensions over the z-basis
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from .errors import DegenerateBase, UnknownVertex
from .indices import Tuple_, positive_compositions
from .rationals import Rat
from .series import TSeries, _neg_power_coeffs
from .symmetrize import phi_hat
from .trees import Tree
from .words import HElem


@lru_cache(maxsize=None)
def zeta_index(k: Tuple_, M: int) -> object:
    """Truncated multiple harmonic sum; empty sums are 0, the empty index gives 1."""
    r = len(k)
    total = Rat(0)
    for ns in combinations(range(1, M), r):
        term = Rat(1)
        for n, e in zip(ns, k):
            term /= n**e
        total += term
    return total


@lru_cache(maxsize=4096)
def _edge_supports(t: Tree) -> dict:
    """For each edge, the set of black vertices whose root path crosses it
    (equivalently: the black vertices strictly below the edge)."""
    supports: dict[tuple[int, int], frozenset] = {}

    def down(v: int, parent: int | None) -> set:
        acc = set()
        for u in t.adj[v]:
            if u == parent:
                continue
            sub = down(u, v)
            supports[(min(u, v), max(u, v))] = frozenset(sub)
            acc |= sub
        if v in t.black:
            acc.add(v)
        return acc

    down(t.root, None)
    return supports


def zeta_tree(t: Tree, M: int) -> object:
    """Tree sum over black tuples (m_v) >= 1 with total M, exact rational."""
    blacks = sorted(t.black)
    pos = {v: i for i, v in enumerate(blacks)}
    supports = _edge_supports(t)
    factors = [
        (tuple(pos[v] for v in sorted(supports[(u, v)])), k)
        for u, v, k in t.edges
        if k > 0
    ]
    total = Rat(0)
    for m in positive_compositions(M, len(blacks)):
        term = Rat(1)
        for idxs, k in factors:
            base = sum(m[i] for i in idxs)
            term /= base**k
        total += term
    return total


def zeta_tree_u(t: Tree, u: int, M: int, order: int) -> TSeries:
    """The u-shifted tree sum as a truncated series in t.

    m_u is forced to the negative of the others' total (which stays below M);
    each edge factor whose summand set contains u becomes (base + t)^-k,
    expanded exactly to the requested order.
    """
    if u not in t.black:
        raise UnknownVertex(f"{u} is not a black vertex")
    blacks = sorted(t.black)
    others = [v for v in blacks if v != u]
    pos = {v: i for i, v in enumerate(others)}
    supports = _edge_supports(t)
    factors = []
    for a, b, k in t.edges:
        if k == 0:
            continue
        sup = supports[(a, b)]
        factors.append((tuple(pos[v] for v in sorted(sup) if v != u), u in sup, k))
    coeffs = [Rat(0) for _ in range(order)]
    tuples = chain.from_iterable(positive_compositions(n, len(others)) for n in range(1, M))
    for m in tuples:
        m_u = -sum(m)
        scalar = Rat(1)
        series: tuple | None = None
        for idxs, has_u, k in factors:
            base = sum(m[i] for i in idxs)
            if has_u:
                base += m_u
                if base == 0:
                    raise DegenerateBase(f"zero base on an edge of {t.key}")
                expansion = _neg_power_coeffs(Rat(base), k, order)
                if series is None:
                    series = expansion
                else:
                    series = tuple(
                        sum(series[i] * expansion[d - i] for i in range(d + 1))
                        for d in range(order)
                    )
            else:
                scalar /= base**k
        if series is None:
            coeffs[0] += scalar
        else:
            for d in range(order):
                coeffs[d] += scalar * series[d]
    return TSeries(tuple(coeffs), order)


def zeta_shat_tree(t: Tree, M: int, order: int) -> TSeries:
    """Sum of the u-shifted tree sums over all black vertices."""
    out = TSeries.zeros(Rat(0), order)
    for u in sorted(t.black):
        out = out + zeta_tree_u(t, u, M, order)
    return out


def z_m_eval(a: HElem, M: int) -> object:
    """Linear extension of the harmonic sums over the z-basis."""
    total = Rat(0)
    for k, c in a.z_terms():
        total += c * zeta_index(k, M)
    return total


def z_m_series(s: TSeries, M: int) -> TSeries:
    return s.map(lambda e: z_m_eval(e, M))


def z_shat(a: HElem, M: int, order: int) -> TSeries:
    """Evaluation of the symmetrized element: harmonic sums of phi_hat(a)."""
    return z_m_series(phi_hat(a, order), M)

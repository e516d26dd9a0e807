"""Exact truncated-sum oracles.

These evaluate every identity numerically with exact rationals,
independently of the symbolic pipelines they check:

* ``zeta_index(k, M)``       -- sum over 0 < n_1 < ... < n_r < M of prod n_i^-k_i
* ``zeta_tree(X, M)``        -- sum over positive black tuples with total M of
                                prod over edges of (sum of m_v below)^-k_e
* ``zeta_tree_u(X, u, M, N)``-- same shape but summed over tuples where m_u is
                                the negative of the others' total, and every
                                factor whose summand set contains u gets +t,
                                expanded as a truncated series
* ``zeta_shat_tree(X, M, N)``-- sum of zeta_tree_u over all black u
* ``z_m_eval`` / ``z_shat``  -- linear extensions over the z-basis

None of them enumerates tuples.  Each is a dynamic program over partial
totals in plain integers: every factor n^-k is kept as the numerator
(L // n)^k over L^k, with L = lcm(1..n_max), and the exact ``Rat`` is formed
once at the end.

* ``zeta_index`` is the nested-sum recursion S_k(M) = sum_{n<M} n^-k_r
  S_k'(n) with k' = (k_1..k_r-1); it costs O(r*M).  Its integer numerator
  over L^wt(k), L = lcm(1..M-1), is the one cached value (4096 entries,
  keyed by (k, M)); ``zeta_index`` wraps it in a ``Rat``.
* ``z_m_eval`` sums those numerators in integers: each term's is raised to
  the common L^W, W the largest weight of a word, and multiplied by the
  combination's integer numerator of its word.  One ``Rat``, the sum over
  D*L^W with D the combination's one denominator, is built at the end.
* ``zeta_tree`` walks the tree once, children before parents.  Each vertex
  holds a vector indexed by the total n = 0..M of the black values in its
  subtree.  An edge scales entry n by (L // n)^k, siblings combine by
  convolution, and a black vertex takes a shifted prefix sum because its own
  value is at least 1.  A black leaf's vector [0, 1, ..., 1] would leave the
  edge factors unchanged, so the edge above it takes its factor rows as they
  are.  It costs O(V*M^2).
* ``zeta_tree_u`` is the same walk re-rooted at u, where each edge's base is
  the total of the side away from u.  That base is negated and shifted by t
  on the edges of the old root-to-u path, so vector entries there are
  t-series.  The walk finds those edges itself: each leads from a vertex
  down to that vertex's parent in the tree hung from the old root.  It
  costs O(V*M^2*N^2) at t-order N.  ``zeta_shat_tree`` adds the numerators
  of all B re-rootings before its one reduction, so it costs
  O(B*V*M^2*N^2).
* One walk serves every M up to its cap.  Entry n <= cap of the total
  vector does not depend on the cap, and over L = lcm(1..cap) it is still
  the exact numerator, so ``zeta_tree(X, M)`` is entry M over L^K, K the
  sum of the edge indices, and the shifted sums are prefix sums of the
  rows over L^(K+d).  ``_walks`` keeps, per tree, walked vertices and
  t-order, the rows of the walk at the largest cap asked so far: that walk
  costs O(V*cap^2) once, and every call at an M up to the cap is one slice
  and one ``Rat``, which reduces to the value its own walk would give.  A
  call at a larger M walks at M and replaces the rows.  ``_walks`` is a
  ``table.BoundedTable``, the one bounded-table class, which the tree
  layer's table of symmetrization terms shares: it is bounded by the bits
  it holds, at most ``WALK_BITS`` = 2^23, oldest entry out first, and
  ``walk_info()`` reads its hits, misses, entries and charged bits.
* A walk caches nothing on its tree: it builds its adjacency and its
  orientation from ``t.edges`` and reads no cached ``Tree.adj`` or
  ``Tree.parent``, so a tree kept by a table or a caller carries no O(V)
  maps for it, and a table hit walks nothing at all.

The brute-force enumerators these replace are kept as the test-only
reference in ``tests/enum_oracles.py``.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate
from math import lcm
from operator import add, mul
from typing import TYPE_CHECKING

from .errors import BadIndex, UnknownVertex
from .indices import Tuple_, bumps, check_index
from .rationals import Rat
from .series import TSeries
from .table import BoundedTable
from .words import HElem, z_decompose

if TYPE_CHECKING:
    from .trees import Tree


def zeta_index(k: Tuple_, M: int) -> object:
    """Truncated multiple harmonic sum; empty sums are 0, the empty index gives 1."""
    k = check_index(k)
    num = _zeta_numerator(k, M)
    # neither the empty index nor an empty sum needs L
    return Rat(num, lcm(*range(1, M)) ** sum(k)) if k and num else Rat(num)


@lru_cache(maxsize=4096)
def _zeta_numerator(k: Tuple_, M: int) -> int:
    """`zeta_index(k, M)` times L^wt(k), L = lcm(1..M-1): an integer."""
    if not k:
        return 1
    if M <= len(k):
        return 0
    L = lcm(*range(1, M))
    # row[n]: numerator over L^(k_1+...+k_j) of the sum with n_j = n
    row = [1] + [0] * (M - 1)
    for e in k:
        below = 0
        new = [0] * M
        for n in range(1, M):
            below += row[n - 1]
            new[n] = below * (L // n) ** e
        row = new
    return sum(row)


def _tree_rows(t: Tree, top: int, free: frozenset, cap: int, L: int, order: int) -> list:
    """The total vector of the whole tree, walked from `top`.

    Returns rows[d][n] for d < order and n <= cap: the numerator over
    L^(K+d), K the sum of all edge indices, of the t^d coefficient of the sum
    over values >= 1 on the vertices in `free` with total n.  Every vertex
    outside `free` has value 0.  The edge above a vertex c (seen from `top`)
    contributes (total below c)^-k, or (-(total below c) + t)^-k if c lies
    on the path from `top` up to `t.root`: those edges' summand sets hold
    `top`.  Vectors hold plain ints, so no ``Rat`` is built here.

    The adjacency and the orientation from `top` are built from `t.edges`
    for this walk alone, so a walk caches nothing on `t`: a tree that a
    table or a caller keeps carries no O(V) maps for it.

    A black leaf other than `top` gets no vector of its own: its vector
    [0, 1, ..., 1] times the edge factor rows is those rows, since their
    entry 0 is 0.  So the vector above it is the shared ``_edge_factors``
    rows themselves, or the one row [0, 1, ..., 1] under a 0-edge, and no
    vector is changed in place.

    No base is 0: the far side of every edge holds a leaf other than `top`,
    and the leaves of a valid tree are black, so its total is at least 1.
    """
    from .trees import orient  # loaded with the Tree that reached here

    adj: dict[int, dict[int, int]] = {top: {}}
    for u, v, k in t.edges:
        adj.setdefault(u, {})[v] = k
        adj.setdefault(v, {})[u] = k
    parent = orient(adj, top)
    path = set()  # the vertices from t.root down to top, top excluded
    v = t.root
    while v != top:
        path.add(v)
        v = parent[v]
    vectors: dict[int, list | None] = {}
    for v in reversed(parent):
        rows = None
        for w, k in adj[v].items():
            if w == parent[v]:
                continue
            child = vectors.pop(w)
            flip = w in path
            if child is None:  # a black leaf
                child = _edge_factors(k, flip, L, cap, order) if k else [[0] + [1] * cap]
            elif k:
                factors = _edge_factors(k, flip, L, cap, order)
                child = _product(child, factors, order, cap, pointwise=True)
            rows = child if rows is None else _product(rows, child, order, cap)
        if rows is None:
            if v in free and v != top:
                vectors[v] = None  # a black leaf; the edge above builds its vector
                continue
            rows = [[1] + [0] * cap]
        if v in free:
            # m_v >= 1: entry n collects the entries below n
            rows = [[0, *accumulate(r[:-1])] for r in rows]
        vectors[v] = rows
    return vectors[top]


@lru_cache(maxsize=4096)
def _edge_factors(k: int, flip: bool, L: int, cap: int, order: int) -> tuple:
    """Rows by t-degree l of the factor n^-k, or (-n + t)^-k if `flip`, for
    n = 0..cap, as numerators over L^(k+l).  Entry 0 is 0, so these rows
    are also a black leaf's vector times the factor.  Rows are tuples
    because every walk with the same L, cap and order shares them.  Raises
    BadIndex for k above sys.maxsize, whose powers would not end."""
    if k > sys.maxsize:
        raise BadIndex(f"edge indices must be <= {sys.maxsize}: {k}")
    quot = [0] + [L // n for n in range(1, cap + 1)]
    if not flip:
        return (tuple(q**k for q in quot),)
    return tuple(tuple(c * q**kl for q in quot) for (kl,), _, c in bumps((k,), order))


def _product(a: list, b: list, order: int, cap: int, pointwise: bool = False) -> list:
    """Cauchy product over t-degree of two row lists, truncated at `order`.

    Rows multiply entrywise if `pointwise`, else by convolution over the
    total, truncated at `cap`.  Each output row is built whole, from the
    pairs of rows whose degrees add up to its own.  Two one-row lists, as
    every vector of `zeta_tree` and every off-path vector of a shifted walk
    is, make their one row from their one pair.
    """
    if not pointwise:
        b = [[(n, y) for n, y in enumerate(rb) if y] for rb in b]
    if len(a) == len(b) == 1:
        degrees = [[(a[0], b[0])]]
    else:
        degrees = [[(a[i], b[d - i]) for i in range(max(0, d - len(b) + 1), min(d + 1, len(a)))]
                   for d in range(min(order, len(a) + len(b) - 1))]
    out = []
    for pairs in degrees:
        if pointwise:
            row = list(map(mul, *pairs[0]))
            for ra, rb in pairs[1:]:
                row = list(map(add, row, map(mul, ra, rb)))
        else:
            row = [0] * (cap + 1)
            for ra, nonzero in pairs:
                for m, x in enumerate(ra):
                    if x:
                        for n, y in nonzero:
                            if m + n > cap:
                                break
                            row[m + n] += x * y
        out.append(row)
    return out


def _index_weight(t: Tree) -> int:
    return sum(k for _, _, k in t.edges)


# the budget of `_walks`, in charged bits: 2^23, 1 MiB
WALK_BITS = 1 << 23

_walks = BoundedTable(WALK_BITS)
walk_info = _walks.info


def _walk(t: Tree, us: tuple, order: int, cap: int, walk) -> tuple:
    """(L, rows) of the stored walk of `t` from the vertices `us` at t-order
    `order` if its cap is at least `cap`, else of `walk(cap, L)`, which
    replaces it; L = lcm(1..cap).

    `_walks` keys a walk by (root, black, white, edges, us, order) and
    stores (cap, L, rows), charged the bit lengths of L and of every int in
    its rows, plus one 64-bit word per int and per edge of its key, so rows
    of small ints and keys of big trees are not free.
    """
    key = (t.root, t.black, t.white, t.edges, us, order)
    entry = _walks.get(key)
    if entry is not None and cap <= entry[0]:
        return entry[1], entry[2]
    L = lcm(*range(1, cap + 1))
    rows = walk(cap, L)
    bits = L.bit_length() + 64 * (len(t.edges) + sum(map(len, rows)))
    bits += sum(sum(map(int.bit_length, r)) for r in rows)
    _walks.put(key, (cap, L, rows), bits)
    return L, rows


def zeta_tree(t: Tree, M: int) -> object:
    """Tree sum over black tuples (m_v) >= 1 with total M, exact rational."""
    if M < len(t.black):  # no such tuple
        return Rat(0)
    L, rows = _walk(t, (), 1, M, lambda cap, L: _tree_rows(t, t.root, t.black, cap, L, 1))
    return Rat(rows[0][M], L ** _index_weight(t))


def zeta_tree_u(t: Tree, u: int, M: int, order: int) -> TSeries:
    """The u-shifted tree sum as a truncated series in t.

    m_u is forced to the negative of the others' total (which stays below M);
    each edge factor whose summand set contains u becomes (base + t)^-k,
    expanded exactly to the requested order.
    """
    if u not in t.black:
        raise UnknownVertex(f"{u} is not a black vertex")
    return _shifted_sum(t, (u,), M, order)


def zeta_shat_tree(t: Tree, M: int, order: int) -> TSeries:
    """Sum of the u-shifted tree sums over all black vertices."""
    return _shifted_sum(t, tuple(sorted(t.black)), M, order)


def _shifted_sum(t: Tree, us: tuple, M: int, order: int) -> TSeries:
    """Sum of zeta_tree_u over the black vertices `us`, reduced once."""
    empty = TSeries([Rat(0)] * order, order)  # also rejects order < 1
    # the B - 1 black values besides m_u are >= 1 and their total is < M
    if M < max(2, len(t.black)):
        return empty

    def walk(cap: int, L: int) -> list:
        # by t-degree d, entry n: the numerator of the sum over totals 1..n
        totals = [[0] * (cap + 1) for _ in range(order)]
        for u in us:
            for d, r in enumerate(_tree_rows(t, u, t.black - {u}, cap, L, order)):
                totals[d] = list(map(add, totals[d], r))
        return [list(accumulate(r[1:], initial=0)) for r in totals]

    L, prefix = _walk(t, us, order, M - 1, walk)
    K = _index_weight(t)
    return TSeries([Rat(p[M - 1], L ** (K + d)) for d, p in enumerate(prefix)], order)


def z_m_eval(a: HElem, M: int) -> object:
    """Linear extension of the harmonic sums over the z-basis.

    Each term's numerator over L^wt(k) is raised to the common L^W, W the
    largest weight, and multiplied by a's integer numerator of the word, so
    the sum runs in integers and one ``Rat`` is built at the end, over a's
    denominator times L^W.
    """
    W = max(map(len, a._terms), default=0)  # a z-word's length is its weight
    L = lcm(*range(1, M)) if W else 1  # as in zeta_index, weight 0 needs no L
    total = 0
    for w, c in a._terms.items():
        total += c * _zeta_numerator(z_decompose(w), M) * L ** (W - len(w))
    return Rat(total, a._den * L**W)


def z_m_series(s: TSeries, M: int) -> TSeries:
    return s.map(lambda e: z_m_eval(e, M))


def z_shat(a: HElem, M: int, order: int) -> TSeries:
    """Evaluation of the symmetrized element: harmonic sums of phi_hat(a)."""
    from .symmetrize import phi_hat  # the one oracle that needs the word map

    return z_m_series(phi_hat(a, order), M)

"""Brute-force reference oracles, kept for differential tests only.

These enumerate every increasing index tuple or every composition of M and
add exact rationals term by term.  The compositions come from cut points
(``positive_compositions``), not from the library's ``bumps``, so the
references share no enumerator with the library.  They are exponential in
the depth or in the number of black vertices, and independent of the dynamic
programs in ``zetaforest.zeta`` that they check.  ``z_m_eval`` adds one
``Rat`` per term, where the library sums integer numerators.
``symmetrization_reference`` rebuilds every re-rooted tree of the t-adic
tree map from scratch, with weights from ``math.comb``, independent of the
shared walk in ``zetaforest.trees`` that it checks and of ``bumps``.
``naive_shuffle`` and ``naive_harmonic`` choose positions, not prefixes, as the word kernel does.
``letter_phi_hat`` expands the word map letter by letter with
``naive_shuffle``, where ``zetaforest.symmetrize`` goes through z-indices
and ``bumps``.  The ``dict_*`` functions redo the arithmetic of word
combinations on plain dicts of ``Fraction``, one term at a time, where
``zetaforest.combo`` keeps integer numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, prod
from typing import Iterator

from zetaforest.errors import UnknownVertex
from zetaforest.indices import Tuple_
from zetaforest.rationals import Rat
from zetaforest.series import TSeries
from zetaforest.trees import Tree
from zetaforest.words import HElem, word_from_index, z_decompose


def positive_compositions(total: int, parts: int) -> Iterator[Tuple_]:
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    # bars-and-stars via combinations of cut points
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts:
            out.append(c - prev)
            prev = c
        out.append(total - prev)
        yield tuple(out)


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


def z_m_eval(a: HElem, M: int) -> object:
    """Linear extension of ``zeta_index`` over the z-basis, term by term."""
    total = Rat(0)
    for w, c in a.terms():
        total += c * zeta_index(z_decompose(w), M)
    return total


@lru_cache(maxsize=None)
def _neg_power_coeffs(a, k: int, order: int) -> tuple:
    """Coefficients of (a + t)^-k to the order: (-1)^l C(k+l-1, l) a^(-k-l)."""
    if k == 0:
        return (Rat(1),) + (Rat(0),) * (order - 1)
    inv = Rat(1) / Rat(a)
    out = []
    c = inv**k
    for l in range(order):
        out.append((-1 if l % 2 else 1) * comb(k + l - 1, l) * c)
        c *= inv
    return tuple(out)


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
                assert base != 0, f"zero base on an edge of {t.key}"  # leaves are black
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


def symmetrization_reference(t: Tree, order: int) -> list:
    """Every term of the t-adic tree map as (degree, coefficient, key, root,
    edges), one re-rooted tree built afresh per term.

    For each black v, with ks the indices of the path from v up to the root,
    and each bump vector l with wt(l) < order, the tree with the path's
    indices raised to ks + l is rebuilt with `Tree.build` at root v and keyed
    by a fresh canonical walk.  Its weight (-1)^wt(ks) prod C(k_i + l_i - 1,
    l_i), a factor 1 where l_i = 0, is computed here, not read from `bumps`;
    zero weights (l_i > 0 on a 0-edge) are dropped.  The l of weight d are
    the compositions of d + depth into depth positive parts, less 1 each.
    """
    out = []
    for v in sorted(t.black):
        path = [v]
        while t.parent[path[-1]] is not None:
            path.append(t.parent[path[-1]])
        steps = [frozenset(e) for e in zip(path, path[1:])]
        ks = tuple(t.adj[a][b] for a, b in zip(path, path[1:]))
        for d in range(order):
            for parts in positive_compositions(d + len(ks), len(ks)):
                ls = [part - 1 for part in parts]
                c = (-1) ** sum(ks) * prod(comb(k + l - 1, l) if l else 1 for k, l in zip(ks, ls))
                if not c:
                    continue
                raised = {step: k + l for step, k, l in zip(steps, ks, ls)}
                edges = [(a, b, raised.get(frozenset((a, b)), k)) for a, b, k in t.edges]
                s = Tree.build(v, t.black, t.white, edges)
                out.append((d, c, s.key, s.root, s.edges))
    return out


def naive_shuffle(u, v):
    """Independent oracle: choose the positions of u among len(u)+len(v) slots."""
    out = {}
    n = len(u) + len(v)
    for posns in combinations(range(n), len(u)):
        w = [None] * n
        for c, p in zip(u, posns):
            w[p] = c
        rest = iter(v)
        w = "".join(next(rest) if c is None else c for c in w)
        out[w] = out.get(w, 0) + 1
    return out


def naive_harmonic(k, l):
    """Independent oracle: pairs of order-preserving position choices covering
    1..n; shared positions add their entries."""
    out = {}
    for n in range(max(len(k), len(l)), len(k) + len(l) + 1):
        for pk in combinations(range(n), len(k)):
            for pl in combinations(range(n), len(l)):
                if set(pk) | set(pl) != set(range(n)):
                    continue
                idx = [0] * n
                for e, p in zip(k, pk):
                    idx[p] += e
                for e, p in zip(l, pl):
                    idx[p] += e
                idx = tuple(idx)
                out[idx] = out.get(idx, 0) + 1
    return out


def naive_harmonic_words(u: str, v: str) -> dict:
    """`naive_harmonic` of two y-initial words, as a dict of words."""
    table = naive_harmonic(z_decompose(u), z_decompose(v))
    return {word_from_index(k): m for k, m in table.items()}


def _nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def fraction_dict(a: HElem) -> dict:
    """The terms of a word combination, each coefficient a ``Fraction``."""
    return {w: Fraction(c) for w, c in a.terms()}


def dict_sum(*scaled: tuple) -> dict:
    """The sum of s * d over the (s, d) pairs, d a dict of rationals, term
    by term in ``Fraction``; zero terms dropped."""
    out: dict = {}
    for s, d in scaled:
        for k, c in d.items():
            out[k] = out.get(k, 0) + Fraction(s) * c
    return _nonzero(out)


def dict_product(a: dict, b: dict, product) -> dict:
    """`product(u, v)`, a dict of word multiplicities, extended bilinearly
    to dicts of rationals, term by term in ``Fraction``."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, m in product(u, v).items():
                out[w] = out.get(w, 0) + Fraction(cu) * cv * m
    return _nonzero(out)


def letter_phi_hat(w: str, order: int) -> list:
    """phi_hat of the y-initial word w, letter by letter, from

        phi_hat(w) = w - sum over w = h y g of h sh y (S(g) sh sum_{l<N} t^l x^l)

    with S(g) = (-1)^|g| reverse(g) and both shuffles by `naive_shuffle`.
    One dict of integer coefficients per t-degree l < `order`, degree l
    coming from the term t^l x^l.  It reads no z-index, binomial or bump."""
    rows: list[dict] = [{} for _ in range(order)]
    rows[0][w] = 1
    for i in range(len(w)):
        if w[i] != "y":
            continue
        h, g = w[:i], w[i + 1 :]
        sign = -1 if len(g) % 2 else 1
        for l, row in enumerate(rows):
            for v, m in naive_shuffle(g[::-1], "x" * l).items():
                for u, n in naive_shuffle(h, "y" + v).items():
                    row[u] = row.get(u, 0) - sign * m * n
    return [_nonzero(row) for row in rows]


def dict_phi_hat(a: dict, order: int) -> list:
    """phi_hat extended linearly over a dict of rationals: each word's image,
    `letter_phi_hat` of the word, weighted and summed term by term in
    ``Fraction``.  One dict per t-degree."""
    rows: list[dict] = [{} for _ in range(order)]
    for w, c in a.items():
        for row, image in zip(rows, letter_phi_hat(w, order)):
            for v, m in image.items():
                row[v] = row.get(v, 0) + Fraction(c) * m
    return [_nonzero(row) for row in rows]

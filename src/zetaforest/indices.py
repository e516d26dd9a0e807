"""Tuples of non-negative integers and their componentwise combinatorics.

An *index* is a tuple whose entries are all positive; the empty tuple is the
empty index.  Weight is the entry sum, depth the length.

`bumps` is the one t-adic expansion: every map that raises indices by a bump
vector, with its binomial weight, sign and t-degree, reads all three from it.
It is also the one index enumerator: the indices of depth d are (1,) * d
raised by every bump vector, each with weight 1, so `all_indices` reads them
from it.
"""

from __future__ import annotations

import sys
from math import comb, prod
from typing import Iterator

from .errors import BadIndex, BadOrder

Tuple_ = tuple[int, ...]


def weight(k: Tuple_) -> int:
    return sum(k)


def check_index(k: Tuple_) -> Tuple_:
    """k as a tuple; its entries must be ``int``s (``bool`` excluded),
    positive and at most sys.maxsize, past which no word or range of that
    length can be built.  The empty tuple qualifies."""
    if not all(type(e) is int and 0 < e <= sys.maxsize for e in k):
        if any(type(e) is not int for e in k):
            raise BadIndex(f"index entries must be ints: {k}")
        if min(k) < 1:
            raise BadIndex(f"index entries must be positive: {k}")
        raise BadIndex(f"index entries must be <= {sys.maxsize}: {k}")
    return tuple(k)


def bumps(ks: Tuple_, order: int) -> Iterator[tuple[Tuple_, int, int]]:
    """The expansion of prod_i (t - a_i)^-k_i below t^order, term by term.

    Since (t - a)^-k = (-1)^k sum_l C(k + l - 1, l) a^(-k-l) t^l, each bump
    vector l >= 0 with wt(l) < order and a nonzero weight
    b(ks; l) = prod C(k_i + l_i - 1, l_i) yields the bumped index ks + l,
    its t-degree wt(l) and its signed weight (-1)^wt(ks) b(ks; l), in
    lexicographic order of l.

    An entry k_i = 0 allows only l_i = 0, as C(l - 1, l) = 0 for l > 0.  An
    odometer, not a recursion, so any depth works, at O(depth) per step.
    """
    if order < 1:
        raise BadOrder(f"t-order must be >= 1, got {order}")
    if min(ks, default=0) < 0:
        raise BadIndex(f"entries must be non-negative: {ks}")
    base = weight(ks)
    sign = -1 if base % 2 else 1
    free = [i for i, k in enumerate(ks) if k]  # the positions that may be bumped
    d = len(ks)
    bumped, facs = list(ks), [1] * d
    degree = j = 0  # free[j]: the position bumped last, the last bumped one
    while True:
        yield tuple(bumped), degree, sign * prod(facs)
        # the successor bumps the last position with room and clears the rest
        j = len(free) - 1 if degree < order - 1 else j - 1
        if j < 0:
            return
        p = free[j]
        bumped[p] += 1
        facs[p] = comb(bumped[p] - 1, bumped[p] - ks[p])
        bumped[p + 1 :], facs[p + 1 :] = ks[p + 1 :], [1] * (d - p - 1)
        degree = sum(bumped) - base


def all_indices(max_weight: int) -> list[Tuple_]:
    """Every index of weight at most `max_weight`, ordered by (weight, depth,
    entries): for each depth d, the bumps of (1,) * d below t^(max_weight -
    d + 1), in lexicographic order, then a stable sort by (weight, depth)."""
    out = [ks for d in range(max_weight + 1) for ks, _, _ in bumps((1,) * d, max_weight - d + 1)]
    return sorted(out, key=lambda k: (weight(k), len(k)))

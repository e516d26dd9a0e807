"""The t-adic symmetrization map on the y-initial word algebra.

For a z-basis word with index k = (k_1, ..., k_r) of depth r the image is

    phi_hat(z_k) = sum_{i=0..r} (-1)^wt(tail) z_head sh
                   sum_l b(tail; l) z_reverse(tail + l) t^wt(l)

with (head, tail) = (k_[i], k^[i]) and l running over non-negative vectors
of the tail's depth.  Truncation at order N keeps exactly the l with
wt(l) <= N-1, which is exact per coefficient since each l contributes only
in degree wt(l).  phi is the constant term (t = 0).
"""

from __future__ import annotations

from .indices import bumps
from .series import TSeries
from .table import memo
from .words import HElem, Word, shuffle, z_decompose


@memo("phi_hat_rows")
def _phi_hat_index(w: Word, order: int) -> TSeries:
    k = z_decompose(w)
    rows: list[dict] = [{} for _ in range(order)]
    for i in range(len(k) + 1):
        head = HElem.from_index(k[:i])
        for bumped, d, c in bumps(k[i:], order):
            shuffle(head, HElem.from_index(bumped[::-1])).add_into(rows[d], c)
    return TSeries(map(HElem._wrap, rows), order)


def phi_hat(a: HElem, order: int) -> TSeries:
    """Q[[t]]-linear symmetrization of a y-initial element, truncated at `order`.

    The integer images of a's numerators are summed, and each output row
    goes over a's one denominator.  So integer input gives ``int``
    coefficients, and no ``Rat`` is built here."""
    rows: list[dict] = [{} for _ in range(order)]
    # grlex order keeps the word-product cache warmer than dict order does
    for w, c in a._sorted():
        for row, image in zip(rows, _phi_hat_index(w, order).coeffs):
            image.add_into(row, c)
    den = a._den
    return TSeries([HElem._wrap(row, den) for row in rows], order)


def phi(a: HElem) -> HElem:
    """Constant term of the symmetrization (the t = 0 specialization)."""
    return phi_hat(a, 1).coeffs[0]

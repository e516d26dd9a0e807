"""Series builders that only the tests use."""

from __future__ import annotations

from typing import Iterable

from zetaforest.rationals import Rat
from zetaforest.series import TSeries


def rat_series(coeffs: Iterable, order: int) -> TSeries:
    """The series of order `order` with coefficients `coeffs`, each a ``Rat``."""
    return TSeries(tuple(Rat(c) for c in coeffs), order)

"""Truncated formal power series in the single indeterminate t.

A series of order N stores exactly N coefficients (degrees 0..N-1).  The
maps built on it are Q[[t]]-linear, so a series is only ever added,
subtracted, scaled by a scalar, or mapped coefficient by coefficient; no
product of two series is needed.  The coefficient space is pluggable: any
type with +, -, scalar * and a falsy zero works (exact rationals, word
combinations, tree combinations)."""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import BadOrder, OrderMismatch
from .rationals import Rat

DEFAULT_ORDER = 8  # the truncation order of a run that names none (`RunConfig`, the CLI)


class TSeries:
    """Coefficient vector of fixed length `order`; index = degree in t."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable, order: int):
        coeffs = tuple(coeffs)
        if order < 1:
            raise BadOrder(f"t-order must be >= 1, got {order}")
        if len(coeffs) != order:
            raise OrderMismatch(f"expected {order} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __add__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check(other)
        return TSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check(other)
        return TSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def scale(self, scalar) -> "TSeries":
        return TSeries(tuple(a * scalar for a in self.coeffs), self.order)

    def map(self, f: Callable) -> "TSeries":
        """Apply a linear map coefficientwise."""
        return TSeries(tuple(f(c) for c in self.coeffs), self.order)

    def __bool__(self) -> bool:
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __str__(self) -> str:
        parts = []
        for d, c in enumerate(self.coeffs):
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            if d == 0:
                parts.append(cs)
            elif d == 1:
                parts.append(f"{cs}*t")
            else:
                parts.append(f"{cs}*t^{d}")
        parts.append(f"O(t^{self.order})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TSeries({str(self)})"

    def to_json(self) -> dict:
        """Each coefficient through its own ``to_json()``, or as ``p/q`` when
        it is an exact rational."""
        coeffs = [c.to_json() if hasattr(c, "to_json") else str(c) for c in self.coeffs]
        return {"t_order": self.order, "coeffs": coeffs}


def rat_series(coeffs: Iterable, order: int) -> TSeries:
    return TSeries(tuple(Rat(c) for c in coeffs), order)


"""Truncated formal power series in the single indeterminate t.

A series of order N stores exactly N coefficients (degrees 0..N-1); all
arithmetic truncates at degree N.  The coefficient space is pluggable: any
type with +, unary -, scalar * and a falsy zero works (exact rationals,
word combinations, tree combinations).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb
from typing import Callable, Iterable

from .errors import OrderMismatch, PoleAtZero
from .rationals import Rat, rat_str


class TSeries:
    """Coefficient vector of fixed length `order`; index = degree in t."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable, order: int):
        coeffs = tuple(coeffs)
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, zero, order: int) -> "TSeries":
        return cls((zero,) * order, order)

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(f"order {self.order} vs {other.order}")

    def __add__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check(other)
        return TSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __neg__(self) -> "TSeries":
        return TSeries(tuple(-a for a in self.coeffs), self.order)

    def __sub__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        self._check(other)
        return TSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def scale(self, scalar) -> "TSeries":
        return TSeries(tuple(scalar * a for a in self.coeffs), self.order)

    def __rmul__(self, scalar) -> "TSeries":
        return self.scale(scalar)

    def mul(self, other: "TSeries", mul: Callable = operator.mul) -> "TSeries":
        """Cauchy product truncated at the order; `mul` combines coefficients.

        Pass e.g. the shuffle product to multiply word-coefficient series.
        A rational series times any series works with the default `mul`.
        """
        self._check(other)
        n = self.order
        out: list = [None] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b:
                    continue
                p = mul(a, b)
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        zero = other.coeffs[0] * 0
        return TSeries(tuple(zero if c is None else c for c in out), n)

    def __mul__(self, other):
        if isinstance(other, TSeries):
            return self.mul(other)
        return NotImplemented

    def map(self, f: Callable) -> "TSeries":
        """Apply a linear map coefficientwise."""
        return TSeries(tuple(f(c) for c in self.coeffs), self.order)

    def shift(self, j: int) -> "TSeries":
        """Multiply by t^j, truncating at the order."""
        if j == 0:
            return self
        if j >= self.order:
            zero = self.coeffs[0] * 0
            return TSeries.zeros(zero, self.order)
        zero = self.coeffs[0] * 0
        return TSeries((zero,) * j + self.coeffs[: self.order - j], self.order)

    def truncate(self, order: int) -> "TSeries":
        if order > self.order:
            raise OrderMismatch(f"cannot extend order {self.order} to {order}")
        return TSeries(self.coeffs[:order], order)

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

    def to_json(self, encode: Callable = rat_str) -> dict:
        return {"t_order": self.order, "coeffs": [encode(c) for c in self.coeffs]}


def rat_series(coeffs: Iterable, order: int) -> TSeries:
    return TSeries(tuple(Rat(c) for c in coeffs), order)


@lru_cache(maxsize=None)
def _neg_power_coeffs(a, k: int, order: int) -> tuple:
    if k == 0:
        return (Rat(1),) + (Rat(0),) * (order - 1)
    if not a:
        raise PoleAtZero(f"(a + t)^-{k} with a = 0")
    inv = Rat(1) / Rat(a)
    out = []
    c = inv**k
    for l in range(order):
        out.append((-1 if l % 2 else 1) * comb(k + l - 1, l) * c)
        c *= inv
    return tuple(out)


def neg_power_expand(a, k: int, order: int) -> TSeries:
    """The series of (a + t)^-k: coefficient of t^l is (-1)^l C(k+l-1,l) a^(-k-l)."""
    return TSeries(_neg_power_coeffs(Rat(a), k, order), order)

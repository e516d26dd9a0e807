"""Finite formal linear combinations with exact rational coefficients.

A combination maps keys to nonzero coefficients, each an ``int`` or a
``Rat``: a coefficient or scalar that is a plain ``int`` is kept as it is,
and any other value (``bool`` included) becomes a ``Rat``.  The word and
tree layers build only integer coefficients (multiplicities, signs,
b-binomials), so they compute in ``int`` arithmetic.  Where a rational
scalar p/q meets them, one ``Rat`` is built per output term: scalar ``*``
makes ``Rat(c*p, q)`` from each integer coefficient c, and
``symmetrize.phi_hat`` sums its images in integers and divides each output
term once.  ``int`` with ``Rat`` arithmetic is exact.  The two types
compare, hash and render alike (``3 == Rat(3)``, ``str(Rat(3)) == "3"``), so no
output depends on which one a coefficient is.  ``accumulate`` is the one
place where like terms merge and cancelled terms drop out; every sum that can
cancel goes through it.  (The shuffle kernel in ``words`` adds its positive
integer multiplicities with a plain get-and-add, because nothing there can
cancel.)  Code that builds a sum term by term fills a private dict with
``accumulate`` or ``Combo.add_into`` and wraps it once with ``_wrap``; after
that the dict belongs to the value and is never written again, so values
stay immutable.

Subclasses fix what the keys mean, words (``HElem``) or canonical tree
encodings (``TreeCombo``), and add no state of their own: a value is its
dict and nothing else, so ``+``, ``-`` and scalar ``*`` wrap the dict they
build.  Keys render as themselves, the empty key as the bare coefficient.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .rationals import Rat


def accumulate(data: dict, key, c) -> None:
    """Add c to data[key] in place, dropping the entry when it becomes zero."""
    acc = data.get(key)
    if acc is not None:
        c = acc + c
    if c:
        data[key] = c
    else:
        data.pop(key, None)


class Combo:
    """Finite formal sum of keyed terms with nonzero exact rational
    coefficients, each an ``int`` or a ``Rat``."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple[object, object]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict = {}
        for k, c in items:
            accumulate(data, k, c if type(c) is int else Rat(c))
        self._terms = data

    @classmethod
    def _wrap(cls, data: dict) -> "Combo":
        """The value around `data`, which the caller hands over and no longer touches."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls) -> "Combo":
        return cls()

    @staticmethod
    def _order(key):
        """Sort key for the display order of terms."""
        return key

    def _sorted(self) -> list:
        return sorted(self._terms.items(), key=lambda kc: self._order(kc[0]))

    def add_into(self, data: dict, scalar=1) -> None:
        """Accumulate scalar * self into the private dict `data`."""
        for k, c in self._terms.items():
            accumulate(data, k, c * scalar)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __add__(self, other: "Combo") -> "Combo":
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            accumulate(data, k, c)
        return self._wrap(data)

    def __neg__(self) -> "Combo":
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Combo") -> "Combo":
        return self + (-other)

    def __mul__(self, scalar) -> "Combo":
        if type(scalar) is int:
            return self._wrap({k: c * scalar for k, c in self._terms.items()} if scalar else {})
        s = Rat(scalar)
        p, q = s.numerator, s.denominator
        return self._wrap({k: Rat(c * p, q) if type(c) is int else c * s
                           for k, c in self._terms.items()} if p else {})

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for k, c in self._sorted():
            cs = str(c)
            if not k:
                parts.append(cs)
            elif cs == "1":
                parts.append(k)
            elif cs == "-1":
                parts.append("-" + k)
            else:
                parts.append(f"{cs}*{k}")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

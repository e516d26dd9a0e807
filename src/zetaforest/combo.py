"""Finite formal linear combinations with exact rational coefficients.

A combination holds integer numerators over one shared positive
denominator: ``_terms`` maps keys to nonzero ``int`` numerators and
``_den`` is the denominator.  The form is canonical: the gcd of ``_den``
and every numerator is 1, and the zero combination has ``_den`` 1.  So two
combinations are equal exactly when their denominators and dicts are, and
``+``, ``-``, scalar ``*`` and the word products run on integers alone,
each result reduced with one ``gcd``.  A ``Rat`` is built only at the
boundary, in ``terms()``, ``str`` and ``to_json``: the coefficients are all
``int`` when the denominator is 1, and all ``Rat`` otherwise.  The
constructor takes any coefficient ``Rat`` accepts (``bool`` and ``float``
included) and keeps its numerator and denominator as ``int``.

The word and tree layers build only integer coefficients (multiplicities,
signs, b-binomials), so their combinations have denominator 1 and their
paths never reduce.  ``accumulate`` is the one place where like terms merge
and cancelled terms drop out; every sum that can cancel goes through it.
(The shuffle kernel in ``words`` adds its positive integer multiplicities
with a plain get-and-add, because nothing there can cancel.)  Code that
builds a sum term by term fills a private dict of numerators with
``accumulate`` or ``Combo.add_into`` and wraps it once with ``_wrap``,
which reduces it over its denominator; after that the dict belongs to the
value and is never written again, so values stay immutable.

Subclasses fix what the keys mean, words (``HElem``) or canonical tree
encodings (``TreeCombo``), and add no state of their own: a value is its
dict and its denominator and nothing else, so ``+``, ``-`` and scalar ``*``
wrap what they build.  Keys render as themselves, the empty key as the bare
coefficient.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm
from typing import Iterable

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
    coefficients: integer numerators over one positive denominator."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping | Iterable[tuple[object, object]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict = {}
        others = []  # (key, numerator, denominator) of each non-int coefficient
        for k, c in items:
            if type(c) is int:
                accumulate(data, k, c)
            else:
                c = Rat(c)
                others.append((k, int(c.numerator), int(c.denominator)))
        den = lcm(*[q for _, _, q in others])
        if den != 1:
            data = {k: c * den for k, c in data.items()}
        for k, p, q in others:
            accumulate(data, k, p * (den // q))
        self._terms, self._den = _reduced(data, den) if den != 1 else (data, 1)

    @classmethod
    def _wrap(cls, data: dict, den: int = 1) -> "Combo":
        """The value data/den, which the caller hands over and no longer
        touches; `data` holds nonzero ``int`` numerators, `den` > 0."""
        out = cls.__new__(cls)
        out._terms, out._den = _reduced(data, den) if den != 1 else (data, 1)
        return out

    @classmethod
    def zero(cls) -> "Combo":
        return cls()

    @staticmethod
    def _order(key):
        """Sort key for the display order of terms."""
        return key

    def _sorted(self) -> list:
        """(key, numerator) in display order."""
        return sorted(self._terms.items(), key=lambda kc: self._order(kc[0]))

    def _items(self) -> list:
        """(key, coefficient) in display order: ``int`` over denominator 1,
        ``Rat`` otherwise."""
        den = self._den
        items = self._sorted()
        return items if den == 1 else [(k, Rat(c, den)) for k, c in items]

    def add_into(self, data: dict, scalar: int = 1) -> None:
        """Accumulate scalar * self into the private numerator dict `data`,
        whose denominator is 1; so self's must be 1 and scalar an ``int``."""
        if self._den != 1 or type(scalar) is not int:
            raise ValueError("add_into takes an integer combination and an int scalar")
        for k, c in self._terms.items():
            accumulate(data, k, c * scalar)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._den == other._den and self._terms == other._terms

    def __add__(self, other: "Combo") -> "Combo":
        if type(other) is not type(self):
            return NotImplemented
        da, db = self._den, other._den
        if da == db:
            data = dict(self._terms)
            for k, c in other._terms.items():
                accumulate(data, k, c)
            return self._wrap(data, da)
        den = lcm(da, db)
        ma, mb = den // da, den // db
        data = {k: c * ma for k, c in self._terms.items()}
        for k, c in other._terms.items():
            accumulate(data, k, c * mb)
        return self._wrap(data, den)

    def __neg__(self) -> "Combo":
        return self._wrap({k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Combo") -> "Combo":
        return self + (-other)

    def __mul__(self, scalar) -> "Combo":
        if type(scalar) is int:
            p, q = scalar, 1
        else:
            s = scalar if type(scalar) is Rat else Rat(scalar)
            p, q = int(s.numerator), int(s.denominator)
        if not p:
            return self._wrap({})
        return self._wrap({k: c * p for k, c in self._terms.items()}, self._den * q)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for k, c in self._items():
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


def _reduced(data: dict, den: int) -> tuple[dict, int]:
    """data/den with the gcd of den and every numerator divided out; the
    empty dict gets denominator 1, as gcd(den) is den."""
    g = gcd(den, *data.values())
    if g == 1:
        return data, den
    return {k: c // g for k, c in data.items()}, den // g

"""Exact rational coefficients.

All arithmetic in this package is exact.  ``Rat`` is gmpy2's ``mpq`` when
available and falls back to the stdlib ``fractions.Fraction`` otherwise.
The oracles work in plain integers and build one ``Rat`` at the end, so
``Rat`` arithmetic now happens in the coefficients of the symbolic layers
(words, symmetrization, trees).  Both render as ``p/q`` in lowest
terms with the sign on the numerator, and ``p`` when the denominator is 1.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat


def rat_str(value) -> str:
    """Render an exact rational (or int) as ``p`` or ``p/q``."""
    return str(value)

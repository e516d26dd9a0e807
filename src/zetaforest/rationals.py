"""Exact rational coefficients.

All arithmetic in this package is exact.  ``Rat`` is gmpy2's ``mpq`` when
available and falls back to the stdlib ``fractions.Fraction`` otherwise.
The oracles work in plain integers and build one ``Rat`` at the end.  The
coefficients of the symbolic layers (words, symmetrization, trees) are plain
``int``; where a non-integer scalar enters them, scalar multiplication and
``phi_hat`` still compute in ``int`` and build one ``Rat`` per output term
(see ``combo``), so ``Rat`` arithmetic happens only where a value is not an
integer.  Those ``Rat`` are built with ``numerator``, ``denominator`` and
the constructor alone, which both backends share.  Both backends
render through ``str`` as ``p/q`` in lowest terms with the sign on the
numerator, and ``p`` when the denominator is 1, as an ``int`` does.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat


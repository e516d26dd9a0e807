"""Exact rational coefficients.

``Rat`` is the stdlib ``fractions.Fraction``, and all arithmetic in this
package is exact.  It is the boundary type: the oracles work in plain
integers and build one ``Rat`` at the end, and a linear combination holds
integer numerators over one denominator (see ``combo``) and builds a
``Rat`` per term only when its terms are read, rendered or written as JSON,
and only when that denominator is not 1.  ``str`` renders a ``Rat`` as
``p/q`` in lowest terms with the sign on the numerator, and as ``p`` when
the denominator is 1, as an ``int`` renders.
"""

from fractions import Fraction as Rat

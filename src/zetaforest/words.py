"""The free algebra on the letters x, y with exact rational coefficients.

Words are plain strings over the alphabet ``{"x", "y"}``; the empty string is
the unit word and renders as ``1``.  ``HElem`` is a finite linear combination
of words, a ``Combo`` keyed by word.  The y-initial subspace (every word empty
or starting with ``y``) has the z-basis ``z_k = y x^(k-1)``, indexed by tuples
of positive integers; ``word_from_index`` and ``z_decompose`` convert between
the two encodings.  The shuffle and the harmonic product are one bilinear
loop over one memo of word pairs in `table`; only a harmonic miss decodes
z-indices.

All values are immutable by convention: every operation returns fresh
objects and never mutates its inputs.
"""

from __future__ import annotations

from typing import Iterable

from .combo import Combo, accumulate
from .errors import BadIndex, NotInH1
from .indices import Tuple_, check_index
from .table import memo

Word = str

Y = "y"


def word_from_index(k: Tuple_) -> Word:
    """The z-word z_{k_1} ... z_{k_r}; the empty index gives the unit word."""
    check_index(k)
    return "".join(["y" + "x" * (e - 1) for e in k])


def z_decompose(w: Word) -> Tuple_:
    """Inverse of word_from_index; raises NotInH1 on an x-initial word."""
    if not w:
        return ()
    if w[0] != Y:
        raise NotInH1(f"word {w!r} does not start with y")
    bad = w.strip("xy")  # starts at the first letter outside the alphabet
    if bad:
        raise BadIndex(f"letter {bad[0]!r} is not in the alphabet")
    return tuple([len(run) + 1 for run in w[1:].split(Y)])


def _grlex(w: Word) -> tuple[int, Word]:
    return (len(w), w)


class HElem(Combo):
    """Finite formal sum of words with nonzero exact rational coefficients."""

    __slots__ = ()

    _order = staticmethod(_grlex)

    @classmethod
    def unit(cls) -> "HElem":
        return cls({"": 1})

    @classmethod
    def word(cls, w: Word, coeff=1) -> "HElem":
        return cls({w: coeff})

    @classmethod
    def from_index(cls, k: Tuple_) -> "HElem":
        return cls.word(word_from_index(k))

    def terms(self) -> list[tuple[Word, object]]:
        """Term list in graded lexicographic word order (x < y)."""
        return self._items()

    @property
    def is_h1(self) -> bool:
        return all(not w or w[0] == Y for w in self._terms)

    def concat(self, other: "HElem") -> "HElem":
        """Bilinear concatenation product."""
        data: dict[Word, int] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                accumulate(data, wa + wb, ca * cb)
        return HElem._wrap(data, self._den * other._den)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": str(c), "word": w if w else "1"}
                for w, c in self.terms()
            ]
        }


def _quasi_shuffle(u, v, merge: bool) -> dict:
    """Multiplicities of the shuffle of the letter sequences u and v, or of
    their quasi-shuffle if `merge` (letters are then numbers, in tuples).

    Cell (i, j) of the table over prefixes holds the product of u[:i] and
    v[:j]: cell(i-1, j) with u_i appended, plus cell(i, j-1) with v_j
    appended, plus cell(i-1, j-1) with u_i + v_j appended if `merge`.  Rows
    run over the shorter sequence, and only two rows are alive.  The
    multiplicities are positive, so they add with a plain get-and-add.
    """
    if len(u) < len(v):
        u, v = v, u
    prev = [{v[:j]: 1} for j in range(len(v) + 1)]
    for i in range(len(u)):
        a = u[i:i + 1]
        row = [{u[:i + 1]: 1}]
        for j in range(len(v)):
            b = v[j:j + 1]
            cell = {w + a: c for w, c in prev[j + 1].items()}
            for w, c in row[j].items():
                w += b
                cell[w] = cell.get(w, 0) + c
            if merge:
                ab = (u[i] + v[j],)
                for w, c in prev[j].items():
                    w += ab
                    cell[w] = cell.get(w, 0) + c
            row.append(cell)
        prev = row
    return prev[-1]


@memo("word_products")
def _word_product(u: Word, v: Word, merge: bool) -> dict:
    """Multiplicities of the shuffle, or if `merge` the harmonic product, of
    the words u >= v: both are commutative, so (u, v) and (v, u) share one
    entry.  A harmonic miss runs the kernel on the z-indices and encodes its
    result as words once."""
    if not merge:
        return _quasi_shuffle(u, v, False)
    table = _quasi_shuffle(z_decompose(u), z_decompose(v), True)
    return {word_from_index(k): c for k, c in table.items()}


def _bilinear(a: HElem, b: HElem, merge: bool) -> HElem:
    """`_word_product` extended bilinearly on the numerators, over the
    product of the denominators; the empty word is the unit."""
    data: dict[Word, int] = {}
    for wa, ca in a._terms.items():
        for wb, cb in b._terms.items():
            c = ca * cb
            pair = _word_product(wa, wb, merge) if wa >= wb else _word_product(wb, wa, merge)
            for w, mult in pair.items():
                accumulate(data, w, c * mult)
    return HElem._wrap(data, a._den * b._den)


def shuffle(a: HElem, b: HElem) -> HElem:
    """Shuffle product, extended bilinearly; the empty word is the unit."""
    return _bilinear(a, b, False)


def shuffle_all(elems: Iterable[HElem]) -> HElem:
    out = HElem.unit()
    for e in elems:
        out = shuffle(out, e)
    return out


def harmonic(a: HElem, b: HElem) -> HElem:
    """Quasi-shuffle product on the z-basis; both operands must be y-initial."""
    if not (a.is_h1 and b.is_h1):
        raise NotInH1("the harmonic product takes y-initial operands only")
    return _bilinear(a, b, True)


def right_mul_x_pow(a: HElem, k: int) -> HElem:
    """Concatenate x^k on the right of every word; k = 0 is the identity."""
    if k < 0:
        raise BadIndex("x-power must be non-negative")
    if k == 0:
        return a
    return a.concat(HElem.word("x" * k))

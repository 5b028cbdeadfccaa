"""Symmetric products of spin matrices and generalized Kronecker deltas.

The symmetric product {S_{i_1} ... S_{i_n}} is the sum over all n!
orderings of the factors, repeats counted (so {S_i S_i} = 2 S_i^2).  It
depends only on the multiset of indices, which is what makes memoized
evaluation over whole tuple spaces cheap.

One engine, ``SymSession``, builds the products from an algebra's unit and
right multiplication by a generator: for matrices here, and for ordered
words in ``rewrite``.  Values are rows, integer numerators over one
common denominator keyed by cell; a matrix row has cells (row, col, key),
a polynomial's row cells (word, key).  ``Matrix`` of ``Scalar`` entries
stays the public type and the slow reference the tests compare against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from typing import Callable, Hashable, Iterable, Sequence

from .scalar import SCALAR_ZERO, Radical, Scalar
from .spinrep import Matrix, SpinRep

Axis = int  # one of 1, 2, 3


@dataclass(frozen=True)
class IndexMultiset:
    """Multiplicities of the axes 1, 2, 3; order is the total count."""

    counts: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.counts) != 3 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be three nonnegative integers")

    @classmethod
    def from_tuple(cls, idx: Iterable[Axis]) -> "IndexMultiset":
        counts = [0, 0, 0]
        for a in idx:
            if a not in (1, 2, 3):
                raise ValueError(f"axis {a} not in {{1, 2, 3}}")
            counts[a - 1] += 1
        return cls(tuple(counts))

    @property
    def order(self) -> int:
        return sum(self.counts)

    def letters(self) -> tuple[Axis, ...]:
        return tuple(
            axis for axis in (1, 2, 3) for _ in range(self.counts[axis - 1])
        )


def all_multisets(order: int) -> list[IndexMultiset]:
    """Every IndexMultiset of the given order, in lexicographic letter order."""
    out = []
    for c1 in range(order, -1, -1):
        for c2 in range(order - c1, -1, -1):
            out.append(IndexMultiset((c1, c2, order - c1 - c2)))
    return out


Cell = tuple[int, int, int]  # (row, col, key); key = 2*m + imag stands for i^imag sqrt(m)
Row = tuple[dict[Hashable, int], int]  # (terms, den): the sum of n * cell / den
Times = Callable[[Row, Axis], Row]


@lru_cache(maxsize=None)
def key_product(k1: int, k2: int) -> tuple[int, int]:
    """(factor, key) with basis(k1) * basis(k2) = factor * basis(key):
    sqrt(m1) sqrt(m2) = g sqrt(m1 m2 / g^2) for g = gcd(m1, m2), and i i = -1."""
    m1, m2 = k1 >> 1, k2 >> 1
    g = gcd(m1, m2)
    return (-g if k1 & k2 & 1 else g), 2 * (m1 // g) * (m2 // g) + ((k1 ^ k2) & 1)


def scalar_keys(c: Scalar) -> dict[int, Fraction]:
    """The rational coordinates of c by basis key 2*m + imag."""
    return {2 * m + (part == "im"): q for (part, m), q in c.components().items()}


def reduce_terms(terms: dict[Hashable, int], den: int) -> Row:
    """Integer numerators over den with the zeros dropped and the gcd of
    den and the numerators divided out, so equal values have equal fields."""
    terms = {t: n for t, n in terms.items() if n}
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {t: n // g for t, n in terms.items()}, den // g


def combine_terms(
    parts: Iterable[tuple[Fraction | int, dict[Hashable, int], int]]
) -> Row:
    """The linear combination sum of w * terms / den over (w, terms, den)
    parts with rational w, as integer numerators over one common
    denominator (``reduce_terms``).  Only the numerators of equal cells
    meet, so the cells may be any keys: matrix cells here, word cells for
    the rewriter."""
    parts = list(parts)
    den = lcm(*(w.denominator * d for w, _, d in parts))
    out: dict[Hashable, int] = {}
    for w, terms, d in parts:
        f = w.numerator * (den // (w.denominator * d))
        for t, n in terms.items():
            out[t] = out.get(t, 0) + f * n
    return reduce_terms(out, den)


def fraction_row(coords: dict[Hashable, Fraction]) -> Row:
    """Rational coordinates by cell as a row (``reduce_terms``)."""
    den = lcm(*(q.denominator for q in coords.values()))
    return reduce_terms({t: q.numerator * (den // q.denominator) for t, q in coords.items()}, den)


def times_key(terms: dict[Hashable, int], key: int) -> dict[Hashable, int]:
    """terms times the basis scalar of key, for cells that end in their
    key; distinct cells stay distinct."""
    out = {}
    for t, n in terms.items():
        f, k = key_product(key, t[-1])
        out[t[:-1] + (k,)] = f * n
    return out


def row_scalars(row: Row) -> dict[tuple, Scalar]:
    """The Scalar at each position of a row whose cells are
    (*position, key): (row, col) for a matrix, (word,) for a polynomial."""
    terms, den = row
    parts: dict[tuple, tuple[dict, dict]] = {}
    for t, n in terms.items():
        parts.setdefault(t[:-1], ({}, {}))[t[-1] & 1][t[-1] >> 1] = Fraction(n, den)
    return {pos: Scalar._make(Radical._make(re), Radical._make(im)) for pos, (re, im) in parts.items()}


def matrix_row(mat: Matrix) -> Row:
    """The matrix as cells (row, col, key) of integer numerators over one
    reduced denominator; key = 2*m + imag stands for i^imag sqrt(m), m
    squarefree.  Equal matrices give equal rows."""
    return fraction_row({
        (r, c, key): q
        for r, row in enumerate(mat.rows)
        for c, a in enumerate(row)
        for key, q in scalar_keys(a).items()
    })


def row_matrix(dim: int, row: Row) -> Matrix:
    """The dim x dim Matrix of a matrix row."""
    rows = [[SCALAR_ZERO] * dim for _ in range(dim)]
    for (r, c), s in row_scalars(row).items():
        rows[r][c] = s
    return Matrix(rows)


def row_matmul(a: Row, b: Row) -> Row:
    """The matrix product of two matrix rows."""
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for (k, c, key), n in b[0].items():
        by_row.setdefault(k, []).append((c, key, n))
    out: dict[Cell, int] = {}
    for (r, k, k1), n1 in a[0].items():
        for c, k2, n2 in by_row.get(k, ()):
            f, key = key_product(k1, k2)
            t = (r, c, key)
            out[t] = out.get(t, 0) + f * n1 * n2
    return reduce_terms(out, a[1] * b[1])


def first_nonzero_entry(row: Row) -> tuple[int, int, Scalar] | None:
    """The first nonzero cell of a matrix row in row-major order, as
    Matrix.first_nonzero_entry gives it."""
    terms, den = row
    if not terms:
        return None
    r, c, _ = min(terms)
    return r, c, row_scalars(({t: n for t, n in terms.items() if t[:2] == (r, c)}, den))[(r, c)]


def matrix_algebra(rep: SpinRep) -> tuple[Row, Times]:
    """The algebra of rep's matrices as rows: the identity row, and right
    multiplication of a row by S_a as a product with the generator's row."""
    gens = tuple(matrix_row(rep.matrix(axis)) for axis in (1, 2, 3))

    def times(row: Row, a: Axis) -> Row:
        return row_matmul(row, gens[a - 1])

    return ({(k, k, 2): 1 for k in range(rep.dim)}, 1), times  # key 2: sqrt(1)


class SymSession:
    """Memoized symmetric products in one algebra.

    The memo maps axis counts c to {c} as a row, built from the algebra's
    unit and right multiplication of a row by S_a alone:
    {c} = sum_a c_a {c - e_a} S_a.  ``SymSession(rep)`` works in the
    matrices of rep (``matrix_algebra``); the rewriter passes the unit and
    ``times`` of its ordered words instead.

    The cache is keyed on the index multiset, so exhaustive verification
    over all D-tuples costs O(#multisets) products instead of O(3^D * D!).
    ``sym``, for sessions on a representation, converts a product to a
    Matrix on first request and returns that same object afterwards.
    Sessions are single-threaded.
    """

    def __init__(self, rep: SpinRep | None = None, unit: Row | None = None, times: Times | None = None):
        if rep is not None:
            unit, times = matrix_algebra(rep)
        self.rep = rep
        self._times = times
        self._rows: dict[tuple[int, int, int], Row] = {(0, 0, 0): unit}
        self._matrices: dict[IndexMultiset, Matrix] = {}

    def sym(self, idx: IndexMultiset | Sequence[Axis]) -> Matrix:
        if not isinstance(idx, IndexMultiset):
            idx = IndexMultiset.from_tuple(idx)
        mat = self._matrices.get(idx)
        if mat is None:
            mat = self._matrices[idx] = row_matrix(self.rep.dim, self.sym_int(idx.counts))
        return mat

    def sym_int(self, counts: tuple[int, int, int]) -> Row:
        """The symmetric product for these axis counts, as a row."""
        rows = self._rows
        if counts not in rows:
            # {n indices} = sum over positions j of {rest} * S_{i_j}; positions
            # carrying equal letters contribute identical terms, hence the
            # multiplicity factors.  In product order every c - e_a of the
            # box c <= counts comes before c, so no recursion is needed.
            for box in itertools.product(*(range(c + 1) for c in counts)):
                if box not in rows:
                    rows[box] = combine_terms((c, *self._times(rows[box[:a] + (c - 1,) + box[a + 1 :]], a + 1))
                                              for a, c in enumerate(box) if c)
        return rows[counts]


def pairing_count(n: int) -> int:
    """Number of perfect pairings of 2n elements: 1*3*5*...*(2n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def delta_weights(counts: tuple[int, int, int], p: int) -> dict[IndexMultiset, int]:
    """Generalized deltas of a tuple with these axis counts, summed over
    all 2p-subsets of positions, by the multiset left out: the C(c_a, e_a)
    ways to take e_a indices of each axis a (all e_a even) leave c - e and
    pair up in prod_a (e_a - 1)!! ways."""
    out: dict[IndexMultiset, int] = {}
    for e1 in range(0, min(counts[0], 2 * p) + 1, 2):
        for e2 in range(0, min(counts[1], 2 * p - e1) + 1, 2):
            e = (e1, e2, 2 * p - e1 - e2)
            if e[2] <= counts[2]:
                rest = IndexMultiset(tuple(c - k for c, k in zip(counts, e)))
                out[rest] = prod(comb(c, k) * pairing_count(k // 2) for c, k in zip(counts, e))
    return out


def gen_delta(idx: Sequence[Axis]) -> int:
    """Generalized Kronecker delta: the number of perfect pairings of the
    index tuple whose pairs all carry equal axes.

    Enumerates pairings recursively (first element paired with each
    remaining one) -- deliberately oracle-grade simple: delta_weights' oracle.
    """
    if len(idx) % 2:
        raise ValueError("generalized delta needs an even number of indices")
    idx = tuple(idx)

    def count(rest: tuple[Axis, ...]) -> int:
        if not rest:
            return 1
        first, tail = rest[0], rest[1:]
        total = 0
        for j, other in enumerate(tail):
            if other == first:
                total += count(tail[:j] + tail[j + 1 :])
        return total

    return count(idx)


def epsilon(i: Axis, j: Axis, k: Axis) -> int:
    """Completely antisymmetric symbol with epsilon(1, 2, 3) = +1."""
    if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (i, j, k) in ((3, 2, 1), (1, 3, 2), (2, 1, 3)):
        return -1
    return 0

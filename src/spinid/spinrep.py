"""Exact D-dimensional spin matrices and the matrix rows under them.

The generators use the standard ladder construction in the basis where S_3
is diagonal with descending eigenvalues s, s-1, ..., -s.  Every entry is
exact, so the commutation relation and the Casimir hold on the nose.

A representation holds its generators as this module's matrix rows, the
rows of ``scalar`` with cells (row, col, key), and all matrix arithmetic
runs on them.  A ``Matrix`` is a view of one such row: what a caller hands
in (``SpinRep.from_matrices``, ``conjugate_rep``) or asks for
(``SpinRep.S``, ``casimir``), wrapped and unwrapped in O(1).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from .scalar import (
    KEY_I,
    KEY_ONE,
    Record,
    Row,
    Scalar,
    UnsupportedInverseError,
    combine_terms,
    fraction_row,
    key_product,
    reduce_terms,
    render_components,
    row_components,
    row_of_scalars,
    scalar_at,
    squarefree_decompose,
    times_key,
    times_scalar,
)

Cell = tuple[int, int, int]  # (row, col, key)
Part = tuple[int, Row, int]  # (weight, row, axis)
# Multiplication as a linear combination: the parts (w, row, a) give the
# reduced row of sum w * row * S_a, with S_(-a) * row for a negative axis
# and row itself for axis 0 (``product_kernel``).
Times = Callable[[Sequence[Part]], Row]


class SingularMatrixError(ArithmeticError):
    """Exact elimination found no inverse."""


def _square(rows: Sequence[Sequence]) -> int:
    """The dimension of a square matrix's rows; ragged rows are refused."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return len(rows)


class Matrix:
    """Square matrix of exact values, held as its matrix row.  Instances
    are never mutated after construction; every operation allocates a
    fresh result."""

    __slots__ = ("dim", "row")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self.dim = _square(rows)
        self.row = row_of_scalars(((r, c), a) for r, entries in enumerate(rows) for c, a in enumerate(entries))

    @classmethod
    def _make(cls, dim: int, row: Row) -> "Matrix":
        m = object.__new__(cls)
        m.dim, m.row = dim, row
        return m

    @classmethod
    def zero(cls, dim: int) -> "Matrix":
        return cls._make(dim, ({}, 1))

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        return cls._make(dim, _unit(dim))

    @classmethod
    def from_rational_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "Matrix":
        return cls._make(_square(rows), fraction_row(
            {(r, c, KEY_ONE): Fraction(x) for r, entries in enumerate(rows) for c, x in enumerate(entries)}))

    def __getitem__(self, rc: tuple[int, int]) -> Scalar:
        return scalar_at(self.row, {tuple(rc)})

    def _check_dim(self, other: "Matrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix._make(self.dim, combine_terms([(1, *self.row), (1, *other.row)]))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c: Scalar | Fraction | int) -> "Matrix":
        if isinstance(c, Scalar):
            return Matrix._make(self.dim, times_scalar(self.row, c.row))
        return Matrix._make(self.dim, combine_terms([(c, *self.row)]))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_dim(other)
        return Matrix._make(self.dim, row_matmul(self.row, other.row))

    def dagger(self) -> "Matrix":
        terms, den = self.row
        return Matrix._make(self.dim, ({(c, r, k): -n if k & 1 else n for (r, c, k), n in terms.items()}, den))

    def trace(self) -> Scalar:
        return scalar_at(self.row, {(k, k) for k in range(self.dim)})

    def is_zero(self) -> bool:
        return not self.row[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and self.row == other.row

    def inverse(self) -> "Matrix":
        """Exact inverse by one fraction-free Gauss-Jordan elimination on the
        row's integer numerators, checked by one product M M^-1 = 1.

        With M = N / den, the rows of [N | 1] are maps (col, key) -> integer,
        so every entry is a map key -> numerator, radicals included.  Each
        column's pivot is its first nonzero entry on or below the diagonal;
        every other row r becomes p * r - f * (pivot row) for the pivot p and
        r's entry f, divided by its content (``_cross``).  That is a nonzero
        Gaussian multiple of the row that elimination over the field holds at
        the same step, so the pivots fall where they fall there.  A pivot
        must be Gaussian, since the inverse divides by it: otherwise
        UnsupportedInverseError names the value the field elimination would
        divide by.  Raises SingularMatrixError when the rank is deficient.
        """
        n, (terms, den) = self.dim, self.row
        rows: list[dict[tuple[int, int], int]] = [{(n + r, KEY_ONE): 1} for r in range(n)]
        for (r, c, key), num in terms.items():
            rows[r][c, key] = num
        origin = list(range(n))  # origin[r]: the row of N that row r started as
        keys = {KEY_ONE} | {key for _, _, key in terms}  # every key a cell has held
        for col in range(n):
            at = [{k: m for k in keys if (m := row.get((col, k)))} for row in rows]  # column col
            pivot = next((r for r in range(col, n) if at[r]), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            for seq in (rows, at, origin):
                seq[col], seq[pivot] = seq[pivot], seq[col]
            p, prow = at[col], rows[col]
            if not p.keys() <= {KEY_ONE, KEY_I}:
                # Row col is a multiple of its field counterpart, by its entry at its origin's
                # column of the inverse, where the field row holds 1.
                scale = {k: m for k in keys if (m := prow.get((n + origin[col], k)))}
                value = combine_terms(_over_gaussian({(k,): m for k, m in p.items()}, scale, Fraction(1, den)))
                raise UnsupportedInverseError(f"inverse of {Scalar._make(value)} has a radical denominator")
            for r, f in enumerate(at):
                if f and r != col:
                    rows[r] = _cross(p, rows[r], f, prow)
                    keys.update(k for _, k in rows[r])
        # Row r is now d_r (e_r | row r of N^-1 = M^-1 / den), d_r Gaussian.
        inverse = combine_terms(
            part for r, row in enumerate(rows)
            for part in _over_gaussian({(r, c - n, k): m for (c, k), m in row.items() if c >= n},
                                       {k: row.get((r, k), 0) for k in (KEY_ONE, KEY_I)}, den))
        if row_matmul(self.row, inverse) != Matrix.identity(n).row:
            raise ArithmeticError("the elimination's inverse fails M M^-1 = 1")
        return Matrix._make(n, inverse)

    def to_strings(self, latex: bool = False) -> list[list[str]]:
        """Row-major nested lists of entry strings (plain: the JSON wire form)."""
        return list(self.string_rows(latex))

    def string_rows(self, latex: bool = False) -> Iterator[list[str]]:
        """The entry strings of ``to_strings``, one matrix row at a time."""
        comps = row_components(self.row)
        for r in range(self.dim):
            yield [render_components(comps.get((r, c), []), latex=latex) for c in range(self.dim)]

    def latex(self) -> str:
        body = " \\\\\n".join(" & ".join(r) for r in self.to_strings(latex=True))
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(r) + "]" for r in self.to_strings())

    def __repr__(self) -> str:
        return f"Matrix({self.dim}x{self.dim})"


def row_matmul(a: Row, b: Row) -> Row:
    """The matrix product of two matrix rows."""
    return product_kernel((b,))([(1, a, 1)])


def product_kernel(gens: Sequence[Row]) -> Times:
    """Multiplication by the matrix rows gens on either side, axis a
    standing for S_a = gens[a - 1] and axis 0 for the unit: the parts
    (w, row, a), with integer weights w, give the row of the sum of
    w * row * S_a for a > 0, w * S_(-a) * row for a < 0 and w * row for
    a = 0.

    One loop accumulates every part's products over one common denominator
    and the sum is reduced once.  On the right, a cell (r, k, k1) of row
    meets row k of its generator through a table of (col, key, f * n2); on
    the left, a cell (k, c, k2) meets column k through a table of
    (row, key, f * n1).  A table is built the first time its (k, key) is
    met and kept with the returned function, so the inner loops make no
    ``key_product`` call.  A generator's rows are indexed on its first
    right product and its columns on its first left one (``_index``): a
    generator met on one side only, or not at all, is never indexed on the
    other."""
    right: list[tuple[dict, dict] | None] = [None] * len(gens)  # per generator: its cells by row, a table
    left: list[tuple[dict, dict] | None] = [None] * len(gens)  # per generator: its cells by column, a table
    dens = [1] + [den for _, den in gens]  # dens[abs(a)]: the unit's is 1

    def times(parts: Sequence[Part]) -> Row:
        den = 1
        for _, (_, d), a in parts:
            den = lcm(den, d * dens[abs(a)])
        out: dict[Cell, int] = {}
        for w, (terms, d), a in parts:
            s = w * (den // (d * dens[abs(a)]))
            if a > 0:
                by_row, table = right[a - 1] or _index(right, a - 1, gens[a - 1][0], 0)
                for (r, k, k1), n1 in terms.items():
                    products = table.get((k, k1))
                    if products is None:  # stored only when complete: a race at worst builds it twice
                        products = table[k, k1] = tuple(_products(k1, by_row.get(k, ())))
                    m = s * n1
                    for c, key, n in products:
                        t = (r, c, key)
                        out[t] = out.get(t, 0) + m * n
            elif a:
                by_col, table = left[-a - 1] or _index(left, -a - 1, gens[-a - 1][0], 1)
                for (k, c, k2), n2 in terms.items():
                    products = table.get((k, k2))
                    if products is None:
                        products = table[k, k2] = tuple(_products(k2, by_col.get(k, ())))
                    m = s * n2
                    for r, key, n in products:
                        t = (r, c, key)
                        out[t] = out.get(t, 0) + m * n
            else:
                for t, n in terms.items():
                    out[t] = out.get(t, 0) + s * n
        return reduce_terms(out, den)

    return times


def _products(k1: int, cells: Sequence[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """(index, key, f * n) for each cell (index, k2, n), with
    basis(k1) basis(k2) = f basis(key): one entry of a kernel's table."""
    for i, k2, n in cells:
        f, key = key_product(k1, k2)
        yield i, key, f * n


def _index(side: list, g: int, terms: dict[Cell, int], at: int) -> tuple[dict, dict]:
    """Generator g's cells by row (at = 0) or by column (at = 1), as
    (the other index, key, n), with an empty table of products; stored as
    side[g] only when complete, as the tables are."""
    by: dict[int, list[tuple[int, int, int]]] = {}
    for cell, n in terms.items():
        by.setdefault(cell[at], []).append((cell[1 - at], cell[2], n))
    side[g] = entry = (by, {})
    return entry


def _cross(p: dict[int, int], row: dict, f: dict[int, int], prow: dict) -> dict:
    """p * row - f * prow for scalars p and f (maps key -> numerator) and
    rows with cells (col, key), divided by its content, zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for w, cells in ((p, row), ({k: -m for k, m in f.items()}, prow)):
        for k1, m1 in w.items():
            for (c, k2), m2 in cells.items():
                g, key = key_product(k1, k2)
                t = c, key
                out[t] = out.get(t, 0) + g * m1 * m2
    out = {t: m for t, m in out.items() if m}
    g = gcd(*out.values())
    return {t: m // g for t, m in out.items()} if g > 1 else out


def _over_gaussian(cells: dict, z: dict[int, int], w: Fraction | int) -> list[tuple[Fraction | int, dict, int]]:
    """The ``combine_terms`` parts of w * cells / z, for cells that end in
    their key and z a nonzero Gaussian integer (a map key -> numerator):
    w * cells * conj(z) / |z|^2."""
    a, b = z.get(KEY_ONE, 0), z.get(KEY_I, 0)
    return [(w * a, cells, a * a + b * b), (-w * b, times_key(cells, KEY_I), a * a + b * b)]


def eigenvalue_list(dim: int) -> list[Fraction]:
    """Eigenvalues s, s-1, ..., -s of S_3 in descending order."""
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    s = Fraction(dim - 1, 2)
    return [s - k for k in range(dim)]


class SpinRep(Record):
    """The D x D spin matrices (S_1, S_2, S_3) as matrix rows; ``S`` as Matrices.

    Two cached properties hold what verification and discovery read of a
    representation, computed on first use and kept for its life: the
    verdict on the commutation relation (``commutes``) and the spherical
    kernel (``spherical``).  Neither is a field: equality, hashing and repr
    go by ``dim`` and ``rows`` alone, and pickling and copying leave the
    kernel out (``__getstate__``)."""

    __match_args__ = ("dim", "rows")

    def __init__(self, dim: int, rows: tuple[Row, Row, Row]) -> None:
        super().__init__(dim, rows)

    @property
    def spin(self) -> Fraction:
        return Fraction(self.dim - 1, 2)

    @cached_property
    def S(self) -> tuple[Matrix, Matrix, Matrix]:
        return tuple(Matrix._make(self.dim, row) for row in self.rows)

    @cached_property
    def commutes(self) -> bool:
        """Whether the triple satisfies the su(2) commutation relation
        (``commutation_holds``), computed on first use and kept: the
        relation is a property of the representation, so verification and
        discovery read it here.  ``from_matrices`` fills it as it builds,
        and ``conjugate_rep`` hands it on."""
        return commutation_holds(self)

    @cached_property
    def spherical(self) -> tuple[Row, Times]:
        """The identity row and one ``product_kernel`` over S_+ = S_1 + i S_2
        (axis 1), S_- = S_1 - i S_2 (axis 2), S_3 (axis 3) and S_3^2 (axis
        4), built on first use and kept: verification's commutators (axes
        +-1, +-2) and its powers of S_3 (axis 4), and discovery's ladder of
        them, fill the kernel's tables once per representation, however
        often they run.  The commutator [S_a, X] is one call,
        ``times([(1, X, -a), (-1, X, a)])``; on a ladder representation S_+
        and S_- are one off-diagonal each, so every product of them is one
        diagonal.  S_3^2 is the one product taken in building it.  A
        kernel belongs to these generators: ``conjugate_rep`` does not hand
        it on, and a pickled or copied representation builds its own."""
        s1, s2, s3 = self.rows
        i_s2 = (times_key(s2[0], KEY_I), s2[1])
        gens = (combine_terms([(1, *s1), (1, *i_s2)]), combine_terms([(1, *s1), (-1, *i_s2)]), s3,
                row_matmul(s3, s3))
        return _unit(self.dim), product_kernel(gens)

    def __getstate__(self) -> dict:
        """The state that pickling and copying carry: everything but the
        kept kernel, a closure over tables of these rows."""
        return {name: value for name, value in self.__dict__.items() if name != "spherical"}

    def matrix(self, axis: int) -> Matrix:
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2 or 3")
        return self.S[axis - 1]

    @classmethod
    def from_matrices(cls, matrices: Sequence[Matrix]) -> "SpinRep":
        """Wrap an arbitrary triple, verifying the commutation relation.

        Used for conjugated (non-Hermitian) triples; the ladder-built
        representation comes from build_generators.
        """
        s1, s2, s3 = matrices
        for mat in (s2, s3):
            mat._check_dim(s1)
        return cls(s1.dim, (s1.row, s2.row, s3.row))._require_relation()

    def _require_relation(self) -> "SpinRep":
        if not self.commutes:
            raise ValueError("matrices do not satisfy the su(2) commutation relation")
        return self


def build_generators(dim: int) -> SpinRep:
    """Standard-basis generators: S_3 = diag(m) descending, and with the
    ladder element r = sqrt(s(s+1) - m(m+1)) / 2 between m and m+1, S_1 has
    r on both off-diagonals and S_2 has -i r above and i r below."""
    s = Fraction(dim - 1, 2)
    s1, s2, s3 = {}, {}, {}  # cell -> Fraction
    for k, m in enumerate(eigenvalue_list(dim)):  # refuses dim < 1
        s3[(k, k, KEY_ONE)] = m
        if k:  # column k holds m, raised into row k - 1
            # r = sqrt(p/d) = c sqrt(sf) / d for p d = c^2 sf: basis key 2 sf,
            # and 2 sf + 1 for i sqrt(sf)
            r2 = (s * (s + 1) - m * (m + 1)) / 4
            c, sf = squarefree_decompose(r2.numerator * r2.denominator)
            q = Fraction(c, r2.denominator)
            s1[(k - 1, k, 2 * sf)] = s1[(k, k - 1, 2 * sf)] = q
            s2[(k - 1, k, 2 * sf + 1)] = -q
            s2[(k, k - 1, 2 * sf + 1)] = q
    return SpinRep(dim, (fraction_row(s1), fraction_row(s2), fraction_row(s3)))


def commutation_holds(rep: SpinRep) -> bool:
    """[S_a, S_b] = i S_c for the cyclic triples (a, b, c), checked exactly
    on matrix rows: each bracket is one fused call of right multiplication
    by the generators, S_a S_b - S_b S_a, on tables the three share."""
    gens, times = rep.rows, product_kernel(rep.rows)
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        bracket = times([(1, gens[a - 1], b), (-1, gens[b - 1], a)])
        if bracket != (times_key(gens[c - 1][0], KEY_I), gens[c - 1][1]):
            return False
    return True


def casimir(rep: SpinRep) -> Matrix:
    """S_1^2 + S_2^2 + S_3^2, one fused call of right multiplication."""
    return Matrix._make(rep.dim, product_kernel(rep.rows)([(1, g, a) for a, g in enumerate(rep.rows, start=1)]))


def is_hermitian(mat: Matrix) -> bool:
    return mat == mat.dagger()


def conjugate_rep(rep: SpinRep, m: Matrix) -> SpinRep:
    """Change basis by any non-singular matrix: S_a -> M S_a M^-1, the
    products taken on matrix rows by two kernels, one over the generators
    for M S_a and one over M^-1.

    M S_a M^-1 satisfies the commutation relation iff S_a does, so the
    result inherits ``rep.commutes`` and takes no bracket; a triple off the
    relation is refused with ValueError.  It inherits nothing else: its
    spherical kernel (``SpinRep.spherical``) is its own, built on first
    use.  The result is generally no longer Hermitian.
    """
    if m.dim != rep.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {rep.dim}")
    by_inverse = product_kernel((m.inverse().row,))
    rep._require_relation()
    by_gens = product_kernel(rep.rows)
    out = SpinRep(rep.dim, tuple(by_inverse([(1, by_gens([(1, m.row, a)]), 1)]) for a in (1, 2, 3)))
    out.__dict__["commutes"] = True  # the cached verdict, inherited
    return out


def matrix_algebra(rep: SpinRep) -> tuple[Row, Times]:
    """The algebra of rep's matrices as rows: the identity row, and
    multiplication by the generators' rows (``product_kernel``), a new
    kernel per call."""
    return _unit(rep.dim), product_kernel(rep.rows)


def _unit(dim: int) -> Row:
    return {(k, k, KEY_ONE): 1 for k in range(dim)}, 1

"""Exact D-dimensional spin matrices and the dense matrix arithmetic under
them.

The generators use the standard ladder construction in the basis where S_3
is diagonal with descending eigenvalues s, s-1, ..., -s.  Every entry is an
exact Scalar, so the commutation relation and the Casimir hold on the nose.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalar import (
    SCALAR_ONE,
    SCALAR_ZERO,
    Scalar,
    sqrt_of_rational,
)


class SingularMatrixError(ArithmeticError):
    """Exact elimination found no inverse."""


class Matrix:
    """Square matrix of exact Scalars.  Instances are never mutated after
    construction; every operation allocates a fresh result."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        self.dim = dim
        self.rows = [list(r) for r in rows]

    @classmethod
    def zero(cls, dim: int) -> "Matrix":
        return cls([[SCALAR_ZERO] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        return cls(
            [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(dim)] for i in range(dim)]
        )

    @classmethod
    def from_rational_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "Matrix":
        return cls([[Scalar.of(x) for x in r] for r in rows])

    def __getitem__(self, rc: tuple[int, int]) -> Scalar:
        r, c = rc
        return self.rows[r][c]

    def _check_dim(self, other: "Matrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c: Scalar | Fraction | int) -> "Matrix":
        if not isinstance(c, Scalar):
            c = Scalar.of(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_dim(other)
        n = self.dim
        out = [[SCALAR_ZERO] * n for _ in range(n)]
        for i in range(n):
            row = self.rows[i]
            acc = out[i]
            for k in range(n):
                a = row[k]
                if a.is_zero():
                    continue
                brow = other.rows[k]
                for j in range(n):
                    b = brow[j]
                    if not b.is_zero():
                        acc[j] = acc[j] + a * b
        return Matrix(out)

    def dagger(self) -> "Matrix":
        n = self.dim
        return Matrix(
            [[self.rows[j][i].conjugate() for j in range(n)] for i in range(n)]
        )

    def trace(self) -> Scalar:
        t = SCALAR_ZERO
        for i in range(self.dim):
            t = t + self.rows[i][i]
        return t

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def first_nonzero_entry(self) -> tuple[int, int, Scalar] | None:
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if not a.is_zero():
                    return i, j, a
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def inverse(self) -> "Matrix":
        """Exact Gauss-Jordan inverse.

        Pivots must be invertible Scalars; rational input keeps every pivot
        rational.  Raises SingularMatrixError when the rank is deficient.
        """
        n = self.dim
        a = [list(r) for r in self.rows]
        inv = [list(r) for r in Matrix.identity(n).rows]
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if not a[r][col].is_zero()), None
            )
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            p = a[col][col].inverse()
            a[col] = [p * x for x in a[col]]
            inv[col] = [p * x for x in inv[col]]
            for r in range(n):
                if r == col:
                    continue
                f = a[r][col]
                if f.is_zero():
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return Matrix(inv)

    def to_strings(self) -> list[list[str]]:
        """Row-major nested lists of Scalar strings (the JSON wire form)."""
        return [[str(a) for a in r] for r in self.rows]

    def latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(a.latex() for a in r) for r in self.rows
        )
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.dim}x{self.dim})"


def eigenvalue_list(dim: int) -> list[Fraction]:
    """Eigenvalues s, s-1, ..., -s of S_3 in descending order."""
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    s = Fraction(dim - 1, 2)
    return [s - k for k in range(dim)]


@dataclass(frozen=True)
class SpinRep:
    """The triple (S_1, S_2, S_3) of exact D x D spin matrices."""

    dim: int
    spin: Fraction
    S: tuple[Matrix, Matrix, Matrix]

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
        dim = s1.dim
        rep = cls(dim=dim, spin=Fraction(dim - 1, 2), S=(s1, s2, s3))
        if not commutation_holds(rep):
            raise ValueError("matrices do not satisfy the su(2) commutation relation")
        return rep


def build_generators(dim: int) -> SpinRep:
    """Standard-basis generators: S_3 diagonal descending, ladder elements
    sqrt(s(s+1) - m(m+1)) on the off-diagonals."""
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    s = Fraction(dim - 1, 2)
    eigs = eigenvalue_list(dim)

    s3 = Matrix.zero(dim)
    for k, m in enumerate(eigs):
        s3.rows[k][k] = Scalar.of(m)

    # S_+ |m> = sqrt(s(s+1) - m(m+1)) |m+1>; column k holds m = eigs[k].
    splus = Matrix.zero(dim)
    for k in range(1, dim):
        m = eigs[k]
        splus.rows[k - 1][k] = Scalar(sqrt_of_rational(s * (s + 1) - m * (m + 1)))
    sminus = splus.dagger()

    half = Fraction(1, 2)
    s1 = (splus + sminus).scale(half)
    s2 = (splus - sminus).scale(Scalar(0, -half))  # 1/(2i) = -i/2
    return SpinRep(dim=dim, spin=s, S=(s1, s2, s3))


def commutation_holds(rep: SpinRep) -> bool:
    """[S_i, S_j] = i eps_ijk S_k, checked exactly for all pairs."""
    s1, s2, s3 = rep.S
    i = Scalar.i()
    return (
        (s1 * s2 - s2 * s1) == s3.scale(i)
        and (s2 * s3 - s3 * s2) == s1.scale(i)
        and (s3 * s1 - s1 * s3) == s2.scale(i)
    )


def casimir(rep: SpinRep) -> Matrix:
    s1, s2, s3 = rep.S
    return s1 * s1 + s2 * s2 + s3 * s3


def is_hermitian(mat: Matrix) -> bool:
    return mat == mat.dagger()


def conjugate_rep(rep: SpinRep, m: Matrix) -> SpinRep:
    """Change basis by any non-singular matrix: S_i -> M S_i M^{-1}.

    The result still satisfies the commutation relation (and is checked),
    but is generally no longer Hermitian.
    """
    m_inv = m.inverse()
    transformed = tuple(m * s * m_inv for s in rep.S)
    return SpinRep.from_matrices(transformed)

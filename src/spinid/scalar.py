"""Exact scalars: rational combinations of square roots of squarefree
integers, with an optional imaginary part, and the row format that
encodes them.

All exact arithmetic runs on rows, owned by this module: integer
numerators over one common denominator, keyed by cells that end in a
basis key 2*m + imag for i^imag sqrt(m).  ``spinrep`` keys a matrix row by
(row, col, key), ``rewrite`` a polynomial's row by (word, key), and a
``Scalar`` is the row of one value, with cells (key,).  Rows are reduced
after every operation, so equality is plain structural equality and
there is no floating-point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Container, Hashable, Iterable, Union

# Exact rational numbers; always in lowest terms with positive denominator.
Rational = Fraction

RationalLike = Union[Fraction, int]


class UnsupportedInverseError(ArithmeticError):
    """Inverse requested outside the supported (Gaussian-rational) subset."""


class Record:
    """An immutable value.  A subclass names its fields in ``__match_args__``
    and its ``__init__`` passes their values to ``Record.__init__``, once;
    equality, hashing and repr go by those values, in that order.  A plain
    class, not a dataclass: the package imports faster."""

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        fields = self.__dict__
        fields.update(zip(self.__match_args__, values))
        fields["_values"] = values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        self.__setattr__(name, None)

    def __eq__(self, other: object) -> bool:
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values))
        return f"{type(self).__name__}({fields})"


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = c*c*m with m squarefree; return (c, m).

    Trial division only: the radicands produced by spin-matrix elements
    stay small, so nothing fancier is warranted.
    """
    if n <= 0:
        raise ValueError("squarefree_decompose requires a positive integer")
    c, m = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            c *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    return c, m * n


# ---------------------------------------------------------------------------
# Rows

Row = tuple[dict[Hashable, int], int]  # (terms, den): the sum of n * cell / den
KEY_ONE, KEY_I = 2, 3  # the basis keys of 1 and i


def key_product(k1: int, k2: int) -> tuple[int, int]:
    """(factor, key) with basis(k1) * basis(k2) = factor * basis(key):
    sqrt(m1) sqrt(m2) = g sqrt(m1 m2 / g^2) for g = gcd(m1, m2), and i i = -1.
    Not memoized: the kernels that multiply rows keep the products they
    use in their tables, and a process-wide memo would grow with every
    radicand the process meets."""
    m1, m2 = k1 >> 1, k2 >> 1
    g = gcd(m1, m2)
    return (-g if k1 & k2 & 1 else g), 2 * (m1 // g) * (m2 // g) + ((k1 ^ k2) & 1)


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
    meet, so the cells may be any keys: matrix cells or word cells."""
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


def times_scalar(row: Row, c: Row) -> Row:
    """row times the value of the scalar row c."""
    return combine_terms((n, times_key(row[0], k), row[1] * c[1]) for (k,), n in c[0].items())


def row_of_scalars(entries: Iterable[tuple[tuple, "Scalar"]]) -> Row:
    """The row of Scalars placed at positions, with cells (*position, key):
    (row, col) for a matrix, (word,) for a polynomial."""
    return combine_terms((1, {pos + k: n for k, n in s.row[0].items()}, s.row[1]) for pos, s in entries)


def row_scalars(row: Row) -> dict[tuple, "Scalar"]:
    """The Scalar at each position of a row (``row_of_scalars``)."""
    terms, den = row
    parts: dict[tuple, dict] = {}
    for t, n in terms.items():
        parts.setdefault(t[:-1], {})[t[-1:]] = n
    return {pos: Scalar._make(reduce_terms(cells, den)) for pos, cells in parts.items()}


def scalar_at(row: Row, positions: Container[tuple]) -> "Scalar":
    """The sum of a row's Scalars at these positions, decoded from their
    cells alone."""
    out: dict[tuple, int] = {}
    for t, n in row[0].items():
        if t[:-1] in positions:
            out[t[-1:]] = out.get(t[-1:], 0) + n
    return Scalar._make(reduce_terms(out, row[1]))


def row_components(row: Row) -> dict[tuple, list[tuple[int, int, int, bool]]]:
    """The components (numerator, denominator, radicand, imaginary?) at
    each position of a row, each coefficient in lowest terms with a
    positive denominator, in the order they print (real parts first, each
    sorted by radicand), without building Scalars."""
    terms, den = row
    out: dict[tuple, list] = {}
    for t in sorted(terms, key=lambda t: (t[-1] & 1, t[-1] >> 1)):
        n, k = terms[t], t[-1]
        g = gcd(n, den)
        out.setdefault(t[:-1], []).append((n // g, den // g, k >> 1, bool(k & 1)))
    return out


class Scalar:
    """One exact value, held as its row ({(key,): n}, den).  Immutable;
    ``Scalar(re, im)`` is the Gaussian rational re + i*im."""

    __slots__ = ("row",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.row = fraction_row({(KEY_ONE,): Fraction(re), (KEY_I,): Fraction(im)})

    @classmethod
    def _make(cls, row: Row) -> "Scalar":
        s = object.__new__(cls)
        s.row = row
        return s

    @classmethod
    def of(cls, q: RationalLike) -> "Scalar":
        return cls(q)

    @classmethod
    def zero(cls) -> "Scalar":
        return SCALAR_ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return SCALAR_ONE

    @classmethod
    def i(cls) -> "Scalar":
        return SCALAR_I

    @classmethod
    def sqrt_int(cls, m: int) -> "Scalar":
        if m <= 0:
            raise ValueError("sqrt_int requires a positive integer")
        return sqrt_of_rational(m)

    def is_zero(self) -> bool:
        return not self.row[0]

    def is_gaussian(self) -> bool:
        """True when no square root other than sqrt(1) occurs."""
        return all(k in (KEY_ONE, KEY_I) for k, in self.row[0])

    def conjugate(self) -> "Scalar":
        terms, den = self.row
        return Scalar._make(({t: -n if t[0] & 1 else n for t, n in terms.items()}, den))

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, supported on Gaussian rationals only:
        den (a - b i) / (a^2 + b^2) for (a + b i) / den.

        ``Matrix.inverse`` divides only by Gaussian pivots, the same subset.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not self.is_gaussian():
            raise UnsupportedInverseError(f"inverse of {self} has a radical denominator")
        terms, den = self.row
        a, b = terms.get((KEY_ONE,), 0), terms.get((KEY_I,), 0)
        return Scalar._make(reduce_terms({(KEY_ONE,): den * a, (KEY_I,): -den * b}, a * a + b * b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.row == other.row

    def __hash__(self) -> int:
        return hash((frozenset(self.row[0].items()), self.row[1]))

    def __neg__(self) -> "Scalar":
        terms, den = self.row
        return Scalar._make(({t: -n for t, n in terms.items()}, den))

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._make(combine_terms([(1, *self.row), (1, *other.row)]))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + -other if isinstance(other, Scalar) else NotImplemented

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar._make(combine_terms([(other, *self.row)]))
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._make(times_scalar(self.row, other.row))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return render_components(row_components(self.row).get((), []))

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def latex(self) -> str:
        return render_components(row_components(self.row).get((), []), latex=True)


SCALAR_ZERO = Scalar._make(({}, 1))
SCALAR_ONE = Scalar._make(({(KEY_ONE,): 1}, 1))
SCALAR_I = Scalar._make(({(KEY_I,): 1}, 1))


def sqrt_of_rational(q: RationalLike) -> Scalar:
    """Exact square root of a nonnegative rational, as c*sqrt(m).

    sqrt(p/q) is carried as sqrt(p*q)/q so the denominator stays rational.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return SCALAR_ZERO
    c, m = squarefree_decompose(q.numerator * q.denominator)
    return Scalar._make(reduce_terms({(2 * m,): c}, q.denominator))


def render_components(comps: Iterable[tuple[int, int, int, bool]], latex: bool = False) -> str:
    """Render a sum of (numerator, denominator, radicand, imaginary?)
    components (``row_components``) in the plain expression grammar (or
    LaTeX), e.g. ``1/2*sqrt(3) + 2*i``."""
    out = []
    for n, d, m, imag in comps:
        mag = abs(n)
        parts = []
        if d != 1:
            parts.append(f"\\frac{{{mag}}}{{{d}}}" if latex else f"{mag}/{d}")
        elif mag != 1 or (m == 1 and not imag):
            parts.append(str(mag))
        if m != 1:
            parts.append(f"\\sqrt{{{m}}}" if latex else f"sqrt({m})")
        if imag:
            parts.append("i")
        body = (" " if latex else "*").join(parts)
        if out:
            out.append(" - " if n < 0 else " + ")
        elif n < 0:
            out.append("-")
        out.append(body)
    return "".join(out) if out else "0"

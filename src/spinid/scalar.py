"""Exact scalars: rational combinations of square roots of squarefree
integers, with an optional imaginary part, and the row format that
encodes them.

Every value is canonical after construction, so equality is plain
structural equality and there is no floating-point anywhere.

``Scalar`` is the edge type: values are built from it and read back as
it, and the tests use its arithmetic as the slow reference.  Inside the
library the arithmetic runs on rows, owned by this module: integer
numerators over one common denominator, keyed by cells that end in a
basis key 2*m + imag for i^imag sqrt(m).  ``spinrep`` keys a matrix row by
(row, col, key), ``rewrite`` a polynomial's row by (word, key).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Union

# Exact rational numbers; always in lowest terms with positive denominator.
Rational = Fraction

RationalLike = Union[Fraction, int]


class UnsupportedInverseError(ArithmeticError):
    """Inverse requested outside the supported (Gaussian-rational) subset."""


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


def _frac(q: RationalLike) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


class Radical:
    """A finite sum  sum_m  c_m * sqrt(m)  with rational c_m and squarefree
    positive radicands m (m = 1 holds the rational part).

    The term map never stores zero coefficients; the empty map is 0.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for m, c in terms.items():
                _, sf = squarefree_decompose(m)
                if sf != m:
                    raise ValueError(f"radicand {m} is not squarefree")
                c = _frac(c)
                if c:
                    clean[m] = clean.get(m, Fraction(0)) + c
                    if not clean[m]:
                        del clean[m]
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[int, Fraction]) -> "Radical":
        # Internal fast path: keys already squarefree, no zero coefficients.
        r = object.__new__(cls)
        r._terms = terms
        return r

    @classmethod
    def from_rational(cls, q: RationalLike) -> "Radical":
        q = _frac(q)
        return cls._make({1: q} if q else {})

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        """True when the only radicand present is 1."""
        return all(m == 1 for m in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms[1]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Radical):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Radical":
        return Radical._make({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Radical") -> "Radical":
        if not isinstance(other, Radical):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Radical._make(out)

    def __sub__(self, other: "Radical") -> "Radical":
        return self + (-other)

    def __mul__(self, other: Union["Radical", RationalLike]) -> "Radical":
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            if not q:
                return Radical._make({})
            return Radical._make({m: c * q for m, c in self._terms.items()})
        if not isinstance(other, Radical):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                # sqrt(m1)*sqrt(m2) = g*sqrt(m1' m2') with g = gcd(m1, m2);
                # m1' m2' is squarefree because m1, m2 are and gcd(m1', m2') = 1.
                g = gcd(m1, m2)
                k = (m1 // g) * (m2 // g)
                c = c1 * c2 * g
                s = out.get(k, Fraction(0)) + c
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return Radical._make(out)

    def __str__(self) -> str:
        return render_components(
            [(c, m, False) for m, c in sorted(self._terms.items())]
        )

    def __repr__(self) -> str:
        return f"Radical({self._terms!r})"


RADICAL_ZERO = Radical._make({})
RADICAL_ONE = Radical._make({1: Fraction(1)})


def sqrt_of_rational(q: RationalLike) -> Radical:
    """Exact square root of a nonnegative rational, as c*sqrt(m).

    sqrt(p/q) is carried as sqrt(p*q)/q so the denominator stays rational.
    """
    q = _frac(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return RADICAL_ZERO
    c, m = squarefree_decompose(q.numerator * q.denominator)
    return Radical._make({m: Fraction(c, q.denominator)})


class Scalar:
    """Complex value re + i*im with Radical real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Radical | RationalLike = 0, im: Radical | RationalLike = 0):
        self.re = re if isinstance(re, Radical) else Radical.from_rational(re)
        self.im = im if isinstance(im, Radical) else Radical.from_rational(im)

    @classmethod
    def _make(cls, re: Radical, im: Radical) -> "Scalar":
        s = object.__new__(cls)
        s.re = re
        s.im = im
        return s

    @classmethod
    def of(cls, q: RationalLike) -> "Scalar":
        return cls._make(Radical.from_rational(q), RADICAL_ZERO)

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
        return cls._make(sqrt_of_rational(m), RADICAL_ZERO)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_gaussian(self) -> bool:
        """True when both parts involve only radicand 1."""
        return self.re.is_rational() and self.im.is_rational()

    def conjugate(self) -> "Scalar":
        return Scalar._make(self.re, -self.im)

    def norm_sq(self) -> Radical:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, supported on Gaussian rationals only.

        That subset is all the engine ever divides by (matrix elimination
        pivots of rational matrices and rewrite coefficients).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not self.is_gaussian():
            raise UnsupportedInverseError(
                f"inverse of {self} has a radical denominator"
            )
        n = self.norm_sq().as_rational()
        inv_n = Fraction(1) / n
        return Scalar._make(self.re * inv_n, -self.im * inv_n)

    def components(self) -> dict[tuple[str, int], Fraction]:
        """Rational coordinates over the basis {sqrt(m), i*sqrt(m)}."""
        out: dict[tuple[str, int], Fraction] = {}
        for m, c in self.re._terms.items():
            out[("re", m)] = c
        for m, c in self.im._terms.items():
            out[("im", m)] = c
        return out

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __neg__(self) -> "Scalar":
        return Scalar._make(-self.re, -self.im)

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._make(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._make(self.re - other.re, self.im - other.im)

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar._make(self.re * other, self.im * other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def _component_list(self) -> list[tuple[Fraction, int, bool]]:
        comps = [(c, m, False) for m, c in sorted(self.re._terms.items())]
        comps += [(c, m, True) for m, c in sorted(self.im._terms.items())]
        return comps

    def __str__(self) -> str:
        return render_components(self._component_list())

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def latex(self) -> str:
        return render_components(self._component_list(), latex=True)


SCALAR_ZERO = Scalar._make(RADICAL_ZERO, RADICAL_ZERO)
SCALAR_ONE = Scalar._make(RADICAL_ONE, RADICAL_ZERO)
SCALAR_I = Scalar._make(RADICAL_ZERO, RADICAL_ONE)


def frac_str(q: Fraction, latex: bool = False) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if latex:
        sign = "-" if q < 0 else ""
        return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
    return f"{q.numerator}/{q.denominator}"


def render_components(
    comps: Iterable[tuple[Fraction, int, bool]], latex: bool = False
) -> str:
    """Render a sum of (coefficient, radicand, imaginary?) components in the
    plain expression grammar (or LaTeX), e.g. ``1/2*sqrt(3) + 2*i``."""
    comps = list(comps)
    if not comps:
        return "0"
    out = []
    for c, m, imag in comps:
        mag = abs(c)
        parts = []
        if mag != 1 or (m == 1 and not imag):
            parts.append(frac_str(mag, latex=latex))
        if m != 1:
            parts.append(f"\\sqrt{{{m}}}" if latex else f"sqrt({m})")
        if imag:
            parts.append("i")
        body = (" " if latex else "*").join(parts)
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        out.append(body)
    return "".join(out)


# ---------------------------------------------------------------------------
# Rows

Row = tuple[dict[Hashable, int], int]  # (terms, den): the sum of n * cell / den
KEY_ONE, KEY_I = 2, 3  # the basis keys of 1 and i


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


def row_scalars(row: Row) -> dict[tuple, Scalar]:
    """The Scalar at each position of a row whose cells are
    (*position, key): (row, col) for a matrix, (word,) for a polynomial."""
    terms, den = row
    parts: dict[tuple, tuple[dict, dict]] = {}
    for t, n in terms.items():
        parts.setdefault(t[:-1], ({}, {}))[t[-1] & 1][t[-1] >> 1] = Fraction(n, den)
    return {pos: Scalar._make(Radical._make(re), Radical._make(im)) for pos, (re, im) in parts.items()}


def row_components(row: Row) -> dict[tuple, list[tuple[Fraction, int, bool]]]:
    """The components (coefficient, radicand, imaginary?) of each Scalar of
    ``row_scalars``, in the order it prints them (real parts first, each
    sorted by radicand), without building the Scalars."""
    terms, den = row
    out: dict[tuple, list] = {}
    for t in sorted(terms, key=lambda t: (t[-1] & 1, t[-1] >> 1)):
        out.setdefault(t[:-1], []).append((Fraction(terms[t], den), t[-1] >> 1, bool(t[-1] & 1)))
    return out

"""Reference computations made apart from the spinid package.

Nothing here imports spinid.  The coefficients come from expanding the
characteristic polynomial over its eigenvalues, the generators come from
sympy's angular-momentum operators, and the identity's delta terms use
the closed multiset weight prod_a C(c_a, e_a) (e_a - 1)!! instead of the
package's enumeration of position subsets.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def char_poly_a(dim: int) -> list[Fraction]:
    """a_1..a_floor(D/2) of prod_m (x - m) over the eigenvalues
    m = s, s-1, ..., -s, read off as the coefficient of x^(D-2p)."""
    s = Fraction(dim - 1, 2)
    poly = [Fraction(1)]  # highest power first
    for k in range(dim):
        m = s - k
        nxt = poly + [Fraction(0)]
        for j in range(1, len(nxt)):
            nxt[j] -= m * poly[j - 1]
        poly = nxt
    for j in range(1, dim + 1, 2):
        if poly[j]:
            raise AssertionError(f"odd coefficient {j} of dim {dim} is nonzero")
    return [poly[2 * p] for p in range(1, dim // 2 + 1)]


def identity_b(dim: int) -> list[Fraction]:
    """b_p = 2^p p! a_p."""
    return [2**p * factorial(p) * a for p, a in enumerate(char_poly_a(dim), start=1)]


def power_sum(r: int, n: int) -> int:
    return sum(q**r for q in range(n + 1))


def odd_double_factorial(k: int) -> int:
    """(k - 1)!! for even k: the number of perfect pairings of k items."""
    out = 1
    for j in range(1, k, 2):
        out *= j
    return out


def delta_weights(counts: tuple[int, int, int], p: int) -> dict[tuple[int, int, int], int]:
    """For a tuple with axis counts c, the summed generalized deltas over
    every 2p-subset of positions, grouped by the counts that remain."""
    out: dict[tuple[int, int, int], int] = {}
    for e in itertools.product(*(range(0, c + 1, 2) for c in counts)):
        if sum(e) != 2 * p:
            continue
        w = 1
        for c, ea in zip(counts, e):
            w *= comb(c, ea) * odd_double_factorial(ea)
        rest = tuple(c - ea for c, ea in zip(counts, e))
        out[rest] = out.get(rest, 0) + w
    return out


class SympySpin:
    """Spin matrices of one dimension from sympy.physics.quantum.spin,
    in the J_z basis with descending m, divided by hbar."""

    def __init__(self, dim: int):
        import sympy
        from sympy.physics.quantum import represent
        from sympy.physics.quantum.constants import hbar
        from sympy.physics.quantum.spin import Jx, Jy, Jz

        self.sympy = sympy
        self.dim = dim
        j = sympy.Rational(dim - 1, 2)
        self.S = [
            (represent(op, basis=Jz, j=j) / hbar).applyfunc(sympy.expand)
            for op in (Jx, Jy, Jz)
        ]

    def residual_row(self, b: list[Fraction], counts: tuple[int, int, int], row: int) -> list:
        """Row `row` of the identity's left side for a tuple with the given
        axis counts: {S..S} + sum_p b_p sum_subsets delta {S over the rest}."""
        sp = self.sympy
        n = self.dim

        @lru_cache(maxsize=None)
        def sym_row(c: tuple[int, int, int]) -> tuple:
            # e_row^T {S..S}; the symmetric product is sum_a c_a {c - a} S_a.
            if c == (0, 0, 0):
                return tuple(sp.Integer(1 if k == row else 0) for k in range(n))
            acc = [sp.Integer(0)] * n
            for a in range(3):
                if c[a]:
                    lower = list(c)
                    lower[a] -= 1
                    v = sym_row(tuple(lower))
                    mat = self.S[a]
                    for col in range(n):
                        acc[col] += c[a] * sum(v[k] * mat[k, col] for k in range(n))
            return tuple(sp.expand(x) for x in acc)

        total = list(sym_row(counts))
        for p, bp in enumerate(b, start=1):
            for rest, w in delta_weights(counts, p).items():
                v = sym_row(rest)
                coef = sp.Rational(bp.numerator, bp.denominator) * w
                for col in range(n):
                    total[col] += coef * v[col]
        return [sp.expand(x) for x in total]

    def value(self, text: str):
        """A scalar in the package's plain wire form, e.g. '3/2*sqrt(5) - i'."""
        sp = self.sympy
        return sp.expand(sp.sympify(text, locals={"i": sp.I, "sqrt": sp.sqrt}))

    def equal(self, x, y) -> bool:
        return self.sympy.expand(x - y) == 0

"""Characteristic-equation coefficients and the dimension-D reduction
identity for completely symmetric products of spin matrices.

The identity, in monic normalization, reads

    {S_{i_1} ... S_{i_D}}
        + sum_p b_p ( sum over 2p-subsets A of positions
                      delta(indices in A) * {S over the other positions} ) = 0

with b_p = 2^p p! a_p, where the a_p are the coefficients of the
characteristic equation S^D + sum_p a_p S^{D-2p} = 0.

Level p depends only on the tuple's axis counts c: it equals the sum over
even e1 + e2 + e3 = 2p of prod_a C(c_a, e_a) (e_a - 1)!! {S over c - e}
(``symalg.delta_weights``); position subsets appear only in emitted output.

The identity is a symmetric tensor identity, so it holds iff its spherical
components vanish: the residuals R(a, b, c) for counts (a, b, c) of
S_+ = S_1 + i S_2, S_- = S_1 - i S_2 and S_3.
Contracted with u, the left side is D! times the polynomial
F(u) = sum_j a_j (u.u)^j (u.S)^(D - 2j), and the spherical residuals are
its coefficients.  On a representation of su(2), ad S_+ and ad S_- act on
F as derivations in u that kill u.u, so every residual of order D follows
from R(0, 0, D) = D! q_D(S_3), q_D(x) = sum_j a_j x^(D - 2j), by
commutators.  ``verify_identity`` reads the representation's verdict on
the commutation relation (``SpinRep.commutes``, computed once per
representation), computes q_D(S_3) by Horner's rule in S_3^2
(``_q_of_s3``) and, when it is zero, certifies every tuple at once;
otherwise it fills the residuals of order D by the adjoint recursion
(``_adjoint_residuals``), and a failure's witness, the first nonzero entry
of the Cartesian residual, is read from the spherical ones, weighted by
integers from a binomial-product recurrence (``_spherical_weights``),
position by position up to that entry (``_first_witness``).  An
exhaustive report keeps its failures by multiset (``ExhaustiveFailures``)
and lists their tuples only when read.
``discover_identity`` reads the a_j off the traces of the same ladder of
powers of S_3^2, by Newton's identities, and certifies q_D(S_3) = 0.  The
commutators and the powers are products of one kernel kept with the
representation (``SpinRep.spherical``), so repeated calls on one
representation reuse its tables.  ``Identity.residual_int``, on the delta weights and a SymSession,
serves the rewriter and the tests as the oracle.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterator, Literal, Sequence

from .scalar import KEY_I, KEY_ONE, Record, Row, Scalar, combine_terms, key_product, times_key
from .spinrep import Matrix, SpinRep
from .symalg import SymSession, all_counts, axis_counts, delta_weights, pairing_count

Witness = tuple[int, int, Scalar]
Failure = tuple[tuple[int, ...], Witness]


class DiscoveryError(ArithmeticError):
    """The coefficient solve was inconsistent or underdetermined."""


class CharCoeffs(Record):
    """Coefficients a_1..a_floor(D/2) of the monic characteristic equation."""

    __match_args__ = ("dim", "a")

    def __init__(self, dim: int, a: tuple[Fraction, ...]) -> None:
        super().__init__(dim, a)


def char_coeffs(dim: int) -> CharCoeffs:
    """Expand the product form of the characteristic equation.

    Integer spin:      S (S^2 - 1)(S^2 - 4) ... (S^2 - n^2) = 0
    half-integral:     (S^2 - 1/4)(S^2 - 9/4) ... (S^2 - (2n+1)^2/4) = 0

    In z = 4 S^2 the factors are z - t^2, t = 2m (``_char_z``), so
    a_j = c_j / 4^j.
    """
    return CharCoeffs(dim, tuple(Fraction(c, 4**j) for j, c in enumerate(_char_z(dim), start=1)))


@lru_cache(maxsize=32)
def _char_z(dim: int) -> tuple[int, ...]:
    """c_1..c_k of prod (z - t^2) = z^k + c_1 z^(k-1) + ... + c_k over the
    doubled nonzero eigenvalues t = 2m > 0, t = dim - 1, dim - 3, ..., in
    integers.  Memoized like ``build_identity``: ``char_coeffs`` and
    ``b_coeffs`` both read it."""
    if dim < 2:
        raise ValueError("no nontrivial identity below dimension 2")
    c = [1]
    for t in range(dim - 1, 0, -2):
        sq = t * t
        c = [x - sq * y for x, y in zip(c + [0], [0] + c)]
    return tuple(c[1:])


# power_sum's ladder takes O(r^2) exact steps on integers of O(r) digits:
# at n = 10^9, 0.2-0.3 s at r = 500 and 3 s at r = 1000 (2 cores, Python
# 3.11), so larger r is refused.
POWER_SUM_MAX_R = 500


def power_sum(r: int, n: int) -> Fraction:
    """Sum of q^r for q = 0..n, via the binomial-recursion ladder in
    integers (every rung is one); r is at most ``POWER_SUM_MAX_R``.  The
    ladder lives for one call only, so no state outlives it."""
    if r < 0 or n < 0:
        raise ValueError("power_sum needs nonnegative arguments")
    if r > POWER_SUM_MAX_R:
        raise ValueError(f"power sum exponent r = {r} refused: above {POWER_SUM_MAX_R} the ladder of "
                         "O(r^2) exact steps runs for seconds to minutes")
    sums = [n + 1]  # sums[p] = sum of q^p, q = 0..n
    binomials = [1, 1]  # C(k, p) for p = 0..k
    for k in range(1, r + 1):
        binomials = [1, *map(sum, zip(binomials, binomials[1:])), 1]
        sums.append(((n + 1) ** (k + 1) - sum(map(mul, binomials, sums))) // (k + 1))
    return Fraction(sums[r])


def a1_closed(dim: int) -> Fraction:
    """a_1 from the power sums of the eigenvalues."""
    if dim < 2:
        raise ValueError("a_1 requires dimension >= 2")
    if dim % 2:
        n = (dim - 1) // 2
        return -power_sum(2, n)
    n = dim // 2 - 1
    return -(power_sum(2, n) + power_sum(1, n) + Fraction(1, 4) * power_sum(0, n))


def an_closed(dim: int) -> Fraction:
    """Coefficient of the lowest (linear) term for odd dimension."""
    if dim < 3 or dim % 2 == 0:
        raise ValueError("a_n requires odd dimension >= 3")
    n = (dim - 1) // 2
    return Fraction((-1) ** n * factorial(n) ** 2)


def an1_closed(dim: int) -> Fraction:
    """Constant coefficient for even dimension.

    The magnitude is ((2n+1)!! / 2^(n+1))^2; the sign alternates with the
    number of quadratic factors, (-1)^(n+1).
    """
    if dim < 2 or dim % 2:
        raise ValueError("a_{n+1} requires even dimension >= 2")
    n = dim // 2 - 1
    return (-1) ** (n + 1) * Fraction(pairing_count(n + 1), 2 ** (n + 1)) ** 2


def a2_closed(dim: int) -> Fraction:
    """a_2 for integer spin: (Sigma_2(n))^2 - sum_q q^2 Sigma_2(q)."""
    if dim % 2 == 0:
        raise ValueError("this a_2 closed form applies to integer spin only")
    n = (dim - 1) // 2
    if n < 2:
        raise ValueError("a_2 requires n >= 2 (dimension >= 5)")
    s2 = power_sum(2, n)
    return s2 * s2 - sum(
        (Fraction(q * q) * power_sum(2, q) for q in range(n + 1)), Fraction(0)
    )


def b_coeffs(dim: int) -> list[Fraction]:
    """Identity coefficients b_p = 2^p p! a_p = p! c_p / 2^p (``_char_z``)."""
    return [Fraction(factorial(p) * c, 2**p) for p, c in enumerate(_char_z(dim), start=1)]


class _DataclassFields:
    """``__dataclass_fields__`` built on first access, from an equivalent
    frozen dataclass, and then cached on the class: ``dataclasses.replace``,
    ``fields``, ``asdict`` and ``is_dataclass`` work, and only code that
    asks for them pays the ``dataclasses`` import."""

    def __get__(self, obj: object, cls: type) -> dict:
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class Identity(Record):
    """The reduction identity for one dimension, monic normalization.

    ``b[p-1]`` multiplies level p, the delta terms over all 2p-subsets of
    positions, which for axis counts c sum to
    sum_e prod_a C(c_a, e_a) (e_a - 1)!! {S over c - e} (``delta_weights``).
    """

    __match_args__ = ("dim", "b")
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, dim: int, b: tuple[Fraction, ...]) -> None:
        super().__init__(dim, b)

    def residual(self, session: SymSession, idx: Sequence[int]) -> Matrix:
        """Exact value of the identity's left side on one index tuple;
        the zero matrix iff the identity holds there."""
        dim = session.matrix_dim()
        return Matrix._make(dim, self.residual_int(session, axis_counts(idx)))

    def residual_int(self, session: SymSession, counts: tuple[int, int, int]) -> Row:
        """The residual for these axis counts, as a row of the session's
        algebra (matrices, or the rewriter's ordered words), with the
        Cartesian ``delta_weights`` of each level."""
        if sum(counts) != self.dim:
            raise ValueError(f"expected {self.dim} indices, got {sum(counts)}")
        parts = [(1, *session.sym_int(counts))]
        for p, b_p in enumerate(self.b, start=1):
            for rest, w in delta_weights(counts, p).items():
                terms, den = session.sym_int(rest)
                if terms:
                    parts.append((b_p * w, terms, den))
        return combine_terms(parts)


@lru_cache(maxsize=32)
def build_identity(dim: int) -> Identity:
    """Synthesize the dimension-D identity from the characteristic equation.

    Memoized for the 32 most recently used dimensions (its coefficients
    grow with D): an Identity is immutable, so callers share it."""
    return Identity(dim=dim, b=tuple(b_coeffs(dim)))


def discover_identity(rep: SpinRep) -> Identity:
    """Recover the identity coefficients from the representation alone.

    S_3 satisfies its characteristic equation (Cayley-Hamilton), and the
    a_p are read off the traces of its powers, not the product form.  Its
    nonzero eigenvalues come in pairs +-m, so P_j = tr(S_3^(2j)) / 2,
    j = 1..k for k = floor(D/2), are the power sums of the m^2, and
    Newton's identities give Q, q_D(x) = x^(D mod 2) Q(x^2), in integers in
    z = 4 x^2 (as ``_char_z``).  The a_p are unique iff the ladder's k
    powers are independent: iff Q is squarefree (``_is_squarefree``) and,
    at odd D, Q(0) != 0; otherwise "not uniquely determined".  One
    combination of the powers, no product, certifies q_D(S_3) = 0, or
    refuses with "no coefficients satisfy".

    One index multiset suffices, every index 3: counts (0, 0, D).  The
    identity is the polarization of F(u) = sum_j a_j (u.u)^j (u.S)^(D-2j).
    On a representation of su(2), F is SL(2, C)-equivariant, the u with
    u.u != 0 form one orbit up to scale and are Zariski-dense, and F(e_3)
    is the identity at (0, 0, D), D! q_D(S_3): so a candidate holds on
    every multiset iff q_D(S_3) = 0.  The powers are the ladder of
    ``_q_of_s3``, from S_3^(D mod 2) up by S_3^2, products of the kernel
    kept with the representation (``SpinRep.spherical``), which a repeated
    discovery or a verification on it reuses; at odd D, P_j is half of
    tr(S_3^(2j-1) S_3), a sum over cells.  The commutation relation is the
    theorem's premise (``SpinRep.commutes``): a triple that fails it is
    refused with ``DiscoveryError``.
    """
    dim = rep.dim
    if dim < 2:
        raise ValueError("no identity to discover below dimension 2")
    if not rep.commutes:
        raise DiscoveryError("the matrices do not satisfy the su(2) commutation relation [S_a, S_b] = i "
                             "epsilon_abc S_c, on which discovery from the multiset of S_3 alone rests")
    unit, times = rep.spherical
    k, odd = dim // 2, dim % 2
    powers = [rep.rows[2] if odd else unit]  # powers[j] = S_3^(D mod 2 + 2j)
    for _ in range(k):
        powers.append(times([(1, powers[-1], 4)]))
    # p[j] = 4^j P_j, the power sums of (2m)^2: integers, as the eigenvalues
    # of S_3 are half-integers on a representation of su(2).
    p = [0] + [int(4**j * _trace(powers[j - odd], powers[0]) / 2) for j in range(1, k + 1)]
    c = [1]  # Q(z / 4) 4^k = z^k + c_1 z^(k-1) + ... + c_k, by Newton's identities
    for j in range(1, k + 1):
        c.append(-sum(c[i] * p[j - i] for i in range(j)) // j)
    if (odd and not c[k]) or not _is_squarefree(c):
        raise DiscoveryError("identity coefficients are not uniquely determined")
    a = [Fraction(c_p, 4**p) for p, c_p in enumerate(c[1:], start=1)]
    if combine_terms([(1, *powers[k])] + [(a_p, *powers[k - p]) for p, a_p in enumerate(a, start=1)])[0]:
        raise DiscoveryError("no coefficients satisfy the identity pattern")
    return Identity(dim=dim, b=tuple(2**p * factorial(p) * a_p for p, a_p in enumerate(a, start=1)))


def _trace(x: Row, y: Row) -> Fraction:
    """The rational part of tr(x y), from the cells of x that meet a cell
    of y at the transposed position: no product is formed."""
    (tx, dx), (ty, dy) = x, y
    at: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (r, c, key), n in ty.items():
        at.setdefault((c, r), []).append((key, n))
    total = 0
    for (r, c, k1), n1 in tx.items():
        for k2, n2 in at.get((r, c), ()):
            f, key = key_product(k1, k2)
            if key == KEY_ONE:
                total += f * n1 * n2
    return Fraction(total, dx * dy)


def _is_squarefree(q: list[int]) -> bool:
    """Whether the integer polynomial q, coefficients from the highest, has
    no repeated root: gcd(q, q') is a constant.  Euclid's algorithm in
    integers, a primitive pseudo-remainder sequence: each step takes
    lead(b) a - lead(a) x^(deg a - deg b) b until deg a < deg b, and the
    remainder is divided by its content."""
    a, b = q, [(len(q) - 1 - i) * x for i, x in enumerate(q[:-1])]
    while len(b) > 1:
        while len(a) >= len(b):
            f, g = a[0], b[0]
            a = [g * x - f * y for x, y in itertools.zip_longest(a, b, fillvalue=0)][1:]
            while a and not a[0]:
                del a[0]
        if not a:  # b divides a: gcd(q, q') = b, of degree >= 1
            return False
        content = gcd(*a)
        a, b = b, [x // content for x in a]
    return True


# ---------------------------------------------------------------------------
# Verification


def _first_witness(counts: tuple[int, int, int], spherical: dict[tuple[int, int, int], Row]) -> Witness | None:
    """The first nonzero entry, in row-major order, of the residual at
    Cartesian counts c, or None if it is zero.  That residual is
    i^c2 2^-n sum_a f_a R(a, n - a, c3), n = c1 + c2, over the spherical
    residuals (``spherical``, keyed by counts, rows in row-major order) with
    the integer weights of ``_spherical_weights``: the sign of i^c2 goes
    into the weights, its i into the keys.  It is read position by position.
    The first position of any part is probed first, from the parts' leading
    cells alone; if they cancel, the parts' cells are merged, and the walk
    stops at the first position whose combination is nonzero."""
    c1, c2, c3 = counts
    n, sign = c1 + c2, (-1) ** (c2 // 2)
    parts = [(sign * f, *spherical[a, n - a, c3]) for a, f in enumerate(_spherical_weights(c1, c2)) if f]

    def witness(pos: tuple[int, int], cells: Sequence[tuple[int, dict, int]]) -> Witness | None:
        terms, den = combine_terms(cells)
        return (*pos, Scalar._make(((times_key(terms, KEY_I) if c2 % 2 else terms), den))) if terms else None

    first = min((next(iter(terms))[:2] for _, terms, _ in parts if terms), default=None)
    if first is None:
        return None
    lead = []  # the cells at the first position lead their parts
    for f, terms, den in parts:
        at = {}
        for t, m in terms.items():
            if t[:2] != first:
                break
            at[t[2:]] = m
        if at:
            lead.append((f, at, den << n))
    if found := witness(first, lead):
        return found
    import heapq  # only a failing verification whose leading cells cancel merges: spared the import elsewhere

    cells = heapq.merge(*(zip(terms, itertools.repeat(j)) for j, (_, terms, _) in enumerate(parts)))
    for pos, at in itertools.groupby(cells, key=lambda cell: cell[0][:2]):
        if found := witness(pos, [(parts[j][0], {t[2:]: parts[j][1][t]}, parts[j][2] << n) for t, j in at]):
            return found
    return None


def _spherical_weights(c1: int, c2: int) -> list[int]:
    """f_a for a = 0..n, n = c1 + c2: the coefficients of (1 + t)^c1 (1 - t)^c2.

    From u1 S_1 + u2 S_2 = alpha S_+ + beta S_- with alpha = (u1 - i u2)/2
    and beta = (u1 + i u2)/2, R(c) / (c1! c2!) is the coefficient of
    u1^c1 u2^c2 and R(a, b, c3) / (a! b!) that of alpha^a beta^b, so
    R(c) = i^c2 c1! c2! 2^-n sum_a k(a) R(a, b, c3) / (a! b!), with k(a) the
    coefficient of t^c2 in (1 - t)^a (1 + t)^b.  The binary Krawtchouk
    duality C(n, a) k(a) = C(n, c2) f_a makes each weight an integer,
    c1! c2! k(a) / (a! b!) = f_a.  By (1 - t^2) g' = (c1 - c2 - n t) g for
    g = (1 + t)^c1 (1 - t)^c2, f_0 = 1, f_1 = c1 - c2 and
    (a + 1) f_(a+1) = (c1 - c2) f_a - (n - a + 1) f_(a-1), exactly."""
    n, d = c1 + c2, c1 - c2
    f = [1, d][: n + 1]
    for a in range(1, n):
        f.append((d * f[a] - (n - a + 1) * f[a - 1]) // (a + 1))
    return f


def _q_of_s3(rep: SpinRep, ident: Identity) -> tuple[Row, int]:
    """q_D(S_3) = sum_j a_j S_3^(D - 2j), a_0 = 1 and a_j = b_j / (2^j j!),
    whose D! multiple is the spherical residual R(0, 0, D), and the number
    of products this call took.  Horner's rule in S_3^2 runs up the ladder
    from its foot F = S_3^(D mod 2): H_0 = F, H_j = H_(j-1) S_3^2 + a_j F,
    each step one fused call of the representation's kept kernel
    (``SpinRep.spherical``, axis 4) with a_j F as an axis-0 part.  S_3^2
    counts as a product in the call that builds the kernel, only there."""
    built = "spherical" not in rep.__dict__
    unit, times = rep.spherical
    foot = rep.rows[2] if ident.dim % 2 else unit
    h = foot
    for j in range(1, ident.dim // 2 + 1):
        a_j = ident.b[j - 1] / (2**j * factorial(j)) if j <= len(ident.b) else 0
        h = times([(1, h, 4), (a_j.numerator, (foot[0], foot[1] * a_j.denominator), 0)] if a_j else [(1, h, 4)])
    return h, built + ident.dim // 2


def _adjoint_residuals(rep: SpinRep, d: int, top: Row) -> tuple[dict[tuple[int, int, int], Row], int]:
    """Every spherical residual R(A, B, C) of order A + B + C = d from
    R(0, 0, d) = ``top`` by the adjoint action, and the number of
    commutators taken.

    On u.S = alpha S_+ + beta S_- + gamma S_3, ad S_+ acts as the
    derivation -gamma d/d(alpha) + 2 beta d/d(gamma) and ad S_- as
    gamma d/d(beta) - 2 alpha d/d(gamma); both kill u.u, so on the
    residuals
        [S_-, R(A, B, C)] = C R(A, B + 1, C - 1) - 2A R(A - 1, B, C + 1),
        [S_+, R(A, B, C)] = -C R(A + 1, B, C - 1) + 2B R(A, B - 1, C + 1).
    The first column, A = 0, comes down from R(0, 0, d) by ad S_-, and each
    step in A by ad S_+: one fused call of the two-sided multiplication
    kept with the representation (``SpinRep.spherical``) per residual, the
    division by C taken into the rows' denominators and the 2B term added
    as an axis-0 part.  A combination of zero rows is zero and takes no
    call."""
    _, times = rep.spherical
    rows, products = {(0, 0, d): top}, 0
    for a in range(d + 1):
        for b in range(d - a + 1):
            c = d - a - b
            if a:  # (c + 1) R(a, b, c) = -[S_+, R(a-1, b, c+1)] + 2b R(a-1, b-1, c+2)
                x = rows[a - 1, b, c + 1]
                parts = [(-1, x, -1), (1, x, 1), (2 * b, rows.get((a - 1, b - 1, c + 2), ({}, 1)), 0)]
            elif b:  # (c + 1) R(0, b, c) = [S_-, R(0, b-1, c+1)]
                x = rows[0, b - 1, c + 1]
                parts = [(1, x, -2), (-1, x, 2)]
            else:
                continue
            parts = [(w, (terms, den * (c + 1)), axis) for w, (terms, den), axis in parts if w and terms]
            rows[a, b, c] = times(parts) if parts else ({}, 1)
            products += bool(parts)
    return rows, products


class ExhaustiveFailures:
    """The failing tuples of an exhaustive report, kept by multiset: the
    witness of each failing counts c, which its D! / (c1! c2! c3!) tuples
    share.  A read-only sequence of (tuple, witness) in tuple order, listed
    only when read (``_in_tuple_order``), so a slice reads only as far as it
    reaches.  ``total`` is the number of tuples as an int of any size;
    ``len`` is the same number but, like any Python sequence's, raises
    ``OverflowError`` past ``sys.maxsize`` (3^40 > 2^63 - 1).  It equals
    another such sequence with the same witnesses, and a list of the same
    pairs."""

    __slots__ = ("dim", "witnesses", "total")

    def __init__(self, dim: int, witnesses: dict[tuple[int, int, int], Witness]) -> None:
        self.dim, self.witnesses = dim, witnesses
        self.total = sum(factorial(dim) // (factorial(c1) * factorial(c2) * factorial(c3)) for c1, c2, c3 in witnesses)

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return bool(self.witnesses)

    def __iter__(self) -> Iterator[Failure]:
        return _in_tuple_order(self.dim, self.witnesses)

    def __getitem__(self, key: int | slice) -> Failure | list[Failure]:
        picked = range(self.total)[key]  # normalized as a list's would be; IndexError past the end
        if isinstance(picked, int):
            return next(itertools.islice(self, picked, None))
        if not picked:
            return []
        first, last = sorted((picked[0], picked[-1]))
        out = list(itertools.islice(self, first, last + 1, abs(picked.step)))
        return out if picked.step > 0 else out[::-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExhaustiveFailures):
            return self.witnesses == other.witnesses
        if isinstance(other, list):
            return len(other) == self.total and list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExhaustiveFailures(dim={self.dim}, witnesses={self.witnesses!r})"


_TAIL = 6  # the axes ``_in_tuple_order`` reads from one table: 3^6 = 729 tails


def _in_tuple_order(dim: int, accept: dict[tuple[int, int, int], object]) -> Iterator[tuple[tuple[int, ...], object]]:
    """(t, accept[c]) for each tuple t of dim axes whose counts c are keys
    of accept, in lexicographic order.

    A tuple is a head and its last k = min(dim, _TAIL) axes.  The heads run
    over the same walk one level down, restricted to the head counts u
    that some tail completes into accept; the tails of each u met are the
    table of all 3^k tails filtered once by u + counts in accept.  So a
    head is read only if some tuple follows it, and every head costs one
    table lookup: where only (0, 0, D) is accepted, the first tuple comes at
    once, and where all is, each tuple is one concatenation."""
    k = min(dim, _TAIL)
    tails = [(t, (t.count(1), t.count(2), t.count(3))) for t in itertools.product((1, 2, 3), repeat=k)]
    if k == dim:
        yield from ((t, accept[c]) for t, c in tails if c in accept)
        return
    heads, tail_counts = {}, all_counts(k)
    for c1, c2, c3 in accept:
        for e1, e2, e3 in tail_counts:
            if e1 <= c1 and e2 <= c2 and e3 <= c3:
                u = (c1 - e1, c2 - e2, c3 - e3)
                heads[u] = u
    completions: dict[tuple[int, int, int], list] = {}
    for head, (u1, u2, u3) in _in_tuple_order(dim - k, heads):
        done = completions.get((u1, u2, u3))
        if done is None:
            done = completions[u1, u2, u3] = [(t, accept[c]) for t, (e1, e2, e3) in tails
                                             if (c := (u1 + e1, u2 + e2, u3 + e3)) in accept]
        for t, value in done:
            yield head + t, value


class VerificationReport(Record):
    """Outcome of checking one identity against one representation.  An
    exhaustive report's ``failures`` is an ``ExhaustiveFailures``, a
    sampled one's a list; equality does not depend on which."""

    __match_args__ = ("dim", "rep_dim", "mode", "tuples_checked", "failures", "elapsed")

    def __init__(self, dim: int, rep_dim: int, mode: Literal["exhaustive", "sampled"], tuples_checked: int,
                 failures: Sequence[Failure] | None = None, elapsed: float = 0.0,
                 stats: dict[str, int] | None = None):
        super().__init__(dim, rep_dim, mode, tuples_checked, [] if failures is None else failures, elapsed)
        # Counters of the run, off the wire like elapsed and outside equality:
        # multisets judged (every one, but those its draws met for a sample
        # with q_D(S_3) nonzero), spherical residuals computed (R(0, 0, D)
        # alone when q_D(S_3) vanishes) and products this call took (``times``
        # calls: the Horner steps and the commutators, and S_3^2 when this
        # call built the representation's kernel).
        self.__dict__["stats"] = {} if stats is None else stats

    @property
    def failure_count(self) -> int:
        """The number of failing tuples, past ``sys.maxsize`` too."""
        failures = self.failures
        return failures.total if isinstance(failures, ExhaustiveFailures) else len(failures)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_json(self) -> dict:
        # elapsed stays off the wire so seeded reports are byte-for-byte
        # reproducible; it remains available on the object itself.
        # All tuples of one multiset share one witness: render it once.
        values: dict[int, str] = {}
        for _, witness in self.failures:
            if id(witness) not in values:
                values[id(witness)] = str(witness[2])
        return {
            "dim": self.dim,
            "rep_dim": self.rep_dim,
            "mode": self.mode,
            "tuples_checked": self.tuples_checked,
            "failures": [
                {"tuple": list(t), "entry": [w[0], w[1]], "value": values[id(w)]}
                for t, w in self.failures
            ],
            "ok": self.ok,
        }


# A failing sample is drawn in full: count times D axes, 1.6 million a
# second at D = 16, the slowest rate measured for D = 2..100 (2 cores,
# Python 3.11.7), so past this bound it takes over a minute.
SAMPLE_MAX_AXES = 10**8


def verify_identity(
    rep: SpinRep,
    ident: Identity,
    mode: Literal["exhaustive", "sampled"] = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Evaluate the identity's left side over index tuples and report every
    tuple where it fails to vanish.

    The left side depends only on the multiset of the tuple, and on a
    representation of su(2) every spherical residual of order D follows
    from R(0, 0, D) = D! q_D(S_3) by the adjoint action
    (``_adjoint_residuals``), so a triple off the commutation relation is
    refused with ``ValueError``; the verdict on the relation is read from
    ``SpinRep.commutes``, computed once per representation.  When q_D(S_3)
    (``_q_of_s3``) vanishes, the identity holds at every tuple and the
    report says so at once, a sample undrawn.  Otherwise a multiset c holds
    unless the walk for the first nonzero entry of its Cartesian residual
    finds one, a failure's witness (``_first_witness``).  Exhaustive mode,
    the default at every dimension, judges every multiset once and keeps
    the failing ones' witnesses (``ExhaustiveFailures``), no tuple
    enumerated; sampled mode judges each multiset the first time a
    draw meets it, in one pass over the sample as drawn, at most 2^14
    random words at a time; a sample of more than ``SAMPLE_MAX_AXES`` axes
    (count times D) that must be drawn is refused with ``ValueError``
    before the first draw.  Every product is taken by the kernel kept with
    the representation (``SpinRep.spherical``): the first call on it builds
    the kernel, S_3^2 included, and later calls, verification or discovery,
    reuse its tables; ``stats["products"]`` counts only what this call
    computed.  Cross-dimension checks (ident.dim != rep.dim) are allowed
    and useful.  A failing identity yields a report, never an exception.
    """
    t0 = time.perf_counter()
    d = ident.dim
    if mode == "sampled":
        if count is None or seed is None:
            raise ValueError("sampled mode requires count and seed")
        if count < 1:
            raise ValueError(f"sampled mode needs a positive count, got {count}")
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if not rep.commutes:
        raise ValueError("the matrices do not satisfy the su(2) commutation relation [S_a, S_b] = i "
                         "epsilon_abc S_c, on which verification from the multiset of S_3 alone rests")

    q, products = _q_of_s3(rep, ident)
    if q[0] and mode == "sampled" and count * d > SAMPLE_MAX_AXES:
        raise ValueError(f"refused, a failing sample of {count} tuples of {d} indices is {count * d} axes to "
                         f"draw, above {SAMPLE_MAX_AXES}, past a minute")
    stats = {"multisets": (d + 1) * (d + 2) // 2, "spherical_residuals": 1, "products": products}
    failures: Sequence[Failure] = ExhaustiveFailures(d, {}) if mode == "exhaustive" else []
    if q[0]:
        spherical, commutators = _adjoint_residuals(rep, d, combine_terms([(factorial(d), *q)]))
        for c, (terms, den) in spherical.items():  # row-major order, for the witness walk
            spherical[c] = dict(sorted(terms.items())), den
        if mode == "exhaustive":
            failures = ExhaustiveFailures(d, {c: w for c in all_counts(d)
                                              if (w := _first_witness(c, spherical)) is not None})
        else:
            # The distinct draws of each read of the sample; each failing
            # draw kept once and put in order.
            verdict = lru_cache(maxsize=None)(partial(_first_witness, spherical=spherical))
            chunks = _sample_chunks(random.Random(seed), d, count)
            tuples = (t for chunk in chunks for t in {chunk[i : i + d] for i in range(0, len(chunk), d)})
            found = ((t, w) for t in tuples if (w := verdict((t.count(1), t.count(2), t.count(3)))) is not None)
            failures = [(tuple(t), w) for t, w in sorted(dict(found).items())]
            stats["multisets"] = verdict.cache_info().currsize
        stats.update(spherical_residuals=len(spherical), products=products + commutators)

    return VerificationReport(
        dim=d,
        rep_dim=rep.dim,
        mode=mode,
        tuples_checked=3**d if mode == "exhaustive" else count,
        failures=failures,
        elapsed=time.perf_counter() - t0,
        stats=stats,
    )


# randint(1, 3) reads one 32-bit word per draw and keeps its top two bits,
# rejecting 3: the top byte b of a word maps to the axis (b >> 6) + 1, and
# the bytes that map to 4 are deleted.
_AXIS_OF_TOP_BYTE = bytes((b >> 6) + 1 for b in range(256))
_REJECTED_TOP_BYTES = bytes(range(192, 256))
_WORDS_PER_READ = 1 << 14


def _sample_chunks(rng: random.Random, d: int, count: int) -> Iterator[bytes]:
    """The axes of count tuples of d axes, drawn from rng's stream exactly
    as ``[tuple(rng.randint(1, 3) for _ in range(d)) for _ in range(count)]``
    draws them, in chunks of whole tuples, one chunk per read of at most
    2^14 words: ``getrandbits(32 m)`` holds m successive words, the first in
    the lowest bits.  A quarter of the words are rejected, so a read asks
    for half as many words again as axes are left, and a sample of fewer
    axes than about 3/4 of 2^14 is one read.  Words read past the last
    axis go unused, so rng ends further on in its stream."""
    left, rest = d * count, b""
    while left:
        m = min(left + left // 2 + 64, _WORDS_PER_READ)
        top = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        new = top.translate(_AXIS_OF_TOP_BYTE, _REJECTED_TOP_BYTES)[:left]
        left -= len(new)
        axes = rest + new
        cut = len(axes) - len(axes) % d
        rest = axes[cut:]
        yield axes[:cut]


# ---------------------------------------------------------------------------
# Emission


def _integral_factor(ident: Identity) -> int:
    """Least common denominator of the b_p: the smallest positive rescaling
    that makes every displayed coefficient an integer."""
    return lcm(*(b.denominator for b in ident.b))


def identity_to_json(
    ident: Identity, normalization: Literal["monic", "integral"] = "monic"
) -> dict:
    """Identity as a JSON-ready dict; positions are 1-based.

    Level p = 0 carries the coefficient of the full symmetric product
    (1 when monic, the common denominator of the b_p when integral).
    """
    factor = 1 if normalization == "monic" else _integral_factor(ident)
    levels = [
        {"p": 0, "coefficient": str(Fraction(factor)), "subsets": [[]]}
    ]
    for p, b in enumerate(ident.b, start=1):
        level = itertools.combinations(range(1, ident.dim + 1), 2 * p)
        levels.append({"p": p, "coefficient": str(b * factor), "subsets": list(map(list, level))})
    return {"dim": ident.dim, "normalization": normalization, "levels": levels}


_INDEX_LETTERS = "ijklmnopq"


def _index_names(dim: int) -> list[str]:
    if dim <= len(_INDEX_LETTERS):
        return list(_INDEX_LETTERS[:dim])
    return [f"i_{{{q}}}" for q in range(1, dim + 1)]


def _latex_term(names: list[str], subset: tuple[int, ...], dim: int) -> str:
    skip = set(subset)
    inside = [names[q] for q in range(dim) if q not in skip]
    delta = "\\delta_{" + " ".join(names[q] for q in subset) + "}"
    if not inside:
        return delta + " \\mathbbm{1}"
    if len(inside) == 1:
        return f"S_{{{inside[0]}}} " + delta
    sym = "\\{ " + " ".join(f"S_{{{n}}}" for n in inside) + " \\}"
    return sym + " " + delta


def _frac_latex(q: Fraction) -> str:
    """A nonnegative rational in LaTeX: an integer, or \\frac{p}{q}."""
    return str(q.numerator) if q.denominator == 1 else f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def identity_to_latex(
    ident: Identity,
    normalization: Literal["monic", "integral"] = "monic",
    expand: bool = False,
) -> str:
    """LaTeX in the layout of the worked examples: braces for symmetric
    products, generalized deltas, and either every similar term spelled out
    (expand=True) or collapsed to "(k more similar terms)"."""
    dim = ident.dim
    names = _index_names(dim)
    factor = 1 if normalization == "monic" else _integral_factor(ident)

    lead = "" if factor == 1 else f"{factor} "
    pieces = [lead + "\\{ " + " ".join(f"S_{{{n}}}" for n in names) + " \\}"]
    for p, b in enumerate(ident.b, start=1):
        coeff = b * factor
        sign = " - " if coeff < 0 else " + "
        mag = abs(coeff)
        coeff_str = "" if mag == 1 else _frac_latex(mag) + " "
        # Trailing-position deltas first, matching the displayed general form
        # { S_{i_1} .. S_{i_{D-2p}} } delta_{i_{D-2p+1} .. i_D}.
        count = comb(dim, 2 * p)
        if expand:
            level = reversed(list(itertools.combinations(range(dim), 2 * p)))
        else:
            level = [tuple(range(dim - 2 * p, dim))]
        terms = [_latex_term(names, subset, dim) for subset in level]
        if count > 1 and not expand:
            terms.append(f"\\mbox{{({count - 1} more similar terms)}}")
        body = terms[0] if count == 1 else "\\Big( " + " + ".join(terms) + " \\Big)"
        pieces.append(sign + coeff_str + body)
    return "".join(pieces) + " = 0"

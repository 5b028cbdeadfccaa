"""The slow reference arithmetic the tests check spinid against.

``Radical`` and ``Scalar`` are dicts of ``Fraction`` and ``Matrix`` nested
lists of ``Scalar``, merged entry by entry: no code is shared with the
library's rows.  ``Matrix.inverse`` is Gauss-Jordan over the field, against
the library's fraction-free elimination on integer numerators: the same
inverse, or the same refusal with the same message.  ``ref`` reads a library Scalar or Matrix into this
arithmetic and ``lib`` writes a reference value back, so an oracle computes
here and compares here.  ``char_coeffs`` and ``b_coeffs`` expand the
characteristic equation in ``Fraction`` arithmetic, against the library's
expansion in integers.  ``discover_identity`` solves the equations of
every multiset, where the library's solves one; it runs on the library's
rows, since what it checks is that reduction.  ``discover_by_elimination``
solves the equations of (0, 0, D) by fraction-free elimination
(``_solve_ladder``), against the library's traces, Newton's identities and
squarefree test.  ``spherical_delta_weights``
enumerates weighted pairings, and ``spherical_residual`` sums with them the
identity's left side over S_+, S_-, S_3.  ``sweep_residuals``, the Horner
sweep over every counts below the targets, must match it; the library's
residuals from q_D(S_3) by the adjoint action must match the sweep.  The
sweep, too, runs on the library's rows.  ``eager_failures`` lists a failing
exhaustive report's tuples by filtering every tuple, against the library's
walk over heads and tails that reads only tuples that fail.
``cartesian_residual`` rebuilds a whole Cartesian residual from the
spherical ones with ``spherical_weights``, binomial sums in ``Fraction``s
against the library's integer recurrence; its first nonzero entry
(``first_nonzero_entry``) is the witness the library reads position by
position.  ``capped_step`` is the rewriter's fold step as a whole row:
each cell ordered times the letter, then every degree-D word capped by its
rule, against the library's product through its table of capped steps.
``fold`` folds every word of a polynomial on its own, against the
library's Horner fold over the words' shared suffixes.
``power_sum`` runs the binomial ladder in ``Fraction`` arithmetic, against
the library's ladder in integers.
``row_components`` and ``render_components`` print a row's coefficients
from ``Fraction``s, against the library's printer on integer numerators.
``Parser`` builds one ``NCPolynomial`` per factor and adds terms one by
one, against the library's parser on rows.
"""
import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

import spinid
from spinid import rewrite
from spinid.charid import DiscoveryError
from spinid.scalar import (KEY_I, KEY_ONE, UnsupportedInverseError, combine_terms, fraction_row, reduce_terms,
                           row_scalars, scalar_at, squarefree_decompose, times_key)
from spinid.spinrep import SingularMatrixError, eigenvalue_list
from spinid.symalg import SymSession, all_counts


def row_components(row):
    """The components (coefficient, radicand, imaginary?) at each position
    of a library row, coefficients as ``Fraction``s, in the order they print
    (real parts first, each sorted by radicand)."""
    terms, den = row
    out = {}
    for t in sorted(terms, key=lambda t: (t[-1] & 1, t[-1] >> 1)):
        out.setdefault(t[:-1], []).append((Fraction(terms[t], den), t[-1] >> 1, bool(t[-1] & 1)))
    return out


def frac_str(q, latex=False):
    if q.denominator == 1:
        return str(q.numerator)
    if latex:
        sign = "-" if q < 0 else ""
        return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
    return f"{q.numerator}/{q.denominator}"


def render_components(comps, latex=False):
    """A sum of (coefficient, radicand, imaginary?) components in the plain
    expression grammar (or LaTeX), e.g. ``1/2*sqrt(3) + 2*i``."""
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


class Radical:
    """sum_m c_m sqrt(m) over squarefree radicands m, no zero c_m stored."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __eq__(self, other):
        return self.terms == other.terms

    def __neg__(self):
        return Radical({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Radical(out)

    def __mul__(self, other):
        if not isinstance(other, Radical):
            return Radical({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # sqrt(m1) sqrt(m2) = g sqrt(m1' m2') for g = gcd(m1, m2)
                g = gcd(m1, m2)
                k = (m1 // g) * (m2 // g)
                out[k] = out.get(k, 0) + c1 * c2 * g
        return Radical(out)


class Scalar:
    """re + i*im with Radical parts (a rational stands for Radical({1: q}))."""

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Radical) else Radical({1: re})
        self.im = im if isinstance(im, Radical) else Radical({1: im})

    def is_zero(self):
        return not self.re.terms and not self.im.terms

    def conjugate(self):
        return Scalar(self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if set(self.re.terms) | set(self.im.terms) != {1}:
            raise UnsupportedInverseError(f"inverse of {self} has a radical denominator")
        n = Fraction(1) / self.norm_sq().terms[1]
        return Scalar(self.re * n, -self.im * n)

    def components(self):
        """Rational coordinates over the basis {sqrt(m), i*sqrt(m)}."""
        return {(part, m): c for part, r in (("re", self.re), ("im", self.im)) for m, c in r.terms.items()}

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __add__(self, other):
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return Scalar(self.re * other, self.im * other)
        return Scalar(self.re * other.re + -(self.im * other.im), self.re * other.im + self.im * other.re)

    def _component_list(self):
        return [(c, m, imag) for imag, r in ((False, self.re), (True, self.im)) for m, c in sorted(r.terms.items())]

    def __str__(self):
        return render_components(self._component_list())

    def latex(self):
        return render_components(self._component_list(), latex=True)


ZERO, ONE, I = Scalar(), Scalar(1), Scalar(0, 1)


def sqrt(q):
    """sqrt(q) = c sqrt(m) / den for q = num / den and num * den = c^2 m."""
    q = Fraction(q)
    if not q:
        return ZERO
    c, m = squarefree_decompose(q.numerator * q.denominator)
    return Scalar(Radical({m: Fraction(c, q.denominator)}))


def of_components(components):
    """The Scalar of (coefficient, radicand, imaginary?) components."""
    return sum((sqrt(m) * q * (I if imag else ONE) for q, m, imag in components), ZERO)


def accumulate(terms, w, c):
    """Add c to the coefficient of w in a dict of nonzero Scalars by word."""
    s = terms.pop(w, ZERO) + c
    if not s.is_zero():
        terms[w] = s


class Matrix:
    """Square nested lists of Scalars; ``rows`` may be filled in before use."""

    def __init__(self, rows):
        self.dim = len(rows)
        self.rows = [list(r) for r in rows]

    @classmethod
    def zero(cls, dim):
        return cls([[ZERO] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, dim):
        return cls([[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)])

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Matrix([[a * c for a in r] for r in self.rows])

    def __mul__(self, other):
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for k, a in enumerate(self.rows[i]):
                for j, b in enumerate(other.rows[k]):
                    if not (a.is_zero() or b.is_zero()):
                        out[i][j] = out[i][j] + a * b
        return Matrix(out)

    def dagger(self):
        return Matrix([[self.rows[c][r].conjugate() for c in range(self.dim)] for r in range(self.dim)])

    def first_nonzero_entry(self):
        return next(((r, c, a) for r, row in enumerate(self.rows) for c, a in enumerate(row) if not a.is_zero()), None)

    def __eq__(self, other):
        return self.dim == other.dim and self.rows == other.rows

    def inverse(self):
        """Gauss-Jordan elimination, the pivot the first nonzero entry in its column."""
        n = self.dim
        a, inv = [list(r) for r in self.rows], Matrix.identity(n).rows
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            a[col], a[pivot], inv[col], inv[pivot] = a[pivot], a[col], inv[pivot], inv[col]
            p = a[col][col].inverse()
            a[col], inv[col] = [p * x for x in a[col]], [p * x for x in inv[col]]
            for r in range(n):
                f = a[r][col]
                if r != col and not f.is_zero():
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return Matrix(inv)


def word_matrix(rep, w, cache):
    """The reference matrix of the word w on rep, from the longest prefix
    kept in cache (a dict for one representation), one letter at a time."""
    if not cache:
        cache[()] = Matrix.identity(rep.dim)
        cache.update({(a,): ref(rep.matrix(a)) for a in (1, 2, 3)})
    n = len(w)
    while w[:n] not in cache:
        n -= 1
    m = cache[w[:n]]
    for j in range(n, len(w)):
        m = cache[w[: j + 1]] = m * cache[w[j : j + 1]]
    return m


def ref(x):
    """The reference value of a spinid Scalar or Matrix."""
    if isinstance(x, spinid.Matrix):
        entries = row_scalars(x.row)
        return Matrix([[ref(entries[(r, c)]) if (r, c) in entries else ZERO for c in range(x.dim)]
                       for r in range(x.dim)])
    (terms, den), parts = x.row, ({}, {})
    for (k,), n in terms.items():
        parts[k & 1][k >> 1] = Fraction(n, den)
    return Scalar(Radical(parts[0]), Radical(parts[1]))


def lib(x):
    """The spinid Scalar or Matrix of a reference value."""
    if isinstance(x, Matrix):
        return spinid.Matrix([[lib(a) for a in r] for r in x.rows])
    return spinid.Scalar._make(fraction_row({(2 * m + (part == "im"),): c for (part, m), c in x.components().items()}))


def char_coeffs(dim):
    """a_1..a_floor(D/2) of the characteristic equation, expanding the
    product of S^2 - m^2 over the nonzero eigenvalue squares in Fraction
    arithmetic, highest power of S^2 first."""
    coeffs = [Fraction(1)]
    for e in [m * m for m in eigenvalue_list(dim) if m > 0]:
        nxt = coeffs + [Fraction(0)]
        for j in range(1, len(nxt)):
            nxt[j] -= e * coeffs[j - 1]
        coeffs = nxt
    return tuple(coeffs[1:])


def b_coeffs(dim):
    """b_p = 2^p p! a_p from the reference a_p."""
    return [2**p * factorial(p) * a for p, a in enumerate(char_coeffs(dim), start=1)]


def power_sum(r, n):
    """Sum of q^r for q = 0..n by the binomial-recursion ladder in Fraction
    arithmetic, against the library's ladder in integers."""
    sums = [Fraction(n + 1)]
    for k in range(1, r + 1):
        acc = Fraction((n + 1) ** (k + 1))
        for p in range(k):
            acc -= comb(k + 1, p) * sums[p]
        sums.append(acc / (k + 1))
    return sums[r]


SPHERICAL_PAIR_WEIGHT = {(1, 2): 2, (2, 1): 2, (3, 3): 1}  # letters +, -, 3


def weighted_pairings(idx, weight):
    """Sum over the perfect pairings of idx of the product of the pair
    weights, enumerated like ``symalg.gen_delta``."""
    if not idx:
        return 1
    first, tail = idx[0], idx[1:]
    return sum(weight.get((first, other), 0) * weighted_pairings(tail[:j] + tail[j + 1 :], weight)
               for j, other in enumerate(tail))


@lru_cache(maxsize=None)
def spherical_delta_weights(counts, p):
    """The deltas over S_+, S_-, S_3 of a tuple with these counts, summed
    over all 2p-subsets of positions by the counts left out: each subset
    weighs the weighted pairings of its letters, where a (+, -) pair
    weighs 2, a (3, 3) pair 1 and any other pair 0 (u.u = 4 alpha beta +
    gamma^2 for u.S = alpha S_+ + beta S_- + gamma S_3)."""
    idx = tuple(a for a, c in zip((1, 2, 3), counts) for _ in range(c))
    pairings, out = {}, {}  # pairings by the subset's letters, in order
    for subset in itertools.combinations(range(len(idx)), 2 * p):
        letters = tuple(idx[q] for q in subset)
        if letters not in pairings:
            pairings[letters] = weighted_pairings(letters, SPHERICAL_PAIR_WEIGHT)
        if pairings[letters]:
            rest = tuple(c - letters.count(a) for a, c in zip((1, 2, 3), counts))
            out[rest] = out.get(rest, 0) + pairings[letters]
    return out


def spherical_residual(ident, session, counts):
    """The identity's left side at the spherical counts (a, b, c), as a row
    of a session over ``SpinRep.spherical``: {c} plus b_p times the
    spherical deltas of each level."""
    parts = [(1, *session.sym_int(counts))]
    parts += [(b_p * w, *session.sym_int(rest)) for p, b_p in enumerate(ident.b, start=1)
              for rest, w in spherical_delta_weights(counts, p).items()]
    return combine_terms(parts)


def spherical_weights(c1, c2):
    """(a, b, weight) of the nonzero terms of the residual at Cartesian
    counts c from the spherical ones R(a, b, c3), a + b = n = c1 + c2:

        c1! c2! / 2^n sum_{a+b=n} 1/(a! b!)
            sum_{x+y=c2} C(a, x) C(b, y) (-1)^x i^(x+y) R(a, b, c3),

    from u1 S_1 + u2 S_2 = alpha S_+ + beta S_- with alpha = (u1 - i u2)/2
    and beta = (u1 + i u2)/2, summed in ``Fraction``s; i^(x+y) = i^c2 is one
    factor, its sign in the weights and its i left to the caller.  The
    library's integer weights f_a must equal weight 2^n (-1)^(c2 // 2)."""
    n = c1 + c2
    scale = Fraction(factorial(c1) * factorial(c2) * (-1) ** (c2 // 2), 2**n)
    out = []
    for a in range(n + 1):
        b = n - a
        k = sum((-1) ** x * comb(a, x) * comb(b, c2 - x) for x in range(c2 + 1))
        if k:
            out.append((a, b, scale * Fraction(k, factorial(a) * factorial(b))))
    return tuple(out)


def cartesian_residual(counts, spherical):
    """The residual at Cartesian counts c from the spherical residuals
    R(a, b, c3) with a + b = c1 + c2 (``spherical``, keyed by counts): their
    combination with ``spherical_weights``, times i if c2 is odd, as one
    whole row."""
    c1, c2, c3 = counts
    terms, den = combine_terms((w, *spherical[(a, b, c3)]) for a, b, w in spherical_weights(c1, c2))
    return (times_key(terms, KEY_I) if c2 % 2 else terms), den


def first_nonzero_entry(row):
    """The first nonzero entry (row, col, Scalar) of a matrix row in
    row-major order, or None."""
    if not row[0]:
        return None
    r, c, _ = min(row[0])
    return r, c, scalar_at(row, {(r, c)})


def capped_step(table, row, a):
    """NF(row * S_a) as the rewriter took it one whole row at a time: each
    cell's word ordered times S_a (``_ordered_form``) and times the cell's
    key, combined, then every ordered word of degree D in the result
    replaced by its rule (``_identity_replacement``), built anew on the
    table's session of ordered words."""
    cells, row_den = row
    terms, den = combine_terms((n, times_key(t, k), d * row_den) for (u, k), n in cells.items()
                               for t, d in [rewrite._ordered_form(u, a, table.forms)])
    parts = [(1, terms, den)]
    for (v, k), n in terms.items():
        if len(v) == table.dim:
            rule, rule_den = rewrite._identity_replacement(spinid.build_identity(table.dim), v, table.session)
            parts.append((Fraction(n, den), times_key(rule, k), rule_den))
    return combine_terms(parts)


def fold(p, unit, times):
    """The value of p in the algebra of unit and times, each word folded on
    its own: letter by letter from the unit, times the cells of its
    coefficient, all combined over p's denominator; against the library's
    Horner fold, which multiplies a suffix shared by several words once."""
    terms, den = p._row
    by_word = {}
    for (w, key), n in terms.items():
        by_word.setdefault(w, []).append((key, n))
    parts = []
    for w, items in by_word.items():
        row = unit
        for a in w:
            row = times([(1, row, a)])
        parts += [(n, times_key(row[0], key), row[1]) for key, n in items]
    out, d = combine_terms(parts)
    return reduce_terms(out, d * den)


def sweep_residuals(rep, ident, targets):
    """The spherical residuals R(c) at the order-D counts ``targets``, and
    the number of products taken, by Horner's rule on the contracted
    identity.

    Contracted with u, u.S = alpha S_+ + beta S_- + gamma S_3, the left
    side is D! F with F = sum_j a_j (u.u)^j (u.S)^(D - 2j), u.u = 4 alpha
    beta + gamma^2 and a_j = b_j / (2^j j!) (a_0 = 1), and R(c) is
    Q_F(c) = c1! c2! c3! [alpha^c1 beta^c2 gamma^c3] F.  With Q normalized
    so, a right factor u.S maps Q to Q'(c) = sum_a c_a Q(c - e_a) S_a, one
    ``times`` call per entry, as ``SymSession`` builds {c}.  The sweep runs
    G_0 = 1, G_j = G_(j-1) (u.S)^2 + a_j (u.u)^j and F = G_(D//2) (u.S)^(D%2):
    the term a_j (u.u)^j adds a_j C(j, m) 4^m c! times the unit at
    c = (m, m, 2(j - m)).  Only two orders are held at a time, and each
    holds only the counts below some target: every counts when the
    targets are every order-D counts."""
    d = ident.dim
    if len(targets) == (d + 1) * (d + 2) // 2:
        levels = [all_counts(n) for n in range(d, -1, -1)]
    else:
        levels = [set(targets)]  # the downset of the targets, order d down to 0
        for _ in range(d):
            levels.append({b for x, y, z in levels[-1]
                           for k, b in ((x, (x - 1, y, z)), (y, (x, y - 1, z)), (z, (x, y, z - 1))) if k})
    unit, times = rep.spherical
    rows, products = {(0, 0, 0): unit}, 0
    for n in range(1, d + 1):
        below, rows = rows, {}
        for x, y, z in levels[d - n]:
            parts = []
            for a, k, b in ((1, x, (x - 1, y, z)), (2, y, (x, y - 1, z)), (3, z, (x, y, z - 1))):
                if k and below[b][0]:  # a zero row stays zero: it is not multiplied
                    parts.append((k, below[b], a))
            rows[x, y, z] = times(parts) if parts else ({}, 1)
            products += bool(parts)
        j = n // 2
        if n % 2 == 0 and j <= len(ident.b):
            a_j = ident.b[j - 1] / (2**j * factorial(j))
            for m in range(j + 1):
                c = (m, m, n - 2 * m)
                if c in rows:
                    w = a_j * (comb(j, m) * 4**m * factorial(m) ** 2 * factorial(n - 2 * m))
                    rows[c] = combine_terms([(1, *rows[c]), (w, *unit)])
    return rows, products


def eager_failures(dim, witnesses):
    """An exhaustive report's failures as verification listed them before
    it kept them by multiset: ``itertools.product`` filtered by the
    verdicts, here the failing counts' ``witnesses``."""
    tuples = itertools.product((1, 2, 3), repeat=dim)
    return [(t, witnesses[c]) for t in tuples if (c := (t.count(1), t.count(2), t.count(3))) in witnesses]


def discover_identity(rep):
    """The identity's b_p by the all-multisets elimination: the equations
    of every counts of order D, in the spherical algebra with the
    spherical delta weights, one per (row, col, key) coordinate, solved
    fraction-free.  The library solves the counts (0, 0, D) alone; this
    is the slow path it must agree with, result for result and
    ``DiscoveryError`` for ``DiscoveryError``, on every representation of
    su(2).  It makes no commutation check."""
    dim = rep.dim
    k = dim // 2
    unit, times = rep.spherical
    session = SymSession(unit=unit, times=times)
    pivots = {}  # pivots[j]: integer row with leading entry in column j, rhs last
    for counts in all_counts(dim):
        mats = [combine_terms((w, *session.sym_int(rest)) for rest, w in spherical_delta_weights(counts, p).items())
                for p in range(1, k + 1)]
        mats.append(combine_terms([(-1, *session.sym_int(counts))]))
        den = lcm(*(d for _, d in mats))
        rows = {}
        for j, (terms, d) in enumerate(mats):
            for cell, n in terms.items():
                rows.setdefault(cell, [0] * (k + 1))[j] = n * (den // d)
        for cell in sorted(rows):
            row = rows[cell]
            for j in range(k):
                if row[j] and j in pivots:
                    row = [pivots[j][j] * x - row[j] * y for x, y in zip(row, pivots[j])]
            lead = next((j for j in range(k) if row[j]), None)
            if lead is None:
                if row[k]:
                    raise DiscoveryError("no coefficients satisfy the identity pattern")
                continue
            g = gcd(*row)
            pivots[lead] = [x // g for x in row]
    if len(pivots) < k:
        raise DiscoveryError("identity coefficients are not uniquely determined")
    b = [Fraction(0)] * k
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        b[j] = (row[k] - sum(row[t] * b[t] for t in range(j + 1, k))) / Fraction(row[j])
    return spinid.Identity(dim, tuple(b))


def _solve_ladder(powers):
    """The a_p, p = 1..k for k = len(powers) - 1, with
    powers[k] + sum_p a_p powers[k - p] = 0, by elimination: the solve the
    library's discovery made before it read the a_p from traces.

    Each (row, col, key) coordinate gives one equation, cleared of
    denominators; in sorted order they are eliminated fraction-free until k
    pivots stand (``_eliminate``).  Back-substitution then gives the only
    candidate the whole system allows, and one combination of the powers
    certifies it against every equation.  A contradiction, met in
    elimination or by the certificate, raises "no coefficients satisfy";
    fewer than k pivots, "not uniquely determined"."""
    k = len(powers) - 1
    # Column p - 1 is powers[k - p]; the right-hand side -powers[k].
    mats = powers[k - 1::-1] + [combine_terms([(-1, *powers[k])])]
    den = lcm(*(d for _, d in mats))
    rows = {}
    for j, (terms, d) in enumerate(mats):
        scale = den // d
        for cell, n in terms.items():
            rows.setdefault(cell, [0] * (k + 1))[j] = n * scale
    pivots = {}  # pivots[j]: integer row with leading entry in column j, rhs last
    for cell in sorted(rows):
        _eliminate(rows[cell], pivots, k)
        if len(pivots) == k:
            break
    else:
        raise DiscoveryError("identity coefficients are not uniquely determined")
    a = _back_substitute(pivots, k)
    if combine_terms([(1, *powers[k])] + [(a_p, *powers[k - p]) for p, a_p in enumerate(a, start=1)])[0]:
        raise DiscoveryError("no coefficients satisfy the identity pattern")
    return a


def _eliminate(row, pivots, k):
    """Reduce row by the pivots and store it as a new pivot, or check that
    it vanishes.  Each step divides the row by its content, which keeps
    the integers from growing with the number of pivots met."""
    for j in range(k):
        if row[j] and j in pivots:
            f, prow = row[j], pivots[j]
            g = prow[j]
            row = [g * x - f * y for x, y in zip(row, prow)]
            c = gcd(*row)
            if c > 1:
                row = [x // c for x in row]
    lead = next((j for j in range(k) if row[j]), None)
    if lead is None:
        if row[k]:
            raise DiscoveryError("no coefficients satisfy the identity pattern")
        return
    g = gcd(*row)
    pivots[lead] = [x // g for x in row]


def _back_substitute(pivots, k):
    values = [Fraction(0)] * k
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        acc = Fraction(row[k])
        for t in range(j + 1, k):
            acc -= row[t] * values[t]
        values[j] = acc / row[j]
    return values


def discover_by_elimination(rep):
    """The identity from (0, 0, D) alone, solved by ``_solve_ladder`` on the
    ladder of powers of S_3^2: the library's discovery before traces, its
    oracle now, identity for identity and ``DiscoveryError`` for
    ``DiscoveryError``.  Like the library, it refuses a triple off the
    commutation relation."""
    dim = rep.dim
    if not rep.commutes:
        raise DiscoveryError("the matrices do not satisfy the su(2) commutation relation")
    unit, times = rep.spherical
    powers = [rep.rows[2] if dim % 2 else unit]
    for _ in range(dim // 2):
        powers.append(times([(1, powers[-1], 4)]))
    a = _solve_ladder(powers)
    return spinid.Identity(dim, tuple(2**p * factorial(p) * a_p for p, a_p in enumerate(a, start=1)))


class Parser:
    """The expression grammar parsed one ``NCPolynomial`` per factor: every
    product through ``NCPolynomial.__mul__``, every sum through ``+`` and
    a negated copy, every number a ``Fraction``.  The library's parser must
    give the same row, or the same ``ParseError`` message and position; it
    keeps a monomial per term and combines each sum once.  The bounds are
    read from ``rewrite`` when used, so a test may lower them for both."""

    def __init__(self, text):
        self.tokens = rewrite._tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            what = f"{tok[1]!r}" if tok[0] != "EOF" else "end of input"
            raise rewrite.ParseError(f"expected {kind}, found {what}", tok[2])
        self.k += 1
        return tok

    def parse(self):
        p = self.expression()
        tok = self.peek()
        if tok[0] != "EOF":
            raise rewrite.ParseError(f"unexpected {tok[1]!r}", tok[2])
        if any(key >> 1 > rewrite._SQRT_MAX for _, key in p._row[0]):
            raise rewrite.ParseError(f"combined sqrt radicand exceeds {rewrite._SQRT_MAX}", 0)
        return p

    def expression(self):
        sign = self.take()[0] if self.peek()[0] in ("+", "-") else "+"
        acc = self.term()
        if sign == "-":
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.take()
            elif tok[0] not in rewrite._FACTOR_START:
                return acc
            acc = self.product(acc, self.factor(), tok[2])

    @staticmethod
    def product(a, b, position):
        if (n := len(a._row[0]) * len(b._row[0])) > rewrite._MAX_WORDS:
            raise rewrite.ParseError(f"product of up to {n} terms refused: over {rewrite._MAX_WORDS} words",
                                     position)
        return a * b

    def factor(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "INT":
            return spinid.NCPolynomial._make(fraction_row({((), KEY_ONE): self.rational()}))
        if kind == "NAME":
            return self.letters() if tok[1] in rewrite._GENERATORS else self.atom()
        if kind == "(":
            self.take()
            p = self.expression()
            self.take(")")
            return p
        if kind == "{":
            return self.symmetric_braces()
        if kind == "[":
            self.take()
            a = self.expression()
            self.take(",")
            b = self.expression()
            self.take("]")
            return self.product(a, b, tok[2]) - b * a
        what = f"{tok[1]!r}" if kind != "EOF" else "end of input"
        raise rewrite.ParseError(f"expected a factor, found {what}", tok[2])

    def rational(self):
        num = int(self.take("INT")[1])
        if self.peek()[0] == "/":
            self.take()
            tok = self.take("INT")
            den = int(tok[1])
            if den == 0:
                raise rewrite.ParseError("zero denominator", tok[2])
            return Fraction(num, den)
        return Fraction(num)

    def letters(self):
        word = []
        while True:
            word.append(rewrite._GENERATORS[self.take()[1]])
            k = self.k + (self.tokens[self.k][0] == "*")
            kind, name, _ = self.tokens[k]
            if kind != "NAME" or name not in rewrite._GENERATORS:
                return spinid.NCPolynomial._make(({(tuple(word), KEY_ONE): 1}, 1))
            self.k = k

    def atom(self):
        tok = self.take("NAME")
        name = tok[1]
        if name == "I":
            return spinid.NCPolynomial.one()
        if name == "i":
            return spinid.NCPolynomial._make(({((), KEY_I): 1}, 1))
        if name == "sqrt":
            self.take("(")
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            itok = self.take("INT")
            m = sign * int(itok[1])
            self.take(")")
            if m <= 0:
                raise rewrite.ParseError("sqrt of non-positive integer", itok[2])
            if m > rewrite._SQRT_MAX:
                raise rewrite.ParseError(f"sqrt argument exceeds {rewrite._SQRT_MAX}", itok[2])
            c, sf = squarefree_decompose(m)
            return spinid.NCPolynomial._make(({((), 2 * sf): c}, 1))
        raise rewrite.ParseError(f"unknown atom {name!r}", tok[2])

    def symmetric_braces(self):
        open_tok = self.take("{")
        letters = []
        while True:
            tok = self.peek()
            if tok[0] == "}":
                self.take()
                break
            if tok[0] == "*":
                self.take()
                continue
            if tok[0] == "NAME" and tok[1] in rewrite._GENERATORS:
                self.take()
                letters.append(rewrite._GENERATORS[tok[1]])
                continue
            what = f"{tok[1]!r}" if tok[0] != "EOF" else "end of input"
            raise rewrite.ParseError(f"symmetric braces admit only S1, S2, S3; found {what}", tok[2])
        if not letters:
            raise rewrite.ParseError("empty symmetric braces", open_tok[2])
        orderings = factorial(len(letters)) // prod(factorial(letters.count(a)) for a in (1, 2, 3))
        if orderings > rewrite._MAX_WORDS:
            raise rewrite.ParseError(
                f"symmetric braces of {orderings} orderings refused: over {rewrite._MAX_WORDS} words", open_tok[2])
        return spinid.sym_words(tuple(letters))


def parse(text):
    """``Parser`` on text, with the library's refusal of deep nesting."""
    parser = Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise rewrite.ParseError("expression nested too deeply", parser.peek()[2]) from None

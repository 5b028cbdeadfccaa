"""Slow reference oracles for the row-based polynomial and evaluation paths.

``reference_evaluate`` multiplies reference Matrix-of-Scalar prefix
products, and ``_Ref`` keeps a polynomial as a dict of reference Scalar
coefficients merged term by term.  Neither shares code with the row
arithmetic they check.
"""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from reference import lib, ref
from spinid.rewrite import NCPolynomial, evaluate, parse, reduce_degree, render
from spinid.spinrep import Matrix, build_generators, conjugate_rep

REPS = {dim: build_generators(dim) for dim in range(1, 7)}

COEFFICIENTS = [
    R.ONE,
    R.Scalar(Fraction(-3, 2)),
    R.Scalar(Fraction(5, 7)),
    R.I,
    R.I * Fraction(-2, 3),
    R.sqrt(2),
    R.sqrt(6) * Fraction(1, 4),
    R.sqrt(3) * R.I,
    R.Scalar(Fraction(1, 3)) + R.I * 2,
    R.sqrt(5) * Fraction(3, 2) - R.sqrt(10) * R.I + R.Scalar(Fraction(-1, 6)),
]


def reference_evaluate(p, rep, cache=None):
    """Exact matrix value from reference Matrix-of-Scalar products of word
    prefixes."""
    cache = {} if cache is None else cache
    total = R.Matrix.zero(rep.dim)
    for w, c in p.terms().items():
        total = total + R.word_matrix(rep, w, cache).scale(ref(c))
    return total


def _poly(terms):
    """The NCPolynomial of reference coefficients by word."""
    return NCPolynomial({w: lib(c) for w, c in terms.items()})


def _ref_terms(p):
    return {w: ref(c) for w, c in p.terms().items()}


def _seeded_poly(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, max_degree)))
        terms[w] = rng.choice(COEFFICIENTS)
    return _poly(terms)


def test_evaluate_matches_reference_on_ladder_representations():
    rng = random.Random(2024)
    for dim, rep in REPS.items():
        ref_cache, cache = {}, {}
        for _ in range(30):
            p = _seeded_poly(rng, dim + 3)
            assert ref(evaluate(p, rep, cache)) == reference_evaluate(p, rep, ref_cache), (dim, render(p))
            if dim > 1:
                nf = reduce_degree(p, dim)
                assert ref(evaluate(nf, rep, cache)) == reference_evaluate(nf.poly, rep, ref_cache)


def test_evaluate_cache_follows_the_representation():
    # One cache dict over representations of different dimensions: each
    # call must match a call with a fresh cache.
    rng = random.Random(5)
    cache = {}
    for dim in (3, 4, 2, 4):
        p = _seeded_poly(rng, 5)
        assert evaluate(p, REPS[dim], cache) == evaluate(p, REPS[dim]), (dim, render(p))


def test_evaluate_matches_reference_on_a_dense_conjugation():
    m = Matrix.from_rational_rows([
        [2, 1, Fraction(-1, 2), 1],
        [1, Fraction(3, 2), 0, -2],
        [Fraction(1, 3), -1, 1, 1],
        [1, 0, 2, Fraction(5, 4)],
    ])
    rep = conjugate_rep(REPS[4], m)
    assert not rep.S[0][0, 3].is_zero()  # dense, not the ladder's band
    rng = random.Random(77)
    ref_cache, cache = {}, {}
    for _ in range(20):
        p = _seeded_poly(rng, 6)
        assert ref(evaluate(p, rep, cache)) == reference_evaluate(p, rep, ref_cache), render(p)


# --- the polynomial ring against a dict of reference Scalars -------------------------------


class _Ref:
    """Word -> nonzero reference Scalar, with the ring operations as Scalar loops."""

    def __init__(self, terms):
        self.terms = {}
        for w, c in terms.items():
            R.accumulate(self.terms, tuple(w), c)

    def __add__(self, other):
        out = _Ref({})
        out.terms = dict(self.terms)
        for w, c in other.terms.items():
            R.accumulate(out.terms, w, c)
        return out

    def __neg__(self):
        return _Ref({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = _Ref({})
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                R.accumulate(out.terms, w1 + w2, c1 * c2)
        return out

    def scale(self, c):
        return _Ref({w: c * x for w, x in self.terms.items()})


_SCALARS = st.sampled_from(COEFFICIENTS + [R.ZERO, R.Scalar(-1), -R.I])
_WORDS = st.lists(st.integers(1, 3), max_size=4).map(tuple)
_TERMS = st.dictionaries(_WORDS, _SCALARS, max_size=5)


@given(_TERMS, _TERMS, _SCALARS, st.integers(-3, 3), st.fractions(max_denominator=5))
@settings(max_examples=150, deadline=None)
def test_polynomial_ring_matches_scalar_reference(a, b, c, n, q):
    p, r = _poly(a), _poly(b)
    ra, rb = _Ref(a), _Ref(b)
    assert _ref_terms(p) == ra.terms
    assert _ref_terms(p + r) == (ra + rb).terms
    assert _ref_terms(p - r) == (ra - rb).terms
    assert _ref_terms(p * r) == (ra * rb).terms
    assert _ref_terms(-p) == (-ra).terms
    assert _ref_terms(p.scale(lib(c))) == ra.scale(c).terms
    assert _ref_terms(p * n) == _ref_terms(n * p) == ra.scale(R.Scalar(n)).terms
    assert _ref_terms(q * p) == ra.scale(R.Scalar(q)).terms
    assert (p == r) == (ra.terms == rb.terms)
    assert p.is_zero() == (not ra.terms)
    for w, coeff in ra.terms.items():
        assert ref(p.coefficient(w)) == coeff
    assert p.degree() == max(map(len, ra.terms), default=0)


# --- printing and reduction fixed points --------------------------------------------------


@given(_TERMS)
@settings(max_examples=100, deadline=None)
def test_parse_inverts_render(terms):
    p = _poly(terms)
    assert parse(render(p)) == p


@given(st.integers(2, 5), st.dictionaries(st.lists(st.integers(1, 3), max_size=7).map(tuple), _SCALARS, max_size=4))
@settings(max_examples=60, deadline=None)
def test_reduce_fixes_its_normal_form(dim, terms):
    nf = reduce_degree(_poly(terms), dim)
    assert reduce_degree(nf.poly, dim) == nf

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_symalg import _component

import reference as R
from reference import lib, ref
from spinid.scalar import (
    KEY_I,
    KEY_ONE,
    Scalar,
    UnsupportedInverseError,
    reduce_terms,
    render_components,
    row_components,
    sqrt_of_rational,
    squarefree_decompose,
)
from spinid.spinrep import Matrix, build_generators


rad = Scalar.sqrt_int


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(18) == (3, 2)
    assert squarefree_decompose(48) == (4, 3)
    assert squarefree_decompose(97) == (1, 97)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_radical_mul_examples():
    assert rad(2) * rad(2) == Scalar.of(2)
    assert rad(3) * rad(6) == rad(2) * 3
    one_plus = Scalar.one() + rad(2)
    one_minus = Scalar.one() - rad(2)
    assert one_plus * one_minus == Scalar.of(-1)


def test_radical_rejects_non_squarefree_keys():
    # a square factor never reaches a basis key: sqrt(8) is kept as 2*sqrt(2)
    assert rad(8).row == ({(2 * 2,): 2}, 1)
    assert (rad(12) * rad(3)).row == ({(2 * 1,): 6}, 1)
    for m in (0, -4):
        with pytest.raises(ValueError):
            rad(m)


def test_radical_zero_and_rational_part():
    assert Scalar.zero().is_zero() and not Scalar.zero()
    assert (rad(2) - rad(2)).is_zero()
    r = Scalar.of(Fraction(3, 4))
    assert r.is_gaussian() and r == Scalar(Fraction(3, 4))
    assert not rad(2).is_gaussian()


def test_scalar_arith_examples():
    a = Scalar.one() + rad(3) * Scalar.i()  # 1 + i*sqrt(3)
    assert a * a.conjugate() == Scalar.of(4)
    assert Scalar.of(Fraction(2, 3)).inverse() == Scalar.of(Fraction(3, 2))
    with pytest.raises(UnsupportedInverseError):
        rad(2).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


def test_gaussian_inverse():
    z = Scalar(Fraction(1, 2), Fraction(-3, 4))
    w = z.inverse()
    assert z * w == Scalar.one()
    assert ref(w) == R.Scalar(Fraction(1, 2), Fraction(-3, 4)).inverse()


def test_conjugation_involution_and_norm():
    rz = R.Scalar(R.Radical({1: 1, 2: Fraction(1, 2)}), R.Radical({3: Fraction(-1, 3)}))
    z = lib(rz)
    assert z.conjugate().conjugate() == z
    assert ref(z.conjugate()) == rz.conjugate()
    # |z|^2 = re^2 + im^2, a real radical
    assert ref(z * z.conjugate()) == R.Scalar(rz.norm_sq())


@pytest.mark.parametrize(
    "q, expected",
    [
        (Fraction(9, 4), Scalar.of(Fraction(3, 2))),
        (Fraction(3, 4), Scalar.sqrt_int(3) * Fraction(1, 2)),
        (Fraction(0), Scalar.zero()),
        (Fraction(2), Scalar.sqrt_int(2)),
    ],
)
def test_sqrt_of_rational_examples(q, expected):
    assert sqrt_of_rational(q) == expected
    assert ref(sqrt_of_rational(q)) == R.sqrt(q)


def test_sqrt_of_negative_rejected():
    with pytest.raises(ValueError):
        sqrt_of_rational(Fraction(-1, 4))


@given(
    p1=st.integers(min_value=0, max_value=10**4),
    p2=st.integers(min_value=1, max_value=10**4),
)
def test_sqrt_squares_back(p1, p2):
    q = Fraction(p1, p2)
    r = sqrt_of_rational(q)
    assert r * r == Scalar.of(q)


_SQUAREFREE_30 = [m for m in range(1, 31) if squarefree_decompose(m)[1] == m]


def _random_radical(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        m = rng.choice(_SQUAREFREE_30)
        num = rng.randint(-(2**63), 2**63)
        den = rng.randint(1, 2**63)
        terms[m] = terms.get(m, Fraction(0)) + Fraction(num, den)
    return R.Radical(terms)


def _random_scalar(rng):
    return R.Scalar(_random_radical(rng), _random_radical(rng))


def test_ring_axioms_random_triples():
    # the axioms on row-backed Scalars, and each sum and product against
    # the reference arithmetic on the same values
    rng = random.Random(20240513)
    for _ in range(10**4):
        ra, rb, rc = (_random_scalar(rng) for _ in range(3))
        a, b, c = lib(ra), lib(rb), lib(rc)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert ref(a + b) == ra + rb and ref(a * b) == ra * rb
    # associativity of multiplication, smaller budget (it is the slow one)
    for _ in range(2000):
        ra, rb, rc = (_random_scalar(rng) for _ in range(3))
        a, b, c = lib(ra), lib(rb), lib(rc)
        assert (a * b) * c == a * (b * c)
        assert ref((a * b) * c) == (ra * rb) * rc


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        rz = _random_scalar(rng)
        z = lib(rz)
        assert ref(z) == rz
        assert Scalar._make(z.row) == z and lib(ref(z)).row == z.row


_COMPONENTS = st.lists(_component, max_size=4)  # (coefficient, radicand, imaginary?)


def _built(components):
    """The Scalar of the components by library arithmetic."""
    return sum((Scalar.sqrt_int(m) * q * (Scalar.i() if imag else Scalar.one()) for q, m, imag in components),
               Scalar.zero())


@settings(max_examples=100, deadline=None)
@given(_COMPONENTS, st.lists(_COMPONENTS, min_size=4, max_size=4))
def test_scalar_value_semantics(components, entries):
    # equal values built by different routes are one value, hashed alike
    for x, y in ((Scalar.sqrt_int(8), 2 * Scalar.sqrt_int(2)), (Scalar(1, 1) * Scalar(1, -1), Scalar.of(2))):
        assert x == y and hash(x) == hash(y)
    z, rz = _built(components), R.of_components(components)
    assert z == lib(rz) and hash(z) == hash(lib(rz))
    assert str(z) == str(rz) and z.latex() == rz.latex()
    scalars = [_built(c) for c in entries]
    m = Matrix([scalars[:2], scalars[2:]])
    assert [m[r, c] for r in range(2) for c in range(2)] == scalars


def test_rendering():
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.one()) == "1"
    assert str(Scalar.i()) == "i"
    assert str(-Scalar.i()) == "-i"
    assert str(Scalar.of(Fraction(-3, 2))) == "-3/2"
    assert str(rad(3) * Fraction(1, 2)) == "1/2*sqrt(3)"
    z = Scalar(Fraction(1, 2), Fraction(-1, 2))
    assert str(z) == "1/2 - 1/2*i"
    assert str(rad(2) + rad(3) * Scalar.i() * Fraction(2, 5)) == (
        "sqrt(2) + 2/5*sqrt(3)*i"
    )


def test_latex_rendering():
    assert Scalar.of(Fraction(1, 2)).latex() == "\\frac{1}{2}"
    assert (rad(3) * Fraction(-1, 2)).latex() == "-\\frac{1}{2} \\sqrt{3}"


def test_printer_matches_the_reference_printer():
    # The printer on integer numerators against the Fraction printer of the
    # reference: seeded rows with several positions and components,
    # negative values, p/q denominators, radicands and i; Scalars; and
    # Matrix.to_strings of the generators, plain and LaTeX.
    rng = random.Random(2902)
    rows = [({}, 1), ({(0, KEY_ONE): 1}, 1), ({(0, KEY_ONE): -1}, 1), ({(0, KEY_I): -1}, 1), ({(0, 6): 1}, 1),
            ({(0, 7): -1}, 1), ({(0, KEY_ONE): -1, (0, KEY_I): 1}, 2)]
    for _ in range(1500):
        terms = {(rng.randint(0, 3), 2 * rng.choice((1, 2, 3, 5, 6, 30)) + rng.randint(0, 1)):
                 rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 6, rng.randint(1, 60))) for _ in range(rng.randint(1, 6))}
        rows.append(reduce_terms(terms, rng.choice((1, 1, 2, 3, 4, 6, rng.randint(1, 90)))))
    assert any(len(c) > 2 for row in rows for c in row_components(row).values())
    for row in rows:
        got, want = row_components(row), R.row_components(row)
        assert list(got) == list(want)
        for pos, comps in got.items():
            assert all(d > 0 and gcd(n, d) == 1 for n, d, _, _ in comps)
            assert [(Fraction(n, d), m, imag) for n, d, m, imag in comps] == want[pos]
            for latex in (False, True):
                assert render_components(comps, latex) == R.render_components(want[pos], latex), (row, pos)
        s = Scalar._make(reduce_terms({(k,): n for (pos, k), n in row[0].items() if pos == 0}, row[1]))
        want = R.render_components(R.row_components(s.row).get((), []))
        assert str(s) == want == str(ref(s))
        assert s.latex() == R.render_components(R.row_components(s.row).get((), []), latex=True) == ref(s).latex()
    for dim in range(2, 9):
        for m in build_generators(dim).S:
            comps = R.row_components(m.row)
            for latex in (False, True):
                assert m.to_strings(latex) == [[R.render_components(comps.get((r, c), []), latex) for c in range(dim)]
                                               for r in range(dim)]

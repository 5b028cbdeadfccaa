from fractions import Fraction

import pytest

import random

from test_symalg import dense_similarity, integer_similarity

import reference as R
from reference import lib, ref
from spinid.charid import build_identity, discover_identity, verify_identity
from spinid.scalar import Scalar, UnsupportedInverseError, combine_terms
from spinid.spinrep import (
    Matrix,
    SingularMatrixError,
    SpinRep,
    build_generators,
    casimir,
    commutation_holds,
    conjugate_rep,
    eigenvalue_list,
    is_hermitian,
    row_matmul,
)
from spinid.symalg import SymSession, all_counts

HALF = Fraction(1, 2)


# --- reference Matrix-of-Scalar arithmetic for the row-based representation layer ---------


def reference_build_generators(dim):
    """S_3 diagonal, S_+ from the ladder elements, S_1 and S_2 from S_+ and
    its adjoint, all in the reference Matrix-of-Scalar arithmetic."""
    s = Fraction(dim - 1, 2)
    eigs = eigenvalue_list(dim)
    s3 = R.Matrix.zero(dim)
    for k, m in enumerate(eigs):
        s3.rows[k][k] = R.Scalar(m)
    splus = R.Matrix.zero(dim)
    for k in range(1, dim):
        m = eigs[k]
        splus.rows[k - 1][k] = R.sqrt(s * (s + 1) - m * (m + 1))
    sminus = splus.dagger()
    s1 = (splus + sminus).scale(HALF)
    s2 = (splus - sminus).scale(R.Scalar(0, -HALF))  # 1/(2i) = -i/2
    return s1, s2, s3


def reference_commutation_holds(s):
    """[S_a, S_b] = i S_c for the cyclic triples (a, b, c)."""
    return all(s[a] * s[b] - s[b] * s[a] == s[c].scale(R.I) for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def reference_conjugate_rep(rep, m):
    m = ref(m)
    m_inv = m.inverse()
    return tuple(m * ref(g) * m_inv for g in rep.S)


def unchecked(dim, triple):
    """A SpinRep of any three reference matrices, the commutation relation unchecked."""
    return SpinRep(dim, tuple(lib(mat).row for mat in triple))


def broken_triples(rep):
    """Reference triples that break the commutation relation: two axes
    swapped, S_3 doubled, one entry of S_1 moved by 1/7, and each pair of
    axes doubled, which breaks exactly one of the three cyclic relations."""
    s = [ref(g) for g in rep.S]
    nudged = [list(r) for r in s[0].rows]
    nudged[0][-1] = nudged[0][-1] + R.Scalar(Fraction(1, 7))
    doubled = [m.scale(2) for m in s]
    return [(s[1], s[0], s[2]), (s[0], s[1], doubled[2]), (R.Matrix(nudged), s[1], s[2])] + [
        tuple(doubled[a] if a != keep else s[a] for a in range(3)) for keep in range(3)
    ]


@pytest.mark.parametrize("dim", range(1, 13))
def test_generators_match_reference(dim):
    rep, want = build_generators(dim), reference_build_generators(dim)
    assert [ref(m) for m in rep.S] == list(want)
    assert rep.spin == Fraction(dim - 1, 2)
    assert rep.S is rep.S
    assert [m.to_strings() for m in rep.S] == [[[str(a) for a in r] for r in m.rows] for m in want]
    assert commutation_holds(rep) and reference_commutation_holds(want)
    for triple in broken_triples(rep) if dim > 1 else ():
        assert not commutation_holds(unchecked(dim, triple))
        assert not reference_commutation_holds(triple)


@pytest.mark.parametrize("dim", range(2, 8))
def test_conjugation_matches_reference(dim):
    ladder = build_generators(dim)
    rng = random.Random(dim)
    for m in (dense_similarity(dim), Matrix.from_rational_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) + (2 * dim if r == c else 0) for c in range(dim)]
         for r in range(dim)]
    )):
        rep, want = conjugate_rep(ladder, m), reference_conjugate_rep(ladder, m)
        assert [ref(g) for g in rep.S] == list(want)
        # The verdict is inherited from the ladder, and the brackets agree.
        assert rep.__dict__["commutes"] is True
        assert commutation_holds(rep) and reference_commutation_holds(want)
        for triple in broken_triples(rep):
            assert not commutation_holds(unchecked(dim, triple))
            assert not reference_commutation_holds(triple)
            with pytest.raises(ValueError, match="commutation relation"):
                conjugate_rep(unchecked(dim, triple), m)


def _forbid(monkeypatch, owner, *names):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{owner.__name__} arithmetic ran")

    for name in names:
        monkeypatch.setattr(owner, name, refuse)


def test_representation_layer_runs_without_scalar_arithmetic(monkeypatch):
    dim = 12
    ladder = build_generators(dim)
    broken = [[lib(m) for m in triple] for triple in broken_triples(ladder)]
    small = build_generators(4)
    _forbid(monkeypatch, Scalar, "__add__", "__sub__", "__mul__", "__rmul__", "of", "inverse")
    _forbid(monkeypatch, Matrix, "__add__", "__sub__", "__mul__", "scale", "dagger")

    rep = build_generators(dim)
    assert rep == ladder
    assert commutation_holds(rep)
    assert SpinRep.from_matrices(rep.S) == rep
    for triple in broken:
        assert not commutation_holds(SpinRep(dim, tuple(m.row for m in triple)))
        with pytest.raises(ValueError):
            SpinRep.from_matrices(triple)
    session = SymSession(rep)
    assert all(session.sym_int(c)[0] for c in all_counts(4))
    assert verify_identity(rep, build_identity(dim), mode="exhaustive").ok
    failing = verify_identity(rep, build_identity(3), mode="exhaustive")
    assert not failing.ok and failing.to_json()["failures"]
    assert discover_identity(rep) == build_identity(dim)
    # Nor do a rational matrix, its inverse and a conjugation by it.
    m = Matrix.from_rational_rows([[1, Fraction(1, 2), 0, 0], [0, 1, 0, 2], [3, 0, 1, 0], [0, 0, -1, 1]])
    assert row_matmul(m.inverse().row, m.row) == Matrix.identity(4).row
    assert commutation_holds(conjugate_rep(small, m))


def test_pauli_matrices_exactly():
    rep = build_generators(2)
    s1, s2, s3 = rep.S
    assert s1 == Matrix([[Scalar.of(0), Scalar.of(HALF)], [Scalar.of(HALF), Scalar.of(0)]])
    assert s2 == Matrix(
        [[Scalar.of(0), Scalar(0, -HALF)], [Scalar(0, HALF), Scalar.of(0)]]
    )
    assert s3 == Matrix([[Scalar.of(HALF), Scalar.of(0)], [Scalar.of(0), Scalar.of(-HALF)]])


def test_trivial_representation():
    rep = build_generators(1)
    assert all(m.is_zero() for m in rep.S)


def test_dimension_three_ladder_entries():
    rep = build_generators(3)
    root_half = Scalar.sqrt_int(2) * HALF  # 1/sqrt(2) rendered (1/2)*sqrt(2)
    assert rep.S[0][0, 1] == root_half
    assert rep.S[0][1, 2] == root_half
    assert str(rep.S[0][0, 1]) == "1/2*sqrt(2)"


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        build_generators(0)


def test_casimir_is_one_fused_call():
    # The rows of the fused sum equal those of the three products combined,
    # and the reference sum of squares, on ladders and conjugations.
    reps = [build_generators(dim) for dim in range(1, 11)]
    reps += [conjugate_rep(build_generators(dim), dense_similarity(dim)) for dim in range(2, 8)]
    for rep in reps:
        combined = combine_terms((1, *row_matmul(g, g)) for g in rep.rows)
        assert casimir(rep).row == combined, rep.dim
        s = [ref(g) for g in rep.S]
        assert ref(casimir(rep)) == s[0] * s[0] + s[1] * s[1] + s[2] * s[2], rep.dim


@pytest.mark.parametrize("dim", range(1, 11))
def test_spinrep_invariants(dim):
    rep = build_generators(dim)
    assert commutation_holds(rep)
    expected = Matrix.identity(dim).scale(rep.spin * (rep.spin + 1))
    assert casimir(rep) == expected
    for m in rep.S:
        assert is_hermitian(m)


@pytest.mark.parametrize("dim", range(1, 9))
def test_characteristic_product_annihilates_s3(dim):
    rep = build_generators(dim)
    s3 = rep.S[2]
    prod = Matrix.identity(dim)
    for lam in eigenvalue_list(dim):
        prod = prod * (s3 - Matrix.identity(dim).scale(lam))
    assert prod.is_zero()


@pytest.mark.parametrize("dim", range(1, 9))
def test_traces(dim):
    rep = build_generators(dim)
    sum_sq = sum(lam * lam for lam in eigenvalue_list(dim))
    for m in rep.S:
        assert m.trace() == Scalar.zero()
        assert (m * m).trace() == Scalar.of(sum_sq)


def test_eigenvalue_lists():
    assert eigenvalue_list(4) == [Fraction(3, 2), HALF, -HALF, Fraction(-3, 2)]
    assert eigenvalue_list(3) == [1, 0, -1]
    assert eigenvalue_list(1) == [0]
    for dim in range(1, 11):
        eigs = eigenvalue_list(dim)
        assert len(set(eigs)) == dim
        assert sorted(eigs) == sorted(-x for x in eigs)
    with pytest.raises(ValueError):
        eigenvalue_list(0)


def test_identity_multiplication():
    rep = build_generators(3)
    assert Matrix.identity(3) * rep.S[0] == rep.S[0]


def test_pauli_squares():
    rep = build_generators(2)
    quarter_id = Matrix.identity(2).scale(Fraction(1, 4))
    for m in rep.S:
        assert m * m == quarter_id


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix([[Scalar.of(1), Scalar.of(2)]])  # not square
    two = build_generators(2)
    padded = Matrix.from_rational_rows([[HALF, 0, 0], [0, -HALF, 0], [0, 0, 0]])  # S_3 plus a zero row and column
    with pytest.raises(ValueError):
        SpinRep.from_matrices((two.S[0], two.S[1], padded))
    with pytest.raises(ValueError):
        SpinRep.from_matrices(two.S[:2])
    with pytest.raises(ValueError):
        conjugate_rep(two, Matrix.identity(3))


def test_inverse_and_conjugation():
    m = Matrix.from_rational_rows([[1, 1], [0, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    rep = conjugate_rep(build_generators(2), m)
    assert commutation_holds(rep)
    # conjugating a single matrix keeps its trace
    s1 = build_generators(2).S[0]
    assert (m * s1 * m.inverse()).trace() == s1.trace()


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        Matrix.from_rational_rows([[1, 2], [2, 4]]).inverse()


def test_radical_pivot_inverse_unsupported():
    m = Matrix([[Scalar.sqrt_int(2), Scalar.of(0)], [Scalar.of(0), Scalar.of(1)]])
    with pytest.raises(UnsupportedInverseError):
        m.inverse()


def _inverse_or_refusal(invert):
    """The reference rows of an inverse, or the refusal's type and message."""
    try:
        return ref(invert()).rows
    except (SingularMatrixError, UnsupportedInverseError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("dim", range(2, 21))
def test_inverse_of_an_integer_similarity_matches_reference(dim):
    m = integer_similarity(dim)
    assert ref(m.inverse()) == ref(m).inverse()


def _seeded_matrix(rng, dim, kind):
    """Seeded entries, about a third zero, so that pivots move and some
    matrices are singular: rational, Gaussian rational, or with a radical
    part."""
    def entry():
        if rng.random() < 0.35:
            return R.ZERO
        value = R.Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if kind != "rational" and rng.random() < 0.5:
            value = value + R.Scalar(0, Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        if kind == "radical" and rng.random() < 0.4:
            value = value + R.sqrt(rng.choice((2, 3, Fraction(1, 2))))
        return value

    return R.Matrix([[entry() for _ in range(dim)] for _ in range(dim)])


@pytest.mark.parametrize("kind", ["rational", "gaussian", "radical"])
def test_inverse_matches_reference_on_seeded_matrices(kind):
    # The same inverse, or the same refusal with the same message: a radical
    # pivot is named by the value elimination over the field divides by.
    rng = random.Random(kind)
    outcomes = set()
    for _ in range(80):
        want = _seeded_matrix(rng, rng.randint(1, 6), kind)
        got = _inverse_or_refusal(lib(want).inverse)
        assert got == _inverse_or_refusal(lambda: lib(want.inverse()))
        outcomes.add(got[0] if isinstance(got, tuple) else Matrix)
    assert outcomes == {Matrix, SingularMatrixError} | ({UnsupportedInverseError} if kind == "radical" else set())


def test_inverse_with_radicals_off_the_pivots():
    # sqrt(3) and sqrt(6) meet in elimination and cancel: every pivot is
    # Gaussian, and the inverse keeps radical entries.
    s2, s3, s6 = (R.sqrt(m) for m in (2, 3, 6))
    want = R.Matrix([[R.ONE, s2, R.ZERO], [s3, s6 + R.ONE, R.I], [R.ZERO, R.ONE, R.Scalar(2)]])
    inverse = lib(want).inverse()
    assert ref(inverse) == want.inverse()
    assert any(key >> 1 > 1 for _, _, key in inverse.row[0])
    # A radical pivot after one step: refused, named as the field elimination names it.
    m = R.Matrix([[R.Scalar(Fraction(1, 2)), R.ONE], [R.ONE, s2]])
    with pytest.raises(UnsupportedInverseError, match=r"^inverse of -2 \+ sqrt\(2\) has a radical denominator$"):
        lib(m).inverse()
    with pytest.raises(UnsupportedInverseError, match=r"^inverse of -2 \+ sqrt\(2\) "):
        m.inverse()


def test_from_matrices_checks_commutation():
    rep = build_generators(2)
    with pytest.raises(ValueError):
        SpinRep.from_matrices((rep.S[0], rep.S[2], rep.S[1]))


def test_matrix_json_strings():
    rep = build_generators(2)
    assert rep.S[1].to_strings() == [["0", "-1/2*i"], ["1/2*i", "0"]]
    rep3 = build_generators(3)
    assert rep3.S[2].to_strings() == [
        ["1", "0", "0"],
        ["0", "0", "0"],
        ["0", "0", "-1"],
    ]

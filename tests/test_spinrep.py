from fractions import Fraction

import pytest

from spinid.scalar import Radical, Scalar, UnsupportedInverseError
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
)

HALF = Fraction(1, 2)


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
    root_half = Scalar(Radical({2: HALF}))  # 1/sqrt(2) rendered (1/2)*sqrt(2)
    assert rep.S[0][0, 1] == root_half
    assert rep.S[0][1, 2] == root_half
    assert str(rep.S[0][0, 1]) == "1/2*sqrt(2)"


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        build_generators(0)


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
    m = Matrix([[Scalar(Radical({2: 1})), Scalar.of(0)], [Scalar.of(0), Scalar.of(1)]])
    with pytest.raises(UnsupportedInverseError):
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

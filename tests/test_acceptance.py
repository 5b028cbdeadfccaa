"""Acceptance gate: one test per criterion, exact arithmetic throughout
(tolerance identically zero), with a printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
"""
import itertools
import random
from fractions import Fraction

from test_rewrite import _ijk_difference, _random_poly

from spinid.charid import (
    a1_closed,
    a2_closed,
    an1_closed,
    an_closed,
    b_coeffs,
    build_identity,
    char_coeffs,
    discover_identity,
    identity_to_json,
    power_sum,
    verify_identity,
)
from spinid.rewrite import evaluate, reduce_degree
from spinid.spinrep import Matrix, build_generators, conjugate_rep, eigenvalue_list

REPS = {dim: build_generators(dim) for dim in range(2, 10)}


def check(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_identities_exhaustive():
    total_elapsed = 0.0
    tuples = 0
    for dim in range(2, 8):
        report = verify_identity(REPS[dim], build_identity(dim))
        assert report.ok, f"dimension {dim} identity failed: {report.failures[:3]}"
        assert report.tuples_checked == 3**dim
        total_elapsed += report.elapsed
        tuples += report.tuples_checked
    check(
        1,
        total_elapsed < 60.0,
        f"identities D=2..7 verified on all {tuples} tuples in {total_elapsed:.2f}s",
    )


def test_criterion_2_coefficient_reproduction():
    ok = (
        b_coeffs(3) == [-2]
        and b_coeffs(5) == [-10, 32]
        and [
            lvl["coefficient"]
            for lvl in identity_to_json(build_identity(4), "integral")["levels"]
        ]
        == ["2", "-10", "9"]
    )
    check(2, ok, "b(3)=(-2), b(5)=(-10,32), integral D=4 reads (2, -10, 9)")


def test_criterion_3_characteristic_equations():
    ok = char_coeffs(3).a == (Fraction(-1),)  # S^3 = S
    a4 = char_coeffs(4).a
    ok = ok and (16, 16 * a4[0], 16 * a4[1]) == (16, -40, 9)
    ok = ok and char_coeffs(5).a == (Fraction(-5), Fraction(4))
    for dim in range(1, 9):
        s3 = REPS.get(dim, build_generators(dim)).S[2] if dim > 1 else build_generators(1).S[2]
        prod = Matrix.identity(dim)
        for lam in eigenvalue_list(dim):
            prod = prod * (s3 - Matrix.identity(dim).scale(lam))
        ok = ok and prod.is_zero()
    check(3, ok, "S^3=S, 16S^4-40S^2+9, S^5-5S^3+4S; eigenvalue products vanish D<=8")


def test_criterion_4_closed_form_coefficients():
    checked = []
    for dim in range(2, 13):
        a = char_coeffs(dim).a
        assert a1_closed(dim) == a[0], f"a1 mismatch at D={dim}"
        checked.append(f"a1({dim})")
        if dim % 2:
            n = (dim - 1) // 2
            assert an_closed(dim) == a[n - 1], f"an mismatch at D={dim}"
            checked.append(f"an({dim})")
            if n >= 2:
                assert a2_closed(dim) == a[1], f"a2 mismatch at D={dim}"
                checked.append(f"a2({dim})")
        else:
            assert an1_closed(dim) == a[-1], f"an+1 mismatch at D={dim}"
            checked.append(f"an1({dim})")
    check(4, True, f"{len(checked)} closed-form coefficients agree for D=2..12")


def test_criterion_5_nesting_and_minimality():
    nestings = [(4, 2), (5, 3), (6, 2), (6, 4), (7, 3), (7, 5)]
    for ident_dim, rep_dim in nestings:
        report = verify_identity(REPS[rep_dim], build_identity(ident_dim))
        assert report.ok, f"identity {ident_dim} failed on rep {rep_dim}"
    witnesses = {}
    for dim in range(2, 6):
        report = verify_identity(REPS[dim + 2], build_identity(dim))
        assert not report.ok, f"identity {dim} unexpectedly held on rep {dim + 2}"
        witnesses[dim] = report.failures[0][0]
    check(
        5,
        True,
        f"nesting holds for {nestings}; minimality witnesses {witnesses}",
    )


def test_criterion_6_independent_discovery():
    for dim in range(2, 7):
        found = discover_identity(REPS[dim])
        assert found.b == tuple(b_coeffs(dim)), f"discovery mismatch at D={dim}"
    check(6, True, "null-space solve recovers b_p for D=2..6")


def test_criterion_7_appendix_sums():
    for r in range(9):
        for n in range(51):
            assert power_sum(r, n) == sum(q**r for q in range(n + 1))
    for n in range(51):
        assert power_sum(0, n) == n + 1
        assert power_sum(1, n) == Fraction(n * (n + 1), 2)
        assert power_sum(2, n) == Fraction(n * (n + 1) * (2 * n + 1), 6)
        assert power_sum(3, n) == Fraction(n**2 * (n + 1) ** 2, 4)
        assert power_sum(4, n) == Fraction(
            n * (n + 1) * (2 * n + 1) * (3 * n**2 + 3 * n - 1), 30
        )
    check(7, True, "recursion matches brute force (r<=8, n<=50) and all closed forms")


def test_criterion_8_rewriter_soundness():
    for dim in range(2, 6):
        rep = REPS[dim]
        rng = random.Random(8000 + dim)
        cache = {}
        for _ in range(500):
            p = _random_poly(rng, dim + 3)
            nf = reduce_degree(p, dim)
            for w in nf.poly.terms():
                assert len(w) <= dim - 1
                assert all(w[k] <= w[k + 1] for k in range(len(w) - 1))
            assert evaluate(nf, rep, cache) == evaluate(p, rep, cache)
        for i, j, k in itertools.product((1, 2, 3), repeat=3):
            assert reduce_degree(_ijk_difference(i, j, k), dim).poly.is_zero()
    check(8, True, "500 random expressions sound per D=2..5; antisymmetric triple reduces to 0")


def test_criterion_9_basis_independence():
    for dim in range(2, 5):
        rows = [
            [1 if c == r else (1 if c == r + 1 else 0) for c in range(dim)]
            for r in range(dim)
        ]
        rows[0][0] = 2  # fixed rational invertible mix, det = 2
        m = Matrix.from_rational_rows(rows)
        transformed = conjugate_rep(REPS[dim], m)
        report = verify_identity(transformed, build_identity(dim))
        assert report.ok, f"conjugated rep {dim} failed: {report.failures[:2]}"
    check(9, True, "exhaustive verification unchanged after rational basis change, D=2..4")

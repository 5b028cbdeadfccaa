"""Independent oracles from sympy: its angular-momentum operators and its
characteristic polynomial.  All comparisons are exact."""
import pytest

sympy = pytest.importorskip("sympy")

from sympy.physics.quantum import represent  # noqa: E402
from sympy.physics.quantum.constants import hbar  # noqa: E402
from sympy.physics.quantum.spin import Jx, Jy, Jz  # noqa: E402

from reference import ref  # noqa: E402
from spinid.charid import char_coeffs  # noqa: E402
from spinid.spinrep import build_generators  # noqa: E402


def _sympy_spin(dim, op):
    """op in the J_z basis with descending m, divided by hbar."""
    return represent(op, basis=Jz, j=sympy.Rational(dim - 1, 2)) / hbar


def _sympy_scalar(c):
    return sum(
        (sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m) * (sympy.I if part == "im" else 1)
         for (part, m), q in ref(c).components().items()),
        sympy.Integer(0),
    )


@pytest.mark.parametrize("dim", range(1, 9))
def test_generators_match_sympy(dim):
    rep = build_generators(dim)
    for axis, op in zip((1, 2, 3), (Jx, Jy, Jz)):
        want = _sympy_spin(dim, op)
        assert want.shape == (dim, dim)
        mat = rep.matrix(axis)
        for r in range(dim):
            for c in range(dim):
                diff = sympy.nsimplify(want[r, c]) - _sympy_scalar(mat[r, c])
                assert sympy.expand(diff) == 0, (axis, r, c, want[r, c], mat[r, c])


@pytest.mark.parametrize("dim", range(2, 11))
def test_char_coeffs_match_sympy_charpoly(dim):
    x = sympy.Symbol("x")
    got = sympy.Matrix(_sympy_spin(dim, Jz)).charpoly(x).all_coeffs()
    want = [1] + [0] * dim
    for p, a in enumerate(char_coeffs(dim).a, start=1):
        want[2 * p] = sympy.Rational(a.numerator, a.denominator)
    assert got == want

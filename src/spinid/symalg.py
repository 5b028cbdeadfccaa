"""Symmetric products of spin matrices and generalized Kronecker deltas.

The symmetric product {S_{i_1} ... S_{i_n}} is the sum over all n!
orderings of the factors, repeats counted (so {S_i S_i} = 2 S_i^2).  It
depends only on the multiset of indices, which is what makes memoized
evaluation over whole tuple spaces cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Sequence

from .scalar import Scalar
from .spinrep import Matrix, SpinRep

Axis = int  # one of 1, 2, 3


@dataclass(frozen=True)
class IndexMultiset:
    """Multiplicities of the axes 1, 2, 3; order is the total count."""

    counts: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.counts) != 3 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be three nonnegative integers")

    @classmethod
    def from_tuple(cls, idx: Iterable[Axis]) -> "IndexMultiset":
        counts = [0, 0, 0]
        for a in idx:
            if a not in (1, 2, 3):
                raise ValueError(f"axis {a} not in {{1, 2, 3}}")
            counts[a - 1] += 1
        return cls(tuple(counts))

    @property
    def order(self) -> int:
        return sum(self.counts)

    def remove(self, axis: Axis) -> "IndexMultiset":
        if self.counts[axis - 1] == 0:
            raise ValueError(f"axis {axis} not present")
        c = list(self.counts)
        c[axis - 1] -= 1
        return IndexMultiset(tuple(c))

    def letters(self) -> tuple[Axis, ...]:
        return tuple(
            axis for axis in (1, 2, 3) for _ in range(self.counts[axis - 1])
        )


def all_multisets(order: int) -> list[IndexMultiset]:
    """Every IndexMultiset of the given order, in lexicographic letter order."""
    out = []
    for c1 in range(order, -1, -1):
        for c2 in range(order - c1, -1, -1):
            out.append(IndexMultiset((c1, c2, order - c1 - c2)))
    return out


class SymSession:
    """Memoized symmetric-product evaluator bound to one representation.

    The cache is keyed on the index multiset, so exhaustive verification
    over all D-tuples costs O(#multisets) matrix products instead of
    O(3^D * D!).  Sessions are single-threaded; use one per worker.
    """

    def __init__(self, rep: SpinRep):
        self.rep = rep
        self._cache: dict[IndexMultiset, Matrix] = {
            IndexMultiset((0, 0, 0)): Matrix.identity(rep.dim)
        }

    def sym(self, idx: IndexMultiset | Sequence[Axis]) -> Matrix:
        if not isinstance(idx, IndexMultiset):
            idx = IndexMultiset.from_tuple(idx)
        cached = self._cache.get(idx)
        if cached is not None:
            return cached
        # {n indices} = sum over positions j of {rest} * S_{i_j}; positions
        # carrying equal letters contribute identical terms, hence the
        # multiplicity factors.
        total = Matrix.zero(self.rep.dim)
        for axis in (1, 2, 3):
            c = idx.counts[axis - 1]
            if c:
                total = total + (self.sym(idx.remove(axis)) * self.rep.matrix(axis)).scale(c)
        self._cache[idx] = total
        return total


def sym_product(rep: SpinRep, idx: IndexMultiset | Sequence[Axis]) -> Matrix:
    """Symmetric product for a single multiset (fresh session)."""
    return SymSession(rep).sym(idx)


def pairing_count(n: int) -> int:
    """Number of perfect pairings of 2n elements: 1*3*5*...*(2n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def delta_weights(counts: tuple[int, int, int], p: int) -> dict[IndexMultiset, int]:
    """Generalized deltas of a tuple with these axis counts, summed over
    all 2p-subsets of positions, by the multiset left out: the C(c_a, e_a)
    ways to take e_a indices of each axis a (all e_a even) leave c - e and
    pair up in prod_a (e_a - 1)!! ways."""
    out: dict[IndexMultiset, int] = {}
    for e1 in range(0, min(counts[0], 2 * p) + 1, 2):
        for e2 in range(0, min(counts[1], 2 * p - e1) + 1, 2):
            e = (e1, e2, 2 * p - e1 - e2)
            if e[2] <= counts[2]:
                rest = IndexMultiset(tuple(c - k for c, k in zip(counts, e)))
                out[rest] = prod(comb(c, k) * pairing_count(k // 2) for c, k in zip(counts, e))
    return out


def gen_delta(idx: Sequence[Axis]) -> int:
    """Generalized Kronecker delta: the number of perfect pairings of the
    index tuple whose pairs all carry equal axes.

    Enumerates pairings recursively (first element paired with each
    remaining one) -- deliberately oracle-grade simple: delta_weights' oracle.
    """
    if len(idx) % 2:
        raise ValueError("generalized delta needs an even number of indices")
    idx = tuple(idx)

    def count(rest: tuple[Axis, ...]) -> int:
        if not rest:
            return 1
        first, tail = rest[0], rest[1:]
        total = 0
        for j, other in enumerate(tail):
            if other == first:
                total += count(tail[:j] + tail[j + 1 :])
        return total

    return count(idx)


def epsilon(i: Axis, j: Axis, k: Axis) -> int:
    """Completely antisymmetric symbol with epsilon(1, 2, 3) = +1."""
    if (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        return 1
    if (i, j, k) in ((3, 2, 1), (1, 3, 2), (2, 1, 3)):
        return -1
    return 0


def antisym_reduce_demo(
    rep: SpinRep, i: Axis, j: Axis, k: Axis
) -> tuple[Matrix, Matrix]:
    """Both sides of the degree-lowering rewrite for the antisymmetrized
    triple product:

        S_i S_j S_k - S_k S_j S_i
            = i * sum_l (eps_ijl S_l S_k + eps_ikl S_j S_l + eps_jkl S_l S_i)

    Returns (lhs, rhs); they agree exactly in every dimension.
    """
    si, sj, sk = rep.matrix(i), rep.matrix(j), rep.matrix(k)
    lhs = si * sj * sk - sk * sj * si

    rhs = Matrix.zero(rep.dim)
    for l in (1, 2, 3):
        sl = rep.matrix(l)
        for eps, prod in (
            (epsilon(i, j, l), sl * sk),
            (epsilon(i, k, l), sj * sl),
            (epsilon(j, k, l), sl * si),
        ):
            if eps:
                rhs = rhs + prod.scale(eps)
    rhs = rhs.scale(Scalar.i())
    return lhs, rhs

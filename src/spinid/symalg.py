"""Symmetric products of spin matrices and generalized Kronecker deltas.

The symmetric product {S_{i_1} ... S_{i_n}} is the sum over all n!
orderings of the factors, repeats counted (so {S_i S_i} = 2 S_i^2).  It
depends only on the multiset of indices, which is what makes memoized
evaluation over whole tuple spaces cheap.  A multiset is its axis counts
(c1, c2, c3) throughout: the memo keys, the delta weights' keys and
``all_counts``; ``axis_counts`` reads them off an index tuple.

One engine, ``SymSession``, builds the products from an algebra's unit and
right multiplication by a generator: for a representation's matrices
(``spinrep.matrix_algebra``; the tests run it on the spherical generators
S_+, S_-, S_3 of ``spinrep.spherical_algebra`` as an oracle of
verification's residuals) and for ordered words in ``rewrite``.
It owns no format: values are the rows of ``scalar``, and a matrix row is
``spinrep``'s, with cells (row, col, key).
``SymSession.sym`` hands one out as a ``Matrix``, a view of the row.

The generalized deltas (``delta_weights``) are Cartesian, delta_ij on
S_1, S_2, S_3: a pair of indices weighs 1 if its axes are equal and 0
otherwise.  Verification, from q_D(S_3) and commutators with S_+ and
S_-, and discovery, from the powers of S_3, read no weights and no
symmetric product.
"""
from __future__ import annotations

from math import comb, prod
from typing import Iterable, Sequence

from .scalar import Row
from .spinrep import Matrix, SpinRep, Times, matrix_algebra

Axis = int  # one of 1, 2, 3


def axis_counts(idx: Iterable[Axis]) -> tuple[int, int, int]:
    """The index multiset of a tuple, as its axis counts (c1, c2, c3)."""
    counts = [0, 0, 0]
    for a in idx:
        if a not in (1, 2, 3):
            raise ValueError(f"axis {a} not in {{1, 2, 3}}")
        counts[a - 1] += 1
    return tuple(counts)


def all_counts(order: int) -> list[tuple[int, int, int]]:
    """The axis counts of every index multiset of the given order, in
    lexicographic letter order."""
    return [(c1, c2, order - c1 - c2) for c1 in range(order, -1, -1) for c2 in range(order - c1, -1, -1)]


class SymSession:
    """Memoized symmetric products in one algebra.

    The memo maps axis counts c to {c} as a row, built from the algebra's
    unit and its right multiplication (``spinrep.Times``), which takes a
    linear combination of rows times generators: each entry
    {c} = sum_a c_a {c - e_a} S_a is one such call.  A request builds each
    missing entry c' <= c once, from neighbours already built.
    ``SymSession(rep)`` works in the matrices of rep (``matrix_algebra``);
    ``unit=``/``times=`` take any other algebra, such as
    the rewriter's ordered words, or ``spherical_algebra``'s, with S_+,
    S_-, S_3 as axes 1, 2, 3 (``delta_weights`` stay Cartesian there, so
    ``Identity.residual_int`` on it is not the spherical residual).

    The cache is keyed on the index multiset, so a pass over all D-tuples
    costs O(#multisets) products instead of O(3^D * D!).
    ``sym``, for sessions on a representation, wraps a product's row as a
    Matrix.  Threads may share a session: an entry is complete before it is
    stored and never changed after, so a race at worst builds one twice.
    """

    def __init__(self, rep: SpinRep | None = None, unit: Row | None = None, times: Times | None = None):
        if rep is not None:
            unit, times = matrix_algebra(rep)
        self.rep = rep
        self._times = times
        self._rows: dict[tuple[int, int, int], Row] = {(0, 0, 0): unit}

    def sym(self, idx: Sequence[Axis]) -> Matrix:
        return Matrix._make(self.matrix_dim(), self.sym_int(axis_counts(idx)))

    def matrix_dim(self) -> int:
        """The dimension of the session's representation; a session built
        from ``unit=``/``times=`` has none, and its values are rows only."""
        if self.rep is None:
            raise ValueError("this session has no representation: its values are rows, read them with "
                             "sym_int (and Identity.residual_int)")
        return self.rep.dim

    def sym_int(self, counts: tuple[int, int, int]) -> Row:
        """The symmetric product for these axis counts, as a row."""
        rows = self._rows
        # {c} = sum_a c_a {c - e_a} S_a: any of the c_a positions carrying
        # letter a may come last.  No recursion and no scan of the box c' <= c:
        # the top of a work stack pushes its missing neighbours, or is built
        # once all are stored.  A pushed entry is one order below the top, the
        # lowest order on the stack, so none is pushed twice and each missing
        # entry is built once; a zero row stays zero: it is not multiplied.
        stack = [] if counts in rows else [counts]
        while stack:
            x, y, z = top = stack[-1]
            near = ((x, (x - 1, y, z), 1), (y, (x, y - 1, z), 2), (z, (x, y, z - 1), 3))
            missing = [b for n, b, _ in near if n and b not in rows]
            if missing:
                stack += missing
            else:
                stack.pop()
                rows[top] = self._times([(n, rows[b], a) for n, b, a in near if n and rows[b][0]])
        return rows[counts]


def pairing_count(n: int) -> int:
    """Number of perfect pairings of 2n elements: 1*3*5*...*(2n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def delta_weights(counts: tuple[int, int, int], p: int) -> dict[tuple[int, int, int], int]:
    """Generalized deltas of a tuple with these axis counts, summed over
    all 2p-subsets of positions, by the multiset left out.

    A subset counts its perfect pairings whose pairs carry equal axes.
    With h_a pairs within axis a, h1 + h2 + h3 = p, it takes 2 h_a of the
    c_a indices of axis a, in prod_a C(c_a, 2 h_a) ways, pairs them in
    prod_a (2 h_a - 1)!! ways, and leaves c - 2h."""
    c1, c2, c3 = counts
    out: dict[tuple[int, int, int], int] = {}
    for h1 in range(min(p, c1 // 2) + 1):
        for h2 in range(min(p - h1, c2 // 2) + 1):
            h3 = p - h1 - h2
            if 2 * h3 <= c3:
                out[c1 - 2 * h1, c2 - 2 * h2, c3 - 2 * h3] = prod(
                    comb(c, 2 * h) * pairing_count(h) for c, h in ((c1, h1), (c2, h2), (c3, h3)))
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

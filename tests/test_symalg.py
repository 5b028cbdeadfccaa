import inspect
import itertools
import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from reference import first_nonzero_entry, lib, ref
from spinid import spinrep
from spinid.charid import build_identity, verify_identity
from spinid.scalar import Scalar, combine_terms
from spinid.spinrep import (
    Matrix,
    build_generators,
    conjugate_rep,
    matrix_algebra,
    row_matmul,
    spherical_algebra,
)
from spinid.symalg import (
    SymSession,
    all_counts,
    axis_counts,
    delta_weights,
    epsilon,
    gen_delta,
    pairing_count,
)

REPS = {dim: build_generators(dim) for dim in range(1, 7)}


def dense_similarity(dim):
    """A dense rational L*U: unit lower, diagonal 2 upper, so invertible."""
    lower = [[1 if r == c else Fraction(r - c, 2) if r > c else 0 for c in range(dim)] for r in range(dim)]
    upper = [[2 if r == c else Fraction(1, r + c + 1) if r < c else 0 for c in range(dim)] for r in range(dim)]
    return Matrix.from_rational_rows(lower) * Matrix.from_rational_rows(upper)


def integer_similarity(dim):
    """A dense integer L*U: unit diagonals and +-1 elsewhere, so invertible
    over the integers."""
    lower = [[1 if r == c else (-1) ** (r + c) if r > c else 0 for c in range(dim)] for r in range(dim)]
    upper = [[1 if r == c else (-1) ** (r * c) if r < c else 0 for c in range(dim)] for r in range(dim)]
    return Matrix.from_rational_rows(lower) * Matrix.from_rational_rows(upper)


def brute_sym(rep, letters, cache=None):
    """Literal sum over all n! orderings of the product (repeats counted:
    each distinct ordering occurs prod_a c_a! times), in the reference
    arithmetic; prefix products are cached, in `cache` when given, so that
    longer words stay cheap."""
    cache = {} if cache is None else cache
    total = R.Matrix.zero(rep.dim)
    for word in distinct_orderings(tuple(letters.count(a) for a in (1, 2, 3))):
        total = total + R.word_matrix(rep, word, cache)
    return total.scale(prod(factorial(letters.count(a)) for a in (1, 2, 3)))


def letters(counts):
    """The sorted index tuple of a multiset given by its axis counts."""
    return tuple(axis for axis in (1, 2, 3) for _ in range(counts[axis - 1]))


def distinct_orderings(counts):
    """Every word with these letter counts once, in lexicographic order:
    sorted(set(itertools.permutations(letters))) without the n! tuples."""
    if not any(counts):
        return [()]
    return [(a,) + word for a in (1, 2, 3) if counts[a - 1]
            for word in distinct_orderings(tuple(c - (b == a) for b, c in enumerate(counts, start=1)))]


def test_multiset_canonicalization():
    # A tuple's multiset is its axis counts; the entry points that take
    # index tuples from outside refuse an axis outside {1, 2, 3}.
    assert axis_counts((3, 1, 2, 1)) == axis_counts((1, 1, 2, 3)) == (2, 1, 1)
    assert axis_counts(()) == (0, 0, 0)
    assert letters((2, 1, 1)) == (1, 1, 2, 3)
    session, ident = SymSession(REPS[2]), build_identity(2)
    for bad in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match="not in"):
            axis_counts(bad)
        with pytest.raises(ValueError, match="not in"):
            session.sym(bad)
        with pytest.raises(ValueError, match="not in"):
            ident.residual(session, bad)


def test_all_counts_lists_each_multiset_once():
    for order in range(8):
        counts = all_counts(order)
        assert len(counts) == len(set(counts)) == (order + 1) * (order + 2) // 2
        assert all(len(c) == 3 and min(c) >= 0 and sum(c) == order for c in counts)


def test_anticommutator_on_pauli():
    rep = REPS[2]
    for i, j in itertools.product((1, 2, 3), repeat=2):
        expected = (
            Matrix.identity(2).scale(Fraction(1, 2)) if i == j else Matrix.zero(2)
        )
        assert SymSession(rep).sym((i, j)) == expected


def test_repeated_index_doubles_square():
    for dim in (2, 3, 4, 5):
        rep = REPS[dim]
        s1 = rep.matrix(1)
        assert SymSession(rep).sym((1, 1)) == (s1 * s1).scale(2)


def test_all_different_triple_vanishes_in_three_dimensions():
    assert SymSession(REPS[3]).sym((1, 2, 3)).is_zero()


def test_order_zero_is_identity():
    assert SymSession(REPS[4]).sym(()) == Matrix.identity(4)


def _check_recursion(rep):
    session, cache = SymSession(rep), {}
    for order in range(6):
        for counts in all_counts(order):
            assert ref(session.sym(letters(counts))) == brute_sym(rep, letters(counts), cache), (rep.dim, counts)


@pytest.mark.parametrize("dim", range(1, 6))
def test_recursion_matches_brute_force(dim):
    _check_recursion(REPS[dim])


@pytest.mark.parametrize("dim", range(1, 6))
def test_recursion_matches_brute_force_conjugated(dim):
    # dense rational entries, not just the ladder's sparsity
    _check_recursion(conjugate_rep(REPS[dim], dense_similarity(dim)))


def test_distinct_orderings_match_permutations():
    for counts in ((0, 0, 0), (2, 0, 1), (1, 2, 2), (3, 1, 2)):
        assert distinct_orderings(counts) == sorted(set(itertools.permutations(letters(counts))))


@pytest.mark.parametrize("dim, conjugated", [(d, False) for d in range(1, 6)] + [(d, True) for d in range(2, 5)])
def test_spherical_recursion_matches_brute_force(dim, conjugated):
    # The spherical algebra's products against literal sums of words in
    # S_+ = S_1 + i S_2, S_- = S_1 - i S_2 and S_3, built in the reference
    # arithmetic; on the ladder each product lies on diagonal c_+ - c_-.
    rep = conjugate_rep(REPS[dim], dense_similarity(dim)) if conjugated else REPS[dim]
    s1, s2, s3 = (ref(m) for m in rep.S)
    i_s2 = s2.scale(R.I)
    cache = {(): R.Matrix.identity(dim), (1,): s1 + i_s2, (2,): s1 - i_s2, (3,): s3}
    unit, times = spherical_algebra(rep)
    session = SymSession(unit=unit, times=times)
    for order in range(6):
        for counts in all_counts(order):
            row = session.sym_int(counts)
            assert ref(Matrix._make(dim, row)) == brute_sym(rep, letters(counts), cache), (dim, counts)
            if not conjugated:
                assert all(c - r == counts[0] - counts[1] for r, c, _ in row[0]), (dim, counts)


@pytest.mark.parametrize("dim, conjugated", [(d, False) for d in range(1, 7)] + [(d, True) for d in range(2, 5)])
def test_fused_kernel_matches_reference(dim, conjugated):
    # Each memo entry is one call of the fused right multiplication, a sum
    # over up to three parts (c_a, {c - e_a}, a).  Every product of order
    # <= 7 of both algebras against the same recursion in the reference
    # arithmetic (checked against literal sums of words up to order 5 above).
    rep = conjugate_rep(REPS[dim], dense_similarity(dim)) if conjugated else REPS[dim]
    s1, s2, s3 = (ref(m) for m in rep.S)
    i_s2 = s2.scale(R.I)
    for (unit, times), gens in ((matrix_algebra(rep), (s1, s2, s3)), (spherical_algebra(rep), (s1 + i_s2, s1 - i_s2, s3))):
        session = SymSession(unit=unit, times=times)
        expected = {(0, 0, 0): R.Matrix.identity(dim)}
        for order in range(1, 8):
            for c in all_counts(order):
                total = R.Matrix.zero(dim)
                for a in range(3):
                    if c[a]:
                        below = tuple(n - (b == a) for b, n in enumerate(c))
                        total = total + (expected[below] * gens[a]).scale(c[a])
                expected[c] = total
                assert ref(Matrix._make(dim, session.sym_int(c))) == total, (dim, c)


@pytest.mark.parametrize("conjugated", [False, True])
def test_two_sided_kernel_matches_reference(conjugated):
    # A negative axis multiplies on the left and axis 0 adds the row as it
    # is: left products by S_+, S_- and S_3, and the fused commutators
    # [S_a, X] with an axis-0 part, against the reference arithmetic, for X
    # every product of order <= 3, on the 5-dimensional ladder and a dense
    # conjugation of it (whose rows carry denominators).
    dim = 5
    rep = conjugate_rep(REPS[dim], dense_similarity(dim)) if conjugated else REPS[dim]
    s1, s2, s3 = (ref(m) for m in rep.S)
    i_s2 = s2.scale(R.I)
    gens = (s1 + i_s2, s1 - i_s2, s3)
    unit, times = spherical_algebra(rep)
    session = SymSession(unit=unit, times=times)
    for order in range(4):
        for c in all_counts(order):
            x = session.sym_int(c)
            rx = ref(Matrix._make(dim, x))
            for a in (1, 2, 3):
                assert ref(Matrix._make(dim, times([(1, x, -a)]))) == gens[a - 1] * rx, (c, a)
                bracket = times([(2, x, -a), (-2, x, a), (3, x, 0)])
                expected = (gens[a - 1] * rx - rx * gens[a - 1]).scale(2) + rx.scale(3)
                assert ref(Matrix._make(dim, bracket)) == expected, (c, a)


def test_long_product_keeps_a_flat_stack():
    # {S3^n} = n! S3^n on spin 1/2; the memo is filled in a loop, so a limit
    # just above the caller's depth is enough for 1200 indices, and for the
    # three-axis boxes of sampled D = 60 tuples.
    n = 1200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        product = SymSession(REPS[2]).sym((3,) * n)
        report = verify_identity(REPS[2], build_identity(60), mode="sampled", count=3, seed=1)
    finally:
        sys.setrecursionlimit(limit)
    q = Fraction(factorial(n), 2**n)
    assert product == Matrix([[Scalar.of(q), Scalar.zero()], [Scalar.zero(), Scalar.of(q * (-1) ** n)]])
    assert report.ok


def test_session_builds_each_missing_entry_once():
    # Cartesian counts (1, 4, 6) need the spherical keys (a, 5 - a, 6); their
    # boxes overlap, and each entry of the union is built once, by one call
    # of the algebra's right multiplication.
    built = []
    unit, times = spherical_algebra(REPS[4])

    def counting(parts):
        built.append(1)
        return times(parts)

    session = SymSession(unit=unit, times=counting)
    keys = [(a, 5 - a, 6) for a in range(6)]
    for key in keys:
        session.sym_int(key)
    union = {(x, y, z) for x in range(6) for y in range(6 - x) for z in range(7)}
    assert set(session._rows) == union and len(union) == 147
    assert len(built) == 146  # all but the unit
    for key in keys:
        session.sym_int(key)
    assert len(built) == 146


def test_session_miss_looks_up_only_what_it_builds():
    # A miss is filled from a work stack, not by a scan of its box c' <= c:
    # with every entry of order 20 stored, (7, 7, 7) looks up only itself
    # and its three neighbours, not the 512 entries of its box.
    class Counting(dict):
        lookups = 0

        def __contains__(self, key):
            Counting.lookups += 1
            return super().__contains__(key)

    session = SymSession(unit=({(): 1}, 1), times=lambda parts: ({(): len(parts)}, 1))
    session._rows = Counting(session._rows)
    for c in all_counts(20):
        session.sym_int(c)
    Counting.lookups = 0
    assert session.sym_int((7, 7, 7)) == ({(): 3}, 1)
    assert Counting.lookups == 4


def test_threads_share_one_spherical_session():
    # Threads may share a session and its algebra: the product tables of
    # the right multiplication are stored only when complete, so a thread
    # never reads one half built.  Four threads fill one cold session each
    # round, on a new conjugation whose kept kernel is cold too, switching
    # often, against a serial fill.
    keys = [c for order in range(7) for c in all_counts(order)]
    unit, times = spherical_algebra(conjugate_rep(REPS[5], dense_similarity(5)))
    serial = SymSession(unit=unit, times=times)
    expected = [serial.sym_int(c) for c in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the tables' updates
    try:
        for _ in range(3):
            unit, times = spherical_algebra(conjugate_rep(REPS[5], dense_similarity(5)))
            session = SymSession(unit=unit, times=times)
            start = threading.Barrier(4, timeout=60)
            results = [None] * 4

            def work(k):
                start.wait()
                results[k] = [session.sym_int(c) for c in keys]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_product_tables_are_stored_complete(monkeypatch):
    # A thread that meets a product table another thread is still building
    # builds its own: the builder is held inside its first key_product call
    # while the main thread takes the same product.  Each representation
    # keeps its own kernel, so the expected product comes from another one.
    unit, times = spherical_algebra(build_generators(3))
    part = [(1, unit, 1)]
    expected = spherical_algebra(build_generators(3))[1](part)
    entered, release = threading.Event(), threading.Event()
    key_product = spinrep.key_product

    def held(k1, k2):
        if threading.current_thread() is builder:
            entered.set()
            release.wait(timeout=60)
        return key_product(k1, k2)

    monkeypatch.setattr(spinrep, "key_product", held)
    results = []
    builder = threading.Thread(target=lambda: results.append(times(part)))
    builder.start()
    try:
        assert entered.wait(timeout=60)
        assert times(part) == expected
    finally:
        release.set()
        builder.join(timeout=60)
    assert results == [expected]


def test_session_reuses_results():
    session = SymSession(REPS[3])
    first = session.sym((1, 2, 2))
    assert session.sym((2, 1, 2)) == first


# Entries: rational multiples of sqrt(m) and i*sqrt(m), up to three terms.
_component = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from((1, 2, 3, 6)),
    st.booleans(),
)


@st.composite
def _matrix_pair(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = st.lists(_component, max_size=3).map(R.of_components)
    cells = st.lists(entries, min_size=dim * dim, max_size=dim * dim)
    a, b = draw(cells), draw(cells)
    return R.Matrix([a[r * dim : (r + 1) * dim] for r in range(dim)]), R.Matrix(
        [b[r * dim : (r + 1) * dim] for r in range(dim)]
    )


@settings(max_examples=100, deadline=None)
@given(
    pair=_matrix_pair(),
    w1=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    w2=st.integers(min_value=-3, max_value=3),
)
def test_int_matrix_agrees_with_matrix(pair, w1, w2):
    # the reference Matrix is the oracle of the integer-numerator matrix rows
    a, b = pair
    ra, rb = lib(a).row, lib(b).row
    assert ref(Matrix._make(a.dim, ra)) == a
    entry = first_nonzero_entry(ra)
    assert (entry and entry[:2] + (ref(entry[2]),)) == a.first_nonzero_entry()
    product = row_matmul(ra, rb)
    assert ref(Matrix._make(a.dim, product)) == a * b
    combo = combine_terms([(w1, *ra), (w2, *rb)])
    assert ref(Matrix._make(a.dim, combo)) == a.scale(w1) + b.scale(w2)
    for mat, exact in ((a * b, product), (a.scale(w1) + b.scale(w2), combo)):
        assert exact == lib(mat).row  # one reduced form per value


def test_gen_delta_examples():
    assert gen_delta((1, 1, 2, 2)) == 1
    assert gen_delta((1, 1, 1, 1)) == 3
    assert gen_delta((1, 2, 1, 3)) == 0
    assert gen_delta(()) == 1
    with pytest.raises(ValueError):
        gen_delta((1, 2, 3))


def test_gen_delta_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        tup = tuple(rng.randint(1, 3) for _ in range(6))
        shuffled = list(tup)
        rng.shuffle(shuffled)
        assert gen_delta(tup) == gen_delta(tuple(shuffled))


@pytest.mark.parametrize("n", range(5))
def test_gen_delta_total_over_all_tuples(n):
    total = sum(
        gen_delta(tup) for tup in itertools.product((1, 2, 3), repeat=2 * n)
    )
    assert total == pairing_count(n) * 3**n


@pytest.mark.parametrize("order", range(10))
def test_delta_weights_match_subset_enumeration(order):
    # the per-subset gen_delta sum is the brute-force oracle of the formula
    for counts in all_counts(order):
        idx = letters(counts)
        for p in range(order // 2 + 1):
            brute = {}
            for subset in itertools.combinations(range(order), 2 * p):
                d = gen_delta([idx[q] for q in subset])
                if d:
                    rest = axis_counts(idx[q] for q in range(order) if q not in subset)
                    brute[rest] = brute.get(rest, 0) + d
            assert delta_weights(counts, p) == brute, (counts, p)


@pytest.mark.parametrize("order", range(10))
def test_spherical_delta_weights_match_weighted_pairings(order):
    # The reference's spherical weights, summed over the weighted pairings
    # of every subset (a (+, -) pair weighs 2, a (3, 3) pair 1), against
    # their closed form: k (+, -) pairs and p - k (3, 3) pairs.
    for counts in all_counts(order):
        a, b, c = counts
        for p in range(order // 2 + 1):
            closed = {(a - k, b - k, c - 2 * (p - k)):
                      comb(a, k) * comb(b, k) * factorial(k) * 2**k * comb(c, 2 * (p - k)) * pairing_count(p - k)
                      for k in range(min(a, b, p) + 1) if 2 * (p - k) <= c}
            assert R.spherical_delta_weights(counts, p) == closed, (counts, p)


def test_weighted_pairings_reduce_to_gen_delta():
    cartesian = {(a, a): 1 for a in (1, 2, 3)}
    for n in range(4):
        for tup in itertools.product((1, 2, 3), repeat=2 * n):
            assert R.weighted_pairings(tup, cartesian) == gen_delta(tup)


def brute_pairings(items):
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for k, other in enumerate(rest):
        for tail in brute_pairings(rest[:k] + rest[k + 1 :]):
            out.append([(first, other)] + tail)
    return out


def test_pairing_count():
    assert pairing_count(0) == 1
    assert pairing_count(2) == 3
    assert pairing_count(3) == len(brute_pairings(list(range(6)))) == 15
    with pytest.raises(ValueError):
        pairing_count(-1)


def test_pairing_count_factorial_form():
    from math import factorial

    for n in range(9):
        assert pairing_count(n) == factorial(2 * n) // (2**n * factorial(n))


def test_epsilon():
    assert epsilon(1, 2, 3) == 1
    assert epsilon(2, 1, 3) == -1
    assert epsilon(1, 1, 3) == 0


def antisym_reduce(rep, i, j, k):
    """Both sides of the degree-lowering rewrite for the antisymmetrized
    triple product, as matrices:

        S_i S_j S_k - S_k S_j S_i
            = i * sum_l (eps_ijl S_l S_k + eps_ikl S_j S_l + eps_jkl S_l S_i)
    """
    si, sj, sk = rep.matrix(i), rep.matrix(j), rep.matrix(k)
    rhs = Matrix.zero(rep.dim)
    for l in (1, 2, 3):
        sl = rep.matrix(l)
        for eps, term in ((epsilon(i, j, l), sl * sk), (epsilon(i, k, l), sj * sl), (epsilon(j, k, l), sl * si)):
            if eps:
                rhs = rhs + term.scale(eps)
    return si * sj * sk - sk * sj * si, rhs.scale(Scalar.i())


@pytest.mark.parametrize("dim", range(2, 7))
def test_antisym_reduction_all_triples(dim):
    rep = REPS[dim]
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        lhs, rhs = antisym_reduce(rep, i, j, k)
        assert lhs == rhs, (dim, i, j, k)


def test_antisym_equal_indices_vanish():
    for dim in (2, 5):
        lhs, rhs = antisym_reduce(REPS[dim], 2, 2, 2)
        assert lhs.is_zero() and rhs.is_zero()

import itertools
import random
from fractions import Fraction

import pytest

from spinid.spinrep import Matrix, build_generators
from spinid.symalg import (
    IndexMultiset,
    SymSession,
    all_multisets,
    antisym_reduce_demo,
    delta_weights,
    epsilon,
    gen_delta,
    pairing_count,
    sym_product,
)

REPS = {dim: build_generators(dim) for dim in range(1, 7)}


def brute_sym(rep, letters):
    """Literal sum over all n! orderings of the product (repeats counted);
    prefix products cached so length 5 stays cheap."""
    cache = {(): Matrix.identity(rep.dim)}

    def prod(seq):
        m = cache.get(seq)
        if m is None:
            m = prod(seq[:-1]) * rep.matrix(seq[-1])
            cache[seq] = m
        return m

    total = Matrix.zero(rep.dim)
    for perm in itertools.permutations(letters):
        total = total + prod(perm)
    return total


def test_multiset_canonicalization():
    a = IndexMultiset.from_tuple((3, 1, 2, 1))
    b = IndexMultiset.from_tuple((1, 1, 2, 3))
    assert a == b
    assert a.order == 4
    assert a.letters() == (1, 1, 2, 3)
    with pytest.raises(ValueError):
        IndexMultiset.from_tuple((0, 1))
    with pytest.raises(ValueError):
        IndexMultiset((1, -1, 0))


def test_all_multisets_counts():
    for order in range(6):
        ms = all_multisets(order)
        assert len(ms) == (order + 1) * (order + 2) // 2
        assert len(set(ms)) == len(ms)


def test_anticommutator_on_pauli():
    rep = REPS[2]
    for i, j in itertools.product((1, 2, 3), repeat=2):
        expected = (
            Matrix.identity(2).scale(Fraction(1, 2)) if i == j else Matrix.zero(2)
        )
        assert sym_product(rep, (i, j)) == expected


def test_repeated_index_doubles_square():
    for dim in (2, 3, 4, 5):
        rep = REPS[dim]
        s1 = rep.matrix(1)
        assert sym_product(rep, (1, 1)) == (s1 * s1).scale(2)


def test_all_different_triple_vanishes_in_three_dimensions():
    assert sym_product(REPS[3], (1, 2, 3)).is_zero()


def test_order_zero_is_identity():
    assert sym_product(REPS[4], ()) == Matrix.identity(4)


@pytest.mark.parametrize("dim", range(1, 6))
def test_recursion_matches_brute_force(dim):
    rep = REPS[dim]
    session = SymSession(rep)
    for order in range(6):
        for ms in all_multisets(order):
            assert session.sym(ms) == brute_sym(rep, ms.letters()), (dim, ms)


def test_session_reuses_results():
    session = SymSession(REPS[3])
    first = session.sym((1, 2, 2))
    assert session.sym((2, 1, 2)) is first


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
    for ms in all_multisets(order):
        idx = ms.letters()
        for p in range(order // 2 + 1):
            brute = {}
            for subset in itertools.combinations(range(order), 2 * p):
                d = gen_delta([idx[q] for q in subset])
                if d:
                    rest = IndexMultiset.from_tuple(
                        idx[q] for q in range(order) if q not in subset
                    )
                    brute[rest] = brute.get(rest, 0) + d
            assert delta_weights(ms.counts, p) == brute, (ms, p)


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


@pytest.mark.parametrize("dim", range(2, 7))
def test_antisym_reduction_all_triples(dim):
    rep = REPS[dim]
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        lhs, rhs = antisym_reduce_demo(rep, i, j, k)
        assert lhs == rhs, (dim, i, j, k)


def test_antisym_equal_indices_vanish():
    for dim in (2, 5):
        lhs, rhs = antisym_reduce_demo(REPS[dim], 2, 2, 2)
        assert lhs.is_zero() and rhs.is_zero()

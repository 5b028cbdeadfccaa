import copy
import dataclasses
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import comb, factorial

import pytest
import reference
from mutation import mutate
from reference import first_nonzero_entry
from test_symalg import brute_sym, dense_similarity, integer_similarity, letters

from spinid import charid, spinrep, symalg
from spinid.charid import (
    CharCoeffs,
    ExhaustiveFailures,
    Identity,
    VerificationReport,
    a1_closed,
    a2_closed,
    an1_closed,
    an_closed,
    b_coeffs,
    build_identity,
    char_coeffs,
    discover_identity,
    identity_to_json,
    identity_to_latex,
    power_sum,
    verify_identity,
)
from spinid.rewrite import NormalForm, parse
from spinid.scalar import KEY_I, KEY_ONE, Scalar, combine_terms
from spinid.spinrep import (Matrix, SpinRep, build_generators, commutation_holds, conjugate_rep, eigenvalue_list,
                            product_kernel)
from spinid.symalg import SymSession, all_counts, axis_counts, delta_weights

REPS = {dim: build_generators(dim) for dim in range(1, 8)}


# --- characteristic coefficients -------------------------------------------


def test_char_coeffs_examples():
    assert char_coeffs(4).a == (Fraction(-5, 2), Fraction(9, 16))
    assert char_coeffs(3).a == (Fraction(-1),)
    assert char_coeffs(5).a == (Fraction(-5), Fraction(4))
    with pytest.raises(ValueError):
        char_coeffs(1)


@pytest.mark.parametrize("dim", range(2, 13))
def test_every_eigenvalue_is_a_root(dim):
    a = char_coeffs(dim).a
    for lam in eigenvalue_list(dim):
        value = lam**dim + sum(
            a_p * lam ** (dim - 2 * p) for p, a_p in enumerate(a, start=1)
        )
        assert value == 0


def test_integer_expansion_matches_fraction_oracle():
    for dim in [*range(2, 121), 400, 401]:
        assert char_coeffs(dim).a == reference.char_coeffs(dim), dim
        assert b_coeffs(dim) == reference.b_coeffs(dim), dim


@pytest.mark.parametrize("dim", range(2, 61))
def test_closed_forms_match_expansion(dim):
    a = char_coeffs(dim).a
    assert a1_closed(dim) == a[0]
    if dim % 2:
        n = (dim - 1) // 2
        assert an_closed(dim) == a[n - 1]
        if n >= 2:
            assert a2_closed(dim) == a[1]
    else:
        assert an1_closed(dim) == a[-1]


def test_closed_form_values():
    assert a1_closed(5) == -5
    assert an1_closed(4) == Fraction(9, 16)
    assert an_closed(3) == -1
    assert an_closed(5) == 4


def test_closed_form_domains():
    with pytest.raises(ValueError):
        an_closed(4)
    with pytest.raises(ValueError):
        an1_closed(5)
    with pytest.raises(ValueError):
        a2_closed(4)
    with pytest.raises(ValueError):
        a2_closed(3)  # n = 1 < 2


# --- power sums -------------------------------------------------------------


def test_power_sum_examples():
    for n in range(20):
        assert power_sum(0, n) == n + 1
    assert power_sum(4, 3) == 98
    assert power_sum(2, 2) == 5
    assert power_sum(2, 10) == 385
    with pytest.raises(ValueError):
        power_sum(-1, 3)
    with pytest.raises(ValueError):
        power_sum(2, -1)
    with pytest.raises(ValueError, match="r = 501"):
        power_sum(charid.POWER_SUM_MAX_R + 1, 1)


def test_power_sum_keeps_no_state_between_calls():
    # Each call builds its own ladder: calls at new n leave nothing held at
    # module level (a cache on (r, n) kept r + 1 big fractions per n).
    import tracemalloc

    assert power_sum(60, 999) == sum(q**60 for q in range(1000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1000, 1010):
            assert power_sum(60, n) == sum(q**60 for q in range(n + 1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4096, held


def test_power_sum_against_brute_force():
    for r in range(9):
        for n in range(51):
            assert power_sum(r, n) == sum(q**r for q in range(n + 1)), (r, n)


def test_power_sum_matches_the_fraction_ladder():
    # The integer ladder against the reference ladder in Fraction
    # arithmetic, up to POWER_SUM_MAX_R, and the same type: a Fraction.
    for r, n in [(0, 0), (1, 0), (7, 1), (40, 3), (123, 999), (250, 10**6), (charid.POWER_SUM_MAX_R, 10**9)]:
        got = power_sum(r, n)
        assert type(got) is Fraction and got.denominator == 1
        assert got == reference.power_sum(r, n), (r, n)
    assert power_sum(charid.POWER_SUM_MAX_R, 20) == sum(q**charid.POWER_SUM_MAX_R for q in range(21))


def test_power_sum_closed_forms():
    for n in range(51):
        assert power_sum(1, n) == Fraction(n * (n + 1), 2)
        assert power_sum(2, n) == Fraction(n * (n + 1) * (2 * n + 1), 6)
        assert power_sum(3, n) == Fraction(n**2 * (n + 1) ** 2, 4)
        assert power_sum(4, n) == Fraction(
            n * (n + 1) * (2 * n + 1) * (3 * n**2 + 3 * n - 1), 30
        )


# --- value classes -----------------------------------------------------------


def _values():
    """Two equal, separately built values of each plain value class."""
    return [
        (CharCoeffs(4, (Fraction(-5, 2), Fraction(9, 16))), char_coeffs(4)),
        (build_generators(3), SpinRep(3, build_generators(3).rows)),
        (NormalForm(parse("S1*S2 + 2"), 3), NormalForm(parse("2 + S1*S2"), 3)),
        (VerificationReport(3, 3, "exhaustive", 27), VerificationReport(3, 3, "exhaustive", 27, [], 0.0)),
    ]


@pytest.mark.parametrize("x, y", _values(), ids=lambda v: type(v).__name__)
def test_value_classes_compare_and_hash_by_value(x, y):
    assert x == y and not x != y and not dataclasses.is_dataclass(x)
    assert repr(x) == repr(y) and repr(x).startswith(type(x).__name__ + "(")
    if isinstance(x, (SpinRep, VerificationReport)):  # rows hold dicts, failures is a list
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) and {x: 1}[y] == 1
    field = x.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y


def test_report_equality_ignores_stats():
    a = VerificationReport(3, 3, "exhaustive", 27, stats={"multisets": 10})
    b = VerificationReport(3, 3, "exhaustive", 27, stats={"multisets": 4})
    assert a == b and a.stats != b.stats
    assert a != VerificationReport(3, 3, "exhaustive", 27, elapsed=1.0)


def test_identity_stays_a_dataclass():
    # a perturbed copy, as the benchmark's self-check builds one
    ident = build_identity(5)
    wrong = dataclasses.replace(ident, b=(ident.b[0] + 1, ident.b[1]))
    assert isinstance(wrong, Identity) and wrong.dim == 5 and wrong.b != ident.b
    assert build_identity(5).b == (-10, 32)


def test_identity_is_a_record_with_lazy_dataclass_fields():
    ident, again = build_identity(5), discover_identity(REPS[5])
    assert ident is not again and ident == again and not ident != again
    assert hash(ident) == hash(again) == hash((5, ident.b)) and {ident: 1}[again] == 1
    assert ident != Identity(5, (ident.b[0] + 1, ident.b[1])) and ident != (5, ident.b)
    for field in ("dim", "b"):
        with pytest.raises(AttributeError):
            setattr(ident, field, getattr(ident, field))
        with pytest.raises(AttributeError):
            delattr(ident, field)
    assert repr(ident) == "Identity(dim=5, b=(Fraction(-10, 1), Fraction(32, 1)))"
    assert Identity(dim=5, b=ident.b) == Identity(5, ident.b) == ident
    assert pickle.loads(pickle.dumps(ident)) == ident and copy.deepcopy(ident) == ident
    assert [f.name for f in dataclasses.fields(ident)] == ["dim", "b"]
    assert dataclasses.is_dataclass(ident) and dataclasses.is_dataclass(Identity)
    assert dataclasses.asdict(ident) == {"dim": 5, "b": ident.b}


# --- identity synthesis ------------------------------------------------------


def test_b_coeffs_examples():
    assert b_coeffs(3) == [-2]
    assert b_coeffs(5) == [-10, 32]
    assert b_coeffs(4) == [-5, Fraction(9, 2)]


@pytest.mark.parametrize("dim", range(2, 10))
def test_identity_structure(dim):
    ident = build_identity(dim)
    a = char_coeffs(dim).a
    assert len(ident.b) == dim // 2
    levels = identity_to_json(ident)["levels"]
    assert [lvl["p"] for lvl in levels] == list(range(dim // 2 + 1))
    for p, (b_p, level) in enumerate(zip(ident.b, levels[1:]), start=1):
        assert b_p == 2**p * factorial(p) * a[p - 1]
        assert Fraction(level["coefficient"]) == b_p
        subsets = [tuple(s) for s in level["subsets"]]
        assert len(set(subsets)) == len(subsets) == comb(dim, 2 * p)
        assert all(len(s) == 2 * p and 1 <= min(s) and max(s) <= dim for s in subsets)


def test_identity_json_monic():
    doc = identity_to_json(build_identity(2))
    assert doc == {
        "dim": 2,
        "normalization": "monic",
        "levels": [
            {"p": 0, "coefficient": "1", "subsets": [[]]},
            {"p": 1, "coefficient": "-1/2", "subsets": [[1, 2]]},
        ],
    }


def test_identity_json_integral_reproduces_displayed_coefficients():
    doc2 = identity_to_json(build_identity(2), "integral")
    assert [lvl["coefficient"] for lvl in doc2["levels"]] == ["2", "-1"]
    doc = identity_to_json(build_identity(4), "integral")
    assert [lvl["coefficient"] for lvl in doc["levels"]] == ["2", "-10", "9"]
    doc3 = identity_to_json(build_identity(3), "integral")
    assert [lvl["coefficient"] for lvl in doc3["levels"]] == ["1", "-2"]
    doc5 = identity_to_json(build_identity(5), "integral")
    assert [lvl["coefficient"] for lvl in doc5["levels"]] == ["1", "-10", "32"]


def test_identity_latex_layouts():
    collapsed = identity_to_latex(build_identity(4), "integral")
    assert collapsed.startswith("2 \\{ S_{i} S_{j} S_{k} S_{l} \\}")
    assert "(5 more similar terms)" in collapsed
    assert "+ 9 \\delta_{i j k l} \\mathbbm{1}" in collapsed

    expanded = identity_to_latex(build_identity(3), "integral", expand=True)
    assert (
        expanded
        == "\\{ S_{i} S_{j} S_{k} \\} - 2 \\Big( S_{i} \\delta_{j k}"
        " + S_{j} \\delta_{i k} + S_{k} \\delta_{i j} \\Big) = 0"
    )

    assert identity_to_latex(build_identity(4)).endswith(" + \\frac{9}{2} \\delta_{i j k l} \\mathbbm{1} = 0")
    six = identity_to_latex(build_identity(6))
    assert " - \\frac{35}{2} \\Big( " in six and six.endswith(" - \\frac{675}{4} \\delta_{i j k l m n} \\mathbbm{1} = 0")

    five = identity_to_latex(build_identity(5))
    assert "(9 more similar terms)" in five
    assert "(4 more similar terms)" in five

    # The collapsed form shows the first term of each expanded level.
    for dim in range(2, 10):
        ident = build_identity(dim)
        collapsed = identity_to_latex(ident).split(" \\Big( ")
        expanded = identity_to_latex(ident, expand=True).split(" \\Big( ")
        assert len(collapsed) == len(expanded) and collapsed[0] == expanded[0]
        for short, full in zip(collapsed[1:], expanded[1:]):
            short_body, short_tail = short.split(" \\Big)")
            full_body, full_tail = full.split(" \\Big)")
            shown, more = short_body.split(" + \\mbox{(")
            terms = full_body.split(" + ")
            assert terms[0] == shown
            assert more == f"{len(terms) - 1} more similar terms)}}"
            assert short_tail == full_tail


# --- verification ------------------------------------------------------------


def test_verify_same_dimension():
    report = verify_identity(REPS[3], build_identity(3))
    assert report.ok
    assert report.tuples_checked == 27
    assert report.mode == "exhaustive"
    assert report.dim == 3 and report.rep_dim == 3


def test_verify_nesting_four_on_two():
    report = verify_identity(REPS[2], build_identity(4))
    assert report.ok and report.tuples_checked == 81


def test_verify_failure_witness():
    report = verify_identity(REPS[3], build_identity(2))
    assert not report.ok
    by_tuple = dict(report.failures)
    r, c, value = by_tuple[(3, 3)]
    # {S3 S3} - 1/2 delta 1 = 2 S3^2 - 1/2 on the 3-dimensional rep:
    # the eigenvalue-1 corner gives 3/2.
    assert (r, c) == (0, 0)
    assert str(value) == "3/2"
    # All of a multiset's spherical residuals vanishing is enough for it to
    # hold, not needed: on R = 1, R(1, 1, 0) is nonzero, yet (1, 1, 0) holds,
    # and only the squares fail.
    q, _ = charid._q_of_s3(REPS[1], build_identity(2))
    spherical, _ = charid._adjoint_residuals(REPS[1], 2, combine_terms([(2, *q)]))
    assert spherical[1, 1, 0][0]
    report = verify_identity(REPS[1], build_identity(2), mode="exhaustive")
    assert set(report.failures.witnesses) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}


def test_verify_failures_sorted_lexicographically():
    report = verify_identity(REPS[4], build_identity(2))
    tuples = [t for t, _ in report.failures]
    assert tuples == sorted(tuples)


def test_residual_depends_only_on_multiset():
    # raw-tuple vs canonical-tuple evaluation, sampled
    rng = random.Random(99)
    ident = build_identity(4)
    session = SymSession(REPS[4])
    for _ in range(12):
        tup = tuple(rng.randint(1, 3) for _ in range(4))
        raw = ident.residual(session, tup)
        canonical = ident.residual(session, tuple(sorted(tup)))
        assert raw == canonical


def test_sampled_mode_determinism():
    first = verify_identity(REPS[3], build_identity(5), mode="sampled", count=40, seed=5)
    second = verify_identity(REPS[3], build_identity(5), mode="sampled", count=40, seed=5)
    assert first.ok and second.ok
    assert first.tuples_checked == second.tuples_checked == 40


def test_sampled_mode_requires_count_and_seed():
    with pytest.raises(ValueError):
        verify_identity(REPS[3], build_identity(3), mode="sampled")
    for count in (0, -3):  # a sample of no tuples would be a vacuous pass
        with pytest.raises(ValueError):
            verify_identity(REPS[3], build_identity(3), mode="sampled", count=count, seed=1)
    with pytest.raises(ValueError):
        verify_identity(REPS[3], build_identity(3), mode="nonsense")


def test_default_mode_selection():
    assert verify_identity(REPS[3], build_identity(3)).mode == "exhaustive"
    # exhaustive at every dimension: above 7 too, with no seed
    report = verify_identity(REPS[2], build_identity(8))
    assert report.mode == "exhaustive" and report.tuples_checked == 3**8
    assert report.ok  # even identity nests downward


def _oracle_report(rep, ident, drawn=None):
    """The report rebuilt from literal symmetric sums (brute_sym) and the
    Cartesian delta_weights, in the reference arithmetic throughout: over
    all tuples, or over the drawn ones of a sampled run."""
    cache, syms, witnesses = {}, {}, {}

    def sym(counts):
        if counts not in syms:
            syms[counts] = brute_sym(rep, letters(counts), cache)
        return syms[counts]

    if drawn is None:
        tuples, mode, checked = itertools.product((1, 2, 3), repeat=ident.dim), "exhaustive", 3**ident.dim
    else:
        tuples, mode, checked = sorted(set(drawn)), "sampled", len(drawn)
    failures = []
    for tup in tuples:
        counts = axis_counts(tup)
        if counts not in witnesses:
            total = sym(counts)
            for p, b_p in enumerate(ident.b, start=1):
                for rest, w in delta_weights(counts, p).items():
                    total = total + sym(rest).scale(b_p * w)
            witnesses[counts] = total.first_nonzero_entry()
        if witnesses[counts] is not None:
            failures.append((tup, witnesses[counts]))
    return VerificationReport(ident.dim, rep.dim, mode, checked, failures).to_json()


@pytest.mark.parametrize(
    "dim, rep_dim, conjugated",
    [(d, r, False) for d, r in ((2, 2), (2, 4), (3, 3), (3, 5), (4, 2), (4, 6), (5, 3), (5, 7), (6, 4), (7, 7), (8, 2), (9, 1),
                                (2, 1), (4, 3), (5, 2))]
    + [(d, r, True) for d, r in ((2, 2), (2, 4), (3, 3), (3, 5), (4, 2), (4, 4), (5, 5))],
)
def test_verify_matches_brute_force_oracle(dim, rep_dim, conjugated):
    # holding and failing reports, witnesses included, against the Scalar path
    rep = REPS[rep_dim]
    if conjugated:
        rep = conjugate_rep(rep, dense_similarity(rep_dim))
    ident = build_identity(dim)
    assert verify_identity(rep, ident, mode="exhaustive").to_json() == _oracle_report(rep, ident)


@pytest.mark.parametrize(
    "dim, rep_dim, conjugated, count, seed",
    [(2, 4, False, 20, 1), (3, 3, False, 30, 2), (3, 5, False, 30, 3), (4, 6, False, 60, 4), (5, 3, False, 80, 5),
     (6, 8, False, 50, 6), (8, 2, False, 40, 7), (3, 5, True, 30, 8), (4, 4, True, 40, 9), (6, 8, False, 5000, 10)],
)
def test_sampled_verify_matches_brute_force_oracle(dim, rep_dim, conjugated, count, seed):
    # A sampled report is the exhaustive oracle restricted to the tuples
    # drawn: count draws of D axes each from random.Random(seed).  A count
    # of 5000 spans several reads, with failing draws that the first lacks.
    rep = build_generators(rep_dim)
    if conjugated:
        rep = conjugate_rep(rep, dense_similarity(rep_dim))
    ident = build_identity(dim)
    rng = random.Random(seed)
    drawn = [tuple(rng.randint(1, 3) for _ in range(dim)) for _ in range(count)]
    report = verify_identity(rep, ident, mode="sampled", count=count, seed=seed)
    assert report.to_json() == _oracle_report(rep, ident, drawn)


SPHERICAL_REPS = [(r, False) for r in range(1, 10)] + [(r, True) for r in range(2, 6)]


@pytest.mark.parametrize("rep_dim, conjugated", SPHERICAL_REPS)
def test_cartesian_residual_from_spherical_matches_direct(rep_dim, conjugated):
    # Row for row: the Cartesian residual converted from the reference's
    # spherical ones against Identity.residual_int on a Cartesian session.
    rep = build_generators(rep_dim)
    if conjugated:
        rep = conjugate_rep(rep, dense_similarity(rep_dim))
    cartesian = SymSession(rep)
    unit, times = rep.spherical
    spherical = SymSession(unit=unit, times=times)
    for dim in range(2, 8):
        ident = build_identity(dim)
        rows = {c: reference.spherical_residual(ident, spherical, c) for c in all_counts(dim)}
        for c in all_counts(dim):
            assert reference.cartesian_residual(c, rows) == ident.residual_int(cartesian, c), (dim, c)


def _sweep_cases():
    for dim in range(2, 10):
        for rep_dim in sorted({dim, dim + 2, dim - 2, 3, 1} - {0}):
            yield dim, rep_dim, False
    for dim in range(2, 7):
        yield dim, dim, True
        yield dim, dim + 2 if dim < 4 else 3, True


def _varied_identities(dim):
    """The identity, with b_1 + 1, and with each b_p set to 0."""
    b = build_identity(dim).b
    idents = [Identity(dim, b), Identity(dim, (b[0] + 1, *b[1:]))]
    return idents + [Identity(dim, b[:p] + (Fraction(0),) + b[p + 1 :]) for p in range(len(b))]


@pytest.mark.parametrize("dim, rep_dim, conjugated", list(_sweep_cases()))
def test_sweep_matches_residual_oracle(dim, rep_dim, conjugated):
    # Every order-D spherical residual of the reference's Horner sweep
    # against its weighted-pairings sum, on a spherical SymSession: for the
    # identity, for b_1 + 1 and for each b_p set to 0; and a sampled target
    # set, whose downset sweep is the full sweep on those targets.
    rep = build_generators(rep_dim)
    if conjugated:
        rep = conjugate_rep(rep, dense_similarity(rep_dim))
    unit, times = rep.spherical
    session = SymSession(unit=unit, times=times)
    keys = set(symalg.all_counts(dim))
    rng = random.Random(dim * 100 + rep_dim)
    for ident in _varied_identities(dim):
        rows, products = reference.sweep_residuals(rep, ident, keys)
        assert set(rows) == keys
        for c in keys:
            assert rows[c] == reference.spherical_residual(ident, session, c), (ident.b, c)
        targets = set(rng.sample(sorted(keys), 3))
        sampled, fewer = reference.sweep_residuals(rep, ident, targets)
        assert sampled == {c: rows[c] for c in targets} and fewer <= products


def _adjoint_cases():
    for dim in range(2, 10):
        for rep_dim in range(1, 12):
            yield dim, build_generators(rep_dim)
    for rep_dim in range(2, 8):
        rep = conjugate_rep(build_generators(rep_dim), dense_similarity(rep_dim))
        for dim in (rep_dim, rep_dim + 2):
            yield dim, rep
    for dim in range(2, 6):
        for seed in range(3):
            yield dim, _seeded_conjugation(dim, seed)
            yield dim + 2, _seeded_conjugation(dim, seed)
    for dims in DIRECT_SUMS:
        yield sum(dims), direct_sum(*dims)
        yield sum(dims) + 1, direct_sum(*dims)


def _adjoint_mismatches(cases, rng):
    """(dim, rep_dim, b) of each case and varied identity where R(0, 0, D)
    = D! q_D(S_3) differs from the reference's Horner sweep, or, when it is
    nonzero, where any order-D residual by the adjoint action does, takes
    more than one commutator per residual, or differs from the sweep of a
    few sampled targets' downset.  A zero q_D(S_3) must come with every
    swept residual zero."""
    out = []
    for dim, rep in cases:
        keys = symalg.all_counts(dim)
        for ident in _varied_identities(dim):
            swept, _ = reference.sweep_residuals(rep, ident, set(keys))
            q, _ = charid._q_of_s3(rep, ident)
            top = combine_terms([(factorial(dim), *q)])
            if q[0]:
                rows, commutators = charid._adjoint_residuals(rep, dim, top)
                targets = set(rng.sample(keys, min(3, len(keys))))
                sampled, _ = reference.sweep_residuals(rep, ident, targets)
                holds = rows == swept and commutators <= len(keys) - 1 and sampled == {c: rows[c] for c in targets}
            else:
                holds = not any(row[0] for row in swept.values())
            if top != swept[0, 0, dim] or not holds:
                out.append((dim, rep.dim, ident.b))
    return out


def test_adjoint_residuals_match_the_sweep_oracle():
    # On ladders D = 2..9 x R = 1..11, dense and seeded conjugations and
    # direct sums, for the identity, b_1 + 1 and each b_p set to 0.
    assert _adjoint_mismatches(_adjoint_cases(), random.Random(21)) == []


@pytest.mark.parametrize(
    "dim, rep_dim, holds",
    [(12, 12, True), (16, 16, True), (20, 20, True), (16, 4, True), (10, 12, False)],
)
def test_verify_at_large_dimension(dim, rep_dim, holds):
    # "Arbitrary D": the identity on its own representation, nesting on a
    # smaller one of the same parity, and minimality on D + 2.
    report = verify_identity(build_generators(rep_dim), build_identity(dim), mode="exhaustive")
    assert report.ok is holds
    assert report.tuples_checked == 3**dim
    if holds:
        assert report.failures == []
    else:
        assert report.failures and all(len(t) == dim and not w[2].is_zero() for t, w in report.failures)


def test_verify_and_discover_run_on_the_spherical_kernel(monkeypatch):
    # Verification makes no product in the Cartesian algebra and reads no
    # delta weights at all (q_D(S_3) adds its a_j as unit terms, and the
    # commutators need none).
    # Discovery reads no weights either, builds no Cartesian kernel and
    # multiplies by no S_+, S_- or S_3: it takes S_3^2 and one step up the
    # ladder of its powers per coefficient, 1 + D // 2 products in all.
    def refuse(*args, **kwargs):
        raise AssertionError("matrix_algebra ran")

    calls = []

    def counted(counts, p):
        calls.append(counts)
        return delta_weights(counts, p)

    monkeypatch.setattr(symalg, "matrix_algebra", refuse)
    monkeypatch.setattr(spinrep, "matrix_algebra", refuse)
    monkeypatch.setattr(charid, "delta_weights", counted)
    for dim in range(2, 7):
        assert verify_identity(REPS[dim], build_identity(dim), mode="exhaustive").ok
        assert not verify_identity(REPS[dim], build_identity(dim + 1), mode="exhaustive").ok
        assert verify_identity(REPS[dim], build_identity(dim + 2), mode="sampled", count=30, seed=dim).ok
    assert calls == [], "verification read delta weights"

    # Discovery on a fresh representation builds its kernel: S_3^2 as one
    # product of a kernel over S_3 alone, then the kept kernel over
    # (S_+, S_-, S_3, S_3^2), whose axis 4 climbs the ladder; a second
    # discovery on it builds nothing and takes the same steps.
    products = []

    def counted_kernel(gens):
        products.append(("kernel", len(gens)))
        times = product_kernel(gens)

        def counting(parts):
            products.append([a for _, _, a in parts])
            return times(parts)

        return counting

    monkeypatch.setattr(spinrep, "product_kernel", counted_kernel)
    for dim in range(2, 8):
        rep = build_generators(dim)
        assert rep.commutes
        products.clear()
        assert discover_identity(rep) == build_identity(dim)
        assert products == [("kernel", 1), [1], ("kernel", 4)] + [[4]] * (dim // 2), dim
        products.clear()
        assert discover_identity(rep) == build_identity(dim)
        assert products == [[4]] * (dim // 2), dim
    assert calls == [], "discovery read delta weights"


def test_residual_int_sums_the_delta_weights():
    # residual_int is {c} plus b_p times the delta_weights(c, p) terms, for
    # every counts of order D = 2 .. 12, on a session whose products are
    # cheap (D = 2); a tuple of the wrong order is refused.
    session = SymSession(REPS[2])
    for dim in range(2, 13):
        ident = build_identity(dim)
        for c in all_counts(dim):
            expected = [(1, *session.sym_int(c))]
            expected += [(b_p * w, *session.sym_int(rest)) for p, b_p in enumerate(ident.b, start=1)
                         for rest, w in delta_weights(c, p).items()]
            assert ident.residual_int(session, c) == combine_terms(expected), c
        with pytest.raises(ValueError, match="expected"):
            ident.residual_int(session, (dim, 1, 0))


def _oracle_draws(seed, d, count):
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 3) for _ in range(d)) for _ in range(count)]


@pytest.mark.parametrize("d", (1, 3, 7, 20))
def test_batched_sampler_is_the_randint_stream(d):
    # The chunks of _sample_chunks hold whole tuples, and together they are
    # those randint(1, 3) draws, axis for axis.  A count of 40000 spans
    # several 2^14-word reads; the full 30-seed grid at that count is 37
    # million randint calls (17 s on 2 cores, Python 3.11), so it runs for
    # ten seeds at d = 1 and three at the other d (d = 20 crosses a read at
    # a count of 1000 too).
    for seed in range(30):
        big = 40000 if seed < (10 if d == 1 else 3) else 1000
        drawn = _oracle_draws(seed, d, big)
        for count in (1, 1000, big):
            chunks = list(charid._sample_chunks(random.Random(seed), d, count))
            assert all(len(chunk) % d == 0 for chunk in chunks), (seed, d, count)
            assert b"".join(chunks) == bytes(itertools.chain(*drawn[:count])), (seed, d, count)


def test_sampled_verify_memory_does_not_grow_with_count():
    # q_16(S_3) = 0 certifies every tuple, so a sample that holds is never
    # drawn: ten times the count leaves the peak where it was.
    import tracemalloc

    rep, ident = build_generators(16), build_identity(16)
    verify_identity(rep, ident, mode="sampled", count=30000, seed=1)  # fill the memos first
    peaks = []
    for count in (30000, 300000):
        tracemalloc.start()
        try:
            assert verify_identity(rep, ident, mode="sampled", count=count, seed=1).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_verify_reduces_each_product_once(monkeypatch):
    # One reduce_terms per product this call took (each Horner step of
    # q_D(S_3), each commutator of the adjoint recursion, and S_3^2 where
    # the call builds the representation's kernel); when q_D(S_3) is
    # nonzero, one more for R(0, 0, D) = D! q_D(S_3); and one per witness,
    # the combination at the position the walk reads (on these
    # representations no witness's first position cancels): no intermediate
    # product of the kernel is reduced on its own, and no witness builds a
    # whole Cartesian residual.
    # The three commutation brackets are reduced once per representation:
    # on the first verification of a ladder built here (so no earlier test
    # has checked it), and never for a conjugation, checked as it was built.
    # The kept kernel's two spherical generators S_+ and S_- are reduced on
    # the first verification of each representation, the conjugation's
    # included: ``conjugate_rep`` hands on no kernel.
    from spinid import scalar

    calls = []

    def counting(terms, den):
        calls.append(1)
        return reduce_terms(terms, den)

    reduce_terms = scalar.reduce_terms
    conjugated = conjugate_rep(build_generators(3), dense_similarity(3))
    ladders = {dim: build_generators(dim) for dim in (4, 5, 6)}
    monkeypatch.setattr(scalar, "reduce_terms", counting)
    monkeypatch.setattr(spinrep, "reduce_terms", counting)
    checked, kept = {id(conjugated)}, set()
    for rep, dim in ((ladders[5], 5), (ladders[6], 4), (ladders[4], 6), (conjugated, 3), (conjugated, 5),
                     (ladders[5], 7), (ladders[6], 6)):
        calls.clear()
        report = verify_identity(rep, build_identity(dim), mode="exhaustive")
        stats = report.stats
        witnesses = len({id(w) for _, w in report.failures})
        assert report.ok is (witnesses == 0)
        brackets = 0 if id(rep) in checked else 3
        spherical = 0 if id(rep) in kept else 2
        checked.add(id(rep))
        kept.add(id(rep))
        assert len(calls) == stats["products"] + brackets + spherical + (0 if report.ok else 1) + witnesses, \
            (rep.dim, dim)


def test_report_stats_stay_off_the_wire():
    report = verify_identity(build_generators(5), build_identity(5), mode="exhaustive")
    # 21 multisets of order 5, all certified by q_5(S_3) = 0: one spherical
    # residual, R(0, 0, 5), from three products (S_3^2, in building the
    # representation's kernel, and two Horner steps up from S_3).  The
    # triangle is never filled.
    assert report.stats == {"multisets": 21, "spherical_residuals": 1, "products": 3}
    assert set(report.to_json()) == {"dim", "rep_dim", "mode", "tuples_checked", "failures", "ok"}
    sampled = verify_identity(build_generators(5), build_identity(5), mode="sampled", count=3, seed=1)
    # Certified the same way, all 21 multisets, none drawn.
    assert sampled.stats == report.stats
    assert set(sampled.to_json()) == {"dim", "rep_dim", "mode", "tuples_checked", "failures", "ok"}
    # Again on a representation that keeps its kernel: S_3^2 is not taken again.
    rep = build_generators(5)
    verify_identity(rep, build_identity(5), mode="exhaustive")
    again = verify_identity(rep, build_identity(5), mode="sampled", count=3, seed=1)
    assert again.stats == {"multisets": 21, "spherical_residuals": 1, "products": 2}
    # On D + 2 the residuals fill the triangle of order 5, one commutator
    # for each residual but R(0, 0, 5) (none of them is zero there), and
    # every multiset is met.
    failing = verify_identity(build_generators(7), build_identity(5), mode="exhaustive")
    assert failing.stats == {"multisets": 21, "spherical_residuals": 21, "products": 3 + 20}
    # A sample judges only the multisets its tuples meet: at most 3.
    drawn = verify_identity(build_generators(7), build_identity(5), mode="sampled", count=3, seed=1)
    assert 1 <= drawn.stats["multisets"] <= 3
    assert drawn.stats["spherical_residuals"] == 21 and drawn.stats["products"] == 3 + 20


def test_a_sample_that_holds_is_never_drawn(monkeypatch):
    # q_5(S_3) = 0 certifies every tuple, so no tuple is drawn, whatever the
    # count.
    def refuse(*args):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr(charid, "_sample_chunks", refuse)
    report = verify_identity(REPS[5], build_identity(5), "sampled", 10**12, 1)
    assert report.ok and report.tuples_checked == 10**12


def test_a_failing_sample_past_its_bound_is_refused_before_any_draw(monkeypatch):
    # q_2(S_3) != 0 on R = 4, so the sample must be drawn: past
    # SAMPLE_MAX_AXES axes (count times D) it is refused before the first
    # draw, and at the bound it is drawn.  A sample that holds is neither
    # drawn nor refused, whatever its count.
    drawn = []

    def sample_chunks(rng, d, count):
        drawn.append(count)
        return iter(())

    monkeypatch.setattr(charid, "_sample_chunks", sample_chunks)
    rep, ident = REPS[4], build_identity(2)
    for count in (charid.SAMPLE_MAX_AXES // 2 + 1, 10**20):
        with pytest.raises(ValueError, match=f"^refused, a failing sample of {count} tuples of 2 indices "):
            verify_identity(rep, ident, "sampled", count, 1)
    assert drawn == []
    verify_identity(rep, ident, "sampled", charid.SAMPLE_MAX_AXES // 2, 1)
    assert drawn == [charid.SAMPLE_MAX_AXES // 2]
    assert verify_identity(REPS[2], ident, "sampled", 10**20, 1).ok and drawn == [charid.SAMPLE_MAX_AXES // 2]


def test_verify_refuses_a_triple_off_the_commutation_relation():
    # The certificate from q_D(S_3) rests on the commutation relation, so
    # verification reads its verdict first, as discovery does; the verdict
    # is kept on the representation, and it refuses on every call.
    s1, s2, s3 = REPS[3].rows
    doubled = combine_terms([(2, *s3)])
    for rows in ((s1, s2, doubled), (s2, s1, s3), (s1, s2, ({}, 1))):
        rep = SpinRep(3, rows)
        for _ in range(2):
            for mode, count, seed in (("exhaustive", None, None), ("sampled", 10, 1)):
                with pytest.raises(ValueError, match="commutation relation"):
                    verify_identity(rep, build_identity(3), mode=mode, count=count, seed=seed)
            with pytest.raises(charid.DiscoveryError, match="commutation relation"):
                discover_identity(rep)
        assert rep.commutes is False


def test_relation_is_checked_once_per_representation(monkeypatch):
    # A ladder is checked on first use, once across two verifications and a
    # discovery.  A conjugation inherits the verdict of what it conjugates:
    # its ladder is checked once, and no conjugation ever.
    calls = []

    def counted(rep):
        calls.append(rep.dim)
        return commutation_holds(rep)

    monkeypatch.setattr(spinrep, "commutation_holds", counted)
    ladder = build_generators(5)
    assert calls == []
    assert verify_identity(ladder, build_identity(5), mode="exhaustive").ok
    assert not verify_identity(ladder, build_identity(3), mode="sampled", count=50, seed=2).ok
    assert discover_identity(ladder) == build_identity(5)
    assert calls == [5]
    conjugated = conjugate_rep(build_generators(4), dense_similarity(4))
    assert calls == [5, 4]
    twice = conjugate_rep(conjugate_rep(ladder, dense_similarity(5)), dense_similarity(5))
    assert twice.commutes and calls == [5, 4]
    assert verify_identity(conjugated, build_identity(4), mode="exhaustive").ok
    assert not verify_identity(conjugated, build_identity(2), mode="exhaustive").ok
    assert discover_identity(conjugated) == build_identity(4)
    assert calls == [5, 4]
    # The verdict is not a field: it leaves equality and repr alone.
    assert conjugated == SpinRep(4, conjugated.rows) and "commutes" not in repr(conjugated)


def test_a_conjugation_takes_no_bracket_product_in_verification_or_discovery(monkeypatch):
    def refuse(rep):
        raise AssertionError("the commutation relation was checked again")

    reps = [_seeded_conjugation(dim, seed) for dim in range(2, 6) for seed in range(2)]
    monkeypatch.setattr(spinrep, "commutation_holds", refuse)
    for rep in reps:
        assert verify_identity(rep, build_identity(rep.dim), mode="exhaustive").ok
        assert not verify_identity(rep, build_identity(rep.dim + 1), mode="sampled", count=20, seed=1).ok
        assert discover_identity(rep) == build_identity(rep.dim)


# --- the kernel kept with a representation -----------------------------------


def _kept_kernel_cases():
    """(rep_dim, conjugated, calls): verification of own (D = R), nesting
    (D = R + 2) and minimality (D = R - 2) for D = 2..7, exhaustive and
    sampled, and discovery, on the ladders R = 1..9 and dense conjugates."""
    for rep_dim in range(1, 10):
        calls = [("verify", dim, mode) for dim in (rep_dim - 2, rep_dim, rep_dim + 2) if 2 <= dim <= 7
                 for mode in ("exhaustive", "sampled")]
        if rep_dim >= 2:
            calls.append(("discover", rep_dim, None))
        yield rep_dim, False, calls
        if rep_dim >= 2:
            yield rep_dim, True, calls


def _kept_kernel_rep(rep_dim, conjugated):
    rep = build_generators(rep_dim)
    return conjugate_rep(rep, dense_similarity(rep_dim)) if conjugated else rep


def _kept_kernel_call(rep, call):
    kind, dim, mode = call
    if kind == "discover":
        return discover_identity(rep)
    count, seed = (3 ** (dim + 1), dim) if mode == "sampled" else (None, None)
    return verify_identity(rep, build_identity(dim), mode=mode, count=count, seed=seed)


def _same_result(a, b):
    if isinstance(a, Identity):
        return a == b
    return a.to_json() == b.to_json() and a.failures == b.failures and list(a.failures) == list(b.failures)


@pytest.mark.parametrize("rep_dim, conjugated, calls", list(_kept_kernel_cases()))
def test_repeated_calls_on_one_representation_match_a_fresh_one(rep_dim, conjugated, calls):
    # Each call's result on a representation that kept its kernel from the
    # calls before it, in either order and twice over, against the same
    # call on a fresh representation: the JSON report, every witness and
    # the discovered b.
    fresh = [_kept_kernel_call(_kept_kernel_rep(rep_dim, conjugated), call) for call in calls]
    for order in (calls, calls[::-1]):
        rep = _kept_kernel_rep(rep_dim, conjugated)
        for _ in range(2):
            for call in order:
                assert _same_result(_kept_kernel_call(rep, call), fresh[calls.index(call)]), (rep_dim, call)
        assert "spherical" in rep.__dict__


def test_a_conjugation_builds_its_own_kernel():
    # conjugate_rep hands on the verdict on su(2), never the kernel: the
    # kernel's generators are the parent's, not the conjugate's.
    rep = build_generators(4)
    parent = rep.spherical
    assert rep.spherical is parent
    conjugated = conjugate_rep(rep, dense_similarity(4))
    assert "commutes" in conjugated.__dict__ and "spherical" not in conjugated.__dict__
    assert conjugated.spherical is conjugated.spherical
    assert conjugated.spherical[1] is not parent[1] and rep.spherical is parent
    twice = conjugate_rep(conjugated, dense_similarity(4))
    assert "spherical" not in twice.__dict__ and twice.spherical[1] is not conjugated.spherical[1]
    for r in (rep, conjugated, twice):
        assert verify_identity(r, build_identity(4)).ok and discover_identity(r) == build_identity(4)


def test_kept_kernel_is_not_a_field():
    # The kernel is kept once, and equality, hashing and repr go by dim and
    # rows alone, with or without it.
    rep, bare = build_generators(5), build_generators(5)
    assert verify_identity(rep, build_identity(5)).ok
    assert rep.spherical is rep.spherical and "spherical" not in bare.__dict__
    assert rep == bare and repr(rep) == repr(bare)
    assert "spherical" not in repr(rep) and "kernel" not in repr(rep)
    assert rep._values == (5, rep.rows)  # what equality and hashing read
    for r in (rep, bare):
        with pytest.raises(TypeError):  # rows hold dicts: unhashable, with the kernel or without
            hash(r)


def test_a_verified_representation_pickles_and_copies():
    # A kernel is a closure over tables of its generators: pickling and
    # copying leave it out, and the copy builds its own on first use.
    for rep in (build_generators(5), conjugate_rep(build_generators(5), dense_similarity(5))):
        expected = verify_identity(rep, build_identity(3))
        assert discover_identity(rep) == build_identity(5)
        for copied in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep), copy.copy(rep)):
            assert copied == rep and copied.commutes
            assert "spherical" not in copied.__dict__
            assert _same_result(verify_identity(copied, build_identity(3)), expected)
            assert copied.spherical[1] is not rep.spherical[1]
        assert "spherical" in rep.__dict__


def test_session_without_representation_refuses_matrices():
    # A session built from unit= and times= holds rows only.  At (0, 0, 3)
    # the Cartesian and spherical deltas agree, and the identity holds.
    unit, times = REPS[3].spherical
    session = SymSession(unit=unit, times=times)
    with pytest.raises(ValueError, match="no representation.*sym_int"):
        session.sym((1, 2))
    with pytest.raises(ValueError, match="no representation.*residual_int"):
        build_identity(3).residual(session, (1, 2, 3))
    assert build_identity(3).residual_int(session, (0, 0, 3)) == ({}, 1)


def _perturbed(dim, p, value):
    b = list(build_identity(dim).b)
    b[p - 1] = value(b[p - 1])
    return Identity(dim, tuple(b))


def test_lazy_failure_listing_matches_the_eager_one():
    # The failures kept by multiset, listed by merging each multiset's
    # orderings, against itertools.product filtered by the same verdicts:
    # the same pairs in the same order, count, slices, JSON bytes and
    # report, on ladders, seeded conjugations, direct sums, and perturbed
    # identities whose multisets partly hold.
    cases = [(build_generators(r), build_identity(d)) for d in range(2, 8) for r in range(1, 10)]
    cases += [(_seeded_conjugation(dim, seed), build_identity(d))
              for dim in range(2, 6) for seed in range(2) for d in (dim - 1, dim + 1, dim + 2) if d >= 2]
    cases += [(direct_sum(*dims), build_identity(d))
              for dims in ((3, 1), (3, 2), (4, 2), (2, 2, 2)) for d in (2, 3, 4, 5)]
    cases += [(build_generators(r), _perturbed(d, p, value)) for d in range(2, 7) for r in (d, d + 2)
              for p in range(1, d // 2 + 1) for value in (lambda b: b + 1, lambda b: 0)]
    mixed = 0
    for rep, ident in cases:
        d = ident.dim
        report = verify_identity(rep, ident, mode="exhaustive")
        failures = report.failures
        eager = reference.eager_failures(d, failures.witnesses)
        assert list(failures) == eager, (rep.dim, ident)
        assert failures.total == len(failures) == report.failure_count == len(eager)
        assert report.ok is (eager == []) is (not failures)
        for key in (slice(5), slice(2, 9, 3), slice(None, None, -4), slice(-3, None), slice(7, 2, -2)):
            assert failures[key] == eager[key], (rep.dim, ident, key)
        for k in (0, 1, -1, len(eager) // 2):
            if eager:
                assert failures[k] == eager[k]
        stored = VerificationReport(d, rep.dim, "exhaustive", 3**d, eager, report.elapsed)
        assert json.dumps(report.to_json()) == json.dumps(stored.to_json())
        assert report == stored and stored == report and failures == eager
        mixed += 0 < len(eager) < 3**d
    assert mixed > 20


def _reference_witnesses(rep, ident):
    """Every failing multiset's witness as verification read it before the
    walk: the first nonzero entry of the whole Cartesian residual, rebuilt
    from the spherical residuals by ``reference.cartesian_residual``."""
    d = ident.dim
    q, _ = charid._q_of_s3(rep, ident)
    if not q[0]:
        return {}
    spherical, _ = charid._adjoint_residuals(rep, d, combine_terms([(factorial(d), *q)]))
    out = {}
    for c in all_counts(d):
        n = c[0] + c[1]
        if any(spherical[a, n - a, c[2]][0] for a in range(n + 1)):
            witness = first_nonzero_entry(reference.cartesian_residual(c, spherical))
            if witness is not None:
                out[c] = witness
    return out


def test_witness_walk_matches_the_whole_cartesian_residual():
    # Witnesses and JSON bytes of exhaustive reports against the first
    # nonzero entry of each whole Cartesian residual, on ladders, seeded
    # conjugations, direct sums, and b-perturbed identities whose multisets
    # partly hold.
    cases = [(build_generators(r), build_identity(d)) for d in range(2, 10) for r in range(1, 12)]
    cases += [(_seeded_conjugation(dim, seed), build_identity(d))
              for dim in range(2, 6) for seed in range(2) for d in (dim - 1, dim + 1, dim + 2) if d >= 2]
    cases += [(direct_sum(*dims), build_identity(d)) for dims in DIRECT_SUMS for d in (2, 3, 4, 5)]
    cases += [(build_generators(r), _perturbed(d, p, value)) for d in range(2, 7) for r in (d, d + 2)
              for p in range(1, d // 2 + 1) for value in (lambda b: b + 1, lambda b: 0)]
    failing = 0
    for rep, ident in cases:
        d = ident.dim
        report = verify_identity(rep, ident, mode="exhaustive")
        expected = _reference_witnesses(rep, ident)
        assert report.failures.witnesses == expected, (rep.dim, ident)
        stored = VerificationReport(d, rep.dim, "exhaustive", 3**d, ExhaustiveFailures(d, expected))
        assert json.dumps(report.to_json()) == json.dumps(stored.to_json()), (rep.dim, ident)
        failing += bool(expected)
    assert failing > 100


def test_witness_walk_skips_positions_that_cancel():
    # At counts (1, 1, 0) the residual is i (R(0, 2, 0) - R(2, 0, 0)) / 4:
    # hand-built spherical rows that agree at their first positions cancel
    # there, and the walk reads on to the first position that does not,
    # one the other part lacks included.  Rows that agree everywhere give None.
    # The rows are in row-major order, as ``verify_identity`` sorts them.
    assert charid._spherical_weights(1, 1) == [1, 0, -1]
    assert reference.spherical_weights(1, 1) == ((0, 2, Fraction(1, 4)), (2, 0, Fraction(-1, 4)))
    one, i = KEY_ONE, KEY_I
    left = ({(0, 0, one): 2, (0, 1, i): -1, (1, 0, one): 3, (2, 2, one): 1}, 1)
    cases = [
        ({(0, 0, one): 4, (0, 1, i): -2, (1, 0, one): 5, (1, 1, i): 7}, 2),  # (1, 0): (5/2 - 3) i / 4
        ({(0, 0, one): 2, (0, 1, i): -1, (1, 1, i): 7}, 1),  # (1, 0) in the left part alone
        ({(0, 0, one): 2, (0, 1, i): -1, (1, 0, one): 3, (2, 2, one): 1}, 1),  # all cancel
        ({}, 1),  # the first position of the left part alone
    ]
    for right in cases:
        spherical = {(2, 0, 0): left, (0, 2, 0): right, (1, 1, 0): ({(0, 0, one): 9}, 1)}
        walked = charid._first_witness((1, 1, 0), spherical)
        assert walked == first_nonzero_entry(reference.cartesian_residual((1, 1, 0), spherical)), right
    walked = [charid._first_witness((1, 1, 0), {(2, 0, 0): left, (0, 2, 0): right, (1, 1, 0): ({}, 1)})
              for right in cases]
    assert walked[0][:2] == walked[1][:2] == (1, 0) and walked[2] is None and walked[3][:2] == (0, 0)
    assert walked[0][2] == Scalar(0, Fraction(-1, 8)) and walked[1][2] == Scalar(0, Fraction(-3, 4))


def _weight_mismatches(orders):
    """The counts (c1, c2), c1 + c2 in orders, whose integer weights differ
    from the Fraction sum of binomials, by the Krawtchouk duality:
    (-1)^(c2 // 2) f_a / 2^n is the weight of R(a, n - a, c3), and f_a is
    zero exactly where the sum is."""
    out = []
    for n in orders:
        for c2 in range(n + 1):
            f = charid._spherical_weights(n - c2, c2)
            scaled = [(a, n - a, Fraction((-1) ** (c2 // 2) * x, 2**n)) for a, x in enumerate(f) if x]
            if len(f) != n + 1 or any(type(x) is not int for x in f) or \
                    tuple(scaled) != reference.spherical_weights(n - c2, c2):
                out.append((n - c2, c2))
    return out


def test_spherical_weights_match_the_binomial_sums():
    assert _weight_mismatches(range(41)) == []
    assert not hasattr(charid._spherical_weights, "cache_info")


def test_failing_verify_keeps_no_state_once_its_report_is_dropped():
    # Everything a failing verification builds, the residual triangle and
    # the weights of each multiset included, goes with its report.  What
    # stays is what the representation keeps: its verdict on su(2) and its
    # kernel, whose S_+ and S_- tables the commutators fill (about 0.3 MiB
    # here); a second failing run adds nothing.  Collecting before each
    # reading empties the interpreter's free lists, which are not state.
    import gc
    import tracemalloc

    rep, ident = build_generators(32), build_identity(30)
    assert verify_identity(rep, build_identity(32), mode="exhaustive").ok
    assert not verify_identity(build_generators(4), build_identity(2), mode="exhaustive").ok  # the heapq import
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for _ in range(2):
            report = verify_identity(rep, ident, mode="exhaustive")
            assert not report.ok
            del report
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert held[0] < 512 * 1024, held
    assert held[1] - held[0] < 4 * 1024, held


def test_verification_leaves_nothing_once_report_and_representation_go():
    # The kernel's tables live with the representation and die with it, and
    # no process-wide memo keeps the products of basis keys: a failing
    # verification at R = 2000 (D = 3, every residual filled), its
    # representation built inside the window, leaves the traced memory
    # within 1 MiB of where it was.
    import gc
    import tracemalloc

    ident = build_identity(3)
    assert not verify_identity(build_generators(5), ident, mode="exhaustive").ok  # imports and small memos
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        rep = build_generators(2000)
        report = verify_identity(rep, ident, mode="exhaustive")
        assert not report.ok and rep.commutes
        del report, rep
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1024 * 1024, held


def test_failing_verify_memory_is_about_the_residual_triangle():
    # The witness walk merges the spherical residuals' sorted cells and
    # keeps no index of its own, and the weights of each multiset are n + 1
    # integers: a failing verification's peak stays near the peak of
    # computing q_D(S_3) and the residual triangle alone.
    import tracemalloc

    rep, ident = build_generators(32), build_identity(30)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def residuals():
        q, _ = charid._q_of_s3(rep, ident)
        charid._adjoint_residuals(rep, 30, combine_terms([(factorial(30), *q)]))

    residuals()  # the representation's tables and verdict on su(2), kept for its life
    assert rep.commutes
    triangle = peak(residuals)
    verified = peak(lambda: verify_identity(rep, ident, mode="exhaustive"))
    assert verified <= 1.5 * triangle, (verified, triangle)


def test_lazy_failure_listing_reads_only_what_it_returns():
    # One failing multiset, (0, 0, 40): its single tuple comes first, where
    # a filter over itertools.product would scan 3^40 - 1 tuples before it.
    witness = (0, 0, Scalar.of(1))
    only = ExhaustiveFailures(40, {(0, 0, 40): witness})
    assert only[:1] == [((3,) * 40, witness)] == list(only)
    assert only.total == len(only) == 1 and only[-1] == only[0]
    two = ExhaustiveFailures(40, {(0, 0, 40): witness, (0, 1, 39): witness})
    assert [t for t, _ in two[:3]] == [(2,) + (3,) * 39] + [(3,) * k + (2,) + (3,) * (39 - k) for k in (1, 2)]
    assert two.total == 41 and two[-1] == ((3,) * 40, witness)
    assert two != only and two == ExhaustiveFailures(40, dict(two.witnesses)) and two != list(two)[:-1]
    with pytest.raises(IndexError):
        two[41]


def test_failing_report_at_dimension_forty():
    # Every one of the 3^40 tuples fails on the representation of dimension
    # 42, a count past sys.maxsize: len() cannot return it, failure_count
    # can, and the first five come in tuple order.
    report = verify_identity(build_generators(42), build_identity(40), mode="exhaustive")
    assert report.ok is False
    assert report.failure_count == report.failures.total == report.tuples_checked == 3**40
    with pytest.raises(OverflowError):
        len(report.failures)
    first = list(itertools.islice(itertools.product((1, 2, 3), repeat=40), 5))
    witnesses = report.failures.witnesses
    assert len(witnesses) == 41 * 42 // 2
    assert report.failures[:5] == [(t, witnesses[axis_counts(t)]) for t in first]
    assert all(0 <= r < 42 and 0 <= c < 42 and not v.is_zero() for r, c, v in witnesses.values())


def test_report_json_shape():
    report = verify_identity(REPS[3], build_identity(2))
    assert report.elapsed > 0
    doc = report.to_json()
    assert set(doc) == {
        "dim",
        "rep_dim",
        "mode",
        "tuples_checked",
        "failures",
        "ok",
    }
    assert doc["ok"] is False
    first = doc["failures"][0]
    assert set(first) == {"tuple", "entry", "value"}


def test_report_json_renders_each_witness_once():
    # Every tuple of a multiset shares one witness object; the rendering
    # must still read as one str() per failing tuple.
    for rep_dim, dim in ((4, 2), (5, 3), (6, 4)):
        report = verify_identity(REPS[rep_dim], build_identity(dim), mode="exhaustive")
        assert len({id(w) for _, w in report.failures}) < len(report.failures)
        expected = [
            {"tuple": list(t), "entry": [r, c], "value": str(v)} for t, (r, c, v) in report.failures
        ]
        assert report.to_json()["failures"] == expected


# --- discovery ----------------------------------------------------------------


@pytest.mark.parametrize("dim", range(2, 61))
def test_discovery_recovers_coefficients(dim):
    # The paper's arbitrary D: one multiset keeps discovery cheap here.
    found = discover_identity(build_generators(dim))
    assert found == build_identity(dim)
    assert list(found.b) == reference.b_coeffs(dim)


def _seeded_conjugation(dim, seed):
    # A seeded signed permutation times a dense rational similarity: the
    # equations are dense there, not one diagonal.
    rng = random.Random(100 * dim + seed)
    perm = list(range(dim))
    rng.shuffle(perm)
    signed = Matrix.from_rational_rows(
        [[rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(dim)] for r in range(dim)]
    )
    return conjugate_rep(REPS[dim], signed * dense_similarity(dim))


@pytest.mark.parametrize("dim", range(2, 6))
def test_discovery_on_seeded_conjugations(dim):
    for seed in range(3):
        assert discover_identity(_seeded_conjugation(dim, seed)) == build_identity(dim), (dim, seed)


def direct_sum(*dims):
    """The block-diagonal sum of the ladder representations of dims, built
    with ``SpinRep(dim, rows)``."""
    blocks = [(build_generators(d).rows, sum(dims[:j])) for j, d in enumerate(dims)]
    rows = tuple(combine_terms((1, {(r + o, c + o, key): n for (r, c, key), n in gens[a][0].items()}, gens[a][1])
                               for gens, o in blocks)
                 for a in range(3))
    return SpinRep(sum(dims), rows)


# Direct sums of ladder representations.  The b_p are determined iff S_3
# has floor(D/2) distinct eigenvalue squares, zero counted only when D is
# even; the first ten leave them free.
DIRECT_SUMS = [(2, 2), (3, 3), (4, 2), (4, 4), (5, 3), (3, 1, 1), (2, 2, 2), (5, 3, 1), (6, 4), (6, 2),
               (3, 1), (1, 3), (5, 1), (7, 1), (2, 1), (3, 2), (4, 1, 1)]


def _discovered(rep, discover):
    """discover(rep), or the message of the DiscoveryError it raises."""
    try:
        return discover(rep)
    except charid.DiscoveryError as exc:
        return str(exc)


def test_discovery_from_one_multiset_matches_the_all_multisets_oracle():
    # The counts (0, 0, D) alone against the equations of every multiset:
    # the same identity, or DiscoveryError from both, on ladder
    # representations, seeded conjugations and direct sums.
    reps = [REPS[dim] for dim in range(2, 8)]
    reps += [_seeded_conjugation(dim, seed) for dim in range(2, 6) for seed in range(3)]
    reps += [direct_sum(*dims) for dims in DIRECT_SUMS]
    for rep in reps:
        assert commutation_holds(rep)
        assert _discovered(rep, discover_identity) == _discovered(rep, reference.discover_identity), rep.dim
    found = {dims: _discovered(direct_sum(*dims), discover_identity) for dims in DIRECT_SUMS}
    assert [dims for dims, ident in found.items() if isinstance(ident, str)] == DIRECT_SUMS[:10]
    assert found[(3, 2)] == Identity(5, (Fraction(-5, 2), Fraction(2)))
    assert found[(3, 1)] == found[(1, 3)] == Identity(4, (Fraction(-2), Fraction(0)))  # S_3 = 1, 0, 0, -1


def test_discovery_refuses_a_triple_off_the_commutation_relation():
    # The reduction to one multiset rests on the commutation relation, so
    # discovery checks it first, whatever the equations would give.
    s1, s2, s3 = REPS[3].rows
    doubled = combine_terms([(2, *s3)])
    for rows in ((s1, s2, doubled), (s2, s1, s3), (s1, s2, ({}, 1))):
        rep = SpinRep(3, rows)
        assert not commutation_holds(rep)
        with pytest.raises(charid.DiscoveryError, match="commutation relation"):
            discover_identity(rep)


@pytest.mark.parametrize("dim", range(8, 17))
def test_discovery_on_dense_integer_conjugations(dim):
    # Dense equations at every coordinate, against build_identity, and
    # against the all-multisets oracle up to D = 11: its time grows about
    # fourfold per dimension, to 11 s at D = 13 and 44 s at D = 14 (2 cores,
    # Python 3.11.7).
    rep = conjugate_rep(build_generators(dim), integer_similarity(dim))
    found = discover_identity(rep)
    assert found == build_identity(dim) == reference.discover_by_elimination(rep)
    if dim <= 11:
        assert reference.discover_identity(rep) == found


def _diagonal(*entries):
    return {(k, k, KEY_ONE): n for k, n in enumerate(entries) if n}, 1


def test_every_discovery_refusal():
    # The relation's refusal is above; here no solution and many: from the
    # direct sums, whose S_3^2 has too few distinct eigenvalues, and from the
    # elimination oracle on diagonal ladders.  With the ladder of powers
    # (P_0, ..., P_k), the cell (c, c) reads sum_p a_p P_(k-p) = -P_k.
    for dims in DIRECT_SUMS[:10]:
        with pytest.raises(charid.DiscoveryError, match="^identity coefficients are not uniquely determined$"):
            discover_identity(direct_sum(*dims))
    with pytest.raises(charid.DiscoveryError, match="^identity coefficients are not uniquely determined$"):
        reference._solve_ladder([_diagonal(1, 1), _diagonal(1, 1), _diagonal(-2, -2)])
    assert reference._solve_ladder([_diagonal(1, 1), _diagonal(-4, -4)]) == [4]
    assert reference._solve_ladder([_diagonal(1, 1), _diagonal(1, 2), _diagonal(-1, -4)]) == [3, -2]
    no = "^no coefficients satisfy the identity pattern$"
    # A contradiction before any pivot: cell (0, 0) reads 0 = 1.
    with pytest.raises(charid.DiscoveryError, match=no):
        reference._solve_ladder([_diagonal(0, 1), _diagonal(-1, -1)])
    # Before the second of k = 2 pivots: cells (0, 0) and (1, 1) read
    # a_1 + a_2 = 2 and = 3.
    with pytest.raises(charid.DiscoveryError, match=no):
        reference._solve_ladder([_diagonal(1, 1, 1), _diagonal(1, 1, 2), _diagonal(-2, -3, -5)])
    # After the k-th pivot: cell (0, 0) gives a_1 = 1, and only the
    # certificate reads cell (1, 1), a_1 = 4.
    with pytest.raises(charid.DiscoveryError, match=no):
        reference._solve_ladder([_diagonal(1, 1), _diagonal(-1, -4)])


def _elimination_cases():
    yield from (pytest.param(("sum", dims), id="sum-" + "-".join(map(str, dims))) for dims in DIRECT_SUMS)
    yield from (pytest.param(("seeded", dim, seed), id=f"seeded-{dim}-{seed}")
                for dim in range(2, 6) for seed in range(3))


def _elimination_rep(case):
    if case[0] == "own":
        return build_generators(case[1])
    return direct_sum(*case[1]) if case[0] == "sum" else _seeded_conjugation(*case[1:])


@pytest.mark.parametrize("case", list(_elimination_cases()))
def test_discovery_matches_the_elimination_oracle(case):
    # Traces, Newton's identities and the squarefree test against the
    # fraction-free elimination on the same ladder: the same identity, or
    # the same refusal, on every direct sum and seeded conjugation.  On the
    # ladder representations, test_discovery_recovers_coefficients checks
    # D = 2..60 against build_identity.
    rep = _elimination_rep(case)
    assert _discovered(rep, discover_identity) == _discovered(rep, reference.discover_by_elimination)


def _discovery_mismatches():
    """The comparison of test_discovery_matches_the_elimination_oracle on
    its cases and the ladder representations D = 2..12: {case: (discovered,
    the oracle's)} where the two differ, a refusal read as its message."""
    cases = [param.values[0] for param in _elimination_cases()] + [("own", dim) for dim in range(2, 13)]
    found = {case: (_discovered(rep, charid.discover_identity), _discovered(rep, reference.discover_by_elimination))
             for case in cases for rep in [_elimination_rep(case)]}
    return {case: pair for case, pair in found.items() if pair[0] != pair[1]}


def _stops_refusing(mismatches):
    return any(isinstance(want, str) and not isinstance(got, str) for got, want in mismatches.values())


# Plausible bugs in discovery and verification, each with the comparison
# that must catch it and what its mismatches must show: ((owner, function
# name, a snippet of its source that occurs once, the snippet's
# replacement), comparison, check).
_CHARID_MUTANTS = {
    "squarefree-test-skipped": ((charid, "discover_identity", " or not _is_squarefree(c)", ""),
                                _discovery_mismatches, _stops_refusing),
    "odd-zero-root-admitted": ((charid, "discover_identity", "(odd and not c[k]) or ", ""),
                               _discovery_mismatches, lambda found: ("sum", (3, 1, 1)) in found),
    "newton-sign-flipped": ((charid, "discover_identity", "c.append(-sum(", "c.append(sum("), _discovery_mismatches,
                            lambda found: ("no coefficients satisfy the identity pattern", build_identity(2))
                            in found.values()),
    "adjoint-sign-flipped": ((charid, "_adjoint_residuals", "(2 * b, rows.get(", "(-2 * b, rows.get("),
                             lambda: _adjoint_mismatches(((d, REPS[r]) for d in range(2, 6) for r in range(1, 8)),
                                                         random.Random(21)), bool),
    "weights-one-term-short": ((charid, "_spherical_weights", "for a in range(1, n):", "for a in range(1, n - 1):"),
                               lambda: _weight_mismatches(range(13)), bool),
}


def test_charid_comparisons_pass_unmutated():
    for comparison in {comparison for _, comparison, _ in _CHARID_MUTANTS.values()}:
        assert not comparison()


@pytest.mark.parametrize("mutant", list(_CHARID_MUTANTS))
def test_charid_comparison_catches_a_mutant(monkeypatch, mutant):
    patch, comparison, caught = _CHARID_MUTANTS[mutant]
    mutate(monkeypatch, *patch)
    assert caught(comparison())


def test_discovery_needs_dimension_two():
    with pytest.raises(ValueError):
        discover_identity(REPS[1])


# --- conjugation invariance ----------------------------------------------------


def _unipotent(dim):
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        rows[i][i + 1] = 1
    return Matrix.from_rational_rows(rows)


@pytest.mark.parametrize("dim", (2, 3))
def test_identity_survives_basis_change(dim):
    transformed = conjugate_rep(REPS[dim], _unipotent(dim))
    assert verify_identity(transformed, build_identity(dim)).ok

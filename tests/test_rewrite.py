import inspect
import itertools
import json
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from mutation import mutate
from reference import lib, ref
from test_oracles import reference_evaluate
from test_symalg import letters as sorted_letters
from spinid import rewrite
from spinid.charid import build_identity, discover_identity, verify_identity
from spinid.rewrite import (
    NCPolynomial,
    NormalForm,
    ParseError,
    evaluate,
    parse,
    pbw_normalize,
    reduce_degree,
    render,
    sym_words,
    to_json_dict,
)
from spinid.scalar import KEY_I, KEY_ONE, SCALAR_ONE, Scalar, combine_terms, reduce_terms, times_key
from spinid.spinrep import Matrix, build_generators, matrix_algebra
from spinid.symalg import SymSession, all_counts, axis_counts, delta_weights, epsilon

REPS = {dim: build_generators(dim) for dim in range(1, 7)}

S1 = NCPolynomial.generator(1)
S2 = NCPolynomial.generator(2)
S3 = NCPolynomial.generator(3)
I = Scalar.i()


# --- parsing -----------------------------------------------------------------


def test_parse_commutator_difference():
    p = parse("S1*S2 - S2*S1")
    assert p.terms() == {(1, 2): Scalar.of(1), (2, 1): Scalar.of(-1)}


def test_parse_symmetric_braces():
    assert parse("{S1 S2}") == S1 * S2 + S2 * S1
    assert parse("{S1 S1}") == (S1 * S1).scale(2)
    assert len(parse("{S1 S2 S3}").terms()) == 6
    assert parse("{ S1 * S2 }") == parse("{S1 S2}")


def test_parse_trailing_star_is_an_error():
    with pytest.raises(ParseError) as err:
        parse("S1*S2*")
    assert err.value.position == len("S1*S2*")
    assert "position" in str(err.value)


def test_parse_unknown_atom():
    with pytest.raises(ParseError, match="unknown atom"):
        parse("S4")
    with pytest.raises(ParseError, match="unknown atom"):
        parse("S1 + bogus")


def test_parse_sqrt_validation():
    assert parse("sqrt(12)") == NCPolynomial.scalar(Scalar.sqrt_int(12))
    with pytest.raises(ParseError, match="non-positive"):
        parse("sqrt(0)")
    with pytest.raises(ParseError, match="non-positive"):
        parse("sqrt(-3)")
    assert parse("sqrt(1000000000000)") == NCPolynomial.scalar(10**6)
    with pytest.raises(ParseError, match="exceeds") as err:
        parse("2*sqrt(1000000000001)")
    assert err.value.position == len("2*sqrt(")


def test_parse_refuses_a_huge_combined_radicand():
    # Each root is admitted, but their product renders as
    # sqrt(999999943999999559), which would not parse back.
    with pytest.raises(ParseError, match="combined sqrt radicand exceeds"):
        parse("sqrt(999999937)*sqrt(1000000007)*S1")
    assert parse("sqrt(999999937)*sqrt(1000000007)*sqrt(999999937)") == parse("999999937*sqrt(1000000007)")
    p = parse("sqrt(2)*sqrt(3)*S1")
    assert render(p) == "sqrt(6)*S1"
    assert parse(render(p)) == p


def test_parse_refuses_expansions_past_the_word_bound():
    # A brace of more than 10^5 distinct orderings, or a product whose
    # factors' term counts multiply past 10^5, is refused before expanding;
    # the bound itself is admitted.
    assert len(parse("{" + "S1 S2 S3 " * 4 + "}").terms()) == 34650
    with pytest.raises(ParseError, match="756756 orderings refused") as err:
        parse("S1 + {" + "S1 S2 S3 " * 5 + "}")
    assert err.value.position == len("S1 + ")
    assert len(parse("{" + "S1 " * 10**5 + "}").terms()) == 1
    sums = "(S1 + S2 + S3)"
    assert len(parse(sums * 10).terms()) == 3**10
    with pytest.raises(ParseError, match="177147 terms refused") as err:
        parse(sums * 11)
    assert err.value.position == len(sums * 10)
    with pytest.raises(ParseError, match="refused"):
        parse(f"2 * {sums * 10} * {sums}")
    nine = "{S1 S1 S1 S2 S2 S2 S3 S3 S3}"  # 1680 orderings
    assert parse(f"{nine} * {{S1 S2}}") == parse(nine) * parse("{S1 S2}")
    with pytest.raises(ParseError, match="2822400 terms refused") as err:
        parse(f"S1 + [{nine}, {nine}]")
    assert err.value.position == len("S1 + ")


def test_parse_juxtaposition_and_grouping():
    assert parse("S1 S2") == parse("S1*S2")
    assert parse("(S1 + S2) * S3") == S1 * S3 + S2 * S3
    assert parse("[S1, S2]") == S1 * S2 - S2 * S1
    assert parse("[S1 + S2, S3]") == parse("[S1,S3] + [S2,S3]")


def _letter_product(word):
    p = NCPolynomial.one()
    for a in word:
        p = p * NCPolynomial.generator(a)
    return p


def test_parse_generator_runs_are_letter_products():
    # A run of generators joined by "*", by spaces or by both is one word:
    # the same row as the letter-by-letter product, next to coefficients,
    # roots, braces, commutators and parentheses.
    rng = random.Random(2900)
    for _ in range(200):
        word = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 12)))
        text = "".join(f"S{a}" + rng.choice(("*", " ", " * ", "  ")) for a in word)[:-1].strip(" *")
        assert parse(text)._row == _letter_product(word)._row == NCPolynomial({word: 1})._row, text
    S = _letter_product
    cases = {
        "2 S1 S2*S3": S((1, 2, 3)).scale(2),
        "S1 S2 3/4": S((1, 2)).scale(Fraction(3, 4)),
        "-2/3*S3 S1 i S2": S((3, 1, 2)).scale(Fraction(-2, 3) * I),
        "sqrt(8) S1*S3 S2": S((1, 3, 2)).scale(Scalar.sqrt_int(8)),
        "S1 S2 sqrt(3) S3 S3": S((1, 2, 3, 3)).scale(Scalar.sqrt_int(3)),
        "S2 S1 {S1 S3} S3*S2": S((2, 1)) * (S((1, 3)) + S((3, 1))) * S((3, 2)),
        "[S1 S2, S3*S1 S2] S2": (S((1, 2, 3, 1, 2)) - S((3, 1, 2, 1, 2))) * S2,
        "(S1 S2 + S3) S1 S1": S((1, 2, 1, 1)) + S((3, 1, 1)),
        "S1 (S2 S3) S1*(S1)": S((1, 2, 3, 1, 1)),
        "S3 S3 - S1*S2 S3 + I S2": S((3, 3)) - S((1, 2, 3)) + S2,
    }
    for text, want in cases.items():
        assert parse(text)._row == want._row, text


def test_generator_runs_keep_parse_errors_in_place():
    # Messages and positions are the letter-by-letter parser's: a "*" after
    # a run is the product's, and what follows a run is parsed as before.
    cases = {
        "S1*": ("expected a factor, found end of input", 3),
        "S1 S2 /3": ("unexpected '/'", 6),
        "S1**S2": ("expected a factor, found '*'", 3),
        "2*S1*": ("expected a factor, found end of input", 5),
        "S1 sqrt(0)": ("sqrt of non-positive integer", 8),
        "[S1 S2, ]": ("expected a factor, found ']'", 8),
        "S1 * S2 S3 * (": ("expected a factor, found end of input", 14),
        "S1 S2 x": ("unknown atom 'x'", 6),
        "S1/S2": ("unexpected '/'", 2),
        "S1 S2/S3": ("unexpected '/'", 5),
    }
    for text, (message, position) in cases.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position
    # A product refused past the word bound that ends in a letter run is
    # refused at the run's first letter, or at the "*" before it.
    big = "(S1 + S2 + S3)" * 10  # 59049 words
    for text, n, tail in ((f"({big} + 2*{big}*S1*S3 + S2) S1 S2*S3", 118099, "S1 S2*S3"),
                          (f"({big} + S2*{big}) * S1*S2 S3", 118098, "* S1*S2 S3")):
        position = len(text) - len(tail)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"product of up to {n} terms refused: over 100000 words (at position {position})"
        assert err.value.position == position


def test_product_by_one_word_is_the_general_product():
    # Multiplying by a single word with coefficient 1 concatenates words;
    # the general product (through a factor 2, then 1/2) gives the same row.
    rng = random.Random(2901)
    for _ in range(100):
        p = NCPolynomial._make(_ordered_row(rng, 5)) * _mixed_radical_polynomial(rng)
        for word in ((), (2,), (3, 1, 1)):
            q = NCPolynomial({word: 1})
            assert (p * q)._row == ((p * q.scale(2)) * Fraction(1, 2))._row


def test_parse_numbers_and_units():
    assert parse("3/4 * S1") == S1.scale(Fraction(3, 4))
    assert parse("i*i") == NCPolynomial.scalar(-1)
    assert parse("I") == NCPolynomial.one()
    assert parse("2") == NCPolynomial.scalar(2)
    assert parse("-S1") == -S1
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0")


def test_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("S1 )")
    with pytest.raises(ParseError):
        parse("{S1 I}")
    with pytest.raises(ParseError):
        parse("{ }")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("S1 ; S2")


def _draw_factor(rng, depth):
    kind = rng.randrange(10 if depth < 2 else 7)
    if kind == 0:
        return str(rng.choice((0, 1, 2, 3, 6, 12)))
    if kind == 1:
        return f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"
    if kind == 2:
        return f"sqrt({rng.choice((1, 2, 3, 4, 6, 8, 12, 18))})"
    if kind == 3:
        return rng.choice(("i", "I"))
    if kind in (4, 5):
        return rng.choice(("*", " ", " * ")).join(rng.choice(("S1", "S2", "S3")) for _ in range(rng.randint(1, 4)))
    if kind == 6:
        letters = [rng.choice(("S1", "S2", "S3")) for _ in range(rng.randint(1, 5))]
        return "{" + " ".join(letters + ["*"] * rng.randint(0, 1)) + "}"
    if kind == 7:
        return f"[{_draw_expression(rng, depth + 1)}, {_draw_expression(rng, depth + 1)}]"
    return ("0*" if kind == 8 and rng.random() < 0.3 else "") + f"({_draw_expression(rng, depth + 1)})"


def _draw_expression(rng, depth=0):
    """A seeded expression over every production: leading and inner signs,
    products by "*" and by juxtaposition, integers, p/q, sqrt, i, I,
    generator runs, braces, commutators, nested parentheses and 0*(...)."""
    text = rng.choice(("", "", "-", "+ "))
    for j in range(rng.randint(1, 3)):
        if j:
            text += rng.choice((" + ", " - ", "+", "-"))
        text += rng.choice(("*", " ", " * ")).join(_draw_factor(rng, depth) for _ in range(rng.randint(1, 4)))
    return text


def _parse_outcome(parser, text):
    """The row parsed, or the ParseError's message and position."""
    try:
        return parser(text)._row
    except ParseError as err:
        return str(err), err.position


_INSERTED = ("+", "-", "*", "/", "(", ")", "{", "}", "[", "]", ",", "S1", "S3", "0", "2", "3/4", "i", "I", "sqrt",
             "sqrt(2)", "x", "1/0")


@pytest.mark.parametrize("max_words, sqrt_max", [(300, 10**12), (20, 10**12), (4, 5)])
def test_parser_matches_the_reference_parser(monkeypatch, max_words, sqrt_max):
    # The parser on rows against the parser of one NCPolynomial per factor
    # (``R.Parser``): seeded expressions over every production, and each
    # with one token deleted or one inserted, give the same row or the same
    # ParseError message and position.  Lowered bounds make products,
    # braces and roots refused often, each at the reference's position; the
    # largest bound keeps every expansion small enough to draw many.
    monkeypatch.setattr(rewrite, "_MAX_WORDS", max_words)
    monkeypatch.setattr(rewrite, "_SQRT_MAX", sqrt_max)
    rng = random.Random(3000 + max_words)
    outcomes = Counter()
    for _ in range(150):
        text = _draw_expression(rng)
        texts = [text]
        tokens = rewrite._tokenize(text)
        for _, name, position in rng.sample(tokens[:-1], min(8, len(tokens) - 1)):
            texts.append(text[:position] + text[position + len(name):])
        for _, _, position in rng.sample(tokens, min(8, len(tokens))):
            texts.append(f"{text[:position]} {rng.choice(_INSERTED)} {text[position:]}")
        for t in texts:
            want = _parse_outcome(R.parse, t)
            assert _parse_outcome(parse, t) == want, t
            outcomes[want[0].split(" (at")[0].split(" of ")[0] if isinstance(want[0], str) else "row"] += 1
    # A first factor past the bound, then factors of one term or none; and
    # nesting too deep for the interpreter's stack.
    words = [w for n in (1, 2, 3) for w in itertools.product(("S1", "S2", "S3"), repeat=n)]
    big = "(" + " + ".join(" ".join(w) for w in words[:25]) + ")"
    for t in (f"{big} 0 S1", f"{big}*0/5*S1", f"{big} S1 0", f"0*{big}{big}", f"{big} sqrt(2) 0", f"I {big}",
              f"{big} I", f"2 {big} S1*S2 {big}", "(" * 3000 + "S1" + ")" * 3000):
        assert _parse_outcome(parse, t) == _parse_outcome(R.parse, t), t
    assert outcomes["row"] > 150 and outcomes["product"] > 20
    if max_words < 300:
        assert outcomes["symmetric braces"] > 5
    if sqrt_max < 10**12:
        assert outcomes["sqrt argument exceeds 5"] and outcomes["combined sqrt radicand exceeds 5"]


def test_parse_refuses_non_decimal_digits_in_place():
    # A character that isdigit() admits but int() rejects is no digit: it
    # is refused where it stands.  Other decimal digits read as int() does.
    for text, position in (("S1*²", 3), ("S1*①", 3), ("12² S1", 2), ("sqrt(2²)", 6), ("3/⁴", 2)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})", text
    assert parse("٣*S1") == parse("3*S1")
    assert parse("1/١٢ S2") == parse("1/12*S2")


def test_parse_refuses_a_literal_past_the_digit_limit():
    # A literal the interpreter will not convert is refused at the literal,
    # as a numerator, a denominator or a radicand; the limit itself parses.
    limit = sys.get_int_max_str_digits()
    assert limit, "the interpreter's default limit is on"
    assert parse("1" * limit + "*S1") == NCPolynomial({(1,): int("1" * limit)})
    digits = "1" * (limit + 1)
    for prefix, suffix in (("", "*S1"), ("S2 + 2/", ""), ("S3 sqrt(", ")")):
        with pytest.raises(ParseError) as err:
            parse(prefix + digits + suffix)
        assert str(err.value) == (f"integer of {limit + 1} digits exceeds this interpreter's limit of {limit} digits"
                                  f" (at position {len(prefix)})")


# --- pbw ordering ---------------------------------------------------------------


def test_pbw_basic_swap():
    assert pbw_normalize(parse("S2*S1")) == parse("S1*S2 - i*S3")


def test_pbw_leaves_ordered_words():
    p = parse("S1*S1 + S1*S2*S3")
    assert pbw_normalize(p) == p


def test_pbw_output_is_ordered():
    p = pbw_normalize(parse("S3*S2*S1 + S2*S1*S1"))
    for w in p.terms():
        assert all(w[k] <= w[k + 1] for k in range(len(w) - 1))


def _random_poly(rng, max_degree, letters=(1, 2, 3)):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_degree)))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[w] = terms.get(w, Fraction(0)) + c
    return NCPolynomial({w: Scalar.of(c) for w, c in terms.items()})


def test_pbw_long_word_keeps_a_flat_stack():
    # S2 S1^300 takes 300 rewriting steps in a row; the stack must not
    # grow with them, so a limit just above the caller's depth is enough.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        p = pbw_normalize(NCPolynomial({(2,) + (1,) * 300: 1}))
    finally:
        sys.setrecursionlimit(limit)
    assert p.coefficient((1,) * 300 + (2,)) == SCALAR_ONE
    assert evaluate(p, REPS[2]) == evaluate(NCPolynomial({(2,) + (1,) * 300: 1}), REPS[2])


def test_pbw_matches_the_reference_on_every_short_word():
    # all 1093 words of length <= 6, against the Scalar reordering of the
    # leftmost out-of-order pair (``_reference_ordered_form`` below)
    memo = {}
    for n in range(7):
        for w in itertools.product((1, 2, 3), repeat=n):
            want = NCPolynomial({u: lib(c) for u, c in _reference_ordered_form(w, memo).items()})
            assert pbw_normalize(NCPolynomial({w: 1})) == want, w


def test_pbw_long_descent_is_small_and_flat():
    # S1 moves past 150 letters S3; the memo holds (ordered word, letter)
    # results only, and the stack does not grow with the word.
    word = (3,) * 150 + (1,)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    tracemalloc.start()
    try:
        p = pbw_normalize(NCPolynomial({word: 1}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    assert peak < 16 << 20
    assert p.coefficient((1,) + (3,) * 150) == SCALAR_ONE
    for dim in range(2, 5):
        assert evaluate(p, REPS[dim]) == evaluate(NCPolynomial({word: 1}), REPS[dim])


def test_pbw_is_dimension_independent():
    rng = random.Random(321)
    for _ in range(25):
        p = _random_poly(rng, 5)
        q = pbw_normalize(p)
        for dim in range(1, 7):
            cache = {}
            assert evaluate(q, REPS[dim], cache) == evaluate(p, REPS[dim], cache)


# --- degree reduction -------------------------------------------------------------


def test_reduce_pauli_product():
    nf = reduce_degree(parse("S1*S2"), 2)
    assert nf.poly == S3.scale(I * Fraction(1, 2))
    assert render(nf) == "1/2*i*S3"


def test_reduce_cube_in_three_dimensions():
    assert reduce_degree(parse("S3*S3*S3"), 3).poly == S3


def test_reduce_commutator_any_dimension():
    assert render(reduce_degree(parse("[S1,S2]"), 5)) == "i*S3"


def test_reduce_anticommutator_in_two_dimensions():
    assert reduce_degree(parse("{S1 S2}"), 2).poly.is_zero()


def test_reduce_symmetric_four_matches_matrix():
    nf = reduce_degree(parse("{S1 S1 S2 S2}"), 4)
    assert evaluate(nf, REPS[4]) == SymSession(REPS[4]).sym((1, 1, 2, 2))


def test_reduce_two_equal_one_different_in_three_dimensions():
    # S_i^2 S_j + S_i S_j S_i + S_j S_i^2 = S_j for i != j on dimension 3
    # (the three-dimensional identity at indices (i, i, j), confirmed by
    # exact matrix evaluation)
    for i, j in ((1, 2), (3, 1), (2, 3)):
        expr = f"S{i}*S{i}*S{j} + S{i}*S{j}*S{i} + S{j}*S{i}*S{i}"
        nf = reduce_degree(parse(expr), 3)
        assert nf.poly == NCPolynomial.generator(j)
        assert evaluate(parse(expr), REPS[3]) == REPS[3].matrix(j)


def test_reduce_requires_dimension_two():
    with pytest.raises(ValueError):
        reduce_degree(S1, 1)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm(parse("S2*S1"), 4)  # unordered word
    with pytest.raises(ValueError):
        NormalForm(parse("S1*S1"), 2)  # degree over the cap


def test_normal_forms_hash_by_value():
    # [S1, S2] = i S3, so both reduce to one normal form and one set element.
    forms = {reduce_degree(parse("S1*S2 - S2*S1"), 3), reduce_degree(parse("i*S3"), 3)}
    assert forms == {NormalForm(parse("i*S3"), 3)}


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_reduce_soundness_random(dim):
    rng = random.Random(1000 + dim)
    rep = REPS[dim]
    cache = {}
    for _ in range(40):
        p = _random_poly(rng, dim + 3)
        nf = reduce_degree(p, dim)
        assert nf.poly.degree() <= dim - 1
        assert evaluate(nf, rep, cache) == evaluate(p, rep, cache)


def test_reduce_idempotent():
    rng = random.Random(77)
    for dim in (2, 3, 4):
        for _ in range(10):
            nf = reduce_degree(_random_poly(rng, dim + 2), dim)
            again = reduce_degree(nf.poly, dim)
            assert again.poly == nf.poly


def _ijk_difference(i, j, k):
    gens = {1: S1, 2: S2, 3: S3}
    lhs = gens[i] * gens[j] * gens[k] - gens[k] * gens[j] * gens[i]
    rhs = NCPolynomial.zero()
    for l in (1, 2, 3):
        rhs = rhs + (
            gens[l] * gens[k] * epsilon(i, j, l)
            + gens[j] * gens[l] * epsilon(i, k, l)
            + gens[l] * gens[i] * epsilon(j, k, l)
        )
    return lhs - rhs.scale(I)


@pytest.mark.parametrize("dim", (2, 3))
def test_antisymmetric_triple_reduces_to_zero(dim):
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        assert reduce_degree(_ijk_difference(i, j, k), dim).poly.is_zero()


# --- reference reducer ---------------------------------------------------------------
#
# The Scalar rewriter the library used before its rule table, in the reference
# arithmetic: PBW-order the
# whole polynomial, then cap the lexicographically first longest word until
# no word reaches degree D.  Slow, but it applies the relations in a
# different order and different arithmetic, so agreement checks the rule
# table, the letter fold and the Gaussian-integer rows.


def _reference_ordered_form(w, memo):
    cached = memo.get(w)
    if cached is not None:
        return cached
    swap = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
    if swap is None:
        res = {w: R.ONE}
    else:
        j, i = w[swap], w[swap + 1]
        l = 6 - i - j
        coeff = R.Scalar(0, -epsilon(i, j, l))
        res = dict(_reference_ordered_form(w[:swap] + (i, j) + w[swap + 2 :], memo))
        for w2, c2 in _reference_ordered_form(w[:swap] + (l,) + w[swap + 2 :], memo).items():
            R.accumulate(res, w2, coeff * c2)
    memo[w] = res
    return res


def _reference_replacement(ident, letters):
    """(1/D!)(R - {letters}) for D sorted letters, by word."""
    counts = axis_counts(letters)
    inv = Fraction(1, factorial(ident.dim))
    terms = [(letters, -inv)]
    for p, b_p in enumerate(ident.b, start=1):
        terms += [(sorted_letters(r), -inv * b_p * w) for r, w in delta_weights(counts, p).items()]
    return {perm: R.Scalar(c * n) for sym, c in terms for perm, n in Counter(itertools.permutations(sym)).items()}


def reference_reduce_degree(p, dim):
    ident = build_identity(dim)
    memo = {}
    cur = {}
    for w, c in p.terms().items():
        for w2, c2 in _reference_ordered_form(w, memo).items():
            R.accumulate(cur, w2, ref(c) * c2)
    repl_cache = {}
    while True:
        high = [w for w in cur if len(w) >= dim]
        if not high:
            break
        dmax = max(len(w) for w in high)
        w = min(u for u in high if len(u) == dmax)
        c = cur.pop(w)
        u, v = w[:dim], w[dim:]
        sorted_u = tuple(sorted(u))
        if sorted_u not in repl_cache:
            repl_cache[sorted_u] = _reference_replacement(ident, sorted_u)
        # c * u v  ->  c * [ u + (1/D!)(R - {u}) ] v
        chunk = {w: R.ONE}
        for wq, cq in repl_cache[sorted_u].items():
            R.accumulate(chunk, wq + v, cq)
        for wq, cq in chunk.items():
            for w2, c2 in _reference_ordered_form(wq, memo).items():
                R.accumulate(cur, w2, c * cq * c2)
    return NormalForm(NCPolynomial({w: lib(c) for w, c in cur.items()}), dim)


_COEFFICIENTS = ("3/4", "(-2)", "5*sqrt(2)", "2*sqrt(6)", "i", "(-3*i)", "(1/2 + 2*i)", "(2/3 - i)")


def _seeded_expression(rng, dim, kind):
    """A word, a sqrt-scaled word, a commutator or symmetric braces times a
    word, of degree D+1 or D+2, plus lower terms with i, complex and
    rational coefficients."""
    deg = dim + rng.randint(1, 2)

    def word(n):
        return "*".join(f"S{rng.randint(1, 3)}" for _ in range(n)) or "I"

    if kind == 0:
        lead = word(deg)
    elif kind == 1:
        lead = f"{rng.choice((2, 3, 5, 6))}*sqrt({rng.choice((2, 3, 5, 6))})*{word(deg)}"
    elif kind == 2:
        split = deg // 2
        lead = f"[{word(split)}, {word(deg + 1 - split)}]"
    else:
        lead = "{" + word(3).replace("*", " ") + "}*" + word(deg - 3)
    return (f"{lead} + {rng.choice(_COEFFICIENTS)}*{word(dim - 1)}"
            f" - {rng.choice(_COEFFICIENTS)}*{word(rng.randint(0, dim))}")


@pytest.mark.parametrize("dim", range(2, 7))
def test_reduce_matches_reference_on_seeded_expressions(dim):
    rng = random.Random(600 + dim)
    for kind in range(4):
        for _ in range(3 if dim < 6 else 1):
            p = parse(_seeded_expression(rng, dim, kind))
            assert reduce_degree(p, dim) == reference_reduce_degree(p, dim)


@pytest.mark.parametrize("dim", range(2, 6))
def test_reduce_matches_reference_on_ordered_words(dim):
    for deg in range(dim, dim + 3):
        for w in _ordered_monomials(deg + 1):
            if len(w) < deg:
                continue
            p = NCPolynomial({w: 1})
            assert reduce_degree(p, dim) == reference_reduce_degree(p, dim)


_SCALARS = st.sampled_from([
    Scalar.of(1), Scalar.of(Fraction(-3, 2)), Scalar.i(), Scalar.sqrt_int(2),
    Scalar.of(Fraction(1, 3)) + Scalar.i() * 2, Scalar.sqrt_int(6) * Scalar.i(),
])


@st.composite
def _dim_and_polynomial(draw):
    dim = draw(st.integers(2, 5))
    words = st.lists(st.integers(1, 3), max_size=dim + 2).map(tuple)
    return dim, NCPolynomial(draw(st.dictionaries(words, _SCALARS, max_size=4)))


@given(_dim_and_polynomial(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_reduce_commutes_with_letter_products(case, axis):
    # The normal form is unique modulo the relations, so reducing first and
    # multiplying after cannot change the result, on either side.
    dim, p = case
    s = NCPolynomial.generator(axis)
    nf = reduce_degree(p, dim).poly
    assert reduce_degree(nf * s, dim) == reduce_degree(p * s, dim)
    assert reduce_degree(s * nf, dim) == reduce_degree(s * p, dim)


def test_reduce_long_word_in_bounded_memory():
    # The fold keeps one row per word, so memory does not grow with the
    # word: a memo of every prefix of this word would hold 18M tuple slots.
    block = parse("*".join(["S3*S2*S1"] * 1000))
    word = NCPolynomial({next(iter(block.terms())) * 2: 1})
    tracemalloc.start()
    try:
        nf = reduce_degree(word, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    half = reduce_degree(block, 3).poly
    assert nf == reduce_degree(half * half, 3)


# --- the shared rule tables ---------------------------------------------------------


def _bench_reduce_expressions(seed):
    """The expressions of the benchmark's `reduce` workload for one seed,
    drawn in the same order from the same generator."""
    rng = random.Random(seed)
    letters = ("S1", "S2", "S3")

    def balanced_word(n):
        word = [letters[k % 3] for k in range(n)]
        rng.shuffle(word)
        return "*".join(word)

    def coefficient(kind):
        if kind == 0:
            return f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
        if kind == 1:
            return f"{rng.choice((2, 3, 5, 6, 7))}*sqrt({rng.choice((2, 3, 5, 6, 7))})"
        if kind == 2:
            return f"{rng.randint(2, 9)}*i"
        return f"({rng.randint(1, 9)}/{rng.randint(2, 9)} + {rng.randint(1, 9)}*i)"

    def expression(dim, deg, kind):
        if kind == 0:
            lead = balanced_word(deg)
        elif kind == 1:
            lead = f"{coefficient(1)}*{balanced_word(deg)}"
        elif kind == 2:
            split = max(1, deg // 2)
            lead = f"[{balanced_word(split)}, {balanced_word(deg + 1 - split)}]"
        else:
            inside = min(deg, 3)
            braces = "{" + " ".join(balanced_word(inside).split("*")) + "}"
            lead = braces if deg == inside else f"{braces}*{balanced_word(deg - inside)}"
        return f"{lead} + {coefficient(kind)}*{balanced_word(max(1, dim - 1))} - {coefficient((kind + 1) % 4)}"

    shape = {2: (3, 4, 5), 3: (4, 5, 6), 4: (3, 4, 5, 6, 7), 5: (4, 5, 6, 7), 6: (5, 6)}
    return [(parse(expression(dim, deg, kind)), dim)
            for dim, degrees in shape.items() for deg in degrees for kind in range(4) for _ in range(3)]


def _outputs(nf):
    return nf, render(nf), render(nf, "latex"), json.dumps(to_json_dict(nf))


def test_shared_tables_give_the_cold_result():
    cases = []
    for dim in range(2, 6):
        rng = random.Random(8000 + dim)
        cases += [(_random_poly(rng, dim + 3), dim) for _ in range(500)]  # acceptance criterion 8's
    for seed in (1, 2, 7):
        cases += _bench_reduce_expressions(seed)
    random.Random(9).shuffle(cases)
    rewrite._rule_table.cache_clear()
    warm = [_outputs(reduce_degree(p, dim)) for p, dim in cases]
    for (p, dim), out in zip(cases, warm):
        rewrite._rule_table.cache_clear()
        assert out == _outputs(reduce_degree(p, dim)), (render(p), dim)


@pytest.mark.parametrize("dim", range(2, 9))
def test_rule_table_is_bounded_by_its_dimension(dim):
    rewrite._rule_table.cache_clear()
    rng = random.Random(dim)
    for _ in range(40):
        reduce_degree(NCPolynomial({tuple(rng.randint(1, 3) for _ in range(3 * dim)): 1}), dim)
    table = rewrite._rule_table(dim)
    assert len(table.forms) <= 3 * comb(dim + 2, 3)
    assert len(table.rules) <= comb(dim + 2, 2)
    assert all(len(v) == dim and list(v) == sorted(v) for v in table.rules)
    assert len(table.capped) <= 3 * comb(dim + 2, 3)
    for steps in (table.forms, table.capped):
        _assert_one_entry_per_word_and_letter(steps, dim)
    _assert_no_form_is_i_times_another(table.forms)
    below = [(u, a) for u, a in table.capped if len(u) < dim - 1]
    assert below
    assert all(table.capped[key] is table.forms.get(key) for key in below)


def _assert_one_entry_per_word_and_letter(steps, dim):
    """Every key of a table of steps is a pair (ordered word of degree
    <= D-1, letter), and some entries have cells of key i."""
    assert all(len(key) == 2 and key[1] in (1, 2, 3) for key in steps)
    assert all(len(u) < dim and list(u) == sorted(u) for u, _ in steps)
    assert any(k == KEY_I for terms, _ in steps.values() for _, k in terms)


def _assert_no_form_is_i_times_another(forms):
    """No stored ordered form is i times another.  (Capped steps at degree
    D-1 may be: at D = 3, S2 S3 S3 caps to i S1 S3.)"""
    entries = {(frozenset(terms.items()), den) for terms, den in forms.values()}
    assert not any((frozenset(times_key(terms, KEY_I).items()), den) in entries for terms, den in forms.values())


def test_pbw_normalize_stores_one_entry_per_word_and_letter(monkeypatch):
    # The table of ordered forms one pbw_normalize call builds holds exactly
    # the (ordered word, letter) pairs its steps read, each built once, on
    # an input with coefficients of keys 1 and i.
    p = parse("(2 - 3*i)*S3*S2*S1*S3*S2*S1*S3*S2*S1 + i*[S1, S2*S3]*S3*S2 + S2*S2*S1*S1 - i*S3*S1")
    want = pbw_normalize(p)
    tables = []

    class Recording(rewrite._Steps):
        def __init__(self, build):
            super().__init__(lambda u, a: self.built.append((u, a)) or build(u, a))
            self.built, self.met = [], set()
            tables.append(self)

        def __getitem__(self, key):
            self.met.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(rewrite, "_Steps", Recording)
    assert pbw_normalize(p) == want
    table, = tables
    assert len(table.built) == len(set(table.built))
    assert set(table.built) == table.met == set(table)
    _assert_one_entry_per_word_and_letter(table, p.degree())
    _assert_no_form_is_i_times_another(table)


def _ordered_row(rng, dim):
    """A row of a few ordered words of degree <= D-1 with keys of 1 and i,
    integer numerators over a denominator, as the fold passes to a step."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(sorted(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, dim - 1))))
        terms[(word, rng.choice((KEY_ONE, KEY_I)))] = rng.choice((-1, 1)) * rng.randint(1, 40)
    return reduce_terms(terms, rng.randint(1, 12))


@pytest.mark.parametrize("dim", range(2, 9))
def test_capped_step_matches_the_whole_row_step(dim):
    # The step as a combination of memoized one-cell entries against the
    # whole row ordered and then capped, on seeded rows with keys 1 and i,
    # through a cold table and again through the entries it stored.
    rng = random.Random(700 + dim)
    table = rewrite._RuleTable(dim)
    cases = [(_ordered_row(rng, dim), rng.randint(1, 3)) for _ in range(60)]
    for _ in range(2):
        for row, a in cases:
            assert table.capped([(1, row, a)]) == R.capped_step(table, row, a), (dim, row, a)
    assert table.rules
    assert {k for row, _ in cases for _, k in row[0]} == {KEY_ONE, KEY_I}
    assert all(len(key) == 2 for key in table.capped)


@pytest.mark.parametrize("dim", range(2, 6))
def test_one_cell_step_is_a_table_read(dim):
    # A step from a one-cell row of key 1 reads the table: the stored entry
    # itself for weight x numerator 1 over denominator 1, else that entry
    # scaled, in integers; a cell of key i gives i times the stored entry.
    # Against the general combination of the stored entry, and for capped
    # steps against the whole-row step.
    rng = random.Random(1100 + dim)
    forms, table = rewrite._forms(), rewrite._RuleTable(dim)
    cases = [(1, 1, 1), (1, -3, 1), (1, 2, 5), (1, 1, 3), (-1, 1, 1), (-1, -1, 4), (-1, 4, 3), (0, 1, 1), (0, 5, 2),
             (3, -1, 1), (-1, -1, 1)]
    for steps in (forms, table.capped):
        for _ in range(30):
            u = tuple(sorted(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, dim - 1))))
            a = rng.randint(1, 3)
            for key in (KEY_ONE, KEY_I):
                for w, n, den in cases:
                    row = ({(u, key): n}, den)
                    out = steps([(w, row, a)])
                    entry = steps[u, a]
                    turned = times_key(entry[0], key)
                    assert out == combine_terms([(w * n, turned, entry[1] * den)]), (dim, u, a, key, w, n, den)
                    assert all(type(x) is int for x in out[0].values()) and type(out[1]) is int
                    if key == KEY_ONE and w * n == 1 and den == 1:
                        assert out is entry
                    if steps is table.capped:
                        assert out == combine_terms([(w, *R.capped_step(table, row, a))])
    assert table.rules


@pytest.mark.parametrize("dim", range(2, 6))
def test_multi_cell_step_is_one_combination(dim):
    # A step of several cells, or of several parts, accumulates each cell's
    # stored entry in one pass over a running lcm of the denominators: the
    # same row as ``combine_terms`` of the entries, with keys 1 and i,
    # weights and numerators of both signs, denominators above 1 in rows
    # and in entries, and cells that cancel.
    rng = random.Random(3100 + dim)
    forms, table = rewrite._forms(), rewrite._RuleTable(dim)
    for steps in (forms, table.capped):
        entry_dens = set()
        for _ in range(40):
            parts = [(rng.choice((-3, -1, 1, 2)), _ordered_row(rng, dim), rng.randint(1, 3))
                     for _ in range(rng.choice((1, 1, 2, 3)))]
            if len(parts) == 1 and len(parts[0][1][0]) == 1:
                continue
            entries = [(w * n, times_key(steps[u, a][0], k), steps[u, a][1], den)
                       for w, (terms, den), a in parts for (u, k), n in terms.items()]
            want = combine_terms([(f, t, d * den) for f, t, d, den in entries])
            assert steps(parts) == want, (dim, parts)
            entry_dens.update(d for _, _, d, _ in entries)
            # the same cells twice over, once negated: they cancel
            assert steps(parts + [(-w, row, a) for w, row, a in parts]) == ({}, 1)
        assert steps is forms or max(entry_dens) > 1
    assert table.rules


@pytest.mark.parametrize("dim", range(2, 6))
def test_times_row_is_the_product_by_the_letter(dim):
    # The row kernel through a table of ordered forms and through the
    # rule table's capped steps, against the reference ring: on every
    # representation the ordered form is the same operator, and on V_D so
    # is the capped one.  Rows have keys 1 and i, denominators above 1, and
    # cells that cancel; the empty row stays empty.
    rng = random.Random(900 + dim)
    forms, table = rewrite._forms(), rewrite._RuleTable(dim)
    caches = {r: {} for r in range(2, 6)}

    def value(row, r, letter=()):
        return reference_evaluate(NCPolynomial._make(row), REPS[r], caches[r]) * R.word_matrix(REPS[r], letter, caches[r])

    rows = [_ordered_row(rng, dim) for _ in range(15)] + [({}, 1)]
    for row in rows:
        for a in (1, 2, 3):
            for steps, reps in ((forms, range(2, 6)), (table.capped, (dim,))):
                out = steps([(1, row, a)])
                for r in reps:
                    assert value(out, r) == value(row, r, (a,)), (dim, row, a, r)
    assert forms([(1, ({}, 1), 2)]) == ({}, 1)
    assert any(den > 1 for _, den in rows)
    assert {k for terms, _ in rows for _, k in terms} == {KEY_ONE, KEY_I}
    # S2 S2 S1 + S3 S3 S1 = S1 S2 S2 + S1 S3 S3: the cells of S2 S3 and S1
    # in the two ordered forms cancel.
    for key in (KEY_ONE, KEY_I):
        row = ({((2, 2), key): 3, ((3, 3), key): 3}, 7)
        assert forms([(1, row, 1)]) == ({((1, 2, 2), key): 3, ((1, 3, 3), key): 3}, 7)
    # several weighted parts at once, as the word session passes them
    parts = [(rng.randint(-3, 3) or 1, _ordered_row(rng, dim), rng.randint(1, 3)) for _ in range(4)]
    for r in range(2, 6):
        want = R.Matrix.zero(r)
        for w, row, a in parts:
            want = want + value(row, r, (a,)).scale(w)
        assert value(forms(parts), r) == want


@pytest.mark.parametrize("dim", range(2, 6))
def test_fold_through_the_matrix_algebra_is_evaluate(dim):
    # The one fold over a representation's right multiplication, as
    # matrix_algebra hands it out, is evaluate, and both agree with the
    # reference ring; coefficients have keys 1 and i and denominators.
    rng = random.Random(1000 + dim)
    cache = {}
    for _ in range(8):
        row = _ordered_row(rng, dim + 2)
        p = NCPolynomial._make(row) * NCPolynomial({tuple(rng.choice((1, 2, 3)) for _ in range(3)): 1})
        folded = rewrite._fold(p, *matrix_algebra(REPS[dim]))
        assert evaluate(p, REPS[dim]) == Matrix._make(dim, folded)
        assert ref(Matrix._make(dim, folded)) == reference_evaluate(p, REPS[dim], cache)


def _fold_cases(rng, dim):
    """Seeded polynomials for the fold: braces, braces times a word and
    commutators; sums of words that share a suffix, one of them all suffix
    at times, and of words that do not; the empty word; rational, sqrt, i
    and complex coefficients; and sums that cancel, in the algebra or as
    polynomials."""
    letters = ("S1", "S2", "S3")
    coefficients = ("2/3", "5", "sqrt(2)", "3*sqrt(6)", "i", "2*i", "(1/2 + 3*i)", "sqrt(3)*(2 - i)",
                    "(1/4 - sqrt(2)*i)")

    def word(n):
        return [rng.choice(letters) for _ in range(n)]

    def term(w):
        return "*".join([rng.choice(coefficients)] + w)

    def total(terms):
        return "".join(rng.choice((" + ", " - ")) + t for t in terms)

    def braces(n):
        return "{" + " ".join(word(n)) + "}"

    def run(n):
        return "*".join(word(n))

    b = braces(3)
    texts = [braces(rng.randint(1, 5)), f"{braces(3)}*{run(2)}", f"{term([])}*{braces(4)}{total([term(word(2))])}",
             f"[{run(2)}, {run(3)}]", f"{term([])}*[{braces(2)}, {run(2)}] - {term([])}",
             term(word(dim + 2)), term([]), "S1*S2 - S2*S1 - i*S3", f"{b} - {b}"]
    for _ in range(6):
        suffix = word(rng.randint(0, 4))
        texts.append(total(term(word(rng.randint(0, 3)) + suffix) for _ in range(rng.randint(2, 6))))
        texts.append(total(term(word(rng.randint(0, 5))) for _ in range(rng.randint(1, 4))))
    w = word(3)
    texts.append(f"sqrt(2)*{'*'.join(w)} + sqrt(3)*{'*'.join(w)} - i*{'*'.join(w[1:])} + {w[2]}")
    return [parse(text) for text in texts] + [NCPolynomial.zero()]


@pytest.mark.parametrize("dim", range(2, 6))
def test_fold_matches_the_word_by_word_fold(dim):
    # The Horner fold over shared suffixes against each word folded on its
    # own (``reference.fold``), row for row, in the three algebras the
    # library folds in: capped steps, ordered forms, and a representation's
    # matrices.  Branch points with several parts and the axis-0 part of a
    # word that is all suffix both occur.
    rng = random.Random(4200 + dim)
    cases = _fold_cases(rng, dim)
    seen = set()
    table = rewrite._RuleTable(dim).capped

    def capped(parts):
        seen.add(("parts", min(len(parts), 2)))
        seen.update(("axis", a) for _, _, a in parts)
        return table(parts)

    algebras = [(rewrite._ONE, capped), (rewrite._ONE, rewrite._forms()), matrix_algebra(REPS[dim])]
    for p in cases:
        for unit, times in algebras:
            assert rewrite._fold(p, unit, times) == R.fold(p, unit, times), (render(p), dim)
    assert {("parts", 2), ("axis", 0)} <= seen
    assert rewrite._fold(parse("S1*S2 - S2*S1 - i*S3"), rewrite._ONE, table) == ({}, 1)
    assert any(p.is_zero() for p in cases)


def _fold_mismatches(dims=range(2, 6)):
    """The comparison of ``test_fold_matches_the_word_by_word_fold`` on
    fresh tables: the cases of ``_fold_cases`` whose Horner fold differs
    from ``reference.fold``, as (text, dim, algebra index)."""
    out = []
    for dim in dims:
        cases = _fold_cases(random.Random(4200 + dim), dim)
        algebras = [(rewrite._ONE, rewrite._RuleTable(dim).capped), (rewrite._ONE, rewrite._forms()),
                    matrix_algebra(REPS[dim])]
        for p in cases:
            out += [(render(p), dim, k) for k, (unit, times) in enumerate(algebras)
                    if rewrite._fold(p, unit, times) != R.fold(p, unit, times)]
    return out


# Plausible bugs in the fold's fast paths: (owner, function name, a snippet of
# its source that occurs once, the snippet's replacement).
_FOLD_MUTANTS = {
    "all-suffix-word-dropped": (rewrite, "_horner", "for w in words:", "for w in [w for w in words if len(w) > shared]:"),
    "lone-imaginary-part-dropped": (rewrite, "_horner", "if im:", "if False:"),
    "radicand-not-applied": (rewrite, "_fold", "cells if m == 1 else times_key(cells, 2 * m)", "cells"),
    "step-without-lcm-rescale": (rewrite._Steps, "__call__", "out[c] *= s", "out[c] *= 1"),
    "read-ignores-denominator": (rewrite._Steps, "__call__", "w * n == 1 and den == 1", "w * n == 1"),
}


def test_fold_comparison_passes_on_fresh_tables():
    assert _fold_mismatches() == []


@pytest.mark.parametrize("mutant", list(_FOLD_MUTANTS))
def test_fold_comparison_catches_a_mutant(monkeypatch, mutant):
    mutate(monkeypatch, *_FOLD_MUTANTS[mutant])
    assert _fold_mismatches()


def test_fold_of_a_long_shared_suffix_keeps_a_flat_stack():
    # S2 S1^3000 + S3 S1^3000: a chain of 3000 nodes for the shared suffix,
    # then one branch point; and S1 + S1^2 + ... + S1^400, each word a suffix
    # of the next: 400 nested nodes, each with an axis-0 part.  The stack
    # must not grow with them, so a limit just above the caller's depth is
    # enough.  Each sum reduces to the sum of its words reduced apart.
    tail = "*S1" * 3000
    cases = [([f"S2{tail}", f"S3{tail}"], 3), (["*".join(["S1"] * n) for n in range(1, 401)], 4)]
    for words, dim in cases:
        p = parse(" + ".join(words))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            nf = reduce_degree(p, dim)
        finally:
            sys.setrecursionlimit(limit)
        assert nf.poly == sum((reduce_degree(parse(w), dim).poly for w in words), NCPolynomial.zero())


def test_rule_tables_are_evicted_least_recently_used_first():
    def word(dim):
        return NCPolynomial({(3, 1) * dim + (2,): 1})

    rewrite._rule_table.cache_clear()
    cold = {dim: reduce_degree(word(dim), dim) for dim in range(2, 12)}
    assert rewrite._rule_table.cache_info().currsize == 8
    for dim in (2, 3):  # the least recently used, evicted
        assert reduce_degree(word(dim), dim) == cold[dim]
    assert rewrite._rule_table.cache_info().currsize == 8


def test_rule_table_builds_the_identity_only_for_a_rule(monkeypatch):
    # Words below degree D need no rule, so no identity: at D = 10^6, whose
    # identity would take hours to expand, a short input reduces at once.
    def refuse(dim):
        raise RuntimeError(f"identity of dimension {dim} built")

    monkeypatch.setattr(rewrite, "build_identity", refuse)
    expr = parse("S1*S2 + {S1 S3}")
    assert render(reduce_degree(expr, 10**6)) == "S1*S2 + 2*S1*S3 + i*S2"
    rewrite._rule_table.cache_clear()
    with pytest.raises(RuntimeError, match="dimension 3 built"):
        reduce_degree(parse("S1*S1*S1"), 3)
    rewrite._rule_table.cache_clear()


def test_threads_share_one_table():
    dim = 5
    rng = random.Random(55)
    exprs = [_random_poly(rng, dim + 4) for _ in range(50)]
    rewrite._rule_table.cache_clear()
    serial = [reduce_degree(p, dim) for p in exprs]
    rewrite._rule_table.cache_clear()
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def work(k):
        start.wait()
        results[k] = [reduce_degree(p, dim) for p in exprs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table's updates
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


# --- evaluation -------------------------------------------------------------------


def test_evaluate_commutation_relation():
    for dim in range(1, 7):
        assert evaluate(parse("[S1,S2] - i*S3"), REPS[dim]).is_zero()


def test_evaluate_long_word():
    # S1^2 = 1/4 on spin 1/2; the prefix products are a loop, not a recursion
    s1_power = evaluate(NCPolynomial({(1,) * 1200: 1}), REPS[2])
    assert s1_power == Matrix.identity(2).scale(Fraction(1, 4**600))


@pytest.mark.parametrize("dim", range(2, 6))
def test_word_session_evaluates_to_matrix_session(dim):
    # one engine in two algebras: {c} built from ordered words and from
    # matrices must be the same operator
    words = rewrite._RuleTable(dim).session
    matrices, cache = SymSession(REPS[dim]), {}
    for order in range(6):
        for counts in all_counts(order):
            poly = NCPolynomial._make(words.sym_int(counts))
            assert evaluate(poly, REPS[dim], cache) == matrices.sym(sorted_letters(counts)), (dim, counts)


def test_evaluate_identity_operator():
    from spinid.spinrep import Matrix

    assert evaluate(NCPolynomial.one(), REPS[3]) == Matrix.identity(3)


def test_evaluate_symmetric_triple():
    assert evaluate(parse("{S1 S2 S3}"), REPS[3]).is_zero()


# --- normal-form completeness -------------------------------------------------------


def _rank_of_vectors(vectors):
    """Exact rank over the rationals by Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _ordered_monomials(dim):
    out = []
    for a in range(dim):
        for b in range(dim - a):
            for c in range(dim - a - b):
                out.append((1,) * a + (2,) * b + (3,) * c)
    return out


def _kernel_dim_over_scalars(mats, dim):
    """Dimension, over the scalar field, of the linear relations among the
    given reference matrices.

    Unknown scalar coefficients are linearized over their rational
    coordinates on the basis {sqrt(m), i sqrt(m)}, with the radicand set
    closed under products, turning the field-valued kernel into an exact
    rational one whose dimension is |basis| times as large.
    """
    from math import gcd

    radicands = {1}
    for mat in mats:
        for r in range(dim):
            for c in range(dim):
                radicands.update(m for (_, m) in mat.rows[r][c].components())
    while True:
        grown = {
            (m1 // g) * (m2 // g)
            for m1 in radicands
            for m2 in radicands
            for g in (gcd(m1, m2),)
        }
        if grown <= radicands:
            break
        radicands |= grown
    basis = [
        R.Scalar(R.Radical({m: 1})) if part == "re" else R.Scalar(0, R.Radical({m: 1}))
        for m in sorted(radicands)
        for part in ("re", "im")
    ]

    columns = []
    for mat in mats:
        for beta in basis:
            col = {}
            for r in range(dim):
                for c in range(dim):
                    for key, q in (beta * mat.rows[r][c]).components().items():
                        col[(r, c, key)] = q
            columns.append(col)
    keys = sorted({k for col in columns for k in col})
    vectors = [[col.get(k, Fraction(0)) for k in keys] for col in columns]
    kernel_q = len(columns) - _rank_of_vectors(vectors)
    assert kernel_q % len(basis) == 0
    return kernel_q // len(basis)


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_normal_form_evaluation_spans_matrix_algebra(dim):
    """The degree-capped ordered monomials hit every operator on dimension D,
    and their only linear relations are multiples of the Casimir relation
    S1^2 + S2^2 + S3^2 = s(s+1); for D = 2 the map is genuinely injective."""
    rep = REPS[dim]
    monomials = _ordered_monomials(dim)
    mats = [ref(evaluate(NCPolynomial({w: 1}), rep)) for w in monomials]
    kernel = _kernel_dim_over_scalars(mats, dim)
    # rank = D^2: the whole matrix algebra is reachable
    assert len(monomials) - kernel == dim * dim
    # kernel = Casimir relation times monomials of degree <= D-3
    assert kernel == len(_ordered_monomials(dim - 2)) if dim > 2 else kernel == 0


def _block_diagonal(mats):
    n = sum(m.dim for m in mats)
    rows = [[R.ZERO] * n for _ in range(n)]
    offset = 0
    for m in mats:
        for r in range(m.dim):
            rows[offset + r][offset : offset + m.dim] = ref(m).rows[r]
        offset += m.dim
    return R.Matrix(rows)


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_normal_form_words_are_independent_modulo_the_relations(dim):
    """The ordered monomials of degree <= D-1 have no linear relation on
    V_D + V_{D-2} + ..., every representation the D-identity holds on.  So
    no nonzero normal form lies in the ideal of the relations: the normal
    form is unique, whatever order the rewriting steps take."""
    blocks = [REPS[d] for d in range(dim, 0, -2)]
    monomials = _ordered_monomials(dim)
    assert len(monomials) == comb(dim + 2, 3) == sum(rep.dim ** 2 for rep in blocks)
    mats = [
        _block_diagonal([evaluate(NCPolynomial({w: 1}), rep) for rep in blocks])
        for w in monomials
    ]
    assert _kernel_dim_over_scalars(mats, mats[0].dim) == 0


@pytest.mark.parametrize("dim", (3, 4))
def test_casimir_multiples_exhaust_the_kernel(dim):
    rep = REPS[dim]
    spin = rep.spin
    casimir_rel = parse("S1*S1 + S2*S2 + S3*S3") - NCPolynomial.scalar(
        spin * (spin + 1)
    )
    leading = []
    for m in _ordered_monomials(dim - 2):
        nf = reduce_degree(casimir_rel * NCPolynomial({m: 1}), dim)
        assert not nf.poly.is_zero()
        assert evaluate(nf, rep).is_zero()
        # distinct leading words witness linear independence
        lead = (1, 1) + m
        assert not nf.poly.coefficient(lead).is_zero()
        leading.append(lead)
    assert len(set(leading)) == len(leading)


def test_distinct_normal_forms_can_be_operator_equal():
    # The Casimir kernel means normal-form equality is sound but not
    # complete for operator equality; the matrix oracle decides the rest.
    p = reduce_degree(parse("S1*S1 + S2*S2 + S3*S3"), 3)
    q = reduce_degree(parse("2"), 3)
    assert p.poly != q.poly
    assert evaluate(p, REPS[3]) == evaluate(q, REPS[3])


# --- printing ----------------------------------------------------------------------


def test_render_examples():
    assert render(parse("S1*S2") - NCPolynomial({(3,): I})) == "S1*S2 - i*S3"
    assert render(NCPolynomial.zero()) == "0"
    assert render(NCPolynomial.one()) == "1"
    assert render(parse("1/2 + S1")) == "S1 + 1/2"
    assert render(parse("(1 + i) * S2")) == "(1 + i)*S2"
    assert render(parse("-S1 - 2/3")) == "-S1 - 2/3"


def test_render_latex():
    assert render(parse("S1*S1*S2"), "latex") == "S_{1}^{2} S_{2}"
    assert render(parse("3/2 * i * S3"), "latex") == "\\frac{3}{2} i S_{3}"
    assert render(NCPolynomial.one(), "latex") == "\\mathbbm{1}"


def test_render_refuses_an_unknown_format():
    p = parse("2*S1*S1 + i")
    for fmt in ("json", "Plain", "LATEX", ""):
        with pytest.raises(ValueError, match="'plain' or 'latex'"):
            render(p, fmt)
    with pytest.raises(ValueError):
        render(NCPolynomial.zero(), "json")


# The printer on reference Scalar coefficients (of p.terms()), the oracle for
# render and to_json_dict, which read the components straight from the row.


def _reference_plain_term(w, c):
    comps = c._component_list()
    letters = "*".join(f"S{a}" for a in w)
    if len(comps) > 1:
        return 1, f"({c})" + ("*" + letters if w else "")
    (coef, m, imag) = comps[0]
    sign = -1 if coef < 0 else 1
    if w and abs(coef) == 1 and m == 1 and not imag:
        return sign, letters
    body = R.render_components([(abs(coef), m, imag)])
    return sign, body + ("*" + letters if w else "")


def _reference_latex_term(w, c):
    comps = c._component_list()
    word = rewrite._latex_word(w)
    if len(comps) > 1:
        return 1, f"\\left( {c.latex()} \\right)" + (" " + word if w else "")
    (coef, m, imag) = comps[0]
    sign = -1 if coef < 0 else 1
    trivial = abs(coef) == 1 and m == 1 and not imag
    if w and trivial:
        return sign, word
    if not w and trivial:
        return sign, "\\mathbbm{1}"
    body = R.render_components([(abs(coef), m, imag)], latex=True)
    return sign, body + (" " + word if w else "")


def reference_render(p, fmt="plain"):
    terms = {w: ref(c) for w, c in p.terms().items()}
    if not terms:
        return "0"
    term = _reference_plain_term if fmt == "plain" else _reference_latex_term
    pieces = []
    for w in sorted(terms, key=lambda w: (-len(w), w)):
        sign, body = term(w, terms[w])
        if not pieces:
            pieces.append("-" + body if sign < 0 else body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def reference_json_dict(p):
    terms = {w: ref(c) for w, c in p.terms().items()}
    return {"terms": [{"word": list(w), "coeff": str(terms[w])} for w in sorted(terms, key=lambda w: (-len(w), w))]}


def _mixed_radical_polynomial(rng):
    """Up to five words whose coefficients mix rationals, sqrt(2), sqrt(3),
    sqrt(6) and i, each part with a random sign and magnitude."""
    basis = [Scalar.of(1), Scalar.sqrt_int(2), Scalar.sqrt_int(3), Scalar.sqrt_int(6)]
    terms = {}
    for _ in range(rng.randint(0, 5)):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        c = Scalar.of(0)
        for b in rng.sample(basis, rng.randint(1, 3)):
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((1, 1, 2, 3)))
            c = c + b * q * (I if rng.random() < 0.4 else SCALAR_ONE)
        terms[w] = c
    return NCPolynomial(terms)


def test_render_matches_the_scalar_printer():
    polys = []
    for seed in (1, 2, 7):
        for p, dim in _bench_reduce_expressions(seed):
            polys += [p, reduce_degree(p, dim).poly]
    rng = random.Random(1010)
    polys += [_mixed_radical_polynomial(rng) for _ in range(400)]
    assert any(len(ref(c)._component_list()) > 2 for p in polys for c in p.terms().values())
    for p in polys:
        assert render(p) == reference_render(p)
        assert render(p, "latex") == reference_render(p, "latex")
        assert to_json_dict(p) == reference_json_dict(p)


def test_text_and_representation_paths_build_no_scalar_or_matrix(monkeypatch):
    # Scalars and Matrices are only what a caller hands in or asks for:
    # parsing, reducing and printing, and building, verifying and
    # discovering an identity, make none of either.
    rng = random.Random(700)
    exprs = [(_seeded_expression(rng, dim, kind), dim) for dim in range(2, 7) for kind in range(4)]
    expected = [(render(nf), render(nf, "latex"), to_json_dict(nf))
                for nf in (reduce_degree(parse(text), dim) for text, dim in exprs)]
    idents = {dim: build_identity(dim) for dim in range(2, 9)}

    def refuse(*args, **kwargs):
        raise AssertionError("a Scalar or a Matrix was built")

    monkeypatch.setattr(Scalar, "__init__", refuse)
    monkeypatch.setattr(Scalar, "_make", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "_make", refuse)
    for (text, dim), want in zip(exprs, expected):
        nf = reduce_degree(parse(text), dim)
        assert (render(nf), render(nf, "latex"), to_json_dict(nf)) == want
    for dim in range(2, 9):
        rep = build_generators(dim)
        assert verify_identity(rep, idents[dim], mode="exhaustive").ok
        assert discover_identity(rep) == idents[dim]


def test_json_shape_matches_declared_schema():
    assert to_json_dict(parse("{S1 S2}")) == {
        "terms": [
            {"word": [1, 2], "coeff": "1"},
            {"word": [2, 1], "coeff": "1"},
        ]
    }


def test_plain_render_round_trips():
    rng = random.Random(4242)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
            c = Scalar.of(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            if rng.random() < 0.4:
                c = c + Scalar.sqrt_int(rng.choice((2, 3, 5))) * rng.randint(-2, 2)
            if rng.random() < 0.4:
                c = c + Scalar.i() * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms[w] = terms.get(w, Scalar.of(0)) + c
        p = NCPolynomial(terms)
        assert parse(render(p)) == p
        assert hash(parse(render(p))) == hash(p)


def test_sym_words_matches_brace_parser():
    assert sym_words((1, 2)) == parse("{S1 S2}")
    assert sym_words((3, 3, 3)) == (S3 * S3 * S3).scale(6)


def test_sym_words_matches_sum_over_all_orderings():
    # the n!-term sum, one term per ordering of the factors, for every
    # brace of up to 7 letters (it depends only on the letters' multiset)
    expected = {}
    for n in range(1, 8):
        for letters in itertools.product((1, 2, 3), repeat=n):
            key = tuple(sorted(letters))
            if key not in expected:
                expected[key] = NCPolynomial(Counter(itertools.permutations(letters)))
            assert sym_words(letters) == expected[key], letters


def test_long_symmetric_brace_parses_quickly():
    # 12!/(4!)^3 = 34650 distinct orderings, not 12! = 479001600
    t0 = time.perf_counter()
    p = parse("{" + " ".join(["S1 S2 S3"] * 4) + "}")
    assert time.perf_counter() - t0 < 1.0
    assert len(p.terms()) == 34650
    assert set(p.terms().values()) == {Scalar.of(factorial(4) ** 3)}


def test_coefficient_decodes_only_its_word(monkeypatch):
    p = parse("{" + " ".join(["S1 S2 S3"] * 4) + "}") + parse("(1/2 - sqrt(3)*i)*S1*S2 + sqrt(2)*S2")
    terms = p.terms()

    def refuse(*args, **kwargs):
        raise AssertionError("coefficient decoded the whole row")

    monkeypatch.setattr(rewrite, "row_scalars", refuse)
    for w in [(1, 2), (2,)] + list(terms)[:100]:
        assert p.coefficient(w) == terms[w]
    for w in [(), (1, 1, 1), (3, 2, 1) * 5]:
        assert p.coefficient(w) == Scalar.zero()

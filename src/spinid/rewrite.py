"""Spin-operator expressions: parsing, PBW ordering, and degree capping.

Expressions are noncommutative polynomials in the letters S1, S2, S3 with
exact coefficients, stored as the rows of ``scalar``: integer numerators
over one denominator, keyed by (word, key).  The canonical form for dimension D
keeps only ordered words S1^a S2^b S3^c of total degree <= D-1: the
commutation relation orders the letters, and the dimension-D reduction
identity caps the degree.  A polynomial is folded by Horner's rule over
its words' shared suffixes: words that end alike are summed before their
common suffix is multiplied in, once.  Each letter is inserted into
ordered words through a table of each ordered word's product by each
letter, built on first use, so no unordered word is stored.
``reduce_degree``'s table caps every step by its dimension's
rules, one per ordered word of degree D; it is shared by all later
reductions at that D (the 8 most recently used dimensions are kept).  The
form it reaches is unique modulo the relations, so it does not depend on
the order of the rewriting steps.  ``evaluate`` folds the words the same
way in the rows of a representation's matrices.
Parsing and printing work on the rows; a coefficient read as a ``Scalar``
is a view of the cells of its word.
"""
from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Callable, Iterator, Literal, Mapping, Sequence, Union

from .charid import Identity, build_identity
from .scalar import (
    KEY_I,
    KEY_ONE,
    Record,
    Row,
    Scalar,
    combine_terms,
    key_product,
    reduce_terms,
    render_components,
    row_components,
    row_of_scalars,
    row_scalars,
    scalar_at,
    squarefree_decompose,
    times_key,
)
from .spinrep import Matrix, Part, SpinRep, Times, matrix_algebra
from .symalg import SymSession, epsilon

Word = tuple[int, ...]
ScalarLike = Union[Scalar, Fraction, int]
Terms = dict[tuple[Word, int], int]  # (word, key) -> numerator
_ONE: Row = ({((), KEY_ONE): 1}, 1)


class NCPolynomial:
    """Linear combination of words over {S1, S2, S3}; the empty word is
    the identity operator.

    The value is a row (``scalar``) with cells (word, key), key = 2*m +
    imag for the basis scalar i^imag sqrt(m): sum n * basis(key) / den *
    word.  Rows are reduced (``reduce_terms``), so equal polynomials have
    equal rows and no zero coefficient is stored.  Scalar coefficients go in through
    the constructor and come out through ``terms`` and ``coefficient``."""

    __slots__ = ("_row",)

    def __init__(self, terms: Mapping[Word, ScalarLike] | None = None):
        entries = []
        for w, c in (terms or {}).items():
            w = tuple(w)
            if any(a not in (1, 2, 3) for a in w):
                raise ValueError(f"word {w} has letters outside {{1, 2, 3}}")
            entries.append(((w,), c if isinstance(c, Scalar) else Scalar.of(c)))
        self._row = row_of_scalars(entries)

    @classmethod
    def _make(cls, row: Row) -> "NCPolynomial":
        p = object.__new__(cls)
        p._row = row
        return p

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls._make(({}, 1))

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls._make(_ONE)

    @classmethod
    def generator(cls, axis: int) -> "NCPolynomial":
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2 or 3")
        return cls._make(({((axis,), KEY_ONE): 1}, 1))

    @classmethod
    def scalar(cls, c: ScalarLike) -> "NCPolynomial":
        return cls({(): c})

    def terms(self) -> dict[Word, Scalar]:
        return {w: c for (w,), c in row_scalars(self._row).items()}

    def coefficient(self, w: Word) -> Scalar:
        """The coefficient of w, decoded from w's cells alone."""
        return scalar_at(self._row, {(tuple(w),)})

    def is_zero(self) -> bool:
        return not self._row[0]

    def degree(self) -> int:
        """Length of the longest word (0 for scalars and for the zero
        polynomial)."""
        return max((len(w) for w, _ in self._row[0]), default=0)

    def __iter__(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(self.terms().items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self._row == other._row

    def __hash__(self) -> int:
        return hash((frozenset(self._row[0].items()), self._row[1]))

    def __neg__(self) -> "NCPolynomial":
        terms, den = self._row
        return NCPolynomial._make(({t: -n for t, n in terms.items()}, den))

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial._make(combine_terms([(1, *self._row), (1, *other._row)]))

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["NCPolynomial", ScalarLike]) -> "NCPolynomial":
        if isinstance(other, (Scalar, Fraction, int)):
            return self.scale(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial._make(_row_product(self._row, other._row))

    __rmul__ = __mul__  # a scalar on the left; scalars commute

    def scale(self, c: ScalarLike) -> "NCPolynomial":
        return self * NCPolynomial.scalar(c)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"NCPolynomial({render(self)})"


class NormalForm(Record):
    """An NCPolynomial in canonical shape for dimension D: every word
    ordered (non-decreasing letters) with degree <= D-1."""

    __match_args__ = ("poly", "dim")

    def __init__(self, poly: NCPolynomial, dim: int) -> None:
        for w, _ in poly._row[0]:
            if len(w) > dim - 1:
                raise ValueError(f"word {w} exceeds degree {dim - 1}")
            if w != tuple(sorted(w)):
                raise ValueError(f"word {w} is not ordered")
        super().__init__(poly, dim)

    def __str__(self) -> str:
        return render(self.poly)


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax or lexical error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = set("+-*/(){}[],")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdecimal():  # the digits int() reads; not every isdigit() character is one
            j = k
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[k:j], k))
            k = j
            continue
        if ch.isalpha():
            j = k
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("NAME", text[k:j], k))
            k = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(("EOF", "", n))
    return tokens


_GENERATORS = {"S1": 1, "S2": 2, "S3": 3}
# sqrt(m) factors m by trial division up to sqrt(m): about 0.05 s at 10^12,
# but minutes near 10^18.
_SQRT_MAX = 10**12
# An expansion past this many words, a brace's distinct orderings or a product's terms (at most
# the product of its factors' term counts), is refused before it is built.  At --dim 3, {S1 S2 S3}
# with each letter 4 times (34650 words) reduces in 0.36 s from the command line; 5 times (756756
# words, past the bound) takes 1.3 s to expand and 6.4 s to reduce, at a peak RSS of 316 MB
# (2 cores, Python 3.11).
_MAX_WORDS = 10**5
_FACTOR_START = {"INT", "NAME", "(", "{", "["}


class _Parser:
    """Recursive descent over the tokens.  Sums and products work on rows
    (``scalar``), and a term's factors other than parentheses, braces and
    commutators are multiplied into one monomial (num, den, key, word), a
    row of one cell only at the end of the term or before a grouped
    factor.  A product is refused, like the letter-by-letter product,
    where its factors' term counts multiply past ``_MAX_WORDS``: a monomial
    factor has one term (none when zero), and a monomial keeps a row's
    terms distinct."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            what = f"{tok[1]!r}" if tok[0] != "EOF" else "end of input"
            raise ParseError(f"expected {kind}, found {what}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> NCPolynomial:
        row = self.expression()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        if any(key >> 1 > _SQRT_MAX for _, key in row[0]):  # render would not parse back
            raise ParseError(f"combined sqrt radicand exceeds {_SQRT_MAX}", 0)
        return NCPolynomial._make(row)

    def expression(self) -> Row:
        """The signed terms, combined once."""
        sign = -1 if self.peek()[0] == "-" else 1
        if self.peek()[0] in ("+", "-"):
            self.take()
        parts = [(sign, *self.term())]
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            parts.append((sign, *self.term()))
        if len(parts) == 1 and sign == 1:
            return parts[0][1:]
        return combine_terms(parts)

    def term(self) -> Row:
        """Factors joined by "*" or whitespace: "S1 S2" is a product."""
        row = None  # the product up to the last grouped factor, if any
        num, den, key, word = 1, 1, KEY_ONE, ()  # times this monomial
        position = None  # where the product by the next factor is refused: none for the first
        while True:
            f = self.factor()
            if position is not None:
                size = (1 if row is None else len(row[0])) * (num != 0)
                _admit_product(size * (len(f[0]) if len(f) == 2 else f[0] != 0), position)
            if len(f) == 2:  # a grouped factor's row
                left = _times_monomial(row, num, den, key, word)
                row = f if left is None else _row_product(left, f)
                num, den, key, word = 1, 1, KEY_ONE, ()
            else:
                n, d, k, w = f
                if k != KEY_ONE:
                    g, key = key_product(key, k)
                    n *= g
                num, den, word = num * n, den * d, word + w
            tok = self.peek()
            if tok[0] == "*":
                self.take()
            elif tok[0] not in _FACTOR_START:
                return _times_monomial(row, num, den, key, word) or _ONE
            position = tok[2]

    def factor(self) -> Row | tuple[int, int, int, Word]:
        """A grouped factor's row, or a monomial (num, den, key, word)."""
        tok = self.peek()
        kind = tok[0]
        if kind == "INT":
            return self.rational()
        if kind == "NAME":
            return self.letters() if tok[1] in _GENERATORS else self.atom()
        if kind == "(":
            self.take()
            row = self.expression()
            self.take(")")
            return row
        if kind == "{":
            return self.symmetric_braces()
        if kind == "[":
            self.take()
            a = self.expression()
            self.take(",")
            b = self.expression()
            self.take("]")
            _admit_product(len(a[0]) * len(b[0]), tok[2])
            return combine_terms([(1, *_row_product(a, b)), (-1, *_row_product(b, a))])
        what = f"{tok[1]!r}" if kind != "EOF" else "end of input"
        raise ParseError(f"expected a factor, found {what}", tok[2])

    def integer(self) -> tuple[int, int]:
        """An INT token's value and position."""
        tok = self.take("INT")
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(f"integer of {len(tok[1])} digits exceeds this interpreter's limit of "
                             f"{sys.get_int_max_str_digits()} digits", tok[2]) from None

    def rational(self) -> tuple[int, int, int, Word]:
        num, den = self.integer()[0], 1
        if self.peek()[0] == "/":
            self.take()
            den, position = self.integer()
            if den == 0:
                raise ParseError("zero denominator", position)
        return num, den, KEY_ONE, ()

    def letters(self) -> tuple[int, int, int, Word]:
        """A run of generators joined by "*" or whitespace, as one word; a
        "*" not followed by a generator is left to ``term``."""
        word = []
        while True:
            word.append(_GENERATORS[self.take()[1]])
            k = self.k + (self.tokens[self.k][0] == "*")
            kind, name, _ = self.tokens[k]
            if kind != "NAME" or name not in _GENERATORS:
                return 1, 1, KEY_ONE, tuple(word)
            self.k = k

    def atom(self) -> tuple[int, int, int, Word]:
        tok = self.take("NAME")
        name = tok[1]
        if name == "I":
            return 1, 1, KEY_ONE, ()
        if name == "i":
            return 1, 1, KEY_I, ()
        if name == "sqrt":
            self.take("(")
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            m, position = self.integer()
            m *= sign
            self.take(")")
            if m <= 0:
                raise ParseError("sqrt of non-positive integer", position)
            if m > _SQRT_MAX:
                raise ParseError(f"sqrt argument exceeds {_SQRT_MAX}", position)
            c, sf = squarefree_decompose(m)  # sqrt(m) = c sqrt(sf), basis key 2 sf
            return c, 1, 2 * sf, ()
        raise ParseError(f"unknown atom {name!r}", tok[2])

    def symmetric_braces(self) -> Row:
        open_tok = self.take("{")
        letters = []
        while True:
            tok = self.peek()
            if tok[0] == "}":
                self.take()
                break
            if tok[0] == "*":
                self.take()
                continue
            if tok[0] == "NAME" and tok[1] in _GENERATORS:
                self.take()
                letters.append(_GENERATORS[tok[1]])
                continue
            what = f"{tok[1]!r}" if tok[0] != "EOF" else "end of input"
            raise ParseError(
                f"symmetric braces admit only S1, S2, S3; found {what}", tok[2]
            )
        if not letters:
            raise ParseError("empty symmetric braces", open_tok[2])
        orderings = factorial(len(letters)) // prod(factorial(letters.count(a)) for a in (1, 2, 3))
        if orderings > _MAX_WORDS:
            raise ParseError(f"symmetric braces of {orderings} orderings refused: over {_MAX_WORDS} words",
                             open_tok[2])
        return sym_words(tuple(letters))._row


def _times_monomial(row: Row | None, num: int, den: int, key: int, word: Word) -> Row | None:
    """row times the monomial num/den basis(key) word, its row reduced by
    one gcd, where no row is 1: still none when the monomial is 1 too."""
    if num == den and key == KEY_ONE and not word:
        return row
    g = gcd(num, den)
    mono = ({(word, key): num // g}, den // g) if num else ({}, 1)
    return mono if row is None else _row_product(row, mono)


def _row_product(a: Row, b: Row) -> Row:
    """The product of two word rows: words concatenated, keys multiplied."""
    (a, da), (b, db) = a, b
    if db == 1 and len(b) == 1:
        ((w2, k2), n2), = b.items()
        if k2 == KEY_ONE and n2 == 1:  # times one word: cells map one to one, the row stays reduced
            return {(w1 + w2, k1): n1 for (w1, k1), n1 in a.items()}, da
    out: Terms = {}
    for (w1, k1), n1 in a.items():
        for (w2, k2), n2 in b.items():
            f, key = key_product(k1, k2)
            t = (w1 + w2, key)
            out[t] = out.get(t, 0) + f * n1 * n2
    return reduce_terms(out, da * db)


def _admit_product(n: int, position: int) -> None:
    """Refuse a product whose factors' term counts multiply to n past the bound."""
    if n > _MAX_WORDS:
        raise ParseError(f"product of up to {n} terms refused: over {_MAX_WORDS} words", position)


def parse(text: str) -> NCPolynomial:
    """Parse the plain expression grammar into an NCPolynomial.

    Terms are separated by +/-, factors by '*' or whitespace.  Atoms:
    S1 S2 S3, I, i, integers (decimal digits, at most the interpreter's
    digit limit), rationals p/q, sqrt(m), symmetric braces
    { S1 S2 ... }, commutators [A, B]; parentheses group.  Radicands, also
    of the products of roots in the result, are at most 10^12, and
    expansions at most 10^5 words (``_MAX_WORDS``).
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


def sym_words(letters: tuple[int, ...]) -> NCPolynomial:
    """Symmetric product of generator letters, expanded into its word sum:
    the sum over all n! orderings, so each distinct ordering appears once
    with coefficient prod_a c_a! for letter counts c."""
    coeff = prod(factorial(letters.count(a)) for a in (1, 2, 3))
    w = sorted(letters)
    out: Terms = {}
    while True:  # the distinct orderings in lexicographic order
        out[(tuple(w), KEY_ONE)] = coeff
        k = len(w) - 2
        while k >= 0 and w[k] >= w[k + 1]:
            k -= 1
        if k < 0:
            return NCPolynomial._make((out, 1))
        j = len(w) - 1
        while w[j] <= w[k]:
            j -= 1
        w[k], w[j] = w[j], w[k]
        w[k + 1 :] = reversed(w[k + 1 :])


# ---------------------------------------------------------------------------
# Rewriting
#
# The rewriter works on the rows of NCPolynomial, cells (word, key), and
# combines them by scalar.combine_terms like the cells of a matrix row.
# Commutators bring in +-i and the identity rational coefficients, so the
# rows the fold builds from the unit only have the keys KEY_ONE and KEY_I;
# a word's coefficient enters as part weights where its word meets others,
# and its radicand once, at the end (_fold).
# Ordered forms and capped steps are both tables of steps (``_Steps``), and
# a table is its algebra's right multiplication (``spinrep.Times``), like
# ``matrix_algebra``'s: one fold and one SymSession serve every algebra.


class _Steps(dict):
    """``steps[u, a]`` is the row of u S_a, for an ordered word u and a
    letter a, in some algebra of ordered words.  A missing entry is built on
    first use, by build(u, a), and stored once it is complete; it is never
    changed after.

    Called on parts (w, row, a), a table is that algebra's right
    multiplication (``spinrep.Times``): sum w * row * S_a, each cell (u, k)
    of a row replaced by basis(k) steps[u, a], all combined at once; axis 0
    stands for the unit, so a part (w, row, 0) adds w * row itself.  Rows a
    table multiplies only carry the keys of 1 and i, so a key-i cell turns
    its entry's keys as it adds it: 1 to i, and i to 1 negated.  One part
    of one cell of coefficient 1 times a letter, a fold step's usual case,
    is a read that returns the stored entry itself.  Other cells are added
    in one pass, each entry read once, over the lcm of the denominators met
    so far, and reduced once."""

    def __init__(self, build: Callable[[Word, int], Row]):
        super().__init__()
        self.build = build

    def __missing__(self, key: tuple[Word, int]) -> Row:
        entry = self[key] = self.build(*key)
        return entry

    def __call__(self, parts: Sequence[Part]) -> Row:
        if len(parts) == 1 and parts[0][2] and len(parts[0][1][0]) == 1:  # one cell times a letter: a read
            w, (terms, den), a = parts[0]
            ((u, k), n), = terms.items()
            if k == KEY_ONE and w * n == 1 and den == 1:
                return self[u, a]
        out: Terms = {}
        den = 1  # the lcm of the denominators so far; out is over it
        for w, (terms, d0), a in parts:
            for (u, k), n in terms.items():
                t, d = self[u, a] if a else ({(u, KEY_ONE): 1}, 1)  # axis 0: the row itself
                d *= d0
                if den % d:
                    m = lcm(den, d)
                    s = m // den
                    for c in out:
                        out[c] *= s
                    den = m
                f = w * n * (den // d)
                if k == KEY_ONE:
                    for c, v in t.items():
                        out[c] = out.get(c, 0) + f * v
                else:  # i times the entry: j ^ 1 turns the key of 1 into that of i and back
                    for (v, j), m in t.items():
                        c = v, j ^ 1
                        out[c] = out.get(c, 0) + (f if j == KEY_ONE else -f) * m
        return reduce_terms(out, den)


def _ordered_form(u: Word, a: int, forms: _Steps) -> Row:
    """Ordered form of u S_a for an ordered word u, with Gaussian-integer
    coefficients: S_a is inserted into u.  If u = v S_b with b > a, the
    commutation relation S_b S_a = S_a S_b + i eps_bal S_l (the unique
    l != a, b) gives NF(u S_a) = NF(v S_a) S_b + eps_bal (i v) S_l, one
    product through the table of ordered forms (``_forms``).  The prefixes
    of u are done first, shortest first, so the recursion on v finds them in
    the table, and the nested product by S_b only inserts larger letters:
    the Python stack stays flat however long u is."""
    if not u or u[-1] <= a:
        return {(u + (a,), KEY_ONE): 1}, 1
    for k in range(u.count(1), len(u)):  # 1^k S_c and u[:k] S_3 need no reordering
        for c in (1, 2):
            forms[u[:k], c]
    v, b, l = u[:-1], u[-1], 6 - a - u[-1]
    return forms([(1, forms[v, a], b), (epsilon(b, a, l), ({(v, KEY_I): 1}, 1), l)])


def _forms() -> _Steps:
    """An empty table of ordered forms: forms[u, a] = NF(u S_a)."""
    forms = _Steps(lambda u, a: _ordered_form(u, a, forms))
    return forms


def _fold(p: NCPolynomial, unit: Row, times: Times) -> Row:
    """The value of p in an algebra given by its unit and right
    multiplication (``spinrep.Times``), as a row of that algebra.

    A coefficient is (a + b i) sqrt(m) for integers a, b and a squarefree
    radicand m.  The words of one radicand and one last letter are summed
    by Horner's rule over their shared suffixes (``_horner``), with rows of
    the keys of 1 and i only; each sum is multiplied by sqrt(m) once, and
    all are combined over p's denominator in one pass."""
    terms, den = p._row
    groups: dict[tuple[int, int], dict[Word, list[int]]] = {}  # (m, last letter) -> word -> [a, b]
    for (w, key), n in terms.items():
        groups.setdefault((key >> 1, w[-1] if w else 0), {}).setdefault(w, [0, 0])[key & 1] = n
    parts = []
    for (m, _), coefficients in groups.items():
        for c, (cells, d), _ in _horner(coefficients, unit, times):
            parts.append((c, cells if m == 1 else times_key(cells, 2 * m), d * den))
    return combine_terms(parts)


def _horner(coefficients: dict[Word, list[int]], unit: Row, times: Times) -> list[Part]:
    """The sum of (a + b i) w over coefficients {w: [a, b]}, in the algebra
    of unit and times, as parts (c, row, 0) whose weighted rows add up to it.

    Horner's rule on the trie of reversed words.  A group of several words
    sharing their last letters s is, before s, n_0 (the coefficient of the
    word s itself, if any) plus sum_x P_x S_x, P_x the sum of what precedes
    x s in the words that have the letter x there.  Its value is one fused
    call times([(n_0, unit, 0), (1, P_x, x), ...]) at that branch point,
    each P_x a group found the same way, followed by the letters of s one
    at a time.  A group of one word is folded letter by letter from the
    unit, and its coefficient enters its branch point as the part weights
    of (a, row) and (b, i row).  Branch points wait on an explicit stack,
    so the Python stack stays flat however long the words."""
    done: list[Part] = []
    # Branch points (x, end, s, groups, parts): reached by the letter x (0 for the word that
    # is all suffix), their words share their last end letters, the last s of them peeled
    # there; the groups still to evaluate, and the parts found.  The base takes the whole sum.
    stack = [(0, 0, (), [(0, list(coefficients))], done)]
    while True:
        axis, end, suffix, groups, parts = stack[-1]
        if groups:
            x, words = groups.pop()
            depth = end + (x != 0)  # the words share their last depth letters
            if len(words) == 1:  # a lone word, letter by letter
                w = words[0]
                row = unit
                for a in w[: len(w) - depth]:
                    row = times([(1, row, a)])
                re, im = coefficients[w]
                if re:
                    parts.append((re, row, x))
                if im:
                    parts.append((im, (times_key(row[0], KEY_I), row[1]), x))
                continue
            stop = depth  # a branch point: peel the common suffix, group by the letter before it
            while True:
                by_letter: dict[int, list[Word]] = {}
                for w in words:
                    by_letter.setdefault(w[-1 - stop] if len(w) > stop else 0, []).append(w)
                if len(by_letter) > 1:  # at most one word is all suffix, so one group is a shared letter
                    break
                stop += 1
            w = words[0]
            stack.append((x, stop, w[len(w) - stop : len(w) - depth], list(by_letter.items()), []))
            continue
        if len(stack) == 1:
            return done
        stack.pop()
        row = times(parts)
        for a in suffix:
            row = times([(1, row, a)])
        stack[-1][4].append((1, row, axis))


def pbw_normalize(p: NCPolynomial) -> NCPolynomial:
    """Rewrite every word to ordered (non-decreasing) letters using the
    commutation relation, inserting each letter into the ordered words
    folded so far through a table of ordered forms (``_ordered_form``).
    Dimension-independent: the result evaluates equal to the input on
    every representation.

    The table keeps one entry per ordered word and letter for the whole
    call, with no bound: (S3 S2 S1)^10 takes 0.2-0.3 s at an 11 MiB
    tracemalloc peak, (S3 S2 S1)^14 1.3 s at 49 MiB (2 cores, Python 3.11).
    ``reduce_degree`` is the path bounded by D.
    """
    return NCPolynomial._make(_fold(p, _ONE, _forms()))


def _identity_replacement(ident: Identity, u: Word, session: SymSession) -> Row:
    """The ordered form of -(1/D!) times the identity's left side at the
    ordered word u of degree D, in the session of ordered words.

    It lies in the ideal of the relations, and because (1/D!){u} orders to
    u plus lower words it is -u plus words of degree <= D-1: added to c*u
    it caps u.  Equivalently, it is the rule u -> u + this."""
    residual = ident.residual_int(session, (u.count(1), u.count(2), u.count(3)))
    terms, den = combine_terms([(Fraction(-1, factorial(ident.dim)), *residual)])
    lead = (u, KEY_ONE)
    assert terms.get(lead) == -den, f"{u} is not the leading word of its rule"
    assert all(len(w) < ident.dim for w, k in terms if (w, k) != lead), f"rule for {u} keeps degree {ident.dim}"
    return terms, den


# Rule tables of this many dimensions are kept, least recently used first out.
_TABLES = 8


class _RuleTable:
    """The rewriting rules of one dimension D, the capped steps built from
    them, and what building them needs: a SymSession over ordered words and
    the ordered forms, all kept for the table's life (``reduce_degree``
    states its bounds).  The identity (``build_identity``, memoized) is
    fetched only when a rule is built, so a table whose words stay below
    degree D never computes it.

    ``rules[v]`` is the rule of the ordered word v of degree D, at most
    C(D+2, 2) of them.  ``forms[u, a]`` is NF(u S_a) and ``capped[u, a]``
    the same with its word of degree D, if any, replaced by its rule
    (``_Steps``); below degree D-1 a capped entry is the ordered form
    itself.  The fold multiplies through ``capped``, the session through
    ``forms``: each table is its algebra's ``spinrep.Times``.  The fold caps
    every step and the session builds {c} of order D from rows of order
    <= D-1, so every u either table meets is an ordered word of degree
    <= D-1; fold rows only carry the keys of 1 and i."""

    def __init__(self, dim: int):
        self.dim = dim
        self.forms = _forms()
        self.capped = _Steps(self._capped_step)
        self.rules: dict[Word, Row] = {}
        self.session = SymSession(unit=_ONE, times=self.forms)

    def _capped_step(self, u: Word, a: int) -> Row:
        """The ordered form of u S_a, the ``forms`` entry itself below
        degree D-1; at degree D-1 that form plus the rule of its one word of
        degree D, v = sorted(u + (a,)), which has coefficient 1."""
        form = self.forms[u, a]
        if len(u) < self.dim - 1:
            return form
        v = tuple(sorted(u + (a,)))
        if v not in self.rules:
            self.rules[v] = _identity_replacement(build_identity(self.dim), v, self.session)
        return combine_terms([(1, *form), (1, *self.rules[v])])


@lru_cache(maxsize=_TABLES)
def _rule_table(dim: int) -> _RuleTable:
    return _RuleTable(dim)


def reduce_degree(p: NCPolynomial, dim: int) -> NormalForm:
    """Canonical form on dimension D: ordered words of degree <= D-1.

    The words are folded by Horner's rule over their shared suffixes
    (``_fold``): NF(P S_a) = cap(order(NF(P) S_a)), where P is a single
    word or the sum of the words' parts before a suffix they share, so a
    suffix is multiplied in once for all the words that end in it.  NF(P)
    has degree <= D-1, so the ordering only moves one letter into an
    ordered word.  cap replaces every ordered word u of degree D by its
    rule, the ordered form of u - (1/D!) (the identity's left side at u),
    of degree <= D-1 (``_identity_replacement``).  The rules form a table
    of at most C(D+2, 2) entries, built on demand from the symmetric
    products of a SymSession over ordered words.  Both maps are linear, so a step is the
    product of its row through the table of capped steps NF(u S_a), each
    built once, on first use (``_Steps``).
    Arithmetic is in Gaussian integers over a common denominator; a word's
    coefficient enters as the part weights where its word meets others,
    its radicand once, at the end (``_fold``).

    Capped steps, rules, products and ordered forms live in one table per
    dimension (``_RuleTable``), shared by every reduction at that D for the
    life of the process; the tables of the ``_TABLES`` = 8 most recently
    used dimensions are kept.  A table holds at most 3 C(D+2, 3) ordered
    forms, one per ordered word and letter, as many capped steps, which
    below degree D-1 are the ordered forms themselves, and C(D+2, 2) rules
    whatever its inputs, and
    threads may reduce at one D together: a stored entry is never changed,
    so a race at worst computes one twice, with equal values.

    The result does not depend on the order of the rewriting steps.  Every
    step changes its argument by an element of the two-sided ideal J of the
    commutation relations and the D-identity.  The identity holds on
    V_D, V_{D-2}, ..., so the free algebra modulo J maps onto the sum of
    End(V_{D-2k}), of dimension sum_k (D-2k)^2 = C(D+2, 3): the number of
    ordered words of degree <= D-1.  Those words span the quotient (this
    reducer shows it), which is at least that large, so they are a basis
    of it: no nonzero combination of them lies in J, and the normal form
    is the unique such combination congruent to the input.
    """
    if dim < 2:
        raise ValueError("reduction requires dimension >= 2")
    return NormalForm(NCPolynomial._make(_fold(p, _ONE, _rule_table(dim).capped)), dim)


def evaluate(
    p: NCPolynomial | NormalForm,
    rep: SpinRep,
    cache: dict | None = None,
) -> Matrix:
    """Exact matrix value of the polynomial on a representation: its words
    folded by ``_fold`` in the rows of rep's matrices (``matrix_algebra``).

    ``cache`` is accepted and left untouched: that algebra is the
    generators' rows and an identity row, so there is nothing to keep.
    """
    if isinstance(p, NormalForm):
        p = p.poly
    return Matrix._make(rep.dim, _fold(p, *matrix_algebra(rep)))


# ---------------------------------------------------------------------------
# Printing


def _latex_word(w: Word) -> str:
    parts = []
    for a, run in itertools.groupby(w):
        n = len(list(run))
        parts.append(f"S_{{{a}}}" if n == 1 else f"S_{{{a}}}^{{{n}}}")
    return " ".join(parts)


def _term(w: Word, comps: list[tuple[int, int, int, bool]], latex: bool) -> tuple[int, str]:
    """(sign, body) of one term; the sign goes outside the body when it can."""
    word, sep = (_latex_word(w), " ") if latex else ("*".join(f"S{a}" for a in w), "*")
    tail = sep + word if w else ""
    if len(comps) > 1:
        c = render_components(comps, latex=latex)
        return 1, (f"\\left( {c} \\right)" if latex else f"({c})") + tail
    (n, d, m, imag) = comps[0]
    sign = -1 if n < 0 else 1
    if abs(n) == 1 and d == 1 and m == 1 and not imag:
        if w:
            return sign, word
        if latex:
            return sign, "\\mathbbm{1}"
    return sign, render_components([(abs(n), d, m, imag)], latex=latex) + tail


def _graded_terms(p: NCPolynomial | NormalForm) -> list[tuple[Word, list[tuple[int, int, int, bool]]]]:
    """(word, coefficient components) in graded-lexicographic order: the
    highest degree first, lexicographic within a degree."""
    if isinstance(p, NormalForm):
        p = p.poly
    return sorted(((w, c) for (w,), c in row_components(p._row).items()), key=lambda wc: (-len(wc[0]), wc[0]))


def render(
    p: NCPolynomial | NormalForm, fmt: Literal["plain", "latex"] = "plain"
) -> str:
    """Deterministic rendering in graded-lexicographic term order; the
    plain format round-trips through parse()."""
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format {fmt!r}: use 'plain' or 'latex'")
    terms = _graded_terms(p)
    if not terms:
        return "0"
    pieces = []
    for w, comps in terms:
        sign, body = _term(w, comps, fmt == "latex")
        if not pieces:
            pieces.append("-" + body if sign < 0 else body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def to_json_dict(p: NCPolynomial | NormalForm) -> dict:
    """{"terms": [{"word": [...], "coeff": "..."}, ...]} in graded-lex order."""
    return {"terms": [{"word": list(w), "coeff": render_components(c)} for w, c in _graded_terms(p)]}

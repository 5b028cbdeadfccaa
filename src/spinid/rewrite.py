"""Spin-operator expressions: parsing, PBW ordering, and degree capping.

Expressions are noncommutative polynomials in the letters S1, S2, S3 with
exact Scalar coefficients.  The canonical form for dimension D keeps only
ordered words S1^a S2^b S3^c of total degree <= D-1: the commutation
relation orders the letters, and the dimension-D reduction identity caps
the degree.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Literal, Mapping, Union

from .charid import Identity, build_identity
from .scalar import SCALAR_ONE, Scalar, render_components
from .spinrep import Matrix, SpinRep
from .symalg import IndexMultiset, delta_weights, epsilon

Word = tuple[int, ...]
ScalarLike = Union[Scalar, Fraction, int]


def _as_scalar(c: ScalarLike) -> Scalar:
    return c if isinstance(c, Scalar) else Scalar.of(c)


def _grlex(w: Word) -> tuple[int, Word]:
    # Graded order, leading (highest-degree) words first, lex within a grade.
    return (-len(w), w)


class NCPolynomial:
    """Linear combination of words over {S1, S2, S3}; the empty word is
    the identity operator.  No zero coefficients are ever stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, ScalarLike] | None = None):
        clean: dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                if any(a not in (1, 2, 3) for a in w):
                    raise ValueError(f"word {w} has letters outside {{1, 2, 3}}")
                c = _as_scalar(c)
                if not c.is_zero():
                    prev = clean.get(w)
                    s = c if prev is None else prev + c
                    if s.is_zero():
                        clean.pop(w, None)
                    else:
                        clean[w] = s
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[Word, Scalar]) -> "NCPolynomial":
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls._make({(): SCALAR_ONE})

    @classmethod
    def generator(cls, axis: int) -> "NCPolynomial":
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2 or 3")
        return cls._make({(axis,): SCALAR_ONE})

    @classmethod
    def scalar(cls, c: ScalarLike) -> "NCPolynomial":
        c = _as_scalar(c)
        return cls._make({(): c} if not c.is_zero() else {})

    def terms(self) -> dict[Word, Scalar]:
        return dict(self._terms)

    def coefficient(self, w: Word) -> Scalar:
        return self._terms.get(tuple(w), Scalar.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Length of the longest word (0 for scalars and for the zero
        polynomial)."""
        return max((len(w) for w in self._terms), default=0)

    def __iter__(self) -> Iterator[tuple[Word, Scalar]]:
        return iter(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> "NCPolynomial":
        return NCPolynomial._make({w: -c for w, c in self._terms.items()})

    def __add__(self, other: "NCPolynomial") -> "NCPolynomial":
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for w, c in other._terms.items():
            prev = out.get(w)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return NCPolynomial._make(out)

    def __sub__(self, other: "NCPolynomial") -> "NCPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["NCPolynomial", ScalarLike]) -> "NCPolynomial":
        if isinstance(other, (Scalar, Fraction, int)):
            return self.scale(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out: dict[Word, Scalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                prev = out.get(w)
                s = c if prev is None else prev + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return NCPolynomial._make(out)

    def __rmul__(self, other: ScalarLike) -> "NCPolynomial":
        if isinstance(other, (Scalar, Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: ScalarLike) -> "NCPolynomial":
        c = _as_scalar(c)
        if c.is_zero():
            return NCPolynomial._make({})
        return NCPolynomial._make({w: c * x for w, x in self._terms.items()})

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"NCPolynomial({render(self)})"


@dataclass(frozen=True)
class NormalForm:
    """An NCPolynomial in canonical shape for dimension D: every word
    ordered (non-decreasing letters) with degree <= D-1."""

    poly: NCPolynomial
    dim: int

    def __post_init__(self) -> None:
        for w in self.poly._terms:
            if len(w) > self.dim - 1:
                raise ValueError(f"word {w} exceeds degree {self.dim - 1}")
            if any(w[k] > w[k + 1] for k in range(len(w) - 1)):
                raise ValueError(f"word {w} is not ordered")

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
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
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
_FACTOR_START = {"INT", "NAME", "(", "{", "["}


class _Parser:
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
        p = self.expression()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expression(self) -> NCPolynomial:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term().scale(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def term(self) -> NCPolynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.take()
                acc = acc * self.factor()
            elif tok[0] in _FACTOR_START:
                # whitespace juxtaposition: "S1 S2" is a product
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> NCPolynomial:
        tok = self.peek()
        kind = tok[0]
        if kind == "INT":
            return NCPolynomial.scalar(self.rational())
        if kind == "NAME":
            return self.atom()
        if kind == "(":
            self.take()
            p = self.expression()
            self.take(")")
            return p
        if kind == "{":
            return self.symmetric_braces()
        if kind == "[":
            self.take()
            a = self.expression()
            self.take(",")
            b = self.expression()
            self.take("]")
            return a * b - b * a
        what = f"{tok[1]!r}" if kind != "EOF" else "end of input"
        raise ParseError(f"expected a factor, found {what}", tok[2])

    def rational(self) -> Fraction:
        num = int(self.take("INT")[1])
        if self.peek()[0] == "/":
            self.take()
            tok = self.take("INT")
            den = int(tok[1])
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            return Fraction(num, den)
        return Fraction(num)

    def atom(self) -> NCPolynomial:
        tok = self.take("NAME")
        name = tok[1]
        if name in _GENERATORS:
            return NCPolynomial.generator(_GENERATORS[name])
        if name == "I":
            return NCPolynomial.one()
        if name == "i":
            return NCPolynomial.scalar(Scalar.i())
        if name == "sqrt":
            self.take("(")
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            itok = self.take("INT")
            m = sign * int(itok[1])
            self.take(")")
            if m <= 0:
                raise ParseError("sqrt of non-positive integer", itok[2])
            return NCPolynomial.scalar(Scalar.sqrt_int(m))
        raise ParseError(f"unknown atom {name!r}", tok[2])

    def symmetric_braces(self) -> NCPolynomial:
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
        return sym_words(tuple(letters))


def parse(text: str) -> NCPolynomial:
    """Parse the plain expression grammar into an NCPolynomial.

    Terms are separated by +/-, factors by '*' or whitespace.  Atoms:
    S1 S2 S3, I, i, integers, rationals p/q, sqrt(m), symmetric braces
    { S1 S2 ... }, commutators [A, B]; parentheses group.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


def sym_words(letters: tuple[int, ...]) -> NCPolynomial:
    """Symmetric product of generator letters, eagerly expanded into its
    n!-term word sum (repeated letters counted once per ordering)."""
    out: dict[Word, Scalar] = {}
    for perm in itertools.permutations(letters):
        prev = out.get(perm)
        out[perm] = SCALAR_ONE if prev is None else prev + SCALAR_ONE
    return NCPolynomial._make(out)


# ---------------------------------------------------------------------------
# Rewriting


def _ordered_form(w: Word, memo: dict[Word, dict[Word, Scalar]]) -> dict[Word, Scalar]:
    cached = memo.get(w)
    if cached is not None:
        return cached
    swap = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
    if swap is None:
        res = {w: SCALAR_ONE}
    else:
        # S_j S_i = S_i S_j - i eps_ijl S_l for the unique l != i, j.
        j, i = w[swap], w[swap + 1]
        l = 6 - i - j
        coeff = Scalar(0, -epsilon(i, j, l))
        res = dict(_ordered_form(w[:swap] + (i, j) + w[swap + 2 :], memo))
        for w2, c2 in _ordered_form(w[:swap] + (l,) + w[swap + 2 :], memo).items():
            c = coeff * c2
            prev = res.get(w2)
            s = c if prev is None else prev + c
            if s.is_zero():
                res.pop(w2, None)
            else:
                res[w2] = s
    memo[w] = res
    return res


def pbw_normalize(p: NCPolynomial) -> NCPolynomial:
    """Rewrite every word to ordered (non-decreasing) letters using the
    commutation relation on the leftmost out-of-order pair.

    Dimension-independent: the result evaluates equal to the input on
    every representation.
    """
    memo: dict[Word, dict[Word, Scalar]] = {}
    out: dict[Word, Scalar] = {}
    for w, c in p._terms.items():
        for w2, c2 in _ordered_form(w, memo).items():
            x = c * c2
            prev = out.get(w2)
            s = x if prev is None else prev + x
            if s.is_zero():
                out.pop(w2, None)
            else:
                out[w2] = s
    return NCPolynomial._make(out)


def _identity_replacement(ident: Identity, letters: Word) -> NCPolynomial:
    """(1/D!)(R - {letters}) for D sorted letters, R being {letters} after
    one application of the identity (degree <= D-2): added to any ordering
    of the letters, it swaps that word's symmetric part for R."""
    counts = IndexMultiset.from_tuple(letters).counts
    inv = Fraction(1, factorial(ident.dim))
    terms = [(letters, -inv)]  # R = -sum_p b_p sum_rest w {rest}
    for p, b_p in enumerate(ident.b, start=1):
        terms += [(r.letters(), -inv * b_p * w) for r, w in delta_weights(counts, p).items()]
    # the multisets differ, so no word comes from two terms
    return NCPolynomial({
        perm: c * n for sym, c in terms for perm, n in Counter(itertools.permutations(sym)).items()
    })


def reduce_degree(p: NCPolynomial, dim: int) -> NormalForm:
    """Canonical form on dimension D: PBW-order, then repeatedly cap any
    word of degree >= D.

    A high word w = u v (u the first D letters) is split as
    u = (1/D!){u} + (u - (1/D!){u}); the symmetric part is replaced through
    the reduction identity (degree <= D-2) and the remainder PBW-normalizes
    to degree < D because all orderings of u share the same leading ordered
    word.  The maximal degree strictly decreases, so this terminates.
    """
    if dim < 2:
        raise ValueError("reduction requires dimension >= 2")
    ident = build_identity(dim)
    memo: dict[Word, dict[Word, Scalar]] = {}
    cur = pbw_normalize(p)._terms.copy()
    repl_cache: dict[Word, NCPolynomial] = {}
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
            repl_cache[sorted_u] = _identity_replacement(ident, sorted_u)
        # c * u v  ->  c * [ u + (1/D!)(R - {u}) ] v
        chunk: dict[Word, Scalar] = {w: SCALAR_ONE}
        for wq, cq in repl_cache[sorted_u]._terms.items():
            _accumulate(chunk, wq + v, cq)
        for wq, cq in chunk.items():
            for w2, c2 in _ordered_form(wq, memo).items():
                _accumulate(cur, w2, c * cq * c2)
        cur = {w2: c2 for w2, c2 in cur.items() if not c2.is_zero()}
    return NormalForm(NCPolynomial._make(cur), dim)


def _accumulate(terms: dict[Word, Scalar], w: Word, c: Scalar) -> None:
    prev = terms.get(w)
    s = c if prev is None else prev + c
    if s.is_zero():
        terms.pop(w, None)
    else:
        terms[w] = s


def evaluate(
    p: NCPolynomial | NormalForm,
    rep: SpinRep,
    cache: dict[Word, Matrix] | None = None,
) -> Matrix:
    """Exact matrix value of the polynomial on a representation.

    ``cache`` optionally shares word-product matrices between calls on the
    same representation; the caller owns it.
    """
    if isinstance(p, NormalForm):
        p = p.poly
    if cache is None:
        cache = {}

    def product(w: Word) -> Matrix:
        m = cache.get(w)
        if m is None:
            m = Matrix.identity(rep.dim) if not w else product(w[:-1]) * rep.matrix(w[-1])
            cache[w] = m
        return m

    total = Matrix.zero(rep.dim)
    for w, c in p._terms.items():
        total = total + product(w).scale(c)
    return total


# ---------------------------------------------------------------------------
# Printing


def _plain_term(w: Word, c: Scalar) -> tuple[int, str]:
    """Return (sign, body) with sign applied externally when possible."""
    comps = c._component_list()
    letters = "*".join(f"S{a}" for a in w)
    if len(comps) > 1:
        body = f"({c})"
        return 1, body + ("*" + letters if w else "")
    (coef, m, imag) = comps[0]
    sign = -1 if coef < 0 else 1
    if w and abs(coef) == 1 and m == 1 and not imag:
        return sign, letters
    body = render_components([(abs(coef), m, imag)])
    if w:
        body += "*" + letters
    return sign, body


def _latex_word(w: Word) -> str:
    parts = []
    for a, run in itertools.groupby(w):
        n = len(list(run))
        parts.append(f"S_{{{a}}}" if n == 1 else f"S_{{{a}}}^{{{n}}}")
    return " ".join(parts)


def _latex_term(w: Word, c: Scalar) -> tuple[int, str]:
    comps = c._component_list()
    word = _latex_word(w)
    if len(comps) > 1:
        body = f"\\left( {c.latex()} \\right)"
        return 1, body + (" " + word if w else "")
    (coef, m, imag) = comps[0]
    sign = -1 if coef < 0 else 1
    trivial = abs(coef) == 1 and m == 1 and not imag
    if w and trivial:
        return sign, word
    if not w and trivial:
        return sign, "\\mathbbm{1}"
    body = render_components([(abs(coef), m, imag)], latex=True)
    if w:
        body += " " + word
    return sign, body


def render(
    p: NCPolynomial | NormalForm, fmt: Literal["plain", "latex"] = "plain"
) -> str:
    """Deterministic rendering in graded-lexicographic term order; the
    plain format round-trips through parse()."""
    if isinstance(p, NormalForm):
        p = p.poly
    if p.is_zero():
        return "0"
    pieces = []
    term = _plain_term if fmt == "plain" else _latex_term
    for w in sorted(p._terms, key=_grlex):
        sign, body = term(w, p._terms[w])
        if not pieces:
            pieces.append("-" + body if sign < 0 else body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def to_json_dict(p: NCPolynomial | NormalForm) -> dict:
    """{"terms": [{"word": [...], "coeff": "..."}, ...]} in graded-lex order."""
    if isinstance(p, NormalForm):
        p = p.poly
    return {
        "terms": [
            {"word": list(w), "coeff": str(p._terms[w])}
            for w in sorted(p._terms, key=_grlex)
        ]
    }

"""The four workloads: their seeded inputs, one timed operation each, and
the checks on what the program returned.

Every workload fixes the shape of its inputs (dimensions, degrees, kinds
of check, counts) and lets the seed choose only values inside that shape,
so the work per pass hardly depends on the seed.  Checks compare against
`oracle` or against properties the method must have, never against stored
output.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


class Op:
    """One operation: `args` feed the timed call, `meta` the checks."""

    def __init__(self, label: str, args: tuple, **meta):
        self.label = label
        self.args = args
        self.meta = meta


def dense_similarity(dim: int):
    """A fixed dense integer matrix L*U (unit diagonals, +-1 elsewhere),
    invertible over the integers."""
    import spinid as sp

    lower = [[1 if r == c else (-1) ** (r + c) if r > c else 0 for c in range(dim)] for r in range(dim)]
    upper = [[1 if r == c else (-1) ** (r * c) if r < c else 0 for c in range(dim)] for r in range(dim)]
    return sp.Matrix.from_rational_rows(lower) * sp.Matrix.from_rational_rows(upper)


def seeded_similarity(dim: int, rng: random.Random):
    """A seeded signed permutation times `dense_similarity`: the seed picks
    the basis, while the size of the numbers, and so the work, stays put."""
    import spinid as sp

    perm = list(range(dim))
    rng.shuffle(perm)
    signed = [[rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(dim)] for r in range(dim)]
    return sp.Matrix.from_rational_rows(signed) * dense_similarity(dim)


# ---------------------------------------------------------------------------
# verify


class Verify:
    """build_identity + verify_identity; one verdict per operation."""

    name = "verify"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        ops: list[Op] = []

        def add(kind, d, r, mode="exhaustive", count=None, sseed=None, conj=False):
            ops.append(Op(f"{kind} D={d} R={r} {mode}{' conjugated' if conj else ''}", (d, r, mode, count, sseed, conj),
                          kind=kind, holds=kind != "minimality"))

        if smoke:
            add("own", 3, 3)
            add("nesting", 4, 2)
            add("minimality", 2, 4)
            add("own", 3, 3, conj=True)
            add("nesting", 10, 2, "sampled", 1, rng.randrange(10**6))
        else:
            for d in range(2, 8):
                add("own", d, d)
            for d, r in ((3, 1), (4, 2), (5, 3), (5, 1), (6, 4), (6, 2), (7, 3), (7, 1), (8, 2), (9, 1)):
                add("nesting", d, r)
            for d in range(2, 6):
                add("minimality", d, d + 2)
            for d in range(2, 5):
                add("own", d, d, conj=True)
            for d, r in ((4, 2), (5, 3)):
                add("nesting", d, r, conj=True)
            for d in range(2, 4):
                add("minimality", d, d + 2, conj=True)
            # Sampled checks: the seed picks the tuples.  Below D=10 the
            # sample is large enough (3^(D+1) tuples) to hit nearly every
            # multiset, so its work hardly depends on the seed.  At D >= 10
            # one tuple is drawn and checked on a small representation: on
            # its own one, the cost of one tuple ranges over 2x with the
            # multiset drawn.
            for d in (2, 3, 4, 5, 2, 3, 4):
                add("own", d, d, "sampled", 3 ** (d + 1), rng.randrange(10**6))
            for d in (2, 3, 4, 5, 2, 3):
                add("minimality", d, d + 2, "sampled", 3 ** (d + 1), rng.randrange(10**6))
            add("nesting", 10, 2, "sampled", 1, rng.randrange(10**6))
            add("nesting", 11, 1, "sampled", 1, rng.randrange(10**6))
        self.ops = ops
        self.witness_seed = rng.randrange(10**6)

    def setup(self):
        import spinid as sp

        reps = {}
        for op in self.ops:
            d, r, mode, count, sseed, conj = op.args
            key = (r, conj)
            if key not in reps:
                rep = sp.build_generators(r)
                if conj:
                    rep = sp.conjugate_rep(rep, dense_similarity(r))
                reps[key] = rep
        self.reps = reps

    def run(self, op: Op):
        import spinid as sp

        d, r, mode, count, sseed, conj = op.args
        ident = sp.build_identity(d)
        return sp.verify_identity(self.reps[(r, conj)], ident, mode=mode, count=count, seed=sseed)

    @staticmethod
    def digest(report) -> str:
        return json.dumps(report.to_json())

    def check(self, outputs: list) -> tuple[list[str], list[bool]]:
        return check_verdicts(self.ops, outputs, self.witness_seed), [False] * len(outputs)


def check_verdicts(ops: list[Op], reports: list, witness_seed: int) -> list[str]:
    """Verdicts against the theorems, tuple counts against 3^D or COUNT,
    and a seeded subsample of failure witnesses against sympy's generators."""
    problems: list[str] = []
    witnesses = []
    for op, rpt in zip(ops, reports):
        d, r, mode, count, _, conj = op.args
        expect_checked = 3**d if mode == "exhaustive" else count
        if (rpt.dim, rpt.rep_dim, rpt.mode) != (d, r, mode):
            problems.append(f"{op.label}: report is for D={rpt.dim} R={rpt.rep_dim} {rpt.mode}")
        if rpt.tuples_checked != expect_checked:
            problems.append(f"{op.label}: tuples_checked {rpt.tuples_checked}, expected {expect_checked}")
        if rpt.ok != op.meta["holds"]:
            problems.append(f"{op.label}: verdict ok={rpt.ok}, the theorem says {op.meta['holds']}")
        seen = set()
        for tup, (row, col, value) in rpt.failures:
            tup = tuple(tup)
            if len(tup) != d or any(a not in (1, 2, 3) for a in tup) or tup in seen:
                problems.append(f"{op.label}: bad failure tuple {tup}")
            if not (0 <= row < r and 0 <= col < r) or str(value) == "0":
                problems.append(f"{op.label}: bad witness {(row, col, str(value))}")
            seen.add(tup)
            if not conj:
                witnesses.append((op, tup, row, col, str(value)))
    rng = random.Random(witness_seed)
    sample = rng.sample(witnesses, min(6, len(witnesses)))
    spins: dict[int, oracle.SympySpin] = {}
    for op, tup, row, col, value in sample:
        d, r = op.args[0], op.args[1]
        if r not in spins:
            spins[r] = oracle.SympySpin(r)
        spin = spins[r]
        counts = tuple(tup.count(a) for a in (1, 2, 3))
        entries = spin.residual_row(oracle.identity_b(d), counts, row)
        if any(x != 0 for x in entries[:col]) or not spin.equal(entries[col], spin.value(value)):
            problems.append(
                f"{op.label}: witness {tup} ({row},{col}) = {value} disagrees with sympy: {entries[col]}"
            )
    return problems


# ---------------------------------------------------------------------------
# discover


class Discover:
    """discover_identity on the ladder representation and on seeded
    dense conjugations of it; one recovered identity per operation."""

    name = "discover"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        ops = []
        ladder = (2, 3) if smoke else range(2, 8)
        conjugated = {3: 1} if smoke else {2: 10, 3: 14, 4: 10}
        for d in ladder:
            ops.append(Op(f"ladder D={d}", (d, None)))
        for d, n in conjugated.items():
            for _ in range(n):
                ops.append(Op(f"conjugated D={d}", (d, rng.randrange(10**6))))
        self.ops = ops

    def setup(self):
        import spinid as sp

        reps = {}
        for op in self.ops:
            d, cseed = op.args
            rep = sp.build_generators(d)
            if cseed is not None:
                rep = sp.conjugate_rep(rep, seeded_similarity(d, random.Random(cseed)))
            reps[op.args] = rep
        self.reps = reps

    def run(self, op: Op):
        import spinid as sp

        return sp.discover_identity(self.reps[op.args])

    @staticmethod
    def digest(ident) -> str:
        return f"{ident.dim}:{[str(b) for b in ident.b]}"

    def check(self, outputs: list) -> tuple[list[str], list[bool]]:
        return check_discoveries(self.ops, outputs), [False] * len(outputs)


def check_discoveries(ops: list[Op], idents: list) -> list[str]:
    problems = []
    for op, ident in zip(ops, idents):
        d = op.args[0]
        want = oracle.identity_b(d)
        if ident.dim != d or list(ident.b) != want:
            problems.append(f"{op.label}: discovered b = {[str(b) for b in ident.b]}, expected {[str(b) for b in want]}")
    return problems


# ---------------------------------------------------------------------------
# reduce

LETTERS = ("S1", "S2", "S3")


def _balanced_word(rng: random.Random, n: int) -> str:
    # A fixed letter composition (as even as possible), seeded order.
    letters = [LETTERS[k % 3] for k in range(n)]
    rng.shuffle(letters)
    return "*".join(letters)


def _coefficient(rng: random.Random, kind: int) -> str:
    if kind == 0:
        return f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
    if kind == 1:
        return f"{rng.choice((2, 3, 5, 6, 7))}*sqrt({rng.choice((2, 3, 5, 6, 7))})"
    if kind == 2:
        return f"{rng.randint(2, 9)}*i"
    return f"({rng.randint(1, 9)}/{rng.randint(2, 9)} + {rng.randint(1, 9)}*i)"


def reduce_expression(rng: random.Random, dim: int, deg: int, kind: int) -> str:
    """One expression whose leading part has degree `deg`, shaped by `kind`:
    a word, a sqrt coefficient times a word, a commutator, or symmetric
    braces times a word; plus lower-degree terms with rational, sqrt, i and
    complex coefficients."""
    if kind == 0:
        lead = _balanced_word(rng, deg)
    elif kind == 1:
        lead = f"{_coefficient(rng, 1)}*{_balanced_word(rng, deg)}"
    elif kind == 2:
        split = max(1, deg // 2)
        lead = f"[{_balanced_word(rng, split)}, {_balanced_word(rng, deg + 1 - split)}]"
    else:
        inside = min(deg, 3)
        braces = "{" + " ".join(_balanced_word(rng, inside).split("*")) + "}"
        lead = braces if deg == inside else f"{braces}*{_balanced_word(rng, deg - inside)}"
    low = max(1, dim - 1)
    return (f"{lead} + {_coefficient(rng, kind)}*{_balanced_word(rng, low)}"
            f" - {_coefficient(rng, (kind + 1) % 4)}")


class Reduce:
    """parse -> reduce_degree -> render; one reduced expression per operation."""

    name = "reduce"
    # dimension -> degrees of the leading part; every (dimension, degree,
    # kind) slot gets COPIES seeded expressions, so that no one draw
    # weighs much in a pass.
    SHAPE = {2: (3, 4, 5), 3: (4, 5, 6), 4: (3, 4, 5, 6, 7), 5: (4, 5, 6, 7), 6: (5, 6)}
    COPIES = 3

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        shape = {2: (3,), 3: (4,)} if smoke else self.SHAPE
        self.ops = [
            Op(f"D={dim} deg={deg} kind={kind} #{copy}", (reduce_expression(rng, dim, deg, kind), dim))
            for dim, degrees in shape.items()
            for deg in degrees
            for kind in range(4)
            for copy in range(1 if smoke else self.COPIES)
        ]

    def setup(self):
        """Nothing to build: parsing is part of the operation."""

    def run(self, op: Op):
        import spinid as sp

        text, dim = op.args
        nf = sp.reduce_degree(sp.parse(text), dim)
        return nf, sp.render(nf)

    @staticmethod
    def digest(output) -> str:
        return output[1]

    def check(self, outputs: list) -> tuple[list[str], list[bool]]:
        return check_reductions(self.ops, outputs), [False] * len(outputs)


def check_reductions(ops: list[Op], outputs: list) -> list[str]:
    """Ordered words of degree <= D-1, the same operator on the D-dimensional
    representation as the input, and a fixed point of render -> parse -> reduce."""
    import spinid as sp

    problems = []
    reps: dict[int, tuple] = {}
    for op, (nf, text) in zip(ops, outputs):
        expr, dim = op.args
        if dim not in reps:
            reps[dim] = (sp.build_generators(dim), {})
        rep, cache = reps[dim]
        for word, _ in nf.poly.terms().items():
            if len(word) > dim - 1 or list(word) != sorted(word):
                problems.append(f"{op.label}: word {word} is not ordered of degree <= {dim - 1}")
        if sp.evaluate(nf, rep, cache) != sp.evaluate(sp.parse(expr), rep, cache):
            problems.append(f"{op.label}: reduced form of {expr!r} evaluates differently")
        if sp.reduce_degree(sp.parse(text), dim) != nf:
            problems.append(f"{op.label}: render -> parse -> reduce does not return the normal form")
    return problems


# ---------------------------------------------------------------------------
# cli

# Three commands that today end in a program fault; their correct outcome
# is spelled out in `_fault_outcome`.
FAULTS = ("vacuous-sample", "deep-nesting", "broken-pipe")


class Cli:
    """One `python -m spinid` subprocess per command, one at a time."""

    name = "cli"
    traced = False  # set before setup() to run the traced stand-in instead

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(seed)
        ops = []

        def add(label, argv, expect=0, **meta):
            ops.append(Op(label, tuple(argv), expect=expect, **meta))

        big = (10,) if smoke else (12, 14, 16)
        for d in big:
            add(f"identity {d} json", ["identity", str(d)], check="identity-json", dim=d)
            add(f"identity {d} latex", ["identity", str(d), "--format", "latex"], check="identity-latex", dim=d)
        if not smoke:
            d = rng.randint(5, 10)
            add(f"identity {d} integral", ["identity", str(d), "--normalization", "integral"],
                check="identity-json", dim=d, integral=True)
        for k in range(1 if smoke else 6):
            d = rng.randint(2, 8)
            fmt = "latex" if k % 3 == 2 else "json"
            add(f"gen {d} {fmt}", ["gen", str(d), "--format", fmt], check=f"gen-{fmt}", dim=d)
        for _ in range(1 if smoke else 6):
            d = rng.randint(2, 40)
            add(f"coeffs {d}", ["coeffs", str(d)], check="coeffs", dim=d)
        for _ in range(1 if smoke else 6):
            r, n = rng.randint(0, 6), rng.randint(1, 300)
            add(f"sums {r} {n}", ["sums", str(r), str(n)], check="sums", r=r, n=n)
        for k in range(1 if smoke else 8):
            d = 2 + k % 3
            text = reduce_expression(rng, d, d + 1, k % 4)
            add(f"reduce D={d}", ["reduce", text, "--dim", str(d)], check="reduce", dim=d, expr=text)
        for d in (3,) if smoke else (3, 4, 5):
            add(f"identity {d} verify", ["identity", str(d), "--verify", "exhaustive"],
                check="verify", dim=d, rep_dim=d, holds=True)
        for d in () if smoke else (4, 5):
            # As in `verify`: enough tuples to hit nearly every multiset.
            count = 3 ** (d + 1)
            add(f"identity {d} sampled", ["identity", str(d), "--verify", f"sampled:{count}:{rng.randrange(10**6)}"],
                check="verify", dim=d, rep_dim=d, holds=True, count=count)
        for d in (2,) if smoke else (2, 3, 4):
            add(f"identity {d} rep {d + 2}", ["identity", str(d), "--verify", "exhaustive", "--rep-dim", str(d + 2)],
                expect=1, check="verify", dim=d, rep_dim=d + 2, holds=False)
        add("vacuous-sample", ["identity", "3", "--verify", "sampled:0:1"], fault="vacuous-sample")
        add("deep-nesting", ["reduce", "(" * 3000 + "S1" + ")" * 3000, "--dim", "3"], fault="deep-nesting")
        add("broken-pipe", ["coeffs", "400"], fault="broken-pipe", closed_stdout=True)
        self.ops = ops
        self.trace_file = BENCH / "out" / f"cli-child-{os.getpid()}.json"

    def setup(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("PYTHONSTARTUP", None)
        if self.traced:
            env["BENCH_TRACE_OUT"] = str(self.trace_file)
            self.prefix = [sys.executable, str(BENCH / "cli_child.py")]
        else:
            self.prefix = [sys.executable, "-m", "spinid"]
        self.env = env

    def run(self, op: Op):
        argv = self.prefix + list(op.args)
        if op.meta.get("closed_stdout"):
            read_end, write_end = os.pipe()
            os.close(read_end)  # no reader from the start: the first write fails
            try:
                proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                      env=self.env, cwd=ROOT, timeout=120)
            finally:
                os.close(write_end)
            return proc.returncode, b"", proc.stderr
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def digest(output) -> str:
        code, out, err = output
        return f"{code}:{b'Traceback' in err}:{out.decode(errors='replace')}"

    def check(self, outputs: list) -> tuple[list[str], list[bool]]:
        problems: list[str] = []
        failed: list[bool] = []
        spins: dict[int, oracle.SympySpin] = {}
        for op, (code, out, err) in zip(self.ops, outputs):
            fault = op.meta.get("fault")
            if fault:
                failed.append(not _fault_outcome(fault, code, out, err))
                continue
            failed.append(False)
            text = out.decode()
            if code != op.meta["expect"]:
                problems.append(f"{op.label}: exit {code}, expected {op.meta['expect']}: {err.decode()[-300:]}")
                continue
            if b"Traceback" in err:
                problems.append(f"{op.label}: traceback on stderr")
            try:
                problems += _check_cli_output(op, text, spins)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{op.label}: malformed output ({exc!r})")
        return problems, failed


def _fault_outcome(fault: str, code: int, out: bytes, err: bytes) -> bool:
    """True when a fault command ends the way the CLI contract requires."""
    if fault == "vacuous-sample":
        return code == 2  # a verification that checks nothing must be refused
    if fault == "deep-nesting":
        return (code == 0 and out.decode().strip() == "S1") or (code == 2 and bool(err.strip()))
    if fault == "broken-pipe":
        return code != 1 and b"Traceback" not in err
    raise ValueError(fault)


def _check_cli_output(op: Op, text: str, spins: dict) -> list[str]:
    kind = op.meta["check"]
    d = op.meta.get("dim")
    problems = []
    if kind == "identity-json":
        doc = json.loads(text)
        b = oracle.identity_b(d)
        factor = lcm(*(x.denominator for x in b)) if op.meta.get("integral") else 1
        levels = doc["levels"]
        if doc["dim"] != d or len(levels) != d // 2 + 1:
            problems.append(f"{op.label}: wrong dim or level count")
        if Fraction(levels[0]["coefficient"]) != factor or levels[0]["subsets"] != [[]]:
            problems.append(f"{op.label}: wrong leading level")
        for p, level in enumerate(levels[1:], start=1):
            subsets = level["subsets"]
            if level["p"] != p or Fraction(level["coefficient"]) != b[p - 1] * factor:
                problems.append(f"{op.label}: level {p} coefficient {level['coefficient']}, expected {b[p - 1] * factor}")
            if len(subsets) != comb(d, 2 * p) or len({tuple(s) for s in subsets}) != len(subsets):
                problems.append(f"{op.label}: level {p} has {len(subsets)} subsets, expected C({d},{2 * p}) distinct")
            if any(len(s) != 2 * p or s != sorted(s) or s[0] < 1 or s[-1] > d for s in subsets):
                problems.append(f"{op.label}: level {p} has a malformed subset")
    elif kind == "identity-latex":
        if not text.rstrip().endswith("= 0"):
            problems.append(f"{op.label}: latex does not end in '= 0'")
        for p in range(1, d // 2 + 1):
            more = comb(d, 2 * p) - 1
            if more and f"({more} more similar terms)" not in text:
                problems.append(f"{op.label}: missing '({more} more similar terms)'")
    elif kind == "gen-json":
        doc = json.loads(text)
        if d not in spins:
            spins[d] = oracle.SympySpin(d)
        spin = spins[d]
        for axis in range(3):
            rows = doc[f"S{axis + 1}"]
            for r in range(d):
                for c in range(d):
                    if not spin.equal(spin.value(rows[r][c]), spin.S[axis][r, c]):
                        problems.append(f"{op.label}: S{axis + 1}[{r},{c}] = {rows[r][c]} disagrees with sympy")
    elif kind == "gen-latex":
        if text.count("\\begin{pmatrix}") != 3 or text.count("\\\\") != 3 * (d - 1):
            problems.append(f"{op.label}: latex is not three {d}x{d} matrices")
    elif kind == "coeffs":
        lines = text.splitlines()
        want_a = "a = (" + ", ".join(str(x) for x in oracle.char_poly_a(d)) + ")"
        want_b = "b = (" + ", ".join(str(x) for x in oracle.identity_b(d)) + ")"
        if lines != [want_a, want_b]:
            problems.append(f"{op.label}: coefficients differ from the eigenvalue expansion")
    elif kind == "sums":
        if Fraction(text.strip()) != oracle.power_sum(op.meta["r"], op.meta["n"]):
            problems.append(f"{op.label}: {text.strip()} != brute-force sum")
    elif kind == "reduce":
        import spinid as sp

        rep = sp.build_generators(d)
        got = sp.parse(text.strip())
        if sp.evaluate(got, rep) != sp.evaluate(sp.parse(op.meta["expr"]), rep):
            problems.append(f"{op.label}: output evaluates differently from the input")
        if got.degree() > d - 1:
            problems.append(f"{op.label}: output has degree {got.degree()}")
    elif kind == "verify":
        lines = text.splitlines()
        report = json.loads(lines[1])
        want = 3**d if "count" not in op.meta else op.meta["count"]
        if report["ok"] != op.meta["holds"] or report["tuples_checked"] != want:
            problems.append(f"{op.label}: report ok={report['ok']} tuples_checked={report['tuples_checked']}")
        if report["rep_dim"] != op.meta["rep_dim"] or bool(report["failures"]) == op.meta["holds"]:
            problems.append(f"{op.label}: report has the wrong rep_dim or failure list")
    return problems


WORKLOADS = {w.name: w for w in (Verify, Discover, Reduce, Cli)}

"""Show that the benchmark's checks reject wrong answers: an identity with
one b_p off by one must fail the verify and discover checks, and a normal
form with one wrong coefficient must fail the reduce soundness check.
Exits 0 when every check bites.
"""
from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spinid as sp  # noqa: E402

import workloads  # noqa: E402


def perturbed(dim: int, p: int):
    ident = sp.build_identity(dim)
    b = list(ident.b)
    b[p - 1] += 1
    return dataclasses.replace(ident, b=tuple(b))


def main() -> int:
    bites = {}

    # verify: the perturbed identity is verified where the true one holds.
    verify = workloads.Verify(1, smoke=True)
    verify.setup()
    ops = [op for op in verify.ops if op.meta["holds"] and op.args[2] == "exhaustive"]
    reports = []
    for op in ops:
        d, r, mode, count, sseed, conj = op.args
        reports.append(sp.verify_identity(verify.reps[(r, conj)], perturbed(d, 1), mode=mode))
    bites["verify (b_1 + 1)"] = bool(workloads.check_verdicts(ops, reports, 1))

    # verify, witnesses only: a minimality report whose witness values come
    # from the perturbed identity keeps its verdict but not its values.
    op = next(op for op in verify.ops if op.meta["kind"] == "minimality")
    d, r = op.args[0], op.args[1]
    report = sp.verify_identity(sp.build_generators(r), perturbed(d, 1), mode="exhaustive")
    bites["verify witnesses (b_1 + 1)"] = bool(workloads.check_verdicts([op], [report], 1))

    # discover: a result with one coefficient off by one.
    discover = workloads.Discover(1, smoke=True)
    results = [perturbed(op.args[0], 1) for op in discover.ops]
    bites["discover (b_1 + 1)"] = bool(workloads.check_discoveries(discover.ops, results))

    # reduce: one coefficient of a correct normal form changed.
    reduce = workloads.Reduce(1, smoke=True)
    outputs = []
    for op in reduce.ops:
        text, dim = op.args
        nf = sp.reduce_degree(sp.parse(text), dim)
        terms = nf.poly.terms()
        word = sorted(terms)[random.Random(1).randrange(len(terms))]
        terms[word] = terms[word] + sp.Scalar.of(Fraction(1))
        wrong = sp.NormalForm(sp.NCPolynomial(terms), dim)
        outputs.append((wrong, sp.render(wrong)))
    bites["reduce (one coefficient + 1)"] = bool(workloads.check_reductions(reduce.ops, outputs))

    for name, bit in bites.items():
        print(f"self-check {name}: {'flagged' if bit else 'NOT FLAGGED'}")
    return 0 if all(bites.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""spinid command line: generate spin matrices, synthesize and verify
reduction identities, reduce expressions, print coefficient tables.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 141
(128 + SIGPIPE) when the reader of stdout goes away.
Data goes to stdout, diagnostics to stderr.  A closed standard output is
refused with exit 2 before any work; a diagnostic that cannot be written,
standard error being closed, is dropped, and the exit code stays 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import lgamma, log, log10
from typing import Callable

from .charid import (
    POWER_SUM_MAX_R,
    b_coeffs,
    build_identity,
    char_coeffs,
    identity_to_json,
    identity_to_latex,
    power_sum,
    verify_identity,
)
from .rewrite import parse, reduce_degree, render, to_json_dict
from .spinrep import build_generators


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinid",
        description="Exact spin-matrix algebra and reduction identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit the three D-dimensional generators")
    gen.add_argument("dim", type=int)
    gen.add_argument("--format", choices=("json", "latex"), default="json")
    gen.set_defaults(func=cmd_gen)

    ident = sub.add_parser("identity", help="emit (and optionally verify) the dimension-D identity")
    ident.add_argument("dim", type=int)
    ident.add_argument("--normalization", choices=("monic", "integral"), default="monic")
    ident.add_argument("--format", choices=("json", "latex"), default="json")
    ident.add_argument(
        "--verify",
        metavar="MODE",
        help="exhaustive, or sampled:COUNT:SEED (seed is mandatory)",
    )
    ident.add_argument(
        "--rep-dim",
        type=int,
        default=None,
        help="verify against this representation dimension (default: dim)",
    )
    ident.add_argument(
        "--expand",
        action="store_true",
        help="spell out every similar term in latex output",
    )
    ident.set_defaults(func=cmd_identity)

    red = sub.add_parser("reduce", help="rewrite an expression to its canonical reduced form")
    red.add_argument("expr")
    red.add_argument("--dim", type=int, required=True)
    red.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    red.set_defaults(func=cmd_reduce)

    co = sub.add_parser("coeffs", help="characteristic and identity coefficients a_p, b_p")
    co.add_argument("dim", type=int)
    co.set_defaults(func=cmd_coeffs)

    sm = sub.add_parser("sums", help="power sum 0^r + 1^r + ... + n^r")
    sm.add_argument("r", type=int)
    sm.add_argument("n", type=int)
    sm.set_defaults(func=cmd_sums)

    return ap


# Past these dimensions gen and identity --verify take over a minute: about
# 1.5 minutes at each bound, from the sizes the README ("Command line") times.
GEN_MAX_DIM = 10**4
REP_MAX_DIM = 2 * 10**5


def _admit_dim(command: str, dim: int, bound: int) -> None:
    """Refuse up front a representation of dimension past bound."""
    if dim > bound:
        raise ValueError(f"{command}: refused, a representation of dimension {dim} is above {bound}, past a minute")


def cmd_gen(args: argparse.Namespace) -> int:
    _admit_dim(f"gen {args.dim}", args.dim, GEN_MAX_DIM)
    rep = build_generators(args.dim)
    if args.format == "json":
        # The bytes of json.dumps({"dim", "spin", "S1", "S2", "S3"}), written
        # one matrix row at a time.
        write = sys.stdout.write
        write(f'{{"dim": {rep.dim}, "spin": {json.dumps(str(rep.spin))}')
        for axis in (1, 2, 3):
            write(f', "S{axis}": [')
            for r, row in enumerate(rep.matrix(axis).string_rows()):
                write(", " * bool(r) + json.dumps(row))
            write("]")
        write("}\n")
    else:
        for axis in (1, 2, 3):
            print(f"S_{axis} = " + rep.matrix(axis).latex())
    return 0


def _parse_verify_mode(value: str) -> tuple[str, int | None, int | None]:
    if value == "exhaustive":
        return "exhaustive", None, None
    try:
        kind, count, seed = value.split(":")
        if kind == "sampled" and int(count) >= 1:
            return "sampled", int(count), int(seed)
    except ValueError:  # not three fields, or a number that is no integer
        pass
    raise ValueError(
        f"bad --verify value {value!r}: use 'exhaustive' or 'sampled:COUNT:SEED', COUNT >= 1"
    )


def cmd_identity(args: argparse.Namespace) -> int:
    # Every usage error is raised before anything is printed.
    command = f"identity {args.dim}"
    verify = None if args.verify is None else _parse_verify_mode(args.verify)
    rep_dim = args.rep_dim if args.rep_dim is not None else args.dim
    if verify is not None:
        _admit_dim(command, rep_dim, REP_MAX_DIM)
    _admit_digits(command, _log10_last_b(args.dim))
    ident = build_identity(args.dim)
    if verify is not None:
        rep = build_generators(rep_dim)
    print(_rendered(command, lambda: json.dumps(identity_to_json(ident, args.normalization)) if args.format == "json"
                    else identity_to_latex(ident, args.normalization, expand=args.expand)))
    if verify is None:
        return 0

    mode, count, seed = verify
    report = verify_identity(rep, ident, mode=mode, count=count, seed=seed)
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        status = "ok" if report.ok else f"{report.failure_count} failures"
        print(
            f"% verify rep_dim={report.rep_dim}: {report.tuples_checked} tuples checked, {status}"
        )
        for tup, (r, c, v) in report.failures[:5]:
            print(f"%   failure at tuple {tup}: entry ({r},{c}) = {v}")
    return 0 if report.ok else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    nf = reduce_degree(parse(args.expr), args.dim)
    print(_rendered("reduce", lambda: json.dumps(to_json_dict(nf)) if args.format == "json"
                    else render(nf, args.format)))
    return 0


def _digit_limit() -> int:
    """The most decimal digits this interpreter prints of one integer
    (``sys.get_int_max_str_digits``; 0, or an interpreter without one, means
    no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _refuse_digits(command: str) -> ValueError:
    return ValueError(f"{command}: refused, the output would hold a number of more than "
                      f"{_digit_limit()} digits, the most this interpreter prints")


def _admit_digits(command: str, log10_size: float) -> None:
    """Refuse up front when the output will hold a number of magnitude
    10^log10_size (a lower bound) that has too many digits to print.  The
    margin of one digit absorbs float rounding; ``_rendered`` refuses the
    rest exactly, after computing."""
    limit = _digit_limit()
    if limit and log10_size > limit + 1:
        raise _refuse_digits(command)


def _rendered(command: str, render: Callable[[], str]) -> str:
    """The text render() makes of a command's computed output; an integer
    in it past the digit limit is refused with the command named."""
    try:
        return render()
    except ValueError:  # an integer past the digit limit
        raise _refuse_digits(command) from None


def _log10_last_b(dim: int) -> float:
    """log10 |b_k|, k = dim // 2, the last number ``coeffs`` and ``identity``
    print (a lower bound on its integral rescaling too):
    b_k = k! c_k / 2^k with |c_k| = ((dim - 1)!!)^2 (``charid._char_z``).
    dim is capped at 10^12, so the floats stay finite for any input;
    b_k there is already far past any digit limit."""
    k = min(max(dim, 0), 10**12) // 2
    # ln (dim - 1)!!: 2^k k! for odd dim, (2k)! / (2^k k!) for even
    ln_dfact = k * log(2) + lgamma(k + 1) if dim % 2 else lgamma(2 * k + 1) - k * log(2) - lgamma(k + 1)
    return (lgamma(k + 1) + 2 * ln_dfact - k * log(2)) / log(10)


def cmd_coeffs(args: argparse.Namespace) -> int:
    command = f"coeffs {args.dim}"
    _admit_digits(command, _log10_last_b(args.dim))
    a, b = char_coeffs(args.dim).a, b_coeffs(args.dim)
    print(_rendered(command, lambda: f"a = ({', '.join(map(str, a))})\nb = ({', '.join(map(str, b))})"))
    return 0


def cmd_sums(args: argparse.Namespace) -> int:
    command = f"sums {args.r} {args.n}"
    if args.n > 0 and args.r <= POWER_SUM_MAX_R:  # power_sum refuses a larger r
        _admit_digits(command, args.r * log10(args.n))  # the sum is at least n^r
    total = power_sum(args.r, args.n)
    print(_rendered(command, lambda: str(total)))
    return 0


def _diagnose(message: str) -> None:
    """Write a diagnostic line to stderr.  One that cannot be written,
    stderr being closed or full, is dropped: the exit code stands."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # descriptor 2 closed at start-up: diagnostics go nowhere, not to stdout
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # descriptor 1 was closed at start-up
        _diagnose("spinid: standard output is closed")
        return 2
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed pipe surfaces here
        return code
    except BrokenPipeError:
        # Send what is still buffered to devnull so the exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ArithmeticError) as exc:  # ParseError is a ValueError
        _diagnose(f"spinid: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, timeout=None, **env):
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, "-m", "spinid", *args],
        env=env,
        text=True,
        capture_output=True,
        check=False,
        timeout=timeout,
    )


def test_gen_json_pauli():
    proc = run_cli("gen", "2", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 2 and doc["spin"] == "1/2"
    assert doc["S1"] == [["0", "1/2"], ["1/2", "0"]]
    assert doc["S2"] == [["0", "-1/2*i"], ["1/2*i", "0"]]
    assert doc["S3"] == [["1/2", "0"], ["0", "-1/2"]]


def test_gen_latex():
    proc = run_cli("gen", "2", "--format", "latex")
    assert proc.returncode == 0
    assert "S_1 = \\begin{pmatrix}" in proc.stdout
    assert "\\frac{1}{2}" in proc.stdout


def test_gen_rejects_zero_dimension():
    proc = run_cli("gen", "0")
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_gen_three_dimensional():
    doc = json.loads(run_cli("gen", "3", "--format", "json").stdout)
    assert doc["S3"] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "-1"]]
    assert doc["S1"][0][1] == "1/2*sqrt(2)"


def test_gen_json_streams_the_bytes_of_one_dump(capsys):
    # gen writes its JSON one matrix row at a time: the same bytes as one
    # json.dumps of the whole document, default separators.
    from spinid import cli
    from spinid.spinrep import build_generators

    for dim in range(1, 13):
        rep = build_generators(dim)
        payload = {"dim": rep.dim, "spin": str(rep.spin)}
        for axis in (1, 2, 3):
            payload[f"S{axis}"] = rep.matrix(axis).to_strings()
        assert cli.main(["gen", str(dim)]) == 0
        assert capsys.readouterr().out == json.dumps(payload) + "\n", dim


def test_gen_json_to_a_closed_pipe_exits_141():
    # The reader is gone before the first row is written: the streamed
    # writes end in exit 141, with nothing on stderr.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinid", "gen", "300"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=write_end,
            stderr=subprocess.PIPE,
            check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def _check_identity_schema(doc):
    assert set(doc) == {"dim", "normalization", "levels"}
    assert isinstance(doc["dim"], int)
    assert doc["normalization"] in ("monic", "integral")
    for level in doc["levels"]:
        assert set(level) == {"p", "coefficient", "subsets"}
        assert isinstance(level["p"], int)
        assert isinstance(level["coefficient"], str)
        for subset in level["subsets"]:
            assert len(subset) == 2 * level["p"]
            assert all(1 <= q <= doc["dim"] for q in subset)


def test_identity_json_schema_and_values():
    proc = run_cli("identity", "4", "--normalization", "integral")
    doc = json.loads(proc.stdout)
    _check_identity_schema(doc)
    assert [lvl["coefficient"] for lvl in doc["levels"]] == ["2", "-10", "9"]
    doc = json.loads(run_cli("identity", "5").stdout)
    _check_identity_schema(doc)
    assert [lvl["coefficient"] for lvl in doc["levels"]] == ["1", "-10", "32"]


def test_identity_latex_three_dimensional_layout():
    proc = run_cli(
        "identity", "3", "--normalization", "integral", "--format", "latex", "--expand"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "\\{ S_{i} S_{j} S_{k} \\} - 2 \\Big( S_{i} \\delta_{j k}"
        " + S_{j} \\delta_{i k} + S_{k} \\delta_{i j} \\Big) = 0"
    )


def test_identity_verify_exhaustive_exit_zero():
    proc = run_cli("identity", "5", "--verify", "exhaustive")
    assert proc.returncode == 0
    identity_line, report_line = proc.stdout.strip().splitlines()
    _check_identity_schema(json.loads(identity_line))
    report = json.loads(report_line)
    assert report["tuples_checked"] == 243
    assert report["failures"] == [] and report["ok"] is True


@pytest.mark.parametrize("dim", range(2, 8))
def test_identity_verify_gate(dim):
    # CI gate: every shipped identity verifies exhaustively on its own rep
    assert run_cli("identity", str(dim), "--verify", "exhaustive").returncode == 0


def test_identity_minimality_failure_exit_one():
    proc = run_cli("identity", "4", "--verify", "exhaustive", "--rep-dim", "6")
    assert proc.returncode == 1
    report = json.loads(proc.stdout.strip().splitlines()[1])
    assert report["ok"] is False
    assert report["failures"], "expected witness tuples"
    first = report["failures"][0]
    assert len(first["tuple"]) == 4 and first["value"] != "0"


def test_identity_failing_latex_report_reads_five_failures():
    # Every one of the 3^13 tuples fails on the 15-dimensional
    # representation: the status line counts them all, and only the first
    # five, in tuple order, are listed.
    proc = run_cli("identity", "13", "--verify", "exhaustive", "--rep-dim", "15", "--format", "latex", timeout=60)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert lines[1] == f"% verify rep_dim=15: {3**13} tuples checked, {3**13} failures"
    first = itertools.islice(itertools.product((1, 2, 3), repeat=13), 5)
    assert [line.split(": entry")[0] for line in lines[2:]] == [f"%   failure at tuple {t}" for t in first]


def test_identity_verify_sampled_deterministic():
    args = ("identity", "4", "--verify", "sampled:60:12345")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout.strip().splitlines()[1])
    assert report["mode"] == "sampled" and report["tuples_checked"] == 60


def test_identity_verify_sampled_requires_seed():
    proc = run_cli("identity", "4", "--verify", "sampled:60")
    assert proc.returncode == 2


@pytest.mark.parametrize("mode", ["sampled:0:1", "sampled:-3:1"])
def test_identity_verify_rejects_empty_sample(mode):
    # a sample of no tuples checks nothing: refused before any output
    proc = run_cli("identity", "3", "--verify", mode)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "COUNT" in proc.stderr


@pytest.mark.parametrize("mode", ["sampled:abc:1", "sampled:5:x", "sampled:1:1e3"])
def test_identity_verify_rejects_a_malformed_number(mode):
    # a COUNT or SEED that is no integer gets the usage message, not Python's
    proc = run_cli("identity", "3", "--verify", mode)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"spinid: bad --verify value {mode!r}: use 'exhaustive' or "
                           "'sampled:COUNT:SEED', COUNT >= 1\n")


def test_identity_latex_large_dimension():
    # the collapsed form never enumerates the 2^39 position subsets
    proc = run_cli("identity", "40", "--format", "latex")
    assert proc.returncode == 0
    assert "(779 more similar terms)" in proc.stdout


def test_identity_rejects_jobs_option():
    # retired: one process verifies faster than two at every tested D
    proc = run_cli("identity", "4", "--verify", "exhaustive", "--jobs", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_identity_bad_rep_dim_prints_nothing():
    # a usage error is reported before the identity is emitted
    proc = run_cli("identity", "3", "--verify", "exhaustive", "--rep-dim", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "dimension" in proc.stderr


@pytest.mark.parametrize("args, dim", [
    (("gen", "100000000000"), 10**11),
    (("gen", "10001", "--format", "latex"), 10001),
    (("identity", "3", "--verify", "exhaustive", "--rep-dim", "100000000000"), 10**11),
    (("identity", "3", "--verify", "sampled:10:1", "--rep-dim", "200001"), 200001),
])
def test_refuses_a_representation_of_minutes_quickly(args, dim):
    # gen 2000 took 8 s and --rep-dim 10^5 38 s at 1.1 GB; at 10^11 neither
    # would end, so both are refused before any work, with the command named.
    proc = run_cli(*args, timeout=30)
    command = " ".join(args[:2])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"spinid: {command}: refused, a representation of dimension {dim} ")
    assert "Traceback" not in proc.stderr


def test_representation_bounds_admit_the_bound_itself(monkeypatch, capsys):
    from spinid import cli

    built = []

    def build_generators(dim):
        built.append(dim)
        raise ArithmeticError("stop before the work")

    monkeypatch.setattr(cli, "build_generators", build_generators)
    assert cli.main(["gen", str(cli.GEN_MAX_DIM)]) == 2
    assert cli.main(["identity", "3", "--verify", "exhaustive", "--rep-dim", str(cli.REP_MAX_DIM)]) == 2
    # without verification no representation is built, so none is refused
    assert cli.main(["identity", "3", "--rep-dim", str(cli.REP_MAX_DIM + 1)]) == 0
    assert built == [cli.GEN_MAX_DIM, cli.REP_MAX_DIM]
    assert "refused" not in capsys.readouterr().err


def test_identity_rejects_dimension_one():
    assert run_cli("identity", "1").returncode == 2


def test_reduce_examples():
    assert run_cli("reduce", "S3*S3*S3", "--dim", "3").stdout.strip() == "S3"
    assert run_cli("reduce", "[S1,S2]", "--dim", "5").stdout.strip() == "i*S3"
    assert run_cli("reduce", "{S1 S2}", "--dim", "2").stdout.strip() == "0"


def test_reduce_parse_error_reports_position():
    proc = run_cli("reduce", "S1*S2*", "--dim", "3")
    assert proc.returncode == 2
    assert "position 6" in proc.stderr


@pytest.mark.parametrize("expr, position", [("S1*\u00b2", 3), ("1" * 5000 + "*S1", 0)])
def test_reduce_refuses_a_number_int_cannot_read(expr, position):
    # A superscript digit, and a literal past the interpreter's digit limit,
    # are parse errors at their position: exit 2, nothing on stdout.
    proc = run_cli("reduce", expr, "--dim", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"(at position {position})" in proc.stderr and "Traceback" not in proc.stderr


def test_reduce_deep_nesting_is_a_parse_error():
    proc = run_cli("reduce", "(" * 3000 + "S1" + ")" * 3000, "--dim", "3")
    assert proc.returncode == 2
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_reduce_refuses_a_huge_sqrt_quickly():
    # Factoring this semiprime near 10^18 by trial division takes minutes.
    expr = f"sqrt({999999937 * 1000000007})*S1"
    proc = run_cli("reduce", expr, "--dim", "2", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "position 5" in proc.stderr and "Traceback" not in proc.stderr


def test_reduce_refuses_a_huge_combined_radicand():
    proc = run_cli("reduce", "sqrt(999999937)*sqrt(1000000007)*S1", "--dim", "2", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "combined sqrt radicand" in proc.stderr and "Traceback" not in proc.stderr


def test_reduce_refuses_an_expansion_of_minutes_quickly():
    # Each letter five times: 756756 orderings, 8 s and a 316 MB peak to
    # reduce at --dim 3, so the brace is refused before it is expanded.
    proc = run_cli("reduce", "{" + "S1 S2 S3 " * 5 + "}", "--dim", "3", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "756756 orderings refused" in proc.stderr and "Traceback" not in proc.stderr


def test_reduce_long_word():
    # 450 letters: the letter fold keeps the rewriting depth bounded by D.
    from spinid.rewrite import evaluate, parse
    from spinid.spinrep import build_generators

    expr = "*".join(["S3*S2*S1"] * 150)
    proc = run_cli("reduce", expr, "--dim", "3")
    assert proc.returncode == 0, proc.stderr
    rep = build_generators(3)
    assert evaluate(parse(proc.stdout), rep) == evaluate(parse(expr), rep)


def test_reduce_long_shared_suffix():
    # Two words sharing their last 3000 letters: the suffix is multiplied
    # in once, after one branch point, with a flat stack.
    from spinid.rewrite import parse, reduce_degree, render

    tail = "*S1" * 3000
    expr = f"S2{tail} + S3{tail}"
    proc = run_cli("reduce", expr, "--dim", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == render(reduce_degree(parse(expr), 3)) + "\n"


def test_reduce_round_trip():
    out = run_cli("reduce", "{S1 S2 S3} + S2*S2*S1", "--dim", "3").stdout.strip()
    # "--" keeps a leading minus in the expression out of flag parsing
    again = run_cli("reduce", "--dim", "3", "--", out).stdout.strip()
    assert out and out == again


def test_reduce_json_schema():
    # {S1 S2} at dim 4: no capping, but PBW ordering gives 2 S1 S2 - i S3
    proc = run_cli("reduce", "{S1 S2}", "--dim", "4", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc == {
        "terms": [
            {"word": [1, 2], "coeff": "2"},
            {"word": [3], "coeff": "-i"},
        ]
    }


def test_reduce_latex():
    proc = run_cli("reduce", "S1*S1", "--dim", "3", "--format", "latex")
    assert proc.stdout.strip() == "S_{1}^{2}"


def test_coeffs_table():
    proc = run_cli("coeffs", "5")
    assert proc.stdout.splitlines() == ["a = (-5, 4)", "b = (-10, 32)"]
    proc = run_cli("coeffs", "4")
    assert proc.stdout.splitlines() == ["a = (-5/2, 9/16)", "b = (-5, 9/2)"]


def test_sums():
    assert run_cli("sums", "2", "10").stdout.strip() == "385"
    assert run_cli("sums", "0", "0").stdout.strip() == "1"
    assert run_cli("sums", "-1", "4").returncode == 2


def _refused(proc, command):
    return (proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
            and proc.stderr.startswith(f"spinid: {command}: refused") and "4300 digits" in proc.stderr)


@pytest.mark.parametrize("dim", [1176, 1177, 10**8, 10**400])
def test_coeffs_refuses_numbers_past_the_digit_limit(dim):
    # The longest number printed, the last b_p, has 4300 digits at D = 1176
    # and 4302 at D = 1177; larger D is refused before any expansion.
    proc = run_cli("coeffs", str(dim), timeout=60, PYTHONINTMAXSTRDIGITS="4300")
    if dim == 1176:
        assert proc.returncode == 0
        last = proc.stdout.splitlines()[1].removesuffix(")").split(", ")[-1]
        assert len(last.split("/")[0]) == 4300
    else:
        assert _refused(proc, f"coeffs {dim}"), proc.stderr


@pytest.mark.parametrize("fmt", ["latex", "json"])
def test_identity_refuses_numbers_past_the_digit_limit(fmt):
    # The last b_p of D = 1200 has more than 4300 digits: refused up front,
    # with the command named, not with the interpreter's own message.
    proc = run_cli("identity", "1200", "--format", fmt, timeout=60, PYTHONINTMAXSTRDIGITS="4300")
    assert _refused(proc, "identity 1200"), proc.stderr


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_reduce_refuses_numbers_past_the_digit_limit(fmt):
    # Two 3000-digit literals parse, and their product, 6000 digits, is
    # refused when printed, with the command named.
    nines = "9" * 3000
    proc = run_cli("reduce", f"{nines}*{nines}*S1", "--dim", "3", "--format", fmt, timeout=60,
                   PYTHONINTMAXSTRDIGITS="4300")
    assert _refused(proc, "reduce"), proc.stderr


def test_sums_refusals():
    assert _refused(run_cli("sums", "500", "1000000000", PYTHONINTMAXSTRDIGITS="4300"), "sums 500 1000000000")
    for r in (501, 10**400):
        proc = run_cli("sums", str(r), "3", timeout=60)
        assert proc.returncode == 2 and f"r = {r} refused" in proc.stderr and "Traceback" not in proc.stderr
    # at the bound: about a second
    proc = run_cli("sums", "500", "3", timeout=60)
    assert proc.returncode == 0 and int(proc.stdout) == sum(q**500 for q in range(4))


def test_digit_refusal_after_computing(capsys):
    # A last b_p or a sum of limit + 1 digits passes the estimate made up
    # front and is refused when printed, in the coefficient table and in the
    # identity's LaTeX alike.
    from spinid import cli

    limit = sys.get_int_max_str_digits()
    try:
        longest = len(str(cli.b_coeffs(400)[-1].numerator))
        for argv, command, digits in ((["coeffs", "400"], "coeffs 400", longest),
                                      (["identity", "400", "--format", "latex"], "identity 400", longest),
                                      (["sums", "500", "20"], "sums 500 20", len(str(cli.power_sum(500, 20))))):
            sys.set_int_max_str_digits(digits - 1)
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"spinid: {command}: refused") and f"{digits - 1} digits" in err
            sys.set_int_max_str_digits(digits)
            assert cli.main(argv) == 0
            capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(limit)


def test_closed_stdout_exits_quietly():
    # a pipe with no reader from the start: the first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinid", "coeffs", "400"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=write_end,
            stderr=subprocess.PIPE,
            check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("redirect, args", [
    (">&-", ("coeffs", "9")),
    (">&-", ("identity", "3", "--verify", "exhaustive", "--rep-dim", "5")),
    ("2>&-", ("identity", "0")),
    ("2>&-", ("frobnicate",)),
    ("2>/dev/full", ("identity", "0")),
])
def test_closed_standard_stream_exits_two(redirect, args):
    # The stream is closed (or, on /dev/full, unwritable) before the
    # interpreter starts.  A closed stdout is refused before any work; a
    # diagnostic that cannot be written leaves the exit code at 2, and
    # nothing spills onto the other stream.
    if redirect.endswith("/dev/full") and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m", "spinid", *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stdout + proc.stderr
    if redirect == ">&-":
        assert proc.stderr == b"spinid: standard output is closed\n"
    else:
        assert proc.stdout == b""


def test_cli_import_skips_dataclasses_and_inspect():
    # Every command imports spinid.cli; the modules it loads are taken as a
    # difference, so whatever site preloads does not count.
    code = ("import sys; before = set(sys.modules); import spinid.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          text=True, capture_output=True, check=True)
    assert proc.stdout == "[]\n"


def test_unknown_subcommand_usage_error():
    assert run_cli("frobnicate").returncode == 2

"""spinid benchmark: one command for every workload, metric and check.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("verify", "discover", "reduce", "cli")
# Set-up is measured in this many processes besides the measuring one.
SETUP_PROBES = 6
# A worker that runs past this is stopped and the run reports no result.
WORKER_TIMEOUT_S = 170


def worker(argv: list[str]) -> tuple[float, dict]:
    """Start a worker; return (seconds from spawn to its first timed
    operation, at reference speed; its result)."""
    timeline = speed.Timeline()
    timeline.mark()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
    )
    timeline.mark(force=True)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    return (result["ready"] - t0) * timeline.factor(t0, result["ready"]), result


def measure(args) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # setup_s is an end-to-end metric: the traced run does not need it.
    setups = [] if args.trace else [worker(common + ["--setup-only"])[0] for _ in range(SETUP_PROBES)]
    setup_s, result = worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups + [setup_s]), "s")
    for problem in result["problems"]:
        print(f"bench: {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    if result["failed_ops"]:
        print(f"bench: {args.workload}: failed operations: {', '.join(result['failed_ops'])}", file=sys.stderr)
    print(f"bench: {args.workload}: {result['passes']} passes of {result['ops']} operations", file=sys.stderr)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at its smallest size, one pass, traced, all checks;
    then the self-check that the checks reject wrong answers."""
    ok = True
    for name in WORKLOAD_NAMES:
        t0 = time.perf_counter()
        _, result = worker(["--workload", name, "--seed", "1", "--smoke", "--trace", "1"])
        good = not result["problems"]
        ok &= good
        print(f"smoke {name}: {'ok' if good else 'CHECK FAILED'}; {result['attempted']} operations, "
              f"{result['failed']} failed ({', '.join(result['failed_ops']) or 'none'}); "
              f"{time.perf_counter() - t0:.1f} s")
        for problem in result["problems"]:
            print(f"  {problem}")
    proc = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")], cwd=ROOT)
    ok &= proc.returncode == 0
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick run of every workload and the self-check")
    args = ap.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")

    if not (ROOT / "src" / "spinid" / "__init__.py").is_file():
        print(f"bench: no spinid package under {ROOT / 'src'}; run inside a checkout", file=sys.stderr)
        return 2
    # One core for this process and every process it starts (workers and
    # their CLI children inherit it): the core the speed probe runs on, so
    # the probe sees the speed the work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The build: byte-compile once, so no run pays for it inside set-up.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    (BENCH / "out").mkdir(exist_ok=True)

    if args.smoke:
        return smoke()
    try:
        result = measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, run whole passes over the
workload's operations for the given time, check the outputs, and print
one JSON line.  `run.py` starts this; see README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spinid  # noqa: E402,F401  (the checkout's; importing it is part of set-up)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter


def tail_quantile(n: int) -> float:
    """The highest percentile of n operations that still has at least ten
    of them beyond it (the maximum below eleven operations)."""
    return (n - 10) / n if n > 10 else 1.0


def run_passes(wl, budget: float, first_op: int, expected=None, tracer=None):
    """Whole passes until the next one would end past `budget` seconds
    (at least one).  Returns per-pass latencies at reference speed, the
    per-pass speed factors, the outputs of the first pass, the digests
    every pass must reproduce (`expected`, else the first pass's), and the
    number of passes that did not."""
    n = len(wl.ops)
    passes, factors, first, differing = [], [], None, 0
    start = clock()
    while True:
        gc.collect()
        timeline = speed.Timeline()
        spans, outs = [], []
        for k, op in enumerate(wl.ops):
            timeline.mark()
            if tracer is None:
                t0 = clock()
                out = wl.run(op)
                t1 = clock()
            else:
                tracer.op = first_op + len(passes) * n + k
                root = tracer.begin("bench.op")
                out = wl.run(op)
                tracer.end(root)
                _, t0, t1, _, _ = tracer.spans[root]
                if wl.name == "cli":
                    doc = json.loads(wl.trace_file.read_text())
                    wl.trace_file.unlink()
                    tracer.adopt(doc["spans"], doc["counts"], root)
            spans.append((t0, t1))
            outs.append(out)
        timeline.mark(force=True)
        scale = [timeline.factor(t0, t1) for t0, t1 in spans]
        passes.append([(t1 - t0) * f for (t0, t1), f in zip(spans, scale)])
        factors.append(scale)
        digests = [wl.digest(o) for o in outs]
        if expected is None:
            expected, first = digests, outs
        elif digests != expected:
            differing += 1
        elapsed = clock() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes, factors, first, expected, differing


def pooled_percentile(passes: list[list[float]], q: float) -> float:
    """Nearest-rank percentile q of every latency of every pass."""
    pooled = sorted(x for p in passes for x in p)
    return pooled[max(0, math.ceil(q * len(pooled)) - 1)]


def end_to_end(passes: list[list[float]], peak_rss_mb: float) -> dict:
    n = len(passes[0])
    return {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "op_p50_ms": (pooled_percentile(passes, 0.5) * 1e3, "ms"),
        "op_tail_ms": (pooled_percentile(passes, tail_quantile(n)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def outermost_time(spans: list, names: set, select, scale: dict) -> float:
    """Inclusive time of spans named in `names` with no ancestor in `names`."""
    total = 0.0
    for span in spans:
        if not select(span) or span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += (span[2] - span[1]) * scale[span[4]]
    return total


def layer_metrics(tr, n_ops: int, pass_ids: list[int], pass_counts: list[dict], scale: dict,
                  setup_op: int, cli: bool) -> tuple[dict, dict]:
    """Per-layer numbers for each traced pass, the lower median across
    passes (so counts stay whole); and the self-time breakdown of the
    median pass.  Times are at reference speed, each span scaled by the
    factor of the operation it belongs to."""
    builders = {"spinrep.build_generators", "spinrep.conjugate_rep"}
    setup_build = outermost_time(tr.spans, builders, lambda s: s[4] == setup_op, scale)
    rows = []
    for p, counts in zip(pass_ids, pass_counts):
        lo, hi = p * n_ops, (p + 1) * n_ops
        select = lambda s, lo=lo, hi=hi: lo <= s[4] < hi  # noqa: E731
        agg = tracing.aggregate(tr.spans, select, scale)

        def get(name, field):
            return agg.get(name, {}).get(field, 0)

        sym_calls, sym_misses = get("symalg.sym", "calls"), get("symalg.sym", "parents")
        rows.append({
            "scalar.mul_calls": counts.get("scalar.mul", 0),
            "scalar.add_calls": counts.get("scalar.add", 0),
            "spinrep.matmul_calls": get("spinrep.matmul", "calls"),
            "spinrep.matmul_s": get("spinrep.matmul", "total"),
            "spinrep.matadd_calls": counts.get("spinrep.matadd", 0),
            "spinrep.build_generators_s": setup_build + outermost_time(tr.spans, builders, select, scale),
            "symalg.sym_calls": sym_calls,
            "symalg.sym_misses": sym_misses,
            "symalg.sym_hit_ratio": (sym_calls - sym_misses) / sym_calls if sym_calls else 0.0,
            "symalg.sym_self_s": get("symalg.sym", "self"),
            "symalg.gen_delta_calls": get("symalg.gen_delta", "calls"),
            "symalg.gen_delta_s": get("symalg.gen_delta", "total"),
            "charid.residual_calls": get("charid.residual", "calls"),
            "charid.residual_self_s": get("charid.residual", "self"),
            "charid.verify_self_s": get("charid.verify", "self"),
            "charid.discover_self_s": get("charid.discover", "self"),
            "charid.build_identity_s": get("charid.build_identity", "total"),
            "charid.subsets_stored": counts.get("charid.subsets_stored", 0),
            "charid.emit_json_s": get("charid.emit_json", "total"),
            "charid.emit_latex_s": get("charid.emit_latex", "total"),
            "rewrite.parse_s": get("rewrite.parse", "total"),
            "rewrite.pbw_normalize_s": get("rewrite.pbw_normalize", "total"),
            "rewrite.ordered_form_calls": counts.get("rewrite.ordered_form", 0),
            "rewrite.identity_replacement_calls": counts.get("rewrite.identity_replacement", 0),
            "rewrite.reduce_degree_self_s": get("rewrite.reduce_degree", "self"),
            "rewrite.render_s": get("rewrite.render", "total"),
            "rewrite.nf_terms": counts.get("rewrite.nf_terms", 0),
            "cli.import_s": get("cli.import", "total"),
            # On cli the operation's own time is the child's start and exit.
            "cli.process_s": get("bench.op", "self") if cli else 0.0,
            "cli.main_self_s": get("cli.main", "self"),
            "_breakdown": {name: row["self"] for name, row in agg.items()},
            "_wall": get("bench.op", "total"),
        })
    median_row = sorted(rows, key=lambda r: r["_wall"])[len(rows) // 2]
    out = {}
    for key in rows[0]:
        if not key.startswith("_"):
            out[key] = statistics.median_low(r[key] for r in rows)
    return out, median_row


def nesting_problems(spans: list) -> list[str]:
    """Every span must lie inside its parent; spans from CLI children are
    placed by the shared monotonic clock, so this checks that too."""
    bad = 0
    for name, t0, t1, parent, _ in spans:
        if t1 < t0 or (parent >= 0 and not (spans[parent][1] <= t0 and t1 <= spans[parent][2])):
            bad += 1
    return [f"trace: {bad} spans lie outside their parent"] if bad else []


def traced_run(wl, args, passes: list, expected: list):
    """Re-run set-up and then passes with the tracer installed for the
    second half of the run; return the per-layer metrics, the traced
    passes, how many of them returned other outputs, and trace problems."""
    n = len(wl.ops)
    (BENCH / "out").mkdir(exist_ok=True)
    tr = tracing.Tracer()
    tr.install()
    if tr.missing:
        print("bench: not traced (missing): " + ", ".join(tr.missing), file=sys.stderr)
    wl.traced = True
    setup_op = -2
    tr.op = setup_op
    timeline = speed.Timeline()
    timeline.mark()
    root = tr.begin("bench.setup")
    wl.setup()
    tr.end(root)
    timeline.mark(force=True)
    scale = {setup_op: timeline.factor(*tr.spans[root][1:3])}
    traced_passes, pass_counts, differing = [], [], 0
    start = clock()
    while True:
        before = dict(tr.counts)
        first_op = (len(passes) + len(traced_passes)) * n
        one, factors, _, _, differs = run_passes(wl, 0.0, first_op, expected, tr)
        scale.update(enumerate(factors[0], start=first_op))
        traced_passes += one
        differing += differs
        pass_counts.append({k: v - before.get(k, 0) for k, v in tr.counts.items()})
        elapsed = clock() - start
        if elapsed + elapsed / len(traced_passes) > args.seconds / 2:
            break
    tr.uninstall()

    pass_ids = list(range(len(passes), len(passes) + len(traced_passes)))
    layers, median_row = layer_metrics(tr, n, pass_ids, pass_counts, scale, setup_op, wl.name == "cli")
    untraced_wall = statistics.median(sum(p) for p in passes)
    traced_wall = statistics.median(sum(p) for p in traced_passes)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    tr.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.tsv")
    print(f"bench: {args.workload}: untraced wall {untraced_wall:.4f} s, traced {traced_wall:.4f} s; "
          f"self time by span in the median traced pass ({median_row['_wall']:.4f} s):", file=sys.stderr)
    for name, t in sorted(median_row["_breakdown"].items(), key=lambda kv: -kv[1]):
        print(f"bench:   {name:28s} {t:9.4f}", file=sys.stderr)
    units = {k: "count" if k.endswith(("_calls", "_misses", "_stored", "_terms"))
             else "ratio" if k.endswith("_ratio") else "s" for k in layers}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    return metrics, traced_passes, differing, nesting_problems(tr.spans)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wl.setup()
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    n = len(wl.ops)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, _, first, expected, differing = run_passes(wl, budget, 0)
    peak_key = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(peak_key).ru_maxrss / 1024
    problems: list[str] = []
    result = {"ready": ready}

    if args.trace:
        metrics, traced_passes, traced_differing, trace_problems = traced_run(
            wl, args, passes, expected)
        result["metrics"] = metrics
        passes += traced_passes
        differing += traced_differing
        problems += trace_problems
    else:
        result["metrics"] = end_to_end(passes, peak_rss_mb)

    if differing:
        problems.append(f"{differing} passes returned other outputs than the first")
    found, failed = wl.check(first)
    problems += found
    result.update(
        attempted=n * len(passes),
        failed=sum(failed) * len(passes),
        failed_ops=[op.label for op, f in zip(wl.ops, failed) if f],
        problems=problems,
        passes=len(passes),
        ops=n,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around calls into spinid's modules, recorded from
benchmark code by wrapping the package's public functions in place.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 for a root) and `op` the identifier shared by every
span of one benchmark operation.  Hot leaves are counted only, because a
span per Scalar operation would cost more than the operation.  Spans stay
in memory until `write` puts them in a file.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, span name): timed spans.
SPANS = [
    ("spinid.spinrep", "Matrix.__mul__", "spinrep.matmul"),
    ("spinid.spinrep", "build_generators", "spinrep.build_generators"),
    ("spinid.spinrep", "conjugate_rep", "spinrep.conjugate_rep"),
    ("spinid.symalg", "SymSession.sym", "symalg.sym"),
    ("spinid.symalg", "gen_delta", "symalg.gen_delta"),
    ("spinid.charid", "build_identity", "charid.build_identity"),
    ("spinid.charid", "Identity.residual", "charid.residual"),
    ("spinid.charid", "verify_identity", "charid.verify"),
    ("spinid.charid", "discover_identity", "charid.discover"),
    ("spinid.charid", "identity_to_json", "charid.emit_json"),
    ("spinid.charid", "identity_to_latex", "charid.emit_latex"),
    ("spinid.rewrite", "parse", "rewrite.parse"),
    ("spinid.rewrite", "pbw_normalize", "rewrite.pbw_normalize"),
    ("spinid.rewrite", "reduce_degree", "rewrite.reduce_degree"),
    ("spinid.rewrite", "render", "rewrite.render"),
]

# (module, attribute path, counter name): counted, not timed.
COUNTS = [
    ("spinid.scalar", "Scalar.__mul__", "scalar.mul"),
    ("spinid.scalar", "Scalar.__rmul__", "scalar.mul"),
    ("spinid.scalar", "Scalar.__add__", "scalar.add"),
    ("spinid.scalar", "Scalar.__sub__", "scalar.add"),
    ("spinid.spinrep", "Matrix.__add__", "spinrep.matadd"),
    ("spinid.spinrep", "Matrix.__sub__", "spinrep.matadd"),
    ("spinid.rewrite", "_ordered_form", "rewrite.ordered_form"),
    ("spinid.rewrite", "_identity_replacement", "rewrite.identity_replacement"),
]


def _stored_subsets(ident) -> int:
    # Only subsets held on the object count; a lazily generated property
    # is not stored, and reading it here would generate it.
    levels = getattr(ident, "__dict__", {}).get("subsets")
    return sum(len(level) for level in levels) if levels else 0


def _nf_terms(nf) -> int:
    return len(nf.poly.terms())


# Counters fed from a span's return value.
RESULT_COUNTS = {
    "charid.build_identity": ("charid.subsets_stored", _stored_subsets),
    "rewrite.reduce_degree": ("rewrite.nf_terms", _nf_terms),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span from benchmark code; close it with `end`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        name, t0, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, t0, t1, parent, op)

    def adopt(self, child_spans: list, child_counts: dict, parent: int) -> None:
        """Graft spans recorded by a child process under span `parent`;
        both processes read the same monotonic clock."""
        base = len(self.spans)
        for name, t0, t1, p in child_spans:
            self.spans.append((name, t0, t1, parent if p < 0 else base + p, self.op))
        self.counts.update(child_counts)

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = RESULT_COUNTS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if counted is not None:
                counts[counted[0]] += counted[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in place: class attributes once, module-level
        functions under every name any spinid module binds them to."""
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for modname, path, name in table:
                module = sys.modules.get(modname)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                wrapped = make(original, name)
                if owner_name:
                    self._patch(owner, attr, wrapped)
                    continue
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("spinid"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\top\tname\tstart\tend\tparent\n")
            for k, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{k}\t{op}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def aggregate(spans: list, select, scale: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive time, self time (the span minus the
    time its direct children cover), and calls that had children.  Each
    duration is multiplied by `scale[op]` of the span's operation."""
    child_time: dict[int, float] = {}
    has_child: set[int] = set()
    for k, span in enumerate(spans):
        if select(span) and span[3] >= 0:
            child_time[span[3]] = child_time.get(span[3], 0.0) + (span[2] - span[1]) * scale[span[4]]
            has_child.add(span[3])
    out: dict[str, dict] = {}
    for k, span in enumerate(spans):
        if not select(span):
            continue
        name, dur = span[0], (span[2] - span[1]) * scale[span[4]]
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "parents": 0})
        row["calls"] += 1
        row["total"] += dur
        row["self"] += dur - child_time.get(k, 0.0)
        row["parents"] += k in has_child
    return out

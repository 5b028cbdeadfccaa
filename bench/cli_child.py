"""Traced stand-in for `python -m spinid ARGS`, used by the cli workload's
traced passes: it times the import of spinid.cli, runs the real entry
point with the tracer installed, and writes its spans to the file named
by BENCH_TRACE_OUT before exiting the way the entry point does.
"""
import json
import os
import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import spinid.cli

    tracer.end(span)
    tracer.install()
    span = tracer.begin("cli.main")
    try:
        return spinid.cli.main(sys.argv[1:])
    finally:
        tracer.end(span)
        tracer.uninstall()
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump({"spans": [s[:4] for s in tracer.spans], "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())

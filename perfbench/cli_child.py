"""Child bootstrap for the traced cli-sampled run.

    python3 perfbench/cli_child.py TRACE_JSON dft-run --n 11 ...

Installs the span wrappers on hqsim's public functions, runs
``hqsim.cli.main`` on the remaining arguments, and writes the op's spans,
per-layer counts and self times to TRACE_JSON for the parent to absorb.
``PERFBENCH_SPAWN_CLOCK`` is the parent's CLOCK_MONOTONIC reading just
before the spawn; that clock is shared by every process on Linux.
"""

import json
import os
import sys
import time

import tracer

import hqsim.cli

startup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(os.environ["PERFBENCH_SPAWN_CLOCK"])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    with tracer.GcCounter() as collections:
        t.begin_op(0)
        returncode = t.wrap("cli.main", hqsim.cli.main)(argv)
        t.end_op()
    t.uninstall()
    counts = dict(t.op_counts[0], **{
        "cli.startup_s": startup_s,
        "python.gc_collections": collections.count,
    })
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": t.op_layers[0], "counts": counts, "spans": t.span_columns()}, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main())

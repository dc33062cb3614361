"""One fresh process of the benchmark.

Imports plaplab from the checkout's ``src``, writes ``ready`` on stdout,
then (unless ``--setup-only``) runs one round of a workload's CLI commands
through ``plaplab.cli.main`` and writes one JSON line: the wall time from
the first command to the last one finishing, the peak resident memory,
each command's exit code and, with ``--trace``, the per-layer metrics.

    python3 perfbench/worker.py --workload sweep-p3 --out-dir DIR [--trace]
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import plaplab.cli

    if not Path(plaplab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"plaplab imported from {plaplab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import WORKLOADS

    commands = [c.argv(args.out_dir) for c in WORKLOADS[args.workload]]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    exit_codes: list[object] = []
    t0, c0 = perf_counter(), process_time()
    for argv in commands:
        try:
            exit_codes.append(plaplab.cli.main(argv))
        except Exception as exc:  # an uncaught error fails this command, not the round
            exit_codes.append(f"{type(exc).__name__}: {exc}")
    wall_s = perf_counter() - t0
    cpu_s = process_time() - c0

    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.write(args.out_dir / "spans.jsonl", t0)
        result["layers"] = layer_metrics(tracer.spans, wall_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

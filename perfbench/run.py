#!/usr/bin/env python3
"""Benchmark of the plaplab CLI experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-p3 --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The workloads' inputs are the pinned
configs in ``configs/``, so every seed gives the same inputs; ``--seed``
only names the run record. Each round is a fresh process (``worker.py``)
that imports plaplab from ``src`` and runs the workload's CLI commands
through ``plaplab.cli.main``; nothing carries over between rounds.

With ``--trace 0`` the run first starts a few processes that only import
plaplab (set-up samples), then runs whole rounds until ``--seconds`` have
passed (at least one), checks every round's outputs and reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``. With ``--trace 1`` it runs one untraced round and one
traced round and reports the traced round's per-layer metrics plus the
tracing overhead.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Outputs, spans and a diagnostic record of each run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

# single-threaded BLAS/OpenMP for this process (before numpy loads) and its workers
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(SINGLE_THREAD)

import checks  # noqa: E402  (imports numpy)
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_ONLY_PROCESSES = 4  # plus one set-up sample from every round
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (start to "ready") and its JSON line."""
    timeout = deadline - perf_counter()
    if timeout <= 0.0:
        raise BenchError("run exceeded its time budget")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} ended with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def _round(workload: str, k: int, deadline: float, trace: bool = False) -> dict:
    out_dir = OUT / workload / f"round{k}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    args = ["--workload", workload, "--out-dir", str(out_dir)]
    setup_s, result = _spawn(args + (["--trace"] if trace else []), deadline)
    if result is None:
        raise BenchError(f"round {k} printed no result")
    result["setup_s"] = setup_s
    result["out_dir"] = out_dir
    return result


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host from /proc/stat; a diagnostic only."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = perf_counter() + RUN_BUDGET_S
    diag: dict = {"workload": workload, "trace": trace}
    if trace:
        rounds = [_round(workload, 0, deadline), _round(workload, 1, deadline, trace=True)]
        metrics = {name: _metric(v, unit) for name, (v, unit) in rounds[1]["layers"].items()}
        metrics["trace.overhead_s"] = _metric(rounds[1]["wall_s"] - rounds[0]["wall_s"], "s")
    else:
        setup = [_spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_ONLY_PROCESSES)]
        rounds = []
        t0 = perf_counter()
        while not rounds or perf_counter() - t0 < seconds:
            rounds.append(_round(workload, len(rounds), deadline))
        setup += [r["setup_s"] for r in rounds]
        metrics = {
            "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
        diag["setup_s"] = setup

    verdicts = [checks.check_outputs(workload, r["out_dir"]) for r in rounds]
    summary = {
        "correct": all(not v.wrong for v in verdicts),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(len(v.failed) for v in verdicts),
        "metrics": metrics,
    }
    diag["rounds"] = [
        {
            "wall_s": r["wall_s"],
            "cpu_s": r["cpu_s"],
            "setup_s": r["setup_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "exit_codes": r["exit_codes"],
            "failed": v.failed,
            "wrong": v.wrong,
        }
        for r, v in zip(rounds, verdicts)
    ]
    return summary, diag


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plaplab" / "cli.py").is_file():
        print(f"no plaplab sources under {SRC}", file=sys.stderr)
        return 2

    steal0 = _steal_ticks()
    try:
        summary, diag = run(args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    steal1 = _steal_ticks()
    diag["seed"] = args.seed
    if steal0 and steal1:
        ticks = os.sysconf("SC_CLK_TCK")
        diag["steal_s"] = (steal1[0] - steal0[0]) / ticks
        diag["steal_share"] = (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(diag, indent=1) + "\n")
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in diag["rounds"])
    print(
        f"{args.workload} seed={args.seed}: rounds wall_s [{walls}], steal_s {diag.get('steal_s')}",
        file=sys.stderr,
    )
    for r in diag["rounds"]:
        for problem in r["failed"] + r["wrong"]:
            print(f"  {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

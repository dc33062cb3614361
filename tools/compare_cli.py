#!/usr/bin/env python3
"""Compare the plaplab command line of two source trees, byte for byte.

    python3 tools/compare_cli.py --base DIR --change DIR

DIR is a checkout whose package lives under DIR/src. Every command of the
fixed list below runs twice in a fresh process, once against each tree,
with the same config path and the same output path, so that messages that
name a path agree. For each command the script compares the output file,
stdout, stderr and the exit code, prints one line per command with what
differs, and exits 1 on any difference.

A differing branch table is reported row by row, one line per
(branch, lambda): the relative level difference, the absolute linf_norm
difference, and the iterations, residual and status before -> after;
rows present on one side only are listed as such. A differing region
table is reported cell by cell, one line per (p, q): the absolute
picone_min difference and any other column that changed, such as a
classification or picone_holds flip. A differing record
(eigen, critical) gets one line per field that moved, with the relative
difference of numeric fields. Any other difference gets a short diff. The
run ends with the largest level, linf_norm, field and picone_min
differences over all commands, and the most region cells flipped in one
command. Every --format json output of either tree is also parsed with
json.loads, and one that it rejects is reported under its command and
counted at the end; exit status 1 still means only that some command
differed.

The list holds the commands of the four benchmark workloads, whose configs
are read from this checkout's perfbench/configs/, and small configs taken
from the test suite: sweeps on both sides of the threshold, the
three-solution scan (also at seed 3), the sweep-p3 sweep at tol 1e-10,
below the eigen solve's own stop (sweep-p3-tol1e-10), ground (also at
p = 4, q = 1.5, 1.05 lambda1, whose polish once ran to its iteration cap
on every start), certify (also on a two-bump weight at 0.5 lambda1, where
two candidates carry a dead core and six reach the Picone certificate,
certify-dead-core), critical (also at p = 4, q = 1.5, and on a positive
pairing whose search ends unconverged), the eigenpair at p = 1.25
(n = 256, q = 1.1), JSON and stdout output (also of a region cell whose Picone minimum is
-inf), the region map on the test suite's wide 200 x 200 grid, p 1.01-12
and q 1 + 1e-7-11 (region-wide: roots of f' near 1e-300 where p is just
above 2, the cell whose s0 overflows, and the p < 2 cell whose root lies 4
ulps off the bisection), zero-pairing sweeps at lambda1 (no mountain-pass branch) and just
past it (a mountain pass over the local minimum, also at q = 1.5, where
that minimum carries negative dust, and on a wider positive bump, where
Newton fails from the first entry and the string resumes), q near p, where
the fibered powers p/(p-q) and q/(p-q) overflow a float (a sweep whose
m_minus row fails, sweep-q-near-p, and a ground solve that exits 3,
ground-q-near-p), and configs that must be refused, among them a weight
file holding a nan (bad-weight-nan) and an infinite interval end
(bad-x-hi-inf).
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"

SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

# configs written to the scratch directory; "{dir}" becomes its path
INLINE = {
    "ground-p3": """
n_cells = 256
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.9
lambda_count = 1
tol = 1e-8
seed = 7
""",
    "ground-p4": """
n_cells = 256
p = 4.0
q = 1.5
weight_family = two-bump
lambda_start = 1.05
lambda_count = 1
tol = 1e-8
seed = 7
""",
    "ground-small": """
n_cells = 96
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.5
lambda_count = 1
starts = 2
seed = 1
""",
    # two candidates that vanish on a positive-weight component: the
    # dead-core verdict; the other six reach picone_certificate
    "certify-dead-core": """
n_cells = 96
p = 2.0
q = 1.5
weight_family = two-bump
lambda_start = 0.5
lambda_count = 1
seed = 11
certify_starts = 8
""",
    "certify": """
n_cells = 128
p = 2.0
q = 1.5
weight_family = orthogonal-two-bump
lambda_start = 1.02
lambda_count = 1
seed = 11
certify_starts = 8
""",
    "small-sweep": """
n_cells = 96
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.4
lambda_stop = 1.05
lambda_count = 2
tol = 1e-8
seed = 7
starts = 2
sample_count = 1
""",
    "crosses-threshold": """
n_cells = 128
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 1.10
lambda_stop = 1.19
lambda_count = 2
tol = 1e-8
seed = 3
starts = 3
sample_count = 2
""",
    "past-threshold": """
n_cells = 256
x_lo = 0.0
x_hi = 1.0
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.9
lambda_stop = 1.2
lambda_count = 3
tol = 1e-8
seed = 7
""",
    "three-mu0": """
n_cells = 128
p = 5.0
q = 2.0
weight_family = perturbed
mu = 0.0
seed = 5
starts = 3
sample_count = 2
""",
    "zero-pairing-at-lambda1": """
n_cells = 128
p = 5.0
q = 2.0
weight_family = orthogonal-two-bump
lambda_start = 1.0
lambda_count = 1
seed = 7
starts = 3
sample_count = 2
""",
    "zero-pairing-past-lambda1": """
n_cells = 128
p = 5.0
q = 2.0
weight_family = orthogonal-two-bump
lambda_start = 1.02
lambda_count = 1
seed = 7
starts = 3
sample_count = 2
""",
    # the continued local minimum carries -2.45e-4 on 23 nodes: negative
    # dust the degenerate p = 5 flux leaves inside the stop residual
    "local-min-negative-dust": """
n_cells = 128
p = 5.0
q = 1.5
weight_family = orthogonal-two-bump
lambda_start = 1.02
lambda_count = 1
tol = 1e-8
seed = 7
starts = 3
sample_count = 2
""",
    # Newton fails from the 1e-2 entry; the string resumes to 1e-3 and
    # Newton finishes the saddle from there
    "resumed-saddle": """
n_cells = 128
p = 5.0
q = 2.0
weight_family = orthogonal-two-bump
center_plus = 0.22
width_plus = 0.28
lambda_start = 1.035
lambda_count = 1
seed = 7
starts = 3
sample_count = 2
""",
    # a positive pairing whose lambda_minus no start reaches within its budget
    "critical-unconverged": """
n_cells = 128
p = 3.0
q = 1.29
weight_family = two-bump
amp_plus = 52.9
center_plus = 0.44
width_plus = 0.21
amp_minus = 7.9
center_minus = 0.53
width_minus = 0.19
""",
    # q near p: between lambda1 = 21.1524 and lambda* = 21.1908, no m_minus start is accepted
    "sweep-q-near-p": """
n_cells = 128
p = 2.71
q = 2.59
weight_family = two-bump
amp_plus = 22.53
center_plus = 0.67
width_plus = 0.22
amp_minus = 26.51
center_minus = 0.46
width_minus = 0.12
lambda_start = 1.0009
lambda_count = 1
seed = 7
""",
    # q/(p-q) = 2999: the ray phase's first gradient overflows a float
    "ground-q-near-p": """
n_cells = 64
p = 3.0
q = 2.999
weight_family = two-bump
amp_plus = 60
lambda_start = 0.9
lambda_count = 1
seed = 7
""",
    "three-two-bump": "n_cells = 64\np = 5.0\nq = 2.0\nweight_family = two-bump\nstarts = 2\n",
    "region-small": "region_p_count = 4\nregion_q_count = 3\n",
    # at p = 1.01, q = 1 + 1e-7 the Picone minimum is -inf
    "region-inf": (
        "region_p_min = 1.01\nregion_p_max = 1.02\nregion_p_count = 2\n"
        "region_q_min = 1.0000001\nregion_q_max = 1.005\nregion_q_count = 2\n"
    ),
    # the test suite's wide 200 x 200 grid: roots of f' near 1e-300 where p
    # is just above 2, the cell (1.01, 1.0000001) whose s0 overflows, and
    # the p < 2 cell (1.3966, 1.0503) whose root lies 4 ulps off the bisection
    "region-wide": (
        "region_p_min = 1.01\nregion_p_max = 12.0\nregion_p_count = 200\n"
        "region_q_min = 1.0000001\nregion_q_max = 11.0\nregion_q_count = 200\n"
    ),
    "eigen-small": "n_cells = 64\np = 2.0\nq = 1.5\n",
    "eigen-p1.25": "n_cells = 256\np = 1.25\nq = 1.1\n",
    "bad-n-cells-fraction": "n_cells = 7.5\n",
    "bad-tol-text": "tol = abc\n",
    "bad-n-cells-one": "n_cells = 1\n",
    "bad-x-lo": "x_lo = 1.0\n",
    "bad-weight-file": "n_cells = 64\nweight_family = file\nweight_file = {dir}/three-values.txt\n",
    "bad-beads": "n_cells = 64\np = 5.0\nq = 2.0\nweight_family = perturbed\nmu = 0.05\nbeads = 3\n",
    "bad-starts": "n_cells = 64\nlambda_start = 0.5\nlambda_count = 1\nstarts = 0\n",
    "bad-lambda-nan": "n_cells = 64\nlambda_scale = absolute\nlambda_start = nan\nlambda_count = 1\n",
    "bad-weight-nan": "n_cells = 4\nweight_family = file\nweight_file = {dir}/nan-weight.txt\n",
    "bad-x-hi-inf": "n_cells = 64\nx_hi = inf\n",
}
DATA_FILES = {"three-values.txt": "1.0\n-2.0\n3.0\n", "nan-weight.txt": "1.0\n-2.0\nnan\n3.0\n-1.0\n"}


@dataclass(frozen=True)
class Command:
    name: str
    subcommand: str
    config: str  # a file under perfbench/configs/ (*.cfg) or a key of INLINE
    extra: tuple[str, ...] = ()
    format: str = "csv"
    to_file: bool = True  # False: the output goes to stdout

    def argv(self, config_dir: Path, out: Path) -> list[str]:
        config = CONFIGS / self.config if self.config.endswith(".cfg") else config_dir / f"{self.config}.cfg"
        args = [self.subcommand, "--config", str(config), "--format", self.format, *self.extra]
        return args + (["--out", str(out)] if self.to_file else [])


COMMANDS = (
    # the benchmark workloads
    *(
        Command(f"eigen-p1.5-n{n}", "eigen", f"eigen-p1.5-n{n}.cfg", format="json")
        for n in (256, 512, 1024, 2048, 4096)
    ),
    Command("region-map", "region", "region-map.cfg"),
    Command("sweep-p3", "sweep", "sweep-p3.cfg"),
    Command("three-p5", "three", "three-p5.cfg"),
    # other seeds, branches and subcommands
    Command("critical-p3", "critical", "sweep-p3.cfg"),
    Command("sweep-p3-seed3", "sweep", "sweep-p3.cfg", ("--seed", "3")),
    # a tol below the eigen solve's fixed stop; m_minus at 1.025 lambda1 caps on both starts
    Command("sweep-p3-tol1e-10", "sweep", "sweep-p3.cfg", ("--tol", "1e-10")),
    # seed 3 finds the triple at 0.9975 lambda1, the pinned seed 7 at 0.995 lambda1
    Command("three-p5-seed3", "three", "three-p5.cfg", ("--seed", "3")),
    Command("ground-p3", "ground", "ground-p3"),
    Command("ground-p4", "ground", "ground-p4"),
    Command("certify", "certify", "certify"),
    Command("certify-dead-core", "certify", "certify-dead-core"),
    Command("small-sweep", "sweep", "small-sweep"),
    Command("crosses-threshold", "sweep", "crosses-threshold"),
    Command("past-threshold-seed3", "sweep", "past-threshold", ("--seed", "3")),
    Command("three-mu0", "three", "three-mu0"),
    Command("ground-small", "ground", "ground-small"),
    Command("eigen-p1.25-n256", "eigen", "eigen-p1.25", format="json"),
    # output formats: JSON of every kind of output, and stdout
    Command("critical-p3-json", "critical", "sweep-p3.cfg", format="json"),
    Command("region-small-json", "region", "region-small", format="json"),
    Command("small-sweep-json", "sweep", "small-sweep", format="json"),
    Command("certify-json", "certify", "certify", format="json"),
    Command("eigen-small-stdout", "eigen", "eigen-small", to_file=False),
    Command("eigen-small-stdout-json", "eigen", "eigen-small", format="json", to_file=False),
    Command("ground-small-stdout", "ground", "ground-small", to_file=False),
    Command("region-small-stdout-json", "region", "region-small", format="json", to_file=False),
    Command("region-inf-json", "region", "region-inf", format="json"),
    # every kind of Picone cell, on the test suite's wide grid
    Command("region-wide", "region", "region-wide"),
    # the perturbed weight outside the three-solution scan
    Command("critical-p5-perturbed", "critical", "three-p5.cfg"),
    # a second lambda* record, and a search that ends unconverged
    Command("critical-ground-p4", "critical", "ground-p4"),
    Command("critical-unconverged", "critical", "critical-unconverged"),
    # the zero-pairing threshold lambda* = lambda1: a local minimum and no
    # runaway state at lambda1, a mountain pass over it just past lambda1
    Command("zero-pairing-at-lambda1", "sweep", "zero-pairing-at-lambda1"),
    Command("zero-pairing-past-lambda1", "sweep", "zero-pairing-past-lambda1"),
    # a mountain pass from a local minimum with negative dust
    Command("local-min-negative-dust", "sweep", "local-min-negative-dust"),
    # a mountain pass whose string resumes after the first Newton entry
    Command("resumed-saddle", "sweep", "resumed-saddle"),
    # q near p, where the fibered powers overflow a float
    Command("sweep-q-near-p", "sweep", "sweep-q-near-p"),
    Command("ground-q-near-p", "ground", "ground-q-near-p"),
    # configs that must be refused
    Command("three-two-bump", "three", "three-two-bump"),
    Command("bad-n-cells-fraction", "eigen", "bad-n-cells-fraction"),
    Command("bad-tol-text", "eigen", "bad-tol-text"),
    Command("bad-n-cells-one", "eigen", "bad-n-cells-one"),
    Command("bad-x-lo", "eigen", "bad-x-lo"),
    Command("bad-weight-file", "ground", "bad-weight-file"),
    Command("bad-beads", "three", "bad-beads"),
    Command("bad-starts", "ground", "bad-starts"),
    Command("bad-lambda-nan", "ground", "bad-lambda-nan"),
    Command("bad-weight-nan", "critical", "bad-weight-nan"),
    Command("bad-x-hi-inf", "eigen", "bad-x-hi-inf"),
    Command("bad-tol-flag", "eigen", "eigen-small", ("--tol", "0")),
    Command("missing-config", "eigen", "missing"),
)


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes | None  # None: no output file was written


def run(tree: Path, cmd: Command, config_dir: Path, out: Path) -> Outcome:
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "plaplab.cli", *cmd.argv(config_dir, out)],
        cwd=config_dir,
        env=env,
        capture_output=True,
    )
    output = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return Outcome(proc.returncode, proc.stdout, proc.stderr, output)


def _diff(label: str, a: bytes | None, b: bytes | None, keep: int = 6) -> list[str]:
    """The first lines only on the base side (-) and only on the change side (+)."""
    lines = list(
        difflib.unified_diff(
            (a or b"").decode(errors="replace").splitlines(),
            (b or b"").decode(errors="replace").splitlines(),
            lineterm="",
            n=0,
        )
    )[2:]
    report = [f"{label}:"]
    for sign in "-+":
        side = [line for line in lines if line.startswith(sign)]
        report += side[:keep] + ([f"{sign} ... {len(side) - keep} more lines"] if len(side) > keep else [])
    return report


def _records(text: bytes | None) -> list[dict] | None:
    """The rows of a CSV or JSON output as dicts; None for text that is neither."""
    if not text:
        return None
    body = text.decode(errors="replace")
    if body.lstrip().startswith(("[", "{")):
        try:
            data = json.loads(body)
        except ValueError:
            return None
        return data if isinstance(data, list) else [data]
    header, *lines = [line.split(",") for line in body.splitlines() if line]
    if any(len(cells) != len(header) for cells in lines):
        return None
    return [dict(zip(header, cells)) for cells in lines]


def _number(value) -> float | None:
    """A CSV cell or JSON value as a float; None when it is empty or not a number."""
    if value is None or isinstance(value, bool):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _text(value) -> str:
    if value is None or value == "":
        return "-"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _relative(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0


def _track(maxima: dict[str, float], name: str, value: float) -> None:
    maxima[name] = max(maxima.get(name, 0.0), value)


def _keyed_rows(records: list[dict]) -> dict[tuple, dict]:
    """Branch rows keyed by (branch, lambda, k): the k-th row with that branch and lambda."""
    seen: Counter = Counter()
    keyed = {}
    for rec in records:
        key = (rec["branch"], _text(rec["lambda"]))
        keyed[key + (seen[key],)] = rec
        seen[key] += 1
    return keyed


def _row_label(key: tuple) -> str:
    branch, lam, k = key
    return f"{branch} lambda={float(lam):.10g}" + (f" #{k + 1}" if k else "")


def _moved_rows(a: list[dict], b: list[dict], maxima: dict[str, float]) -> list[str]:
    """One line per branch row that differs or is present on one side only."""
    base, change = _keyed_rows(a), _keyed_rows(b)
    report = []
    for key in [*base, *(k for k in change if k not in base)]:
        if key not in change or key not in base:
            side, rec = ("base", base[key]) if key in base else ("change", change[key])
            report.append(f"{_row_label(key)}: {side} only (level {_text(rec['energy'])}, status {rec['status']})")
            continue
        ra, rb = base[key], change[key]
        if ra == rb:
            continue
        parts = []
        level_a, level_b = _number(ra["energy"]), _number(rb["energy"])
        if level_a is not None and level_b is not None:
            moved = _relative(level_a, level_b)
            parts.append(f"level {moved:.2e} rel")
            _track(maxima, f"{key[0]} level (relative)", moved)
        else:
            parts.append(f"level {_text(ra['energy'])} -> {_text(rb['energy'])}")
        linf_a, linf_b = _number(ra["linf_norm"]), _number(rb["linf_norm"])
        if linf_a is not None and linf_b is not None:
            moved = abs(linf_b - linf_a)
            parts.append(f"linf {moved:.2e}")
            _track(maxima, f"{key[0]} linf_norm (absolute)", moved)
        parts.append(f"iters {_text(ra['iterations'])} -> {_text(rb['iterations'])}")
        res_a, res_b = _number(ra["residual"]), _number(rb["residual"])
        if res_a is not None and res_b is not None:
            parts.append(f"residual {res_a:.2e} -> {res_b:.2e}")
        for column in ("status", "positive_on_plus", "dead_cores"):
            if ra[column] != rb[column]:
                parts.append(f"{column} {_text(ra[column])} -> {_text(rb[column])}")
        report.append(f"{_row_label(key)}: " + ", ".join(parts))
    return report


def _moved_cells(a: list[dict], b: list[dict], maxima: dict[str, float]) -> list[str]:
    """One line per region cell (p, q) that differs or is present on one side only."""
    base = {(_text(r["p"]), _text(r["q"])): r for r in a}
    change = {(_text(r["p"]), _text(r["q"])): r for r in b}
    report = []
    flips = 0
    for key in [*base, *(k for k in change if k not in base)]:
        label = f"p={key[0]} q={key[1]}"
        if key not in change or key not in base:
            report.append(f"{label}: {'base' if key in base else 'change'} only")
            continue
        ra, rb = base[key], change[key]
        if ra == rb:
            continue
        parts = []
        min_a, min_b = _number(ra["picone_min"]), _number(rb["picone_min"])
        if min_a is not None and min_b is not None and min_a != min_b:
            moved = abs(min_b - min_a)
            parts.append(f"picone_min {moved:.2e} ({min_a!r} -> {min_b!r})")
            _track(maxima, "picone_min (absolute)", moved)
        flipped = [c for c in ra if c not in ("p", "q", "picone_min") and ra[c] != rb.get(c)]
        parts += [f"{c} {_text(ra[c])} -> {_text(rb.get(c))}" for c in flipped]
        flips += bool(flipped)
        report.append(f"{label}: " + ", ".join(parts))
    _track(maxima, "region cells flipped in one command", flips)
    return report


def _moved_fields(a: dict, b: dict, maxima: dict[str, float]) -> list[str]:
    """One line per field of a record that differs."""
    report = []
    for name in [*a, *(k for k in b if k not in a)]:
        va, vb = a.get(name), b.get(name)
        if va == vb:
            continue
        na, nb = _number(va), _number(vb)
        if na is not None and nb is not None:
            moved = _relative(na, nb)
            _track(maxima, f"{name} (relative)", moved)
            report.append(f"{name}: {moved:.2e} rel ({na!r} -> {nb!r})")
        else:
            report.append(f"{name}: {_text(va)} -> {_text(vb)}")
    return report


def _moved(a: bytes | None, b: bytes | None, maxima: dict[str, float]) -> list[str] | None:
    """Row-level report of two branch tables or two records; None when they are neither."""
    ra, rb = _records(a), _records(b)
    if ra is None or rb is None:
        return None
    columns = {"lambda", "branch", "energy", "linf_norm", "residual", "iterations", "status"}
    if all(columns <= rec.keys() for rec in ra + rb):
        return _moved_rows(ra, rb, maxima)
    if all({"p", "q", "picone_min"} <= rec.keys() for rec in ra + rb):
        return _moved_cells(ra, rb, maxima)
    if len(ra) == len(rb) == 1:
        return _moved_fields(ra[0], rb[0], maxima)
    return None


def compare(base: Outcome, change: Outcome, maxima: dict[str, float]) -> list[str]:
    """The differences between two outcomes, as report lines (none when equal).

    maxima collects the largest moves of levels, linf_norm and record fields.
    """
    report = []
    if base.code != change.code:
        report.append(f"exit code {base.code} -> {change.code}")
    for label in ("output", "stdout", "stderr"):
        a, b = getattr(base, label), getattr(change, label)
        if a != b:
            if (a is None) != (b is None):
                report.append(f"{label}: written by {'change' if a is None else 'base'} only")
            moved = None if label == "stderr" else _moved(a, b, maxima)
            if moved is None:
                report.extend(_diff(label, a, b))
            else:
                report.append(f"{label}:")
                report.extend(f"  {line}" for line in moved)
    return report


def _not_json(cmd: Command, outcome: Outcome) -> str | None:
    """Why json.loads rejects the JSON output of a --format json command; None if it parses."""
    text = outcome.output if cmd.to_file else outcome.stdout
    if cmd.format != "json" or not text:
        return None
    try:
        json.loads(text)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    args = parser.parse_args(argv)

    differing = rejected = 0
    maxima: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        config_dir = Path(tmp)
        for name, text in INLINE.items():
            (config_dir / f"{name}.cfg").write_text(text.replace("{dir}", tmp))
        for name, text in DATA_FILES.items():
            (config_dir / name).write_text(text)
        for cmd in COMMANDS:
            out = config_dir / f"{cmd.name}.{cmd.format}"
            base = run(args.base.resolve(), cmd, config_dir, out)
            change = run(args.change.resolve(), cmd, config_dir, out)
            report = compare(base, change, maxima)
            status = "DIFFERS" if report else "same   "
            differing += bool(report)
            for side, outcome in (("base", base), ("change", change)):
                why = _not_json(cmd, outcome)
                if why is not None:
                    rejected += 1
                    report.append(f"{side}: json.loads rejects the output ({why})")
            print(f"{status} {cmd.name} (exit {base.code} -> {change.code})", flush=True)
            for line in report:
                print(f"    {line}", flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical")
    if rejected:
        print(f"{rejected} JSON outputs that json.loads rejects")
    if maxima:
        print("largest moves over all commands:")
        for name, value in sorted(maxima.items()):
            print(f"    {name}: {value:.2e}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

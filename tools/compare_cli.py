#!/usr/bin/env python3
"""Compare the plaplab command line of two source trees, byte for byte.

    python3 tools/compare_cli.py --base DIR --change DIR

DIR is a checkout whose package lives under DIR/src. Every command of the
fixed list below runs twice in a fresh process, once against each tree,
with the same config path and the same output path, so that messages that
name a path agree. For each command the script compares the output file,
stdout, stderr and the exit code, prints one line per command with what
differs and a short diff, and exits 1 on any difference.

The list holds the commands of the four benchmark workloads, whose configs
are read from this checkout's perfbench/configs/, and small configs taken
from the test suite: sweeps on both sides of the threshold, the
three-solution scan, ground, certify, critical, JSON and stdout output, a
sweep whose mountain pass fails, and configs that must be refused.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
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
    "mountain-pass-fails": """
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
    "three-two-bump": "n_cells = 64\np = 5.0\nq = 2.0\nweight_family = two-bump\nstarts = 2\n",
    "region-small": "region_p_count = 4\nregion_q_count = 3\n",
    "eigen-small": "n_cells = 64\np = 2.0\nq = 1.5\n",
    "bad-n-cells-fraction": "n_cells = 7.5\n",
    "bad-tol-text": "tol = abc\n",
    "bad-n-cells-one": "n_cells = 1\n",
    "bad-x-lo": "x_lo = 1.0\n",
    "bad-weight-file": "n_cells = 64\nweight_family = file\nweight_file = {dir}/three-values.txt\n",
    "bad-beads": "n_cells = 64\np = 5.0\nq = 2.0\nweight_family = perturbed\nmu = 0.05\nbeads = 3\n",
    "bad-starts": "n_cells = 64\nlambda_start = 0.5\nlambda_count = 1\nstarts = 0\n",
    "bad-lambda-nan": "n_cells = 64\nlambda_scale = absolute\nlambda_start = nan\nlambda_count = 1\n",
}
DATA_FILES = {"three-values.txt": "1.0\n-2.0\n3.0\n"}


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
    Command("ground-p3", "ground", "ground-p3"),
    Command("certify", "certify", "certify"),
    Command("small-sweep", "sweep", "small-sweep"),
    Command("crosses-threshold", "sweep", "crosses-threshold"),
    Command("past-threshold-seed3", "sweep", "past-threshold", ("--seed", "3")),
    Command("three-mu0", "three", "three-mu0"),
    Command("ground-small", "ground", "ground-small"),
    # output formats: JSON of every kind of output, and stdout
    Command("critical-p3-json", "critical", "sweep-p3.cfg", format="json"),
    Command("region-small-json", "region", "region-small", format="json"),
    Command("small-sweep-json", "sweep", "small-sweep", format="json"),
    Command("certify-json", "certify", "certify", format="json"),
    Command("eigen-small-stdout", "eigen", "eigen-small", to_file=False),
    Command("eigen-small-stdout-json", "eigen", "eigen-small", format="json", to_file=False),
    Command("ground-small-stdout", "ground", "ground-small", to_file=False),
    Command("region-small-stdout-json", "region", "region-small", format="json", to_file=False),
    # the perturbed weight outside the three-solution scan
    Command("critical-p5-perturbed", "critical", "three-p5.cfg"),
    # a mountain pass that fails after an ok local minimum
    Command("mountain-pass-fails", "sweep", "mountain-pass-fails"),
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


def compare(base: Outcome, change: Outcome) -> list[str]:
    """The differences between two outcomes, as report lines (none when equal)."""
    report = []
    if base.code != change.code:
        report.append(f"exit code {base.code} -> {change.code}")
    for label in ("output", "stdout", "stderr"):
        a, b = getattr(base, label), getattr(change, label)
        if a != b:
            if (a is None) != (b is None):
                report.append(f"{label}: written by {'change' if a is None else 'base'} only")
            report.extend(_diff(label, a, b))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    args = parser.parse_args(argv)

    differing = 0
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
            report = compare(base, change)
            differing += bool(report)
            status = "DIFFERS" if report else "same   "
            print(f"{status} {cmd.name} (exit {base.code} -> {change.code})", flush=True)
            for line in report:
                print(f"    {line}", flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

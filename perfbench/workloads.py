"""The benchmark's workloads: the CLI commands of one round and their configs.

A round is one fresh process that runs every command of its workload, in
order, through ``plaplab.cli.main``. Configs live in ``configs/`` and pin
the solvers' multistart seed: the amount of work a sweep or scan does
depends on that seed (wall time 17-26 s across seeds 1-6 on sweep-p3), so
a benchmark seed passed through to the CLI would measure the seed, not the
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"

EIGEN_LADDER = (256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class Command:
    subcommand: str
    config: str  # file name under configs/
    output: str  # file name under the round's output directory
    format: str = "csv"

    def argv(self, out_dir: Path) -> list[str]:
        return [
            self.subcommand,
            "--config",
            str(CONFIGS / self.config),
            "--out",
            str(out_dir / self.output),
            "--format",
            self.format,
        ]


# workload name -> the commands of one round
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "sweep-p3": (Command("sweep", "sweep-p3.cfg", "sweep.csv"),),
    "three-p5": (Command("three", "three-p5.cfg", "three.csv"),),
    "region-map": (Command("region", "region-map.cfg", "region.csv"),),
    "eigen-p1.5": tuple(
        Command("eigen", f"eigen-p1.5-n{n}.cfg", f"eigen-n{n}.json", "json") for n in EIGEN_LADDER
    ),
}


def read_config(name: str) -> dict[str, str]:
    """The key=value pairs of a config file, read without plaplab's parser."""
    values = {}
    for raw in (CONFIGS / name).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values

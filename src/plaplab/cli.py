"""Command line: experiment presets and machine-readable outputs.

    plaplab eigen    --config run.cfg [--out eigen.csv --format csv]
    plaplab critical --config run.cfg
    plaplab ground   --config run.cfg
    plaplab sweep    --config run.cfg --out sweep.csv
    plaplab three    --config run.cfg --out three.csv
    plaplab region   --config run.cfg --out region.csv
    plaplab certify  --config run.cfg --out certify.csv

Exit codes: 0 on success, 2 on configuration errors, 3 on solver failure.
For ground, sweep and three, a solver failure is a branch of the table
without a single ok row; certify rows are verdicts and exit 0. eigen reads
only the mesh and p, so a weight the other commands refuse does not stop
it. Every result, a table or the single record of eigen and critical, is
written by tables.emit in the requested format: to --out, or to stdout
when --out is omitted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .critical import compute_critical_values
from .eigen import first_eigenpair
from .errors import ConfigError, PlapLabError, SolverError
from .grid import make_mesh
from .sweeps import (
    RunConfig,
    build_problem,
    load_config,
    run_certify,
    run_ground,
    run_region_map,
    run_sweep,
    run_three_solutions,
)
from .tables import BranchTable, RegionTable, emit

__all__ = ["main"]


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.tol is not None:
        updates["tol"] = args.tol
    return replace(config, **updates) if updates else config


def _write(text: str, out: str | None) -> None:
    """Retired: every command writes through tables.emit.

    The name stays only because the benchmark's tracer
    (perfbench/tracing.py) wraps it; remove the two together.
    """
    raise NotImplementedError("write through tables.emit")


def _cmd_eigen(config: RunConfig) -> tuple[dict, int]:
    pair = first_eigenpair(make_mesh(config.x_lo, config.x_hi, config.n_cells), config.p)
    record = {
        "p": config.p,
        "n_cells": config.n_cells,
        "lambda1": pair.lambda1,
        "residual_sup": pair.residual_sup,
        "iterations": pair.iterations,
        "phi_linf": pair.phi.linf(),
    }
    return record, 0


def _cmd_critical(config: RunConfig) -> tuple[dict, int]:
    problem = build_problem(config)
    crit = compute_critical_values(problem.spec0, problem.pair)
    record = {
        "p": config.p,
        "q": config.q,
        "pairing": crit.pairing,
        "pairing_sign": crit.pairing_sign,
        "lambda1": crit.lambda1,
        "lambda_star": crit.lambda_star,
        "lambda_plus": crit.lambda_plus,
        "lambda_minus": crit.lambda_minus,
        "lambda_zero": crit.lambda_zero,
        "converged": crit.converged,
    }
    return record, 0


def _branch_exit_code(table: BranchTable) -> int:
    """3 when some branch in the table has no ok row, else 0."""
    ok = {r.branch for r in table.rows if r.status == "ok"}
    return 3 if any(r.branch not in ok for r in table.rows) else 0


def _branches(table: BranchTable) -> tuple[BranchTable, int]:
    return table, _branch_exit_code(table)


def _cmd_region(config: RunConfig) -> tuple[RegionTable, int]:
    p_grid = np.linspace(config.region_p_min, config.region_p_max, config.region_p_count)
    q_grid = np.linspace(config.region_q_min, config.region_q_max, config.region_q_count)
    return run_region_map(p_grid, q_grid), 0


# command -> (result to emit, exit code)
_COMMANDS = {
    "eigen": _cmd_eigen,
    "critical": _cmd_critical,
    "ground": lambda config: _branches(run_ground(config)),
    "sweep": lambda config: _branches(run_sweep(config)),
    "three": lambda config: _branches(run_three_solutions(config)),
    "region": _cmd_region,
    "certify": lambda config: (run_certify(config), 0),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One flat parser, the command a positional choice and every option shared by all commands.

    Built once per process: parse_args leaves it unchanged, so every main call shares it.
    """
    parser = argparse.ArgumentParser(prog="plaplab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file (key=value)")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        result, code = _COMMANDS[args.command](config)
        emit(result, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except PlapLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

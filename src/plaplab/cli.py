"""Command line: experiment presets and machine-readable outputs.

    plaplab eigen    --config run.cfg [--out eigen.csv --format csv]
    plaplab critical --config run.cfg
    plaplab ground   --config run.cfg
    plaplab sweep    --config run.cfg --out sweep.csv
    plaplab three    --config run.cfg --out three.csv
    plaplab region   --config run.cfg --out region.csv
    plaplab certify  --config run.cfg --out certify.csv

Exit codes: 0 on success, 2 on configuration errors, 3 on solver failure.
Without --out, tables are printed to stdout in the requested format.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .critical import compute_critical_values
from .errors import ConfigError, PlapLabError, SolverError
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
from .tables import emit

__all__ = ["main"]


def _record_text(record: dict, format: str) -> str:
    if format == "json":
        parts = []
        for k, v in record.items():
            if isinstance(v, bool):
                parts.append(f'"{k}": {"true" if v else "false"}')
            elif isinstance(v, float):
                parts.append(f'"{k}": {format_float(v)}')
            elif isinstance(v, int):
                parts.append(f'"{k}": {v}')
            else:
                parts.append(f'"{k}": {json.dumps(v)}')
        return "{" + ", ".join(parts) + "}\n"
    header = ",".join(record.keys())
    cells = []
    for v in record.values():
        if isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(format_float(v))
        else:
            cells.append(str(v))
    return header + "\n" + ",".join(cells) + "\n"


def format_float(x: float) -> str:
    return format(x, ".17g")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.tol is not None:
        updates["tol"] = args.tol
    return replace(config, **updates) if updates else config


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_table(table, args: argparse.Namespace) -> None:
    if args.out is None:
        text = table.to_csv() if args.format == "csv" else table.to_json()
        sys.stdout.write(text)
    else:
        emit(table, args.out, args.format)


def _cmd_eigen(config: RunConfig, args: argparse.Namespace) -> int:
    problem = build_problem(config)
    pair = problem.pair
    record = {
        "p": config.p,
        "n_cells": config.n_cells,
        "lambda1": pair.lambda1,
        "residual_sup": pair.residual_sup,
        "iterations": pair.iterations,
        "phi_linf": pair.phi.linf(),
    }
    _write(_record_text(record, args.format), args.out)
    return 0


def _cmd_critical(config: RunConfig, args: argparse.Namespace) -> int:
    problem = build_problem(config)
    crit = compute_critical_values(problem.spec0, problem.pair, seed=config.seed)
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
    _write(_record_text(record, args.format), args.out)
    return 0


def _cmd_ground(config: RunConfig, args: argparse.Namespace) -> int:
    table = run_ground(config)
    _emit_table(table, args)
    return 0 if all(r.status == "ok" for r in table.rows) else 3


def _cmd_sweep(config: RunConfig, args: argparse.Namespace) -> int:
    _emit_table(run_sweep(config), args)
    return 0


def _cmd_three(config: RunConfig, args: argparse.Namespace) -> int:
    _emit_table(run_three_solutions(config), args)
    return 0


def _cmd_region(config: RunConfig, args: argparse.Namespace) -> int:
    p_grid = np.linspace(config.region_p_min, config.region_p_max, config.region_p_count)
    q_grid = np.linspace(config.region_q_min, config.region_q_max, config.region_q_count)
    _emit_table(run_region_map(p_grid, q_grid), args)
    return 0


def _cmd_certify(config: RunConfig, args: argparse.Namespace) -> int:
    _emit_table(run_certify(config), args)
    return 0


_COMMANDS = {
    "eigen": _cmd_eigen,
    "critical": _cmd_critical,
    "ground": _cmd_ground,
    "sweep": _cmd_sweep,
    "three": _cmd_three,
    "region": _cmd_region,
    "certify": _cmd_certify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plaplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file (key=value)")
        cmd.add_argument("--out", default=None, help="output path (stdout when omitted)")
        cmd.add_argument("--format", default="csv", choices=("csv", "json"))
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--tol", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        code = _COMMANDS[args.command](config, args)
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

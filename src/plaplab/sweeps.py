"""Experiment drivers: run configuration, the problem builder, parameter
sweeps, the three-solution scan, the exponent region map, and the
nonexistence certification experiment.

A run configuration is a flat key=value text file with # comments. Its
keys are the fields of RunConfig: a field's default is the key's default,
and its declared type converts the key's text. Unknown keys, values that do
not convert and degenerate values (a float key that is not finite, fewer
than two cells, an empty interval, a tolerance that is not positive, no
starts, too few beads) raise ConfigError. The lambda grid may be
given in absolute units or as multiples of the first eigenvalue
(lambda_scale = lambda1, the default), which is how every preset
experiment is phrased.

build_problem is the one path from a config to its mesh, weight (see
presets.build_weight), eigenpair and sign partition; every driver solves on
the problem it builds. A solve that raises becomes a marker row
error:<Type> of the branch it was computing, so no driver aborts on a
single lambda.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import solvers
from .critical import (
    DEAD_CORE_RTOL,
    CriticalValues,
    _region_of,
    compute_critical_values,
    picone_certificate,
    picone_condition,
    picone_conditions,
)
from .eigen import EigenPair, first_eigenpair
from .errors import ConfigError, PlapLabError, SolverError
from .functionals import ProblemSpec
from .grid import SignPartition, Weight, make_mesh, sign_partition
from .presets import build_weight
from .solvers import MinimizerSet, SolveReport
from .tables import BranchRow, BranchTable, RegionRow, RegionTable

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "build_problem",
    "run_sweep",
    "run_three_solutions",
    "run_region_map",
    "run_certify",
    "run_ground",
]

@dataclass(frozen=True)
class RunConfig:
    """One run's settings; the field defaults are the config file defaults."""

    n_cells: int = 256
    x_lo: float = 0.0
    x_hi: float = 1.0
    p: float = 3.0
    q: float = 2.0
    weight_family: str = "two-bump"
    weight_file: str = ""
    amp_plus: float | None = None
    center_plus: float | None = None
    width_plus: float | None = None
    amp_minus: float | None = None
    center_minus: float | None = None
    width_minus: float | None = None
    mu: float = 0.0
    b_center: float | None = None
    b_width: float | None = None
    b_amp: float | None = None
    lambda_start: float = 0.5
    lambda_stop: float = 1.2
    lambda_count: int = 8
    lambda_scale: str = "lambda1"
    tol: float = 1e-8
    seed: int = 0
    starts: int = 8
    beads: int = 17
    sample_count: int = 4
    region_p_min: float = 1.1
    region_p_max: float = 6.0
    region_p_count: int = 50
    region_q_min: float = 1.05
    region_q_max: float = 4.0
    region_q_count: int = 50
    certify_starts: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if _CONVERT[f.type] is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.n_cells < 2:
            raise ConfigError(f"n_cells must be at least 2, got {self.n_cells}")
        if not self.x_lo < self.x_hi:
            raise ConfigError(f"need x_lo < x_hi, got x_lo={self.x_lo}, x_hi={self.x_hi}")
        if self.lambda_count < 1:
            raise ConfigError("lambda grid must be nonempty")
        if self.lambda_scale not in ("lambda1", "absolute"):
            raise ConfigError(f"lambda_scale must be lambda1 or absolute, got {self.lambda_scale!r}")
        if not 1.0 < self.q < self.p:  # also rejects p <= 1
            raise ConfigError(f"need 1 < q < p, got q={self.q}, p={self.p}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        for name in ("starts", "sample_count", "certify_starts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.beads < solvers.MIN_BEADS:
            raise ConfigError(f"beads must be at least {solvers.MIN_BEADS}, got {self.beads}")


# a field's declared type -> the conversion of its config text
_CONVERT = {"int": int, "float": float, "float | None": float, "str": str}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; unknown keys are errors.

    Each value is converted by the declared type of its RunConfig field.
    """
    types = {f.name: f.type for f in fields(RunConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        convert = _CONVERT[types[key]]
        try:
            values[key] = convert(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} = {val!r} is not a valid {convert.__name__}") from None
    return RunConfig(**values)  # type: ignore[arg-type]


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


@dataclass(frozen=True)
class Problem:
    """Everything a driver needs: instance pieces plus the eigenpair."""

    config: RunConfig
    base: Weight  # the weight before the perturbation of the perturbed family
    spec0: ProblemSpec  # lam = 0 carrier of the mesh and weight; use spec0.with_lambda(lam)
    pair: EigenPair
    partition: SignPartition


def build_problem(config: RunConfig) -> Problem:
    """The one path from a config to its mesh, weight, eigenpair and partition."""
    mesh = make_mesh(config.x_lo, config.x_hi, config.n_cells)
    base, weight = build_weight(mesh, config)
    pair = first_eigenpair(mesh, config.p)
    spec0 = ProblemSpec(config.p, config.q, 0.0, weight, mesh)
    return Problem(config, base, spec0, pair, sign_partition(weight))


def _lambda_grid(config: RunConfig, lambda1: float) -> np.ndarray:
    scale = lambda1 if config.lambda_scale == "lambda1" else 1.0
    return np.linspace(config.lambda_start * scale, config.lambda_stop * scale, config.lambda_count)


def _row_from_report(rep: SolveReport, branch: str, partition: SignPartition) -> BranchRow:
    classified = solvers.classify(rep, partition, DEAD_CORE_RTOL * max(rep.u.linf(), 1e-30))
    pos = bool(classified.positive_on_plus) and all(classified.positive_on_plus)
    return BranchRow(
        lam=rep.lam,
        branch=branch,
        energy=rep.breakdown.I_trunc,
        linf_norm=rep.u.linf(),
        residual=rep.residual_sup,
        positive_on_plus=pos,
        dead_cores=len(classified.dead_core_components or ()),
        iterations=rep.iterations,
        status="ok" if rep.status == "converged" else rep.status,
    )


def _failure_row(lam: float, branch: str, marker: str) -> BranchRow:
    return BranchRow(lam=lam, branch=branch, status=marker)


def _attempt(rows: list[BranchRow], lam: float, branch: str, solve: Callable[[], SolveReport]) -> SolveReport | None:
    """The result of solve(); None once a PlapLabError it raised is in rows as an error:<Type> row."""
    try:
        return solve()
    except PlapLabError as exc:
        rows.append(_failure_row(lam, branch, f"error:{type(exc).__name__}"))
        return None


def _sweep_one(problem: Problem, crit: CriticalValues, kset: MinimizerSet | None, lam: float) -> list[BranchRow]:
    config = problem.config
    spec = problem.spec0.with_lambda(lam)
    rows: list[BranchRow] = []

    def solve(branch: str, run: Callable[[], SolveReport]) -> SolveReport | None:
        rep = _attempt(rows, lam, branch, run)
        if rep is not None:
            rows.append(_row_from_report(rep, branch, problem.partition))
        return rep

    if lam < crit.lambda_star * (1.0 - 1e-12):
        solve("ground", lambda: solvers.ground_state(spec, starts=config.starts, tol=config.tol, seed=config.seed))
        if crit.pairing_sign == "negative" and lam > crit.lambda1 * (1.0 + 1e-12):
            solve("m_minus", lambda: solvers.m_minus(spec, starts=config.starts, tol=config.tol, seed=config.seed))
        return rows
    if kset is None:
        rows.append(_failure_row(lam, "local_min", "error:NoMinimizerSet"))
        return rows
    cont = solve("local_min", lambda: solvers.local_min_continuation(spec, kset, tol=config.tol))

    def climb() -> SolveReport:
        level = cont.breakdown.I_trunc
        omega = solvers.runaway_state(spec, level - 10.0 * abs(level) - 1.0, problem.pair)
        return solvers.mountain_pass(spec, cont.u, omega, beads=config.beads, tol=config.tol)

    # the mountain pass climbs from the local minimum to a runaway
    # state, which exists only for lam above lambda1
    if cont is not None and cont.ok and lam > crit.lambda1 * (1.0 + 1e-12):
        solve("mountain_pass", climb)
    return rows


def run_sweep(config: RunConfig) -> BranchTable:
    """Trace every applicable branch across the lambda grid.

    Below the threshold: ground states, plus the positive-level branch when
    the pairing is negative. At and above: minimizer-set continuation, and
    the mountain-pass branch over it where lam exceeds lambda1. Failures
    become marker rows; the sweep never aborts on a single lambda.
    """
    problem = build_problem(config)
    crit = compute_critical_values(problem.spec0, problem.pair)
    lambdas = _lambda_grid(config, problem.pair.lambda1)

    kset: MinimizerSet | None = None
    attainable = crit.pairing_sign == "negative" or (
        crit.pairing_sign == "zero" and config.p > 2.0 * config.q
    )
    if attainable and bool(np.any(lambdas >= crit.lambda_star * (1.0 - 1e-12))):
        try:
            kset = solvers.minimizer_set_at_star(
                problem.spec0.with_lambda(crit.lambda_star),
                sample_count=config.sample_count,
                tol=config.tol,
                seed=config.seed,
            )
        except SolverError:
            kset = None

    rows: list[BranchRow] = [row for lam in lambdas for row in _sweep_one(problem, crit, kset, float(lam))]
    return BranchTable(tuple(rows)).sorted()


THREE_SCAN_STEPS = 10
THREE_SCAN_BASE_OFFSET = 0.005  # of lambda1, halved per step


def run_three_solutions(config: RunConfig) -> BranchTable:
    """Scan a left neighborhood of the first eigenvalue for three solutions.

    Requires p > 2q and weight_family = perturbed (an orthogonalized base
    plus a multiple of a nonnegative bump). The scan starts 0.5% of lambda1
    below the eigenvalue and halves the offset per step: the window where
    the deep branch undercuts the local branch is typically narrower than
    a fixed 0.5% step. Emits rows for every probed lambda; the successful
    lambda carries the ground/local_min/mountain_pass triple with ok
    status and pairwise separation above 100 times the tolerance.
    """
    if config.weight_family != "perturbed":
        raise ConfigError(f"three-solution scan requires weight_family = perturbed, got {config.weight_family!r}")
    if not config.p > 2.0 * config.q:
        raise ConfigError("three-solution scan requires p > 2q")
    # mu = 0 degrades to the zero-pairing case: the deep branch never
    # separates below the eigenvalue and every probe reports no_distinct_pair
    problem = build_problem(config)
    pair, partition = problem.pair, problem.partition
    # the minimizer set of the unperturbed problem, whose threshold is lambda1
    kset = solvers.minimizer_set_at_star(
        ProblemSpec(config.p, config.q, pair.lambda1, problem.base, problem.spec0.mesh),
        sample_count=config.sample_count,
        tol=config.tol,
        seed=config.seed,
    )

    sep_floor = solvers.DISTINCT_TOL_FACTOR * config.tol
    rows: list[BranchRow] = []
    for j in range(THREE_SCAN_STEPS):
        lam = (1.0 - THREE_SCAN_BASE_OFFSET * 0.5**j) * pair.lambda1
        spec = problem.spec0.with_lambda(lam)
        w = _attempt(
            rows,
            lam,
            "ground",
            lambda: solvers.ground_state(spec, starts=config.starts, tol=config.tol, seed=config.seed),
        )
        if w is None:
            continue
        u = _attempt(rows, lam, "local_min", lambda: solvers.local_min_continuation(spec, kset, tol=config.tol))
        if u is None:
            continue
        sep_wu = float(np.max(np.abs(w.u.values - u.u.values)))
        ordered = (
            w.ok and u.ok and w.breakdown.I_trunc < u.breakdown.I_trunc < 0.0 and sep_wu > sep_floor
        )
        if not ordered:
            rows.append(_failure_row(lam, "ground", "no_distinct_pair"))
            continue
        v = _attempt(
            rows,
            lam,
            "mountain_pass",
            lambda: solvers.mountain_pass(spec, u.u, w.u, beads=config.beads, tol=config.tol),
        )
        if v is None:
            continue
        sep_uv = float(np.max(np.abs(u.u.values - v.u.values)))
        sep_wv = float(np.max(np.abs(w.u.values - v.u.values)))
        three = (
            v.ok
            and w.breakdown.I_trunc < u.breakdown.I_trunc < v.breakdown.I_trunc < 0.0
            and sep_uv > sep_floor
            and sep_wv > sep_floor
        )
        if three:
            rows.append(_row_from_report(w, "ground", partition))
            rows.append(_row_from_report(u, "local_min", partition))
            rows.append(_row_from_report(v, "mountain_pass", partition))
            break
        rows.append(_failure_row(lam, "mountain_pass", "no_third_solution"))
    return BranchTable(tuple(rows)).sorted()


def run_region_map(p_grid, q_grid) -> RegionTable:
    """Classify every admissible (p, q) pair on the grid, by one picone_conditions call."""
    q_list = np.asarray(q_grid, dtype=float).tolist()
    cells = [(p, q) for p in np.asarray(p_grid, dtype=float).tolist() for q in q_list if 1.0 < q < p]
    reports = picone_conditions([p for p, _ in cells], [q for _, q in cells])
    rows = (RegionRow(r.p, r.q, _region_of(r), r.holds, r.min_value, r.p > 2.0 * r.q) for r in reports)
    return RegionTable(tuple(rows))


def run_certify(config: RunConfig) -> BranchTable:
    """Nonexistence experiment: multistart descent plus Picone certificates.

    Every converged nonnegative candidate is classified; candidates
    positive on the whole positive-weight set are tested against the
    certificate inequality and marked certified_spurious when they fail
    it (residual below -tol). Produces one row per start.
    """
    problem = build_problem(config)
    if not picone_condition(config.p, config.q).holds:
        raise ConfigError("certify experiment requires exponents satisfying the polynomial condition")
    lam = _lambda_grid(config, problem.pair.lambda1)[0]
    spec = problem.spec0.with_lambda(float(lam))
    reports = solvers.multistart_truncated_descent(
        spec, count=config.certify_starts, tol=config.tol, seed=config.seed
    )
    rows = []
    for rep in reports:
        if rep.status != "converged":
            rows.append(_failure_row(float(lam), "certify", rep.status))
            continue
        row = _row_from_report(rep, "certify", problem.partition)
        if row.positive_on_plus:
            residual = picone_certificate(rep.u, spec, problem.pair)
            status = "certified_spurious" if residual < -config.tol else "uncertified_positive"
        else:
            status = "dead_core" if row.dead_cores else "not_positive"
        rows.append(row._replace(status=status))
    return BranchTable(tuple(rows))


def run_ground(config: RunConfig) -> BranchTable:
    """Single ground-state solve at the first lambda of the grid."""
    problem = build_problem(config)
    lam = float(_lambda_grid(config, problem.pair.lambda1)[0])
    rep = solvers.ground_state(
        problem.spec0.with_lambda(lam), starts=config.starts, tol=config.tol, seed=config.seed
    )
    return BranchTable((_row_from_report(rep, "ground", problem.partition),))

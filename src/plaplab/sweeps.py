"""Experiment drivers: run configuration, parameter sweeps, the
three-solution scan, the exponent region map, and the nonexistence
certification experiment.

A run configuration is a flat key=value text file with # comments; unknown
keys are rejected. The lambda grid may be given in absolute units or as
multiples of the first eigenvalue (lambda_scale = lambda1, the default),
which is how every preset experiment is phrased.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import solvers
from .critical import (
    CriticalValues,
    _region_of,
    compute_critical_values,
    picone_certificate,
    picone_condition,
)
from .eigen import EigenPair, first_eigenpair
from .errors import ConfigError, PlapLabError, SolverError
from .functionals import ProblemSpec
from .grid import Mesh, SignPartition, Weight, make_mesh, sign_partition
from .presets import TwoBumpParams, build_weight, bump_weight, perturbed
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

_CONFIG_DEFAULTS: dict[str, object] = {
    "n_cells": 256,
    "x_lo": 0.0,
    "x_hi": 1.0,
    "p": 3.0,
    "q": 2.0,
    "weight_family": "two-bump",
    "weight_file": "",
    "amp_plus": None,
    "center_plus": None,
    "width_plus": None,
    "amp_minus": None,
    "center_minus": None,
    "width_minus": None,
    "mu": 0.0,
    "b_center": None,
    "b_width": None,
    "b_amp": None,
    "lambda_start": 0.5,
    "lambda_stop": 1.2,
    "lambda_count": 8,
    "lambda_scale": "lambda1",
    "tol": 1e-8,
    "seed": 0,
    "starts": 8,
    "beads": 17,
    "sample_count": 4,
    "region_p_min": 1.1,
    "region_p_max": 6.0,
    "region_p_count": 50,
    "region_q_min": 1.05,
    "region_q_max": 4.0,
    "region_q_count": 50,
    "certify_starts": 16,
}

_INT_KEYS = {
    "n_cells",
    "lambda_count",
    "seed",
    "starts",
    "beads",
    "sample_count",
    "region_p_count",
    "region_q_count",
    "certify_starts",
}
_STR_KEYS = {"weight_family", "weight_file", "lambda_scale"}


@dataclass(frozen=True)
class RunConfig:
    n_cells: int
    x_lo: float
    x_hi: float
    p: float
    q: float
    weight_family: str
    weight_file: str
    amp_plus: float | None
    center_plus: float | None
    width_plus: float | None
    amp_minus: float | None
    center_minus: float | None
    width_minus: float | None
    mu: float
    b_center: float | None
    b_width: float | None
    b_amp: float | None
    lambda_start: float
    lambda_stop: float
    lambda_count: int
    lambda_scale: str
    tol: float
    seed: int
    starts: int
    beads: int
    sample_count: int
    region_p_min: float
    region_p_max: float
    region_p_count: int
    region_q_min: float
    region_q_max: float
    region_q_count: int
    certify_starts: int

    def __post_init__(self) -> None:
        if self.lambda_count < 1:
            raise ConfigError("lambda grid must be nonempty")
        if self.lambda_scale not in ("lambda1", "absolute"):
            raise ConfigError(f"lambda_scale must be lambda1 or absolute, got {self.lambda_scale!r}")
        if not 1.0 < self.q < self.p:  # also rejects p <= 1 and NaN
            raise ConfigError(f"need 1 < q < p, got q={self.q}, p={self.p}")


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; unknown keys are errors."""
    values = dict(_CONFIG_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in values:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in _STR_KEYS:
            values[key] = val
        elif key in _INT_KEYS:
            values[key] = int(val)
        else:
            values[key] = float(val)
    return RunConfig(**values)  # type: ignore[arg-type]


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _two_bump_params(config: RunConfig, family_defaults: TwoBumpParams) -> TwoBumpParams:
    kwargs = {}
    for name in ("amp_plus", "center_plus", "width_plus", "amp_minus", "center_minus", "width_minus"):
        v = getattr(config, name)
        if v is not None:
            kwargs[name] = v
    return replace(family_defaults, **kwargs)


@dataclass(frozen=True)
class Problem:
    """Everything a driver needs: instance pieces plus the eigenpair."""

    config: RunConfig
    mesh: Mesh
    weight: Weight
    spec0: ProblemSpec  # lam = 0 carrier; use spec0.with_lambda(lam)
    pair: EigenPair
    partition: SignPartition


def build_problem(config: RunConfig) -> Problem:
    from .presets import _ORTHO_DEFAULTS  # family defaults live with the presets

    mesh = make_mesh(config.x_lo, config.x_hi, config.n_cells)
    if config.weight_family in ("orthogonal-two-bump", "perturbed"):
        defaults = _ORTHO_DEFAULTS
    else:
        defaults = TwoBumpParams()
    params = _two_bump_params(config, defaults)
    weight = build_weight(
        mesh,
        config.weight_family,
        config.p,
        config.q,
        params=params,
        mu=config.mu,
        b_center=config.b_center,
        b_width=config.b_width,
        weight_file=config.weight_file or None,
    )
    pair = first_eigenpair(mesh, config.p, min(config.tol, 1e-9))
    spec0 = ProblemSpec(config.p, config.q, 0.0, weight, mesh)
    return Problem(config, mesh, weight, spec0, pair, sign_partition(weight))


def _lambda_grid(config: RunConfig, lambda1: float) -> np.ndarray:
    scale = lambda1 if config.lambda_scale == "lambda1" else 1.0
    if config.lambda_count == 1:
        return np.array([config.lambda_start * scale])
    return np.linspace(config.lambda_start * scale, config.lambda_stop * scale, config.lambda_count)


def _row_from_report(rep: SolveReport, branch: str, partition: SignPartition) -> BranchRow:
    classified = solvers.classify(rep, partition, 1e-8 * max(rep.u.linf(), 1e-30))
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


def _sweep_one(problem: Problem, crit: CriticalValues, kset: MinimizerSet | None, lam: float) -> list[BranchRow]:
    config = problem.config
    spec = problem.spec0.with_lambda(lam)
    rows: list[BranchRow] = []
    below_star = lam < crit.lambda_star * (1.0 - 1e-12)
    if below_star:
        try:
            rep = solvers.ground_state(spec, starts=config.starts, tol=config.tol, seed=config.seed)
            rows.append(_row_from_report(rep, "ground", problem.partition))
        except PlapLabError as exc:
            rows.append(_failure_row(lam, "ground", f"error:{type(exc).__name__}"))
        if crit.pairing_sign == "negative" and lam > crit.lambda1 * (1.0 + 1e-12):
            try:
                rep = solvers.m_minus(spec, starts=config.starts, tol=config.tol, seed=config.seed)
                rows.append(_row_from_report(rep, "m_minus", problem.partition))
            except PlapLabError as exc:
                rows.append(_failure_row(lam, "m_minus", f"error:{type(exc).__name__}"))
    else:
        if kset is None:
            rows.append(_failure_row(lam, "local_min", "error:NoMinimizerSet"))
            return rows
        try:
            cont = solvers.local_min_continuation(spec, kset, tol=config.tol)
            rows.append(_row_from_report(cont, "local_min", problem.partition))
            if cont.ok:
                level = cont.breakdown.I_trunc
                omega = solvers.runaway_state(spec, level - 10.0 * abs(level) - 1.0, problem.pair)
                mp = solvers.mountain_pass(spec, cont.u, omega, beads=config.beads)
                rows.append(_row_from_report(mp, "mountain_pass", problem.partition))
        except PlapLabError as exc:
            rows.append(_failure_row(lam, "local_min", f"error:{type(exc).__name__}"))
    return rows


def run_sweep(config: RunConfig) -> BranchTable:
    """Trace every applicable branch across the lambda grid.

    Below the threshold: ground states, plus the positive-level branch when
    the pairing is negative. At and above: minimizer-set continuation and
    the mountain-pass branch over it. Failures become marker rows; the
    sweep never aborts on a single lambda.
    """
    problem = build_problem(config)
    crit = compute_critical_values(problem.spec0, problem.pair, seed=config.seed)
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

    Requires p > 2q and the perturbed weight family (orthogonalized base
    plus mu times a nonnegative bump). The scan starts 0.5% of lambda1
    below the eigenvalue and halves the offset per step: the window where
    the deep branch undercuts the local branch is typically narrower than
    a fixed 0.5% step. Emits rows for every probed lambda; the successful
    lambda carries the ground/local_min/mountain_pass triple with ok
    status and pairwise separation above 100 times the tolerance.
    """
    if not config.p > 2.0 * config.q:
        raise ConfigError("three-solution scan requires p > 2q")
    if config.mu < 0.0:
        raise ConfigError("mu must be nonnegative")
    # mu = 0 degrades to the zero-pairing case: the deep branch never
    # separates below the eigenvalue and every probe reports no_distinct_pair
    from .presets import _ORTHO_DEFAULTS

    mesh = make_mesh(config.x_lo, config.x_hi, config.n_cells)
    params = _two_bump_params(config, _ORTHO_DEFAULTS)
    base = build_weight(mesh, "orthogonal-two-bump", config.p, config.q, params=params)
    b_center = config.b_center if config.b_center is not None else params.center_minus
    b_width = config.b_width if config.b_width is not None else 0.12 * (config.x_hi - config.x_lo)
    b_amp = config.b_amp if config.b_amp is not None else 0.4 * base.linf()
    b = bump_weight(mesh, b_center, b_width, amp=b_amp)
    mu = config.mu * base.linf()
    a_mu = perturbed(base, b, mu)
    partition = sign_partition(a_mu)

    pair = first_eigenpair(mesh, config.p, min(config.tol, 1e-9))
    spec_base0 = ProblemSpec(config.p, config.q, 0.0, base, mesh)
    spec_mu0 = ProblemSpec(config.p, config.q, 0.0, a_mu, mesh)
    kset = solvers.minimizer_set_at_star(
        spec_base0.with_lambda(pair.lambda1),
        sample_count=config.sample_count,
        tol=config.tol,
        seed=config.seed,
    )

    sep_floor = 100.0 * config.tol
    rows: list[BranchRow] = []
    for j in range(THREE_SCAN_STEPS):
        lam = (1.0 - THREE_SCAN_BASE_OFFSET * 0.5**j) * pair.lambda1
        spec = spec_mu0.with_lambda(lam)
        try:
            w = solvers.ground_state(spec, starts=config.starts, tol=config.tol, seed=config.seed)
            u = solvers.local_min_continuation(spec, kset, tol=config.tol)
        except PlapLabError as exc:
            rows.append(_failure_row(lam, "ground", f"error:{type(exc).__name__}"))
            continue
        sep_wu = float(np.max(np.abs(w.u.values - u.u.values)))
        ordered = (
            w.ok and u.ok and w.breakdown.I_trunc < u.breakdown.I_trunc < 0.0 and sep_wu > sep_floor
        )
        if not ordered:
            rows.append(_failure_row(lam, "ground", "no_distinct_pair"))
            continue
        v = solvers.mountain_pass(spec, u.u, w.u, beads=config.beads)
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
    """Classify every admissible (p, q) pair on the grid."""
    rows = []
    for p in p_grid:
        for q in q_grid:
            if not 1.0 < q < p:
                continue
            rep = picone_condition(p, q)
            rows.append(
                RegionRow(
                    p=float(p),
                    q=float(q),
                    classification=_region_of(rep),
                    picone_holds=rep.holds,
                    picone_min=rep.min_value,
                    existence_p_gt_2q=bool(p > 2.0 * q),
                )
            )
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
        classified = solvers.classify(rep, problem.partition, 1e-8 * max(rep.u.linf(), 1e-30))
        positive = bool(classified.positive_on_plus) and all(classified.positive_on_plus)
        if positive:
            residual = picone_certificate(classified.u, spec, problem.pair)
            status = "certified_spurious" if residual < -config.tol else "uncertified_positive"
        else:
            status = "dead_core" if classified.dead_core_components else "not_positive"
        row = _row_from_report(rep, "certify", problem.partition)
        rows.append(replace(row, status=status))
    return BranchTable(tuple(rows))


def run_ground(config: RunConfig) -> BranchTable:
    """Single ground-state solve at the first lambda of the grid."""
    problem = build_problem(config)
    lam = float(_lambda_grid(config, problem.pair.lambda1)[0])
    rep = solvers.ground_state(
        problem.spec0.with_lambda(lam), starts=config.starts, tol=config.tol, seed=config.seed
    )
    return BranchTable((_row_from_report(rep, "ground", problem.partition),))

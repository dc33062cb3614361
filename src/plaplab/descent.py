"""The descent engine: one nonmonotone spectral projected-gradient loop.

Barzilai-Borwein steps, accepted by an Armijo test against the largest
objective of the last _WINDOW = 10 accepted points (Birgin, Martinez & Raydan,
SIAM J. Optim. 10, 2000; reference value of Grippo, Lampariello & Lucidi,
1986). The objectives here are smooth away from kinks t -> max(t,0)^(q-1),
q > 1, which the nonmonotone test handles without smoothing. bb_descent
and projected_descent are the loop's two entry points. Every run is
preconditioned: precond is an SPD operator turning the gradient into the
step direction, and convergence is still judged on the raw gradient. It
may change from one accepted point to the next (a metric that follows the
iterate). The loop's optional hooks:

  * normalize: retraction applied to every trial (e.g. onto a sphere);
  * project: projection applied to every trial; convergence is then judged
    on the fixed-point residual x - project(x - g), not on g;
  * guard: admissibility predicate; a refused trial is not valued;
  * floor: stop "diverged" once the objective sinks below it.

A run ends "converged" (residual sup-norm below tol), "diverged",
"stalled" (no trial passed within the backtracking budget) or
"max_iterations".

Projected runs only: a preconditioned step is not projected in the
preconditioner's metric, so it need not descend, and an iterate pinned to
the boundary could creep along it within the roundoff slack forever. A
projected trial therefore counts only if g . (trial - x) < 0, and the run
stops "stalled" once the objective fell by no more than the slack over the
last _STALL_WINDOW accepted iterations. Unconstrained runs keep no such
rule: a converging solve can spend that long within the slack on its way
below tol.

Callback contract: fun (and guard) sees every trial that is valued; grad
sees only accepted points, each right after fun on the same array, and
precond is called right after grad, on the gradient of that same point.
A caller may share work between them (functionals.P1Energy keeps the
last point it valued, so precond can apply the metric of that point),
and fun should compute values only: trials far outnumber accepted points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DescentResult", "bb_descent", "projected_descent"]

_ARMIJO_C = 1e-4
_FLOAT_SLACK = 1e-14  # absolute noise floor: objective differences below this are roundoff
_BACKTRACK_MAX = 60
_STEP_MIN = 1e-16
_STEP_MAX = 1e12
_STALL_WINDOW = 100  # accepted iterations over which a projected run must make progress
_WINDOW = 10  # accepted points the nonmonotone Armijo test looks back over
_STEP0 = 1e-2  # first trial step, before there is a Barzilai-Borwein pair


@dataclass
class DescentResult:
    x: np.ndarray
    f: float
    iterations: int
    status: str  # converged | diverged | max_iterations | stalled


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
    sy = float(s.dot(y))
    ss = float(s.dot(s))
    if sy > 0.0 and ss > 0.0:
        return min(max(ss / sy, _STEP_MIN), _STEP_MAX)
    return fallback


def _spg(
    x0: np.ndarray,
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_iter: int,
    *,
    precond: Callable[[np.ndarray], np.ndarray],
    normalize: Callable[[np.ndarray], np.ndarray] | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    guard: Callable[[np.ndarray], bool] | None = None,
    floor: float | None = None,
) -> DescentResult:
    x = np.array(x0, dtype=float)
    if normalize is not None:
        x = normalize(x)
    if project is not None:
        x = project(x)
    f = fun(x)
    g = grad(x)
    d = precond(g)
    history = [f]  # objective at the accepted points
    alpha = _STEP0
    prev_x = None
    prev_d = None
    status = "max_iterations"
    it = 0

    for it in range(1, max_iter + 1):
        residual = g if project is None else x - project(x - g)
        if float(np.abs(residual).max()) < tol:
            status = "converged"
            break
        if floor is not None and f < floor:
            status = "diverged"
            break
        if (
            project is not None
            and len(history) > _STALL_WINDOW
            and history[-_STALL_WINDOW - 1] - f <= _FLOAT_SLACK * (1.0 + abs(f))
        ):
            status = "stalled"
            break

        if prev_x is not None:
            alpha = _bb_step(x - prev_x, d - prev_d, alpha)
        f_ref = max(history[-_WINDOW:])
        slack = _FLOAT_SLACK * (1.0 + abs(f_ref))
        slope = float(g.dot(d))
        step = alpha
        accepted = False
        for _ in range(_BACKTRACK_MAX):
            trial = x - step * d
            if normalize is not None:
                trial = normalize(trial)
            if project is None:
                decrease = _ARMIJO_C * step * slope
            else:
                trial = project(trial)
                decrease = -_ARMIJO_C * float(g.dot(trial - x))
            # a trial that is no descent step, or that the guard refuses, is not valued
            if not decrease > 0.0 or (guard is not None and not guard(trial)):
                step *= 0.5
                continue
            f_trial = fun(trial)
            if math.isfinite(f_trial) and f_trial <= f_ref - decrease + slack:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "stalled"
            break

        prev_x, prev_d = x, d
        x, f = trial, f_trial
        g = grad(x)
        d = precond(g)
        history.append(f)

    return DescentResult(x=x, f=f, iterations=it, status=status)


def bb_descent(
    x0: np.ndarray,
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    *,
    precond: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-8,
    max_iter: int = 50_000,
    guard: Callable[[np.ndarray], bool] | None = None,
    floor: float | None = None,
    normalize: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DescentResult:
    """Minimize fun by the descent loop from normalize(x0), which must pass guard."""
    return _spg(x0, fun, grad, tol, max_iter, normalize=normalize, guard=guard, floor=floor, precond=precond)


def projected_descent(
    x0: np.ndarray,
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    *,
    precond: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-8,
    max_iter: int = 50_000,
) -> DescentResult:
    """Minimize fun over a convex (or retractable) set by the descent loop from project(x0)."""
    return _spg(x0, fun, grad, tol, max_iter, project=project, precond=precond)

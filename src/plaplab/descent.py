"""First-order descent engines: Barzilai-Borwein steps with a nonmonotone
line search, in a plain and a projected variant.

These are deliberately simple. The objectives in this package are smooth
away from kinks of the form t -> max(t,0)^(q-1) with q > 1, which are
continuous but not Lipschitz; BB steps with a nonmonotone Armijo guard
handle that without smoothing. An optional preconditioner (inverse linear
stiffness) removes the mesh-dependent conditioning of gradient terms.

Callback contract, shared by both engines:

  * fun (and guard, where there is one) sees every trial point;
  * grad sees only accepted points, each right after fun was called on
    the same array.

A caller may therefore share work between the two: compute the values a
gradient needs inside fun and reuse them in grad (PointMemo keeps the
last point's values). Trials far outnumber accepted points, so fun should
compute values only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DescentResult", "PointMemo", "bb_descent", "projected_descent"]

_ARMIJO_C = 1e-4
_FLOAT_SLACK = 1e-14  # absolute noise floor: objective differences below this are roundoff
_BACKTRACK_MAX = 60
_STEP_MIN = 1e-16
_STEP_MAX = 1e12


@dataclass
class DescentResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    iterations: int
    status: str  # converged | diverged | max_iterations | stalled
    f_history: list[float]


class PointMemo:
    """One-entry cache of fn(v), keyed on the dtype, shape and bytes of v.

    The key is a copy of the content, so an array changed in place after a
    call is a miss, never a stale hit. Equal bytes give bit-identical
    results, so a hit returns exactly what a fresh call would.
    """

    __slots__ = ("_fn", "_key", "_value")

    def __init__(self, fn: Callable[[np.ndarray], object]):
        self._fn = fn
        self._key: tuple | None = None
        self._value: object = None

    def __call__(self, v: np.ndarray):
        key = (v.dtype.str, v.shape, v.tobytes())
        if key != self._key:
            self._value = self._fn(v)
            self._key = key
        return self._value


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
    sy = float(np.dot(s, y))
    ss = float(np.dot(s, s))
    if sy > 0.0 and ss > 0.0:
        return min(max(ss / sy, _STEP_MIN), _STEP_MAX)
    return fallback


def bb_descent(
    x0: np.ndarray,
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    window: int = 10,
    step0: float = 1e-2,
    guard: Callable[[np.ndarray], bool] | None = None,
    floor: float | None = None,
    normalize: Callable[[np.ndarray], np.ndarray] | None = None,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DescentResult:
    """Minimize fun by BB descent with nonmonotone Armijo backtracking.

    fun is called on x0 and on every trial point; grad only on x0 and on
    accepted points, each time right after fun on the same array (see the
    module docstring).
    guard: admissibility predicate; trial points failing it are rejected
        (backtrack). x0 must be admissible.
    floor: if the objective sinks below this value the run stops with
        status "diverged" (detects levels that are actually unbounded below).
    normalize: optional retraction applied after every trial step (e.g.
        rescaling onto a sphere for homogeneous objectives).
    precond: optional SPD preconditioner applied to the gradient to form
        the step direction. Convergence is still judged on the raw gradient.
    """
    x = np.array(x0, dtype=float)
    if normalize is not None:
        x = normalize(x)
    f = fun(x)
    g = grad(x)
    d = precond(g) if precond is not None else g
    history = [f]
    alpha = step0
    prev_x = None
    prev_d = None
    status = "max_iterations"
    it = 0

    for it in range(1, max_iter + 1):
        gnorm_sup = float(np.max(np.abs(g)))
        if gnorm_sup < tol:
            status = "converged"
            break
        if floor is not None and f < floor:
            status = "diverged"
            break

        if prev_x is not None:
            alpha = _bb_step(x - prev_x, d - prev_d, alpha)
        f_ref = max(history[-window:])
        slope = float(np.dot(g, d))
        step = alpha
        accepted = False
        for _ in range(_BACKTRACK_MAX):
            trial = x - step * d
            if normalize is not None:
                trial = normalize(trial)
            if guard is not None and not guard(trial):
                step *= 0.5
                continue
            f_trial = fun(trial)
            slack = _FLOAT_SLACK * (1.0 + abs(f_ref))
            if np.isfinite(f_trial) and f_trial <= f_ref - _ARMIJO_C * step * slope + slack:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "stalled"
            break

        prev_x, prev_d = x, d
        x, f = trial, f_trial
        g = grad(x)
        d = precond(g) if precond is not None else g
        history.append(f)

    return DescentResult(x=x, f=f, grad=g, iterations=it, status=status, f_history=history)


def projected_descent(
    x0: np.ndarray,
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    *,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    window: int = 10,
    step0: float = 1e-2,
    precond: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DescentResult:
    """Spectral projected-gradient descent onto a convex (or retractable) set.

    Convergence is judged on the fixed-point residual x - project(x - g)
    with the raw gradient, which reduces to the plain gradient wherever the
    constraint is inactive. fun is called on the projected start and on
    every trial point; grad only on the start and on accepted points, each
    time right after fun on the same array (see the module docstring).
    """
    x = project(np.array(x0, dtype=float))
    f = fun(x)
    g = grad(x)
    d = precond(g) if precond is not None else g
    history = [f]
    alpha = step0
    prev_x = None
    prev_d = None
    status = "max_iterations"
    it = 0

    for it in range(1, max_iter + 1):
        residual = x - project(x - g)
        if float(np.max(np.abs(residual))) < tol:
            status = "converged"
            break

        if prev_x is not None:
            alpha = _bb_step(x - prev_x, d - prev_d, alpha)
        f_ref = max(history[-window:])
        step = alpha
        accepted = False
        for _ in range(_BACKTRACK_MAX):
            trial = project(x - step * d)
            dx = trial - x
            slope = float(np.dot(g, dx))
            f_trial = fun(trial)
            slack = _FLOAT_SLACK * (1.0 + abs(f_ref))
            if (
                np.isfinite(f_trial)
                and f_trial <= f_ref + _ARMIJO_C * min(slope, 0.0) + slack
                and not np.array_equal(trial, x)
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "stalled"
            break

        prev_x, prev_d = x, d
        x, f = trial, f_trial
        g = grad(x)
        d = precond(g) if precond is not None else g
        history.append(f)

    return DescentResult(x=x, f=f, grad=g, iterations=it, status=status, f_history=history)

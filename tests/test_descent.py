"""Toy problems for the projected runs of the descent loop."""

import numpy as np
import pytest

from plaplab.descent import _STALL_WINDOW, projected_descent


def _stiffness(n):
    h = 1.0 / (n + 1)
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h


def _radial_projection(radius):
    """Pull v back onto the sup-norm ball around 0 along the ray through v."""

    def project(v):
        d = float(np.max(np.abs(v)))
        return v if d <= radius else v * (radius / d)

    return project


def _ascent_case():
    # the coupled preconditioner turns the projected step along the face
    # x1 = 1 away from the constrained minimizer (1, 1)
    c = np.array([2.0, 1.0])
    coupling = np.array([[1.0, 0.9], [0.9, 1.0]])
    fun = lambda x: 0.5 * float((x - c) @ (x - c))
    return np.zeros(2), fun, lambda x: x - c, _radial_projection(1.0), lambda g: coupling @ g


def _creep_case():
    # a quadratic whose minimizer lies outside a sup-norm tube, with the
    # inverse-stiffness preconditioner: pinned to the tube, the accepted
    # steps lower the objective by less than roundoff
    n = 30
    k = _stiffness(n)
    k_inv = np.linalg.inv(k)
    target = np.linspace(1.0, 2.0, n) ** 2
    fun = lambda x: 0.5 * float((x - target) @ k @ (x - target)) / (n + 1)
    grad = lambda x: k @ (x - target) / (n + 1)
    return np.zeros(n), fun, grad, _radial_projection(0.5), lambda g: k_inv @ g


@pytest.mark.parametrize("case", [_ascent_case, _creep_case], ids=["ascent", "creep"])
def test_pinned_projected_run_stalls_without_creeping_up(case):
    x0, fun, grad, project, precond = case()
    accepted = []

    def recording_grad(x):
        accepted.append(fun(x))
        return grad(x)

    res = projected_descent(x0, fun, recording_grad, project, max_iter=5_000, precond=precond)
    assert res.status == "stalled"
    assert res.iterations <= _STALL_WINDOW + 10
    assert res.f <= min(accepted) + 1e-12 * (1.0 + abs(res.f))


def test_box_constrained_quadratic_with_active_bound_converges():
    # -u'' = 10 on (0, 1) under 0 <= u <= 0.8: the unconstrained maximum
    # 1.25 is cut off, so a plateau of nodes sits on the upper bound
    n = 63
    k = _stiffness(n)
    b = np.full(n, 10.0 / (n + 1))
    upper = np.full(n, 0.8)
    fun = lambda v: 0.5 * float(v @ k @ v) - float(b @ v)
    grad = lambda v: k @ v - b
    clip = lambda v: np.clip(v, 0.0, upper)

    res = projected_descent(np.zeros(n), fun, grad, clip, precond=lambda g: g, tol=1e-10, max_iter=20_000)
    assert res.status == "converged"
    assert res.iterations > _STALL_WINDOW  # the stop rule was live the whole time
    assert np.any(res.x == upper)
    assert float(np.max(np.abs(res.x - clip(res.x - grad(res.x))))) < 1e-10

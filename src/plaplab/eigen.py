"""First Dirichlet eigenpair of the 1D p-Laplacian.

The eigenvalue is the infimum of the Rayleigh quotient

    R(u) = int |u'|^p / int |u|^p

over nonzero Dirichlet functions. The solver is projected gradient descent
on R over the sphere {int |u'|^p = 1} with Barzilai-Borwein steps and a
positive initial guess (which biases the iteration to the first,
sign-constant eigenfunction). The raw gradient is preconditioned by the
inverse of the linear P1 stiffness matrix; without that, the iteration
count grows with the mesh and stalls for p < 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import MeshMismatchError, NonConvergenceError, WeightError
from .functionals import signed_pow
from .grid import (
    GridFn,
    Mesh,
    Weight,
    gauss_values,
    integral_abs_p,
    scatter_gauss_gradient,
    weighted_integral_q,
)

__all__ = ["EigenPair", "rayleigh", "first_eigenpair", "pairing", "orthogonalize_weight"]

_STALL_SPAN = 5  # iterations over which the eigenvalue must be flat
_MAX_ITER = 100_000

_cache: dict[tuple[Mesh, float, float], "EigenPair"] = {}


@dataclass(frozen=True)
class EigenPair:
    """First eigenpair, normalized so that int |phi'|^p = 1 and phi > 0."""

    lambda1: float
    phi: GridFn
    p: float
    residual_sup: float
    iterations: int


def rayleigh(u: GridFn, p: float) -> float:
    """Rayleigh quotient of u; rejects the zero function."""
    m = integral_abs_p(u, p)
    if m == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    g1 = np.diff(u.values)
    return float(np.sum(np.abs(g1) ** p)) / u.mesh.h ** (p - 1.0) / m


def _value_pieces(
    vals: np.ndarray, mesh: Mesh, p: float
) -> tuple[float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(grad term, mass term) at one point, plus the arrays their gradients reuse."""
    du = vals[1:] - vals[:-1]
    g = float((np.abs(du) ** p).sum()) / mesh.h ** (p - 1.0)
    g1, g2 = gauss_values(vals)
    m = float(0.5 * mesh.h * ((np.abs(g1) ** p).sum() + (np.abs(g2) ** p).sum()))
    return g, m, (du, g1, g2)


def _gradient_pieces(arrays, mesh: Mesh, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodal gradients of the grad and mass terms from _value_pieces' arrays."""
    du, g1, g2 = arrays
    flux = p * signed_pow(du, p - 1.0) / mesh.h ** (p - 1.0)
    dg = np.zeros(mesh.n_nodes)
    dg[:-1] -= flux
    dg[1:] += flux
    dg[0] = dg[-1] = 0.0
    dm = scatter_gauss_gradient(mesh, p * signed_pow(g1, p - 1.0), p * signed_pow(g2, p - 1.0))
    return dg, dm


def _stiffness_preconditioner(mesh: Mesh):
    """Apply the inverse of the linear P1 stiffness matrix (interior nodes).

    The tridiagonal matrix is factored once (LAPACK pttrf) and every call
    is one pttrs solve: the two steps ptsv takes per call, so the result is
    bit-for-bit that of solveh_banded on the same band.
    """
    n_int = mesh.n_nodes - 2
    d, e, info = dpttrf(np.full(n_int, 2.0 / mesh.h), np.full(n_int - 1, -1.0 / mesh.h))
    if info != 0:
        raise np.linalg.LinAlgError(f"stiffness factorization failed (info={info})")

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.zeros(mesh.n_nodes)
        z[1:-1] = dpttrs(d, e, r[1:-1])[0]
        return z

    return apply


def first_eigenpair(
    mesh: Mesh,
    p: float,
    tol: float = 1e-9,
    start: GridFn | None = None,
    max_iter: int = _MAX_ITER,
) -> EigenPair:
    """Compute the first eigenpair on this mesh.

    Converged when the sup-norm of the Rayleigh-gradient residual
    dg - lambda*dm drops below tol and the relative eigenvalue change
    stays below tol over 5 consecutive iterations. Deterministic for the
    default start (constant 1 on the interior nodes). Results for the
    default start are cached per (mesh, p, tol).
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got p={p}")
    key = (mesh, float(p), float(tol))
    if start is None and key in _cache:
        return _cache[key]

    n = mesh.n_nodes
    if start is None:
        vals = np.ones(n)
        vals[0] = vals[-1] = 0.0
    else:
        if start.mesh != mesh:
            raise MeshMismatchError("start function lives on a different mesh")
        vals = np.array(start.values)
        if not np.any(vals != 0.0):
            raise ValueError("start must be nonzero")

    precond = _stiffness_preconditioner(mesh)

    def normalize(v: np.ndarray) -> np.ndarray:
        v = np.array(v)
        v[0] = v[-1] = 0.0  # rescaling must never amplify boundary dust
        du = v[1:] - v[:-1]
        g = float((np.abs(du) ** p).sum()) / mesh.h ** (p - 1.0)
        if g == 0.0:
            raise ValueError("cannot normalize the zero function")
        return v / g ** (1.0 / p)

    x = normalize(vals)
    g, m, arrays = _value_pieces(x, mesh, p)
    dg, dm = _gradient_pieces(arrays, mesh, p)
    lam = g / m
    resid = dg - lam * dm
    d = precond(resid)
    alpha = 1.0
    prev_x: np.ndarray | None = None
    prev_d: np.ndarray | None = None
    history = [lam]
    status = "max_iterations"
    it = 0

    for it in range(1, max_iter + 1):
        residual_sup = float(np.max(np.abs(resid)))
        if residual_sup < tol and len(history) > _STALL_SPAN:
            recent = history[-(_STALL_SPAN + 1) :]
            if max(recent) - min(recent) <= tol * max(1.0, abs(lam)):
                status = "converged"
                break

        if prev_x is not None:
            s = x - prev_x
            y = d - prev_d
            sy = float(np.dot(s, y))
            if sy > 0.0:
                alpha = min(max(float(np.dot(s, s)) / sy, 1e-14), 1e10)
        f_ref = max(history[-10:])
        slope = float(np.dot(resid, d))  # descent rate in the preconditioned metric
        step = alpha
        accepted = False
        for _ in range(60):
            trial = normalize(x - step * d)
            gt, mt, arrays = _value_pieces(trial, mesh, p)
            lam_t = gt / mt
            if lam_t <= f_ref - 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if residual_sup < tol:
                status = "converged"
                break
            status = "stalled"
            break

        prev_x, prev_d = x, d
        x = trial
        dg, dm = _gradient_pieces(arrays, mesh, p)
        lam = lam_t
        resid = dg - lam * dm
        d = precond(resid)
        history.append(lam)

    if status != "converged":
        raise NonConvergenceError(
            f"eigen solver {status} after {it} iterations (p={p}, n={mesh.n_cells}, "
            f"residual={float(np.max(np.abs(resid))):.3e})"
        )

    if np.sum(x) < 0.0:
        x = -x
    x = normalize(x)
    phi = GridFn(mesh, x)
    if np.any(phi.values[1:-1] <= 0.0):
        raise NonConvergenceError("eigen solver converged to a sign-changing function")
    pair = EigenPair(
        lambda1=float(lam),
        phi=phi,
        p=float(p),
        residual_sup=float(np.max(np.abs(resid))),
        iterations=it,
    )
    if start is None:
        _cache[key] = pair
    return pair


def pairing(a: Weight, pair: EigenPair, q: float) -> float:
    """Weight pairing int a * phi^q that classifies the parameter regimes."""
    if a.mesh != pair.phi.mesh:
        raise MeshMismatchError("weight and eigenfunction live on different meshes")
    return weighted_integral_q(pair.phi, a, q)


def orthogonalize_weight(a_raw: Weight, pair: EigenPair, q: float) -> Weight:
    """Shift a_raw by a constant so its pairing with phi^q vanishes.

    Raises WeightError if the shifted weight degenerates: identically zero
    up to roundoff (constant raw weight) or no longer sign-changing.
    """
    denom = integral_abs_p(pair.phi, q)
    c = pairing(a_raw, pair, q) / denom
    shifted_vals = a_raw.values - c
    if np.max(np.abs(shifted_vals)) <= 1e-12 * a_raw.linf():
        raise WeightError("orthogonalized weight vanished (constant raw weight?)")
    shifted = Weight(a_raw.mesh, shifted_vals)
    if not shifted.is_sign_changing():
        raise WeightError("orthogonalized weight lost its sign change")
    return shifted

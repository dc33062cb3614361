"""First Dirichlet eigenpair of the 1D p-Laplacian.

The eigenvalue is the infimum of the Rayleigh quotient

    R(u) = int |u'|^p / int |u|^p

over nonzero Dirichlet functions. The solver is descent.bb_descent on R
over the sphere {int |u'|^p = 1}, retracted by P1Energy.normalize, from a
positive initial guess (which biases the iteration to the first,
sign-constant eigenfunction). Its gradient is the residual dg - R*dm of
the quotient's numerator and denominator gradients, so it vanishes
exactly at eigenpairs, and it is preconditioned by the inverse of the
linear P1 stiffness matrix; without that, the iteration count grows with
the mesh and stalls for p < 2.

The two integrals of R, their nodal gradients and the sphere retraction
come from functionals.P1Energy with no weight term, through a PointMemo:
trial steps are valued only, and the gradients are built at the accepted
point from the same EnergyPoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .descent import PointMemo, bb_descent
from .errors import MeshMismatchError, NonConvergenceError, WeightError
from .functionals import P1Energy
from .grid import GridFn, Mesh, Weight, grad_seminorm_p, integral_abs_p, weighted_integral_q

__all__ = ["EigenPair", "rayleigh", "first_eigenpair", "pairing", "orthogonalize_weight"]

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
    return grad_seminorm_p(u, p) / m


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
) -> EigenPair:
    """Compute the first eigenpair on this mesh.

    Converged when the sup-norm of the Rayleigh-gradient residual
    dg - lambda*dm drops below tol. Deterministic for the default start
    (constant 1 on the interior nodes). Results for the default start are
    cached per (mesh, p, tol).
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

    energy = P1Energy(mesh, p)
    point = PointMemo(energy)

    def quotient(v: np.ndarray) -> float:
        pt = point(v)
        return pt.grad_term / pt.mass

    def residual(v: np.ndarray) -> np.ndarray:
        # called only at accepted points, right after quotient on the same array
        pt = point(v)
        dg, dm = pt.gradients()
        return dg - (pt.grad_term / pt.mass) * dm

    res = bb_descent(
        vals,
        quotient,
        residual,
        tol=tol,
        max_iter=_MAX_ITER,
        step0=1.0,
        normalize=energy.normalize,
        precond=_stiffness_preconditioner(mesh),
    )
    if res.status != "converged":
        raise NonConvergenceError(
            f"eigen solver {res.status} after {res.iterations} iterations (p={p}, n={mesh.n_cells}, "
            f"residual={float(np.max(np.abs(res.grad))):.3e})"
        )

    x = res.x
    if np.sum(x) < 0.0:
        x = -x
    x = energy.normalize(x)
    phi = GridFn(mesh, x)
    if np.any(phi.values[1:-1] <= 0.0):
        raise NonConvergenceError("eigen solver converged to a sign-changing function")
    pair = EigenPair(
        lambda1=float(res.f),
        phi=phi,
        p=float(p),
        residual_sup=float(np.max(np.abs(res.grad))),
        iterations=res.iterations,
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

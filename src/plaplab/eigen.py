"""First Dirichlet eigenpair of the 1D p-Laplacian.

The eigenvalue is the infimum of the Rayleigh quotient

    R(u) = int |u'|^p / int |u|^p

over nonzero Dirichlet functions. The solver is the inverse power
iteration of Biezuner, Ercole & Martins (J. Funct. Anal. 257, 2009),

    u <- normalize(S(dm(u))),

from a positive start (which selects the first, sign-constant
eigenfunction). dg and dm are the nodal gradients of int |u'|^p and
int |u|^p (functionals.P1Energy), normalize scales onto the gradient
sphere {int |u'|^p = 1}, and S is the exact solve of the discrete
problem dg(w) = b, w = 0 at both ends. A fixed point satisfies
dg(u) = lambda*dm(u) with lambda its Rayleigh quotient. A step reads dm
alone (P1Energy.mass_gradient); only the last iterate is valued in full.

In 1D that solve costs O(n). dg couples the nodes only through the cell
fluxes F_k = p*sign(du_k)*|du_k|^(p-1)/h^(p-1), and node i reads
F_(i-1) - F_i = b_i, so every flux is F_k = F_0 - (b_1 + ... + b_k) and
every slope du_k follows from its flux. The one unknown F_0 is the root
of the increasing function F_0 -> sum du_k = w(1), which lies between the
smallest and the largest partial sum. A bracketed Newton iteration
(grid._bracketed_root) finds it in a handful of passes over the cells and
returns the float that bisecting until the midpoint equals an endpoint
would: the end value is built from a float subtraction, abs and copysign,
a power and a sum in a fixed order, each monotone in F_0 (the power as
long as it is correctly rounded), so its sign changes between exactly one
pair of adjacent floats.

The iteration stops at one fixed relative step, whatever tol a run uses,
so every caller gets the one cached pair of its (mesh, p). The Rayleigh
quotient, the weight pairing int a phi^q and the constant shift that
makes it vanish read their integrals from the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatchError, NonConvergenceError, WeightError
from .functionals import EnergyPoint, P1Energy
from .grid import GridFn, Mesh, Weight, _bracketed_root

__all__ = ["EigenPair", "rayleigh", "first_eigenpair", "pairing", "orthogonalize_weight"]

_MAX_STEPS = 100  # inverse-iteration steps; 9-10 suffice for 1.25 <= p <= 5
_STEP_RTOL = 1e-9  # converged once a step moves the iterate less than this, relative to its sup norm

_cache: dict[tuple[Mesh, float], "EigenPair"] = {}


@dataclass(frozen=True)
class EigenPair:
    """First eigenpair, normalized so that int |phi'|^p = 1 and phi > 0.

    residual_sup is sup|dg - lambda1*dm| at phi. It is no convergence
    verdict for p < 2: on phi's flat top the fluxes are |du|^(p-1) of slopes
    near roundoff, a floor that grows with n (p = 1.25: 4.1e-9 at n = 256,
    9.0e-4 at n = 4096; p = 1.02, n = 256: 0.54). The solve stops on its
    relative step instead.
    """

    lambda1: float
    phi: GridFn
    residual_sup: float
    iterations: int


def rayleigh(u: GridFn, p: float) -> float:
    """Rayleigh quotient of u; rejects p <= 1 and the zero function."""
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got p={p}")
    pt = P1Energy(u.mesh, p)(u.values)
    if pt.mass == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    return pt.grad_term / pt.mass


def _solve_dg(mesh: Mesh, p: float, b: np.ndarray) -> np.ndarray:
    """The nodal w with dg(w) = b on the interior nodes and w = 0 at both ends.

    dg is the gradient of int |w'|^p (EnergyPoint.gradients); b's boundary
    entries are ignored. The root F_0 is the float that bisecting the end
    value until the midpoint equals an endpoint returns, found by Newton
    steps on that value (grid._bracketed_root), and w(1) = 0 is then set
    exactly. The Newton slope is infinite for p > 2 where F_0 equals a
    partial sum; the step then falls back to the midpoint.
    """
    c = np.zeros(mesh.n_cells)
    np.cumsum(b[1:-1], out=c[1:])
    e = 1.0 / (p - 1.0)

    def end_value(f0: float) -> float:
        # w(1) up to the positive factor h / p^e
        d = f0 - c
        return float(np.copysign(np.abs(d) ** e, d).sum())

    def end_slope(f0: float) -> float:
        # its derivative; for p > 2 a flux F_k that is 0 (or subnormal) makes it infinite
        with np.errstate(divide="ignore", over="ignore"):
            return e * float((np.abs(f0 - c) ** (e - 1.0)).sum())

    f0 = _bracketed_root(end_value, end_slope, float(c.min()), float(c.max()))
    flux = f0 - c
    du = mesh.h * np.copysign((np.abs(flux) / p) ** e, flux)
    w = np.zeros(mesh.n_nodes)
    np.cumsum(du[:-1], out=w[1:-1])
    return w


def first_eigenpair(mesh: Mesh, p: float) -> EigenPair:
    """Compute the first eigenpair on this mesh.

    The iteration starts from the constant 1 on the interior nodes and is
    converged when a step moves the normalized iterate by less than
    _STEP_RTOL relative to its sup-norm; raises NonConvergenceError after
    _MAX_STEPS steps. Each step builds only dm; lambda1, the Rayleigh quotient
    of the returned phi, and residual_sup, the sup-norm of dg - lambda1*dm,
    come from phi's one EnergyPoint. Deterministic, and cached per (mesh, p).
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got p={p}")
    key = (mesh, float(p))
    if key in _cache:
        return _cache[key]

    vals = np.ones(mesh.n_nodes)
    vals[0] = vals[-1] = 0.0
    energy = P1Energy(mesh, p)
    x = energy.normalize(vals)
    for steps in range(1, _MAX_STEPS + 1):
        w = _solve_dg(mesh, p, energy.mass_gradient(x))
        if not w.any():  # p near 1: every slope (|F|/p)^(1/(p-1)) underflowed
            raise NonConvergenceError(f"inverse-iteration step {steps} is the zero vector (p={p}, n={mesh.n_cells})")
        nxt = energy.normalize(w)
        step = float(np.abs(nxt - x).max()) / float(np.abs(nxt).max())
        x = nxt
        if step < _STEP_RTOL:
            break
    else:
        raise NonConvergenceError(
            f"eigen solver not converged after {steps} inverse-iteration steps (p={p}, n={mesh.n_cells}, "
            f"last relative step={step:.3e})"
        )

    if np.sum(x) < 0.0:
        x = -x
    phi = GridFn(mesh, x)
    if np.any(phi.values[1:-1] <= 0.0):
        raise NonConvergenceError("eigen solver converged to a sign-changing function")
    pt = energy(x)
    lam = pt.grad_term / pt.mass
    dg, dm = pt.gradients()
    pair = EigenPair(
        lambda1=float(lam),
        phi=phi,
        residual_sup=float(np.max(np.abs(dg - lam * dm))),
        iterations=steps,
    )
    _cache[key] = pair
    return pair


def _phi_q(a: Weight, pair: EigenPair, q: float) -> EnergyPoint:
    """phi's EnergyPoint in the kernel of exponent q: mass = int phi^q, weight = int a phi^q."""
    if a.mesh != pair.phi.mesh:
        raise MeshMismatchError("weight and eigenfunction live on different meshes")
    return P1Energy(a.mesh, q, q, a.gauss)(pair.phi.values)


def pairing(a: Weight, pair: EigenPair, q: float) -> float:
    """Weight pairing int a * phi^q that classifies the parameter regimes."""
    return _phi_q(a, pair, q).weight


def orthogonalize_weight(a_raw: Weight, pair: EigenPair, q: float) -> Weight:
    """Shift a_raw by a constant so its pairing with phi^q vanishes.

    Raises WeightError if the shifted weight degenerates: identically zero
    up to roundoff (constant raw weight) or no longer sign-changing.
    """
    pt = _phi_q(a_raw, pair, q)
    c = pt.weight / pt.mass
    shifted_vals = a_raw.values - c
    if np.max(np.abs(shifted_vals)) <= 1e-12 * a_raw.linf():
        raise WeightError("orthogonalized weight vanished (constant raw weight?)")
    shifted = Weight(a_raw.mesh, shifted_vals)
    if not shifted.is_sign_changing():
        raise WeightError("orthogonalized weight lost its sign change")
    return shifted

"""Energy functionals, their discrete gradients, and the fibered machinery.

For a problem instance with exponents 1 < q < p, parameter lam, and weight a:

    E(u) = int |u'|^p - lam * int |u|^p
    I(u) = E(u)/p - (1/q) * int a |u|^q

and the truncated variants built from the positive part u_+ = max(u, 0):

    E_t(u) = int |u'|^p - lam * int u_+^p
    I_t(u) = E_t(u)/p - (1/q) * int a u_+^q

Critical points of the truncated functional are nonnegative solutions. On
every ray {t*u, t > 0} with E(u) and the weight integral sharing a strict
sign there is a unique stationary scale t(u), and the ray-optimal value

    J(u) = I(t(u) u)

is 0-homogeneous. Scaling u by t(u) lands on the Nehari set {E = int a|u|^q}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FiberUndefinedError, MeshMismatchError
from .grid import (
    GridFn,
    Mesh,
    Weight,
    gauss_integral,
    gauss_values,
    scatter_gauss_gradient,
)

__all__ = [
    "ProblemSpec",
    "EnergyBreakdown",
    "evaluate",
    "gradient_I",
    "gradient_E",
    "gradient_weight_term",
    "fiber_scale",
    "fibered_J",
    "nehari_project",
    "nehari_residual_rel",
]

# Relative cutoff below which E or the weight integral counts as zero when
# deciding whether the fiber scale is defined.
FIBER_ZERO_RTOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Complete instance: exponents, spectral parameter, weight, mesh."""

    p: float
    q: float
    lam: float
    a: Weight
    mesh: Mesh

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got p={self.p}")
        if not 1.0 < self.q < self.p:
            raise ValueError(f"need 1 < q < p, got q={self.q}, p={self.p}")
        if self.a.mesh != self.mesh:
            raise MeshMismatchError("weight and spec live on different meshes")

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return replace(self, lam=float(lam))

    def with_weight(self, a: Weight) -> "ProblemSpec":
        return replace(self, a=a)


@dataclass(frozen=True)
class EnergyBreakdown:
    """All integrals and derived energies of one function at one lam."""

    grad_term: float
    mass_term: float
    mass_term_plus: float
    weight_term: float
    weight_term_plus: float
    E: float
    I: float
    E_trunc: float
    I_trunc: float
    nehari_residual: float
    nehari_residual_trunc: float


def signed_pow(t: np.ndarray, r: float) -> np.ndarray:
    """sign(t) * |t|^r, continuous at 0 for r > 0."""
    return np.sign(t) * np.abs(t) ** r


def _raw_terms(vals: np.ndarray, spec: ProblemSpec) -> tuple[float, float, float, float, float]:
    p, q = spec.p, spec.q
    mesh = spec.mesh
    du = np.diff(vals)
    grad_term = float(np.sum(np.abs(du) ** p)) / mesh.h ** (p - 1.0)
    g1, g2 = gauss_values(vals)
    a1, a2 = spec.a.gauss
    gp1 = np.maximum(g1, 0.0)
    gp2 = np.maximum(g2, 0.0)
    mass = gauss_integral(mesh, np.abs(g1) ** p, np.abs(g2) ** p)
    mass_plus = gauss_integral(mesh, gp1**p, gp2**p)
    weight = gauss_integral(mesh, a1 * np.abs(g1) ** q, a2 * np.abs(g2) ** q)
    weight_plus = gauss_integral(mesh, a1 * gp1**q, a2 * gp2**q)
    return grad_term, mass, mass_plus, weight, weight_plus


def evaluate(u: GridFn, spec: ProblemSpec) -> EnergyBreakdown:
    """Evaluate every energy term of u for this instance."""
    if u.mesh != spec.mesh:
        raise MeshMismatchError("function and spec live on different meshes")
    grad_term, mass, mass_plus, weight, weight_plus = _raw_terms(u.values, spec)
    lam = spec.lam
    E = grad_term - lam * mass
    E_t = grad_term - lam * mass_plus
    I = E / spec.p - weight / spec.q
    I_t = E_t / spec.p - weight_plus / spec.q
    return EnergyBreakdown(
        grad_term=grad_term,
        mass_term=mass,
        mass_term_plus=mass_plus,
        weight_term=weight,
        weight_term_plus=weight_plus,
        E=E,
        I=I,
        E_trunc=E_t,
        I_trunc=I_t,
        nehari_residual=E - weight,
        nehari_residual_trunc=E_t - weight_plus,
    )


def _grad_grad_term(vals: np.ndarray, mesh: Mesh, p: float) -> np.ndarray:
    # d/du_j of sum |du|^p / h^(p-1); each cell couples its two nodes.
    du = np.diff(vals)
    flux = p * signed_pow(du, p - 1.0) / mesh.h ** (p - 1.0)
    grad = np.zeros(mesh.n_nodes)
    grad[:-1] -= flux
    grad[1:] += flux
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def _grad_mass(vals: np.ndarray, mesh: Mesh, p: float, truncated: bool) -> np.ndarray:
    g1, g2 = gauss_values(vals)
    if truncated:
        d1 = p * np.maximum(g1, 0.0) ** (p - 1.0)
        d2 = p * np.maximum(g2, 0.0) ** (p - 1.0)
    else:
        d1 = p * signed_pow(g1, p - 1.0)
        d2 = p * signed_pow(g2, p - 1.0)
    return scatter_gauss_gradient(mesh, d1, d2)


def _grad_weight(vals: np.ndarray, spec: ProblemSpec, truncated: bool) -> np.ndarray:
    q = spec.q
    g1, g2 = gauss_values(vals)
    a1, a2 = spec.a.gauss
    if truncated:
        d1 = q * a1 * np.maximum(g1, 0.0) ** (q - 1.0)
        d2 = q * a2 * np.maximum(g2, 0.0) ** (q - 1.0)
    else:
        d1 = q * a1 * signed_pow(g1, q - 1.0)
        d2 = q * a2 * signed_pow(g2, q - 1.0)
    return scatter_gauss_gradient(spec.mesh, d1, d2)


def gradient_E(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Nodal partials of E (or its truncated variant)."""
    if u.mesh != spec.mesh:
        raise MeshMismatchError("function and spec live on different meshes")
    g = _grad_grad_term(u.values, spec.mesh, spec.p)
    g -= spec.lam * _grad_mass(u.values, spec.mesh, spec.p, truncated)
    return GridFn(spec.mesh, g)


def gradient_weight_term(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Nodal partials of int a|u|^q (or int a u_+^q)."""
    if u.mesh != spec.mesh:
        raise MeshMismatchError("function and spec live on different meshes")
    return GridFn(spec.mesh, _grad_weight(u.values, spec, truncated))


def gradient_I(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Weak-form residual of the energy against the nodal basis.

    Returns the vector of partials of the discrete I (or its truncated
    variant) with respect to interior nodal values, zero at the boundary
    slots. Defined for all p, q > 1; for q < 2 it is continuous but not
    Lipschitz near u = 0, which is left untouched on purpose.
    """
    if u.mesh != spec.mesh:
        raise MeshMismatchError("function and spec live on different meshes")
    g = _grad_grad_term(u.values, spec.mesh, spec.p)
    g -= spec.lam * _grad_mass(u.values, spec.mesh, spec.p, truncated)
    g /= spec.p
    g -= _grad_weight(u.values, spec, truncated) / spec.q
    return GridFn(spec.mesh, g)


def _fiber_parts(u: GridFn, spec: ProblemSpec, truncated: bool) -> tuple[float, float, EnergyBreakdown]:
    b = evaluate(u, spec)
    if truncated:
        return b.E_trunc, b.weight_term_plus, b
    return b.E, b.weight_term, b


def _fiber_scales(b: EnergyBreakdown, spec: ProblemSpec) -> tuple[float, float]:
    # Magnitudes against which E and the weight integral are judged zero;
    # both scale with the function itself so tiny Nehari points stay valid.
    scale_E = b.grad_term + abs(spec.lam) * b.mass_term
    measure = spec.mesh.x_hi - spec.mesh.x_lo
    # Hoelder: int |u|^q <= (int |u|^p)^(q/p) * measure^(1-q/p)
    scale_G = spec.a.linf() * b.mass_term ** (spec.q / spec.p) * measure ** (1.0 - spec.q / spec.p)
    return scale_E, scale_G


def fiber_scale(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Unique stationary scale t(u) > 0 of t -> I(t*u).

    Requires E(u) and the weight integral to share a strict sign; raises
    FiberUndefinedError otherwise (including the near-zero tolerance case).
    """
    E, G, b = _fiber_parts(u, spec, truncated)
    scale_E, scale_G = _fiber_scales(b, spec)
    if abs(E) <= FIBER_ZERO_RTOL * scale_E or abs(G) <= FIBER_ZERO_RTOL * scale_G or E * G < 0.0:
        raise FiberUndefinedError(f"fiber undefined: E={E:.3e}, weight integral={G:.3e}")
    return (G / E) ** (1.0 / (spec.p - spec.q))


def fibered_J(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Ray-optimal energy J(u) = I(t(u) u), 0-homogeneous in u."""
    E, G, b = _fiber_parts(u, spec, truncated)
    scale_E, scale_G = _fiber_scales(b, spec)
    if abs(E) <= FIBER_ZERO_RTOL * scale_E or abs(G) <= FIBER_ZERO_RTOL * scale_G or E * G < 0.0:
        raise FiberUndefinedError(f"fiber undefined: E={E:.3e}, weight integral={G:.3e}")
    p, q = spec.p, spec.q
    coeff = (p - q) / (p * q)
    return -np.sign(E) * coeff * abs(G) ** (p / (p - q)) / abs(E) ** (q / (p - q))


def nehari_project(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Scale u onto the Nehari set: returns t(u) * u.

    The residual E - int a|u|^q of the result vanishes up to roundoff; the
    identity is algebraic because both sides use the same discrete integrals.
    """
    t = fiber_scale(u, spec, truncated)
    return GridFn(u.mesh, t * u.values)


def nehari_residual_rel(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Nehari residual normalized by the magnitude of its two terms."""
    E, G, _ = _fiber_parts(u, spec, truncated)
    return abs(E - G) / max(1.0, abs(E), abs(G))

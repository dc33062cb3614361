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

Every energy in the package is built from the three P1 integrals
int |u'|^p, int |u|^p and int a|u|^q (or their positive-part variants) and
their nodal gradients. P1Energy is that kernel: called on a nodal vector
it returns an EnergyPoint holding the three values and, on request, the
gradients, the inverse of the p-stiffness at that point (the descent
metric) and the tridiagonal Hessians, and its normalize scales a vector
onto the gradient sphere {int |u'|^p = 1}. Its Gauss-point quantities are
(2, n_cells) arrays (see grid), so each power, sum and scatter is one
numpy call for both Gauss points. The eigen solver (whose steps read dm
alone, P1Energy.mass_gradient) and the critical-value search use it and
keep only their own algebra on top.
Energy is its one lam-aware view: E, I, the ray-optimal J, their
gradients, the Hessian of I and the cones, for the fibered solvers and
the GridFn functions below alike, so one rule decides where the fiber is
defined. In 1-D the P1 Hessian is tridiagonal, and _ldlt factors it in
O(n): one factorization gives a Newton solve and, by its count of
negative pivots, the Morse index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FiberUndefinedError, MeshMismatchError, SolverError
from .grid import (
    GridFn,
    Mesh,
    Weight,
    gauss_integral,
    gauss_values,
    scatter_gauss_gradient,
    scatter_gauss_hessian,
)

__all__ = [
    "ProblemSpec",
    "EnergyBreakdown",
    "P1Energy",
    "EnergyPoint",
    "Energy",
    "evaluate",
    "gradient_I",
    "fiber_scale",
    "fibered_J",
    "nehari_project",
    "nehari_residual_rel",
]

# Relative cutoff below which E or the weight integral counts as zero when
# deciding whether the fiber scale is defined.
FIBER_ZERO_RTOL = 1e-12
# Regularization of the p-stiffness metric (EnergyPoint.precondition): a
# cell's slope counts as at least about this fraction of the largest slope.
METRIC_EPS = 1e-2


def _stiffness_solver(mesh: Mesh, w: np.ndarray):
    """Apply the inverse of the P1 stiffness with positive cell weights w.

    The matrix K = sum_k w_k (e_k - e_(k+1))(e_k - e_(k+1))^T / h couples
    the nodes only through the cell fluxes F_k = w_k du_k / h, and row i
    of K z = r reads F_(i-1) - F_i = r_i. So every flux is
    F_k = F_0 - c_k with c_k = r_1 + ... + r_k, every slope is
    du_k = (h / w_k) F_k, and z(x_hi) = sum du_k = 0 gives F_0 in closed
    form as the mean of c weighted by the cell compliances h / w_k; z is
    the partial sums of du. The compliances are computed once, so every
    call is O(n) with no pivot. z is zero at both ends; r's boundary
    entries are ignored. With every w_k = 1 it is the linear stiffness.
    """
    compliance = mesh.h / w
    total = float(compliance.sum())

    def apply(r: np.ndarray) -> np.ndarray:
        c = np.zeros(mesh.n_cells)
        r[1:-1].cumsum(out=c[1:])
        flux = float(c.dot(compliance)) / total - c
        z = np.zeros(mesh.n_nodes)
        (flux * compliance)[:-1].cumsum(out=z[1:-1])
        return z

    return apply


def _power(x: float, e: float) -> float:
    """x ** e; SolverError where it overflows a float, as the fibered powers
    of J and t(u) do for q near p, whose exponents p/(p-q), q/(p-q) are large."""
    try:
        return x**e
    except OverflowError:
        raise SolverError(f"{x:.6g} ** {e:.6g} overflows: q is too near p for the fibered energy") from None


def _gauss_power(b: np.ndarray, signs: np.ndarray | None, r: float) -> np.ndarray:
    # d/dg of b^(r+1)/(r+1) at both Gauss points: b^r, times signs = sign(g);
    # signs is None when truncated (b = max(g, 0) is then zero where g is negative)
    return b**r if signs is None else signs * b**r


def _ldlt(diag: np.ndarray, off: np.ndarray):
    """Factor the symmetric tridiagonal (diag, off) as L D L^T, O(n) with no pivoting.

    The pivots follow d_1 = diag_1, d_(i+1) = diag_(i+1) - off_i^2 / d_i.
    Returns (solve, negatives): solve(r) is x with T x = r by one forward
    and one backward sweep of the unit bidiagonal L, and negatives is the
    count of negative pivots, which by Sylvester's law of inertia is the
    count of negative eigenvalues (the Morse index). Returns None when an
    entry or a pivot is not finite or a pivot is zero: no Hessian, or a
    singular one, at that point.
    """
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        return None
    a, b = diag.tolist(), off.tolist()
    d = [a[0]]
    l = []
    for i, bi in enumerate(b):
        if d[-1] == 0.0:
            return None
        li = bi / d[-1]
        l.append(li)
        d.append(a[i + 1] - li * bi)
    pivots = np.array(d)
    if not np.all(np.isfinite(pivots)) or np.any(pivots == 0.0):
        return None

    def solve(r: np.ndarray) -> np.ndarray:
        y = r.tolist()
        for i, li in enumerate(l):
            y[i + 1] -= li * y[i]
        x = (np.array(y) / pivots).tolist()
        for i in range(len(l) - 1, -1, -1):
            x[i] -= l[i] * x[i + 1]
        return np.array(x)

    return solve, int(np.count_nonzero(pivots < 0.0))


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


class P1Energy:
    """The P1 energy terms of one problem instance, the kernel every solver uses.

        grad_term = int |u'|^p
        mass      = int |u|^p       (int u_+^p when truncated)
        weight    = int a |u|^q     (int a u_+^q when truncated)

    a_gauss holds the weight's values at the Gauss points, the (2, n_cells)
    array Weight.gauss; without it there is no weight term. Calling the
    kernel on a nodal vector returns its EnergyPoint, and the kernel keeps
    the last one; mass_gradient returns the point's dm alone, and
    normalize scales a vector onto the gradient sphere {int |u'|^p = 1}.
    """

    def __init__(
        self,
        mesh: Mesh,
        p: float,
        q: float | None = None,
        a_gauss: np.ndarray | None = None,
        truncated: bool = False,
    ):
        self.mesh, self.p, self.q, self.a_gauss, self.truncated = mesh, p, q, a_gauss, truncated
        # a cell contributes h |du/h|^p = |du|^p / h^(p-1) to grad_term
        self.h_scale = mesh.h ** (p - 1.0)
        self.qa = None if a_gauss is None else q * a_gauss
        self._key: tuple | None = None
        self.last: EnergyPoint | None = None

    def __call__(self, v: np.ndarray) -> "EnergyPoint":
        """The EnergyPoint of v, kept as last until a call on other content.

        The key is the dtype, shape and a copy of the bytes of v, so an
        array changed in place after a call is a miss, never a stale hit.
        """
        key = (v.dtype.str, v.shape, v.tobytes())
        if key != self._key:
            self.last = EnergyPoint(self, v)
            self._key = key
        return self.last

    def _gauss(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the Gauss-point values g of v and their magnitudes b (u_+ when truncated)
        g = gauss_values(v)
        return g, np.maximum(g, 0.0) if self.truncated else np.abs(g)

    def _mass_gradient(self, b: np.ndarray, signs: np.ndarray | None) -> np.ndarray:
        # dm: p sign(g) b^(p-1) at both Gauss points, scattered; read-only
        dm = scatter_gauss_gradient(self.mesh, self.p * _gauss_power(b, signs, self.p - 1.0))
        dm.flags.writeable = False
        return dm

    def mass_gradient(self, v: np.ndarray) -> np.ndarray:
        """dm at v, bit for bit the one EnergyPoint.gradients() returns, without the point.

        For a caller that reads nothing else, as the eigen iteration's step:
        neither the three integrals nor dg is computed, and last is unchanged.
        """
        g, b = self._gauss(v)
        return self._mass_gradient(b, None if self.truncated else np.sign(g))

    def normalize(self, v: np.ndarray) -> np.ndarray:
        """Scale nodal values onto the gradient sphere {int |v'|^p = 1}.

        Returns a new array. The boundary entries are set to zero first, so
        the rescaling never amplifies boundary dust; the zero function
        raises ValueError. When the power sum under- or overflows (large p
        times n), v is first divided by its largest slope and summed again.
        """
        v = np.array(v)
        v[0] = v[-1] = 0.0
        du = v[1:] - v[:-1]
        g = float((np.abs(du) ** self.p).sum()) / self.h_scale
        if g == 0.0 or not math.isfinite(g):
            top = float(np.abs(du).max())
            if top == 0.0:
                raise ValueError("cannot normalize the zero function")
            v, du = v / top, du / top
            g = float((np.abs(du) ** self.p).sum()) / self.h_scale
        return v / g ** (1.0 / self.p)


class EnergyPoint:
    """The kernel's terms at one nodal vector, and their nodal gradients.

    grad_term, mass and weight (None without a weight) come from one
    difference and one gauss_values pass. The Gauss-point values g, their
    magnitudes b (u_+ when truncated) and every quantity derived from them
    are (2, n_cells) arrays: each power is raised once over both Gauss
    points, and each nodal gradient is one scatter. The nodal gradients are
    built only when asked for and then kept, so a caller holding the point
    pays for each at most once: gradients() assembles dg from the cell
    fluxes and scatters dm, weight_gradient() scatters dw, precondition()
    builds the cell compliances of the p-stiffness at this point, hessian()
    the tridiagonal second derivatives of the three terms.
    """

    __slots__ = (
        "grad_term", "mass", "weight", "_k", "_du", "_abs_du", "_g", "_b", "_signs", "_grads", "_dw", "_metric",
        "_hess",
    )

    def __init__(self, kernel: P1Energy, v: np.ndarray):
        p, q, mesh = kernel.p, kernel.q, kernel.mesh
        self._k = kernel
        du = v[1:] - v[:-1]
        abs_du = np.abs(du)
        self.grad_term = float((abs_du**p).sum()) / kernel.h_scale
        g, b = kernel._gauss(v)
        self.mass = gauss_integral(mesh, b**p)
        self.weight = None if kernel.a_gauss is None else gauss_integral(mesh, kernel.a_gauss * b**q)
        self._du, self._abs_du, self._g, self._b = du, abs_du, g, b
        self._signs = self._grads = self._dw = self._metric = self._hess = None

    def _gauss_signs(self) -> np.ndarray | None:
        # sign(g), computed once for dm and dw; None when truncated
        if self._signs is None and not self._k.truncated:
            self._signs = np.sign(self._g)
        return self._signs

    def _gauss_curvature(self, r: float) -> np.ndarray:
        # d2/dg2 of b^(r+2)/((r+2)(r+1)) at both Gauss points: b^r, which is
        # inf at b = 0 when r < 0 (no second derivative there); truncated, a
        # Gauss point with g < 0 contributes nothing, as b vanishes near it
        with np.errstate(divide="ignore"):
            c = self._b**r
        if self._k.truncated:
            c = np.where(self._g < 0.0, 0.0, c)
        return c

    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """(dg, dm): nodal gradients of grad_term and mass.

        Read-only and zero at the boundary; built on the first call, then kept.
        """
        if self._grads is None:
            k = self._k
            p = k.p
            # each cell's flux couples its two nodes
            flux = p * (np.sign(self._du) * self._abs_du ** (p - 1.0)) / k.h_scale
            dg = np.zeros(k.mesh.n_nodes)
            dg[:-1] -= flux
            dg[1:] += flux
            dg[0] = dg[-1] = 0.0
            dg.flags.writeable = False
            self._grads = dg, k._mass_gradient(self._b, self._gauss_signs())
        return self._grads

    def weight_gradient(self) -> np.ndarray:
        """dw: nodal gradient of weight, read-only and zero at the boundary; built once."""
        if self._dw is None:
            k = self._k
            self._dw = scatter_gauss_gradient(k.mesh, k.qa * _gauss_power(self._b, self._gauss_signs(), k.q - 1.0))
            self._dw.flags.writeable = False
        return self._dw

    def hessian(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], tuple | None]:
        """The interior tridiagonal blocks (diag, off) of grad_term, mass and weight.

        grad_term has the cell weights p (p-1) |du_k|^(p-2) / h^(p-1), mass
        and weight the Gauss-point second derivatives p (p-1) b^(p-2) and
        q (q-1) a b^(q-2), spread by scatter_gauss_hessian. The weight
        block is None without a weight. Truncated, a Gauss point with g < 0
        adds nothing. An entry is inf where the term has no second
        derivative: p < 2 at a flat cell or at a Gauss point with g = 0,
        q < 2 at a Gauss point with g = 0 where a != 0. Built on the first
        call, then kept.
        """
        if self._hess is None:
            k = self._k
            p, mesh = k.p, k.mesh
            with np.errstate(divide="ignore"):
                w = (p * (p - 1.0) / k.h_scale) * self._abs_du ** (p - 2.0)
            grad = (w[:-1] + w[1:], -w[1:-1])
            mass = scatter_gauss_hessian(mesh, p * (p - 1.0) * self._gauss_curvature(p - 2.0))
            weight = None
            if k.a_gauss is not None:
                c = k.q * (k.q - 1.0)
                a = k.a_gauss
                with np.errstate(invalid="ignore"):
                    # a = 0 cancels b^(q-2) = inf: that term is zero
                    curvature = c * a * self._gauss_curvature(k.q - 2.0)
                    weight = scatter_gauss_hessian(mesh, np.where(a != 0.0, curvature, 0.0))
            self._hess = grad, mass, weight
        return self._hess

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """z with K z = r, K the regularized p-stiffness at this point.

        K is the P1 stiffness with the cell weights
        (s_k^2 + (METRIC_EPS max s)^2)^((p-2)/2), s_k = |du_k|/h, divided by
        their maximum: the cell weight of the Hessian of int |u'|^p up to a
        constant, kept positive on flat cells (p > 2, where it would vanish)
        and bounded on them (p < 2, where it would blow up). At p = 2, and at
        the zero vector, every weight is 1 and K is the linear stiffness. The
        solve is the exact flux identity of _stiffness_solver; its cell
        compliances are computed on the first call and then kept.
        """
        if self._metric is None:
            k = self._k
            top = float(self._abs_du.max())
            if top > 0.0:
                # weights of s_k / max s: scale-free, so no power under- or overflows
                t = self._abs_du / top
                w = (t * t + METRIC_EPS**2) ** (0.5 * (k.p - 2.0))
                w /= w.max()
            else:
                w = np.ones(k.mesh.n_cells)
            self._metric = _stiffness_solver(k.mesh, w)
        return self._metric(r)


class Energy:
    """The lam-aware view of P1Energy for one problem instance and truncation.

    E = grad_term - lam * mass, G = weight, and on them I, the ray-optimal
    J, their gradients, the cones and the Nehari scaling. The kernel keeps
    its last point, so the guard, value, gradient and precond callbacks
    descent calls on one accepted point share a single evaluation. J,
    grad_J and fiber_scale raise SolverError where a power overflows, and J
    also where |E|^(q/(p-q)) underflows to 0 (q near p), which would leave
    it 0/0 or x/0.
    """

    def __init__(self, spec: ProblemSpec, truncated: bool):
        self.p, self.q, self.lam = spec.p, spec.q, spec.lam
        self.kernel = P1Energy(spec.mesh, spec.p, spec.q, spec.a.gauss, truncated)
        self.normalize = self.kernel.normalize
        # Hoelder: int |u|^q <= (int |u|^p)^(q/p) * measure^(1-q/p)
        measure = spec.mesh.x_hi - spec.mesh.x_lo
        self._zero_G = FIBER_ZERO_RTOL * spec.a.linf() * measure ** (1.0 - spec.q / spec.p)

    def terms(self, v: np.ndarray) -> tuple[float, float, float]:
        """(grad term, mass term, weight term) with the kernel's truncation."""
        pt = self.kernel(v)
        return pt.grad_term, pt.mass, pt.weight

    def EG(self, v: np.ndarray) -> tuple[float, float]:
        grad_term, mass, weight = self.terms(v)
        return grad_term - self.lam * mass, weight

    def I(self, v: np.ndarray) -> float:
        grad_term, mass, weight = self.terms(v)
        return (grad_term - self.lam * mass) / self.p - weight / self.q

    def grad_I(self, v: np.ndarray) -> np.ndarray:
        pt = self.kernel(v)
        dg, dm = pt.gradients()
        return (dg - self.lam * dm) / self.p - pt.weight_gradient() / self.q

    def hess_I(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The interior tridiagonal Hessian (diag, off) of I, combined as grad_I combines the gradients."""
        (gd, go), (md, mo), weight = self.kernel(v).hessian()
        diag = (gd - self.lam * md) / self.p
        off = (go - self.lam * mo) / self.p
        if weight is not None:
            diag = diag - weight[0] / self.q
            off = off - weight[1] / self.q
        return diag, off

    def precond(self, g: np.ndarray) -> np.ndarray:
        """The descent direction: g in the p-stiffness metric of the last point valued."""
        return self.kernel.last.precondition(g)

    def J(self, v: np.ndarray) -> float:
        """J(v) = I(t(v) v) in closed form; v must lie in one of the cones."""
        E, G = self.EG(v)
        p, q = self.p, self.q
        coeff = (p - q) / (p * q)
        num = _power(abs(G), p / (p - q))
        den = _power(abs(E), q / (p - q))
        if den == 0.0:
            raise SolverError(f"{abs(E):.6g} ** {q / (p - q):.6g} underflows: q is too near p for the fibered energy")
        return math.copysign(coeff, -E) * num / den

    def grad_J(self, v: np.ndarray) -> np.ndarray:
        E, G = self.EG(v)
        pt = self.kernel(v)
        dg, dm = pt.gradients()
        dE, dG = dg - self.lam * dm, pt.weight_gradient()
        p, q = self.p, self.q
        alpha = p / (p - q)
        beta = q / (p - q)
        coeff = (p - q) / (p * q)
        pref = math.copysign(coeff, -E) * _power(abs(G), alpha - 1.0) * _power(abs(E), -beta - 1.0)
        return pref * (alpha * E * dG - beta * G * dE)

    def in_cone(self, v: np.ndarray, sign: int) -> bool:
        """sign=+1: {E > 0, G > 0}; sign=-1: {E < 0, G < 0}; the fiber is defined on both.

        E and G count as zero up to FIBER_ZERO_RTOL times a bound of their
        own degree in v, so the verdict is the same all along a ray.
        """
        grad_term, mass, weight = self.terms(v)
        E = grad_term - self.lam * mass
        zero_E = FIBER_ZERO_RTOL * (grad_term + abs(self.lam) * mass)
        zero_G = self._zero_G * mass ** (self.q / self.p)
        if sign > 0:
            return E > zero_E and weight > zero_G
        return E < -zero_E and weight < -zero_G

    def fiber_scale(self, v: np.ndarray) -> float:
        """t(v) = (G/E)^(1/(p-q)); v must lie in one of the cones."""
        E, G = self.EG(v)
        return _power(G / E, 1.0 / (self.p - self.q))

    def fiber_project(self, v: np.ndarray) -> np.ndarray:
        """t(v) v, on the Nehari set {E = G}; v must lie in one of the cones."""
        return v * self.fiber_scale(v)

    def residual_sup(self, v: np.ndarray) -> float:
        return float(np.abs(self.grad_I(v)).max())


def _energy(u: GridFn, spec: ProblemSpec, truncated: bool) -> Energy:
    if u.mesh != spec.mesh:
        raise MeshMismatchError("function and spec live on different meshes")
    return Energy(spec, truncated)


def evaluate(u: GridFn, spec: ProblemSpec) -> EnergyBreakdown:
    """Evaluate every energy term of u for this instance."""
    grad_term, mass, weight = _energy(u, spec, truncated=False).terms(u.values)
    _, mass_plus, weight_plus = Energy(spec, truncated=True).terms(u.values)
    E = grad_term - spec.lam * mass
    E_t = grad_term - spec.lam * mass_plus
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
    )


def gradient_I(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Weak-form residual of the energy against the nodal basis.

    Returns the vector of partials of the discrete I (or its truncated
    variant) with respect to interior nodal values, zero at the boundary
    slots. Defined for all p, q > 1; for q < 2 it is continuous but not
    Lipschitz near u = 0, which is left untouched on purpose.
    """
    return GridFn(spec.mesh, _energy(u, spec, truncated).grad_I(u.values))


def _fiber(u: GridFn, spec: ProblemSpec, truncated: bool) -> Energy:
    """The Energy of u; FiberUndefinedError unless u lies in one of its cones."""
    energy = _energy(u, spec, truncated)
    if not (energy.in_cone(u.values, +1) or energy.in_cone(u.values, -1)):
        E, G = energy.EG(u.values)
        raise FiberUndefinedError(f"fiber undefined: E={E:.3e}, weight integral={G:.3e}")
    return energy


def fiber_scale(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Unique stationary scale t(u) > 0 of t -> I(t*u).

    Requires E(u) and the weight integral to share a strict sign (Energy.in_cone);
    raises FiberUndefinedError otherwise, and SolverError where t(u)
    overflows a float (q near p).
    """
    return _fiber(u, spec, truncated).fiber_scale(u.values)


def fibered_J(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Ray-optimal energy J(u) = I(t(u) u), 0-homogeneous in u."""
    return _fiber(u, spec, truncated).J(u.values)


def nehari_project(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> GridFn:
    """Scale u onto the Nehari set: returns t(u) * u.

    The residual E - int a|u|^q of the result vanishes up to roundoff; the
    identity is algebraic because both sides use the same discrete integrals.
    """
    return GridFn(u.mesh, _fiber(u, spec, truncated).fiber_project(u.values))


def nehari_residual_rel(u: GridFn, spec: ProblemSpec, truncated: bool = False) -> float:
    """Nehari residual normalized by the magnitude of its two terms."""
    E, G = _energy(u, spec, truncated).EG(u.values)
    return abs(E - G) / max(1.0, abs(E), abs(G))

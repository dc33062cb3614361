"""Critical parameter values, the Picone polynomial condition, the
nonexistence eigenvalue bound, and the solution-level Picone certificate.

Four thresholds organize the parameter axis:

    lam_star  = inf R(u) over { int a|u|^q >= 0 }
    lam_plus  = inf R(u) over { int a|u|^q >  0 }
    lam_minus = inf R(u) over { int a|u|^q <  0 }
    lam_zero  = inf R(u) over { int a|u|^q  = 0 }

with R the p-Rayleigh quotient. Their mutual order is decided entirely by
the sign of the pairing int a*phi^q with the first eigenfunction:

    pairing > 0:  lam1 = lam_star = lam_plus < lam_zero = lam_minus
    pairing = 0:  all four equal lam1
    pairing < 0:  lam1 = lam_minus < lam_zero = lam_plus = lam_star

Only one value per sign case is nontrivial; it is computed by penalized
minimization of the Rayleigh quotient with the sign constraint, followed
by an exact feasibility restoration, so the reported value is a feasible
upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descent import PointMemo, bb_descent
from .eigen import EigenPair, _stiffness_preconditioner, first_eigenpair, pairing
from .errors import NonConvergenceError, SolverError, WeightError
from .functionals import ProblemSpec
from .grid import (
    GridFn,
    Mesh,
    SignPartition,
    Weight,
    component_bump,
    gauss_integral,
    gauss_values,
    integral_abs_p,
    scatter_gauss_gradient,
    sign_partition,
    smooth_noise,
)

__all__ = [
    "CriticalValues",
    "PiconeReport",
    "compute_critical_values",
    "picone_condition",
    "region_classify",
    "nonexistence_bound",
    "picone_certificate",
]

PAIRING_ZERO_RTOL = 1e-10
PICONE_TOL = 1e-12
DEAD_CORE_RTOL = 1e-8


@dataclass(frozen=True)
class CriticalValues:
    lambda1: float
    lambda_star: float
    lambda_plus: float
    lambda_minus: float
    lambda_zero: float
    pairing: float
    pairing_sign: str  # negative | zero | positive
    converged: bool


@dataclass(frozen=True)
class PiconeReport:
    p: float
    q: float
    holds: bool
    min_value: float
    argmin_s: float


def _pairing_sign(value: float, a: Weight, pair: EigenPair, q: float) -> str:
    scale = max(1.0, a.linf() * integral_abs_p(pair.phi, q))
    if abs(value) <= PAIRING_ZERO_RTOL * scale:
        return "zero"
    return "positive" if value > 0.0 else "negative"


def _constrained_rayleigh_min(
    spec: ProblemSpec,
    pair: EigenPair,
    want_nonneg: bool,
    seed: int = 0,
    starts: int = 3,
    stages: int = 6,
    iters_per_stage: int = 700,
) -> tuple[float, bool]:
    """min Rayleigh quotient subject to int a|u|^q >= 0 (or <= 0).

    Exterior quadratic penalty with a 10x continuation over the penalty
    weight, multi-start from random positive perturbations of phi, and a
    final bisection mix with a strictly feasible bump so that the reported
    value is the Rayleigh quotient of an exactly feasible function.
    """
    mesh, p, q = spec.mesh, spec.p, spec.q
    precond = _stiffness_preconditioner(mesh)
    part = sign_partition(spec.a)
    comps = part.plus_components if want_nonneg else part.minus_components
    if not comps:
        raise SolverError("weight has no component of the required sign")
    feas_dir = component_bump(mesh, max(comps, key=lambda c: c[1] - c[0]))

    a1, a2 = spec.a.gauss
    qa1, qa2 = q * a1, q * a2
    h_scale = mesh.h ** (p - 1.0)

    def value_pass(v: np.ndarray):
        """Gradient term, mass and weight integral, values only.

        Returns (g, m, w, arrays); the arrays are what grad_fun needs to
        build the nodal gradients at an accepted point without redoing
        the pass.
        """
        du = v[1:] - v[:-1]
        abs_du = np.abs(du)
        g = float((abs_du**p).sum()) / h_scale
        g1, g2 = gauss_values(v)
        abs1, abs2 = np.abs(g1), np.abs(g2)
        m = gauss_integral(mesh, abs1**p, abs2**p)
        w = gauss_integral(mesh, a1 * abs1**q, a2 * abs2**q)
        return g, m, w, (du, abs_du, g1, g2, abs1, abs2)

    point = PointMemo(value_pass)

    def rayleigh(v: np.ndarray) -> float:
        g, m, _, _ = point(v)
        return g / m

    def normalize(v: np.ndarray) -> np.ndarray:
        v = np.array(v)
        v[0] = v[-1] = 0.0  # rescaling must never amplify boundary dust
        du = v[1:] - v[:-1]
        g = float((np.abs(du) ** p).sum()) / h_scale
        return v / g ** (1.0 / p)

    def violation_of(w: float) -> float:
        return max(0.0, -w) if want_nonneg else max(0.0, w)

    def violation(v: np.ndarray) -> float:
        return violation_of(point(v)[2])

    def restore_feasible(v: np.ndarray) -> np.ndarray:
        if violation(v) == 0.0:
            return v
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if violation((1.0 - mid) * v + mid * feas_dir) > 0.0:
                lo = mid
            else:
                hi = mid
        return (1.0 - hi) * v + hi * feas_dir

    best = np.inf
    any_converged = False

    for k in range(starts):
        rng = np.random.default_rng(seed * 1_000_003 + k)
        noise = np.abs(smooth_noise(mesh, rng))
        v0 = normalize(pair.phi.values + 0.4 * noise * pair.phi.linf())
        viol0 = violation(v0)
        rho = pair.lambda1 / max(viol0**2, 1e-8)
        result_status = "stalled"
        x = v0
        for _stage in range(stages):

            def fun(v: np.ndarray) -> float:
                g, m, w, _ = point(v)
                return g / m + rho * violation_of(w) ** 2

            def grad_fun(v: np.ndarray) -> np.ndarray:
                # descent calls this only at accepted points, right after
                # fun on the same array: the value pass is a memo hit
                g, m, w, (du, abs_du, g1, g2, abs1, abs2) = point(v)
                flux = p * (np.sign(du) * abs_du ** (p - 1.0)) / h_scale
                dg = np.zeros(mesh.n_nodes)
                dg[:-1] -= flux
                dg[1:] += flux
                dg[0] = dg[-1] = 0.0
                s1, s2 = np.sign(g1), np.sign(g2)
                dm = scatter_gauss_gradient(mesh, p * (s1 * abs1 ** (p - 1.0)), p * (s2 * abs2 ** (p - 1.0)))
                out = (dg - (g / m) * dm) / m
                viol = violation_of(w)
                if viol > 0.0:
                    sgn = -1.0 if want_nonneg else 1.0
                    dw = scatter_gauss_gradient(
                        mesh, qa1 * (s1 * abs1 ** (q - 1.0)), qa2 * (s2 * abs2 ** (q - 1.0))
                    )
                    out = out + rho * 2.0 * viol * sgn * dw
                return out

            res = bb_descent(
                x,
                fun,
                grad_fun,
                tol=1e-7,
                max_iter=iters_per_stage,
                normalize=normalize,
                precond=precond,
            )
            x = res.x
            result_status = res.status
            rho *= 10.0
        x = restore_feasible(x)
        value = rayleigh(x)
        if value < best:
            best = value
            any_converged = result_status == "converged"
    # Also try the feasible bump itself: cheap and sometimes better for
    # strongly localized constraints.
    best = min(best, rayleigh(feas_dir))
    if not np.isfinite(best):
        raise NonConvergenceError("penalized Rayleigh minimization failed to produce a value")
    return float(best), any_converged


def compute_critical_values(spec: ProblemSpec, pair: EigenPair, seed: int = 0) -> CriticalValues:
    """Fill all four thresholds for this instance.

    Requires a sign-changing weight. The trivial identities are filled from
    the pairing sign; the one nontrivial value is computed by penalized
    minimization and always exceeds lambda1 (reported feasible).
    """
    if not spec.a.is_sign_changing():
        raise WeightError("critical values require a sign-changing weight")
    val = pairing(spec.a, pair, spec.q)
    sign = _pairing_sign(val, spec.a, pair, spec.q)
    lam1 = pair.lambda1
    if sign == "zero":
        return CriticalValues(lam1, lam1, lam1, lam1, lam1, val, sign, True)
    if sign == "positive":
        nontrivial, ok = _constrained_rayleigh_min(spec, pair, want_nonneg=False, seed=seed)
        return CriticalValues(
            lambda1=lam1,
            lambda_star=lam1,
            lambda_plus=lam1,
            lambda_minus=nontrivial,
            lambda_zero=nontrivial,
            pairing=val,
            pairing_sign=sign,
            converged=ok,
        )
    nontrivial, ok = _constrained_rayleigh_min(spec, pair, want_nonneg=True, seed=seed)
    return CriticalValues(
        lambda1=lam1,
        lambda_star=nontrivial,
        lambda_plus=nontrivial,
        lambda_minus=lam1,
        lambda_zero=nontrivial,
        pairing=val,
        pairing_sign=sign,
        converged=ok,
    )


def _picone_poly(p: float, q: float, s: np.ndarray) -> np.ndarray:
    return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)


def _picone_poly_deriv(p: float, q: float, s: np.ndarray) -> np.ndarray:
    return p * (q - 1.0) * s ** (p - 1.0) + q * (p - 1.0) * s ** (p - 2.0) - (p - q)


def picone_condition(p: float, q: float) -> PiconeReport:
    """Decide whether (q-1)s^p + q s^(p-1) - (p-q)s + (q-p+1) >= 0 on s >= 0.

    The value at s=0 is q-p+1 and at s=1 it is 2(2q-p); either being
    negative settles the answer. The global minimum is located by
    bracketing the derivative's sign changes on a log-spaced grid and
    bisecting each bracket, which is enough because the leading
    coefficient q-1 > 0 forces the minimum onto a compact interval.
    """
    if not (1.0 < q < p):
        raise ValueError(f"need 1 < q < p, got q={q}, p={p}")
    s_max = max(2.0, ((p - q) / (q - 1.0)) ** (1.0 / (p - 1.0)) + 1.0)
    grid = np.concatenate(([0.0], np.geomspace(1e-8, s_max, 10_000)))
    dvals = _picone_poly_deriv(p, q, np.maximum(grid, 1e-300))
    d, d_next = dvals[1:-1], dvals[2:]
    hits = np.flatnonzero((d == 0.0) | (d * d_next < 0.0)) + 1
    stationary: list[float] = []
    for i in hits:
        if dvals[i] == 0.0:
            stationary.append(float(grid[i]))
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        # lo only moves to points where f' keeps its sign, so f'(lo) is
        # evaluated once and reused
        d_lo = _picone_poly_deriv(p, q, np.array(lo))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _picone_poly_deriv(p, q, np.array(mid)) * d_lo <= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-12:
                break
        stationary.append(0.5 * (lo + hi))
    candidates = [0.0, 1.0, float(s_max)] + stationary
    values = [float(_picone_poly(p, q, np.array(s))) for s in candidates]
    k = int(np.argmin(values))
    min_value, argmin_s = values[k], candidates[k]
    return PiconeReport(p=float(p), q=float(q), holds=min_value >= -PICONE_TOL, min_value=min_value, argmin_s=argmin_s)


def region_classify(p: float, q: float) -> str:
    """Place (p, q) into existence_regime, nonexistence_regime, or undetermined.

    existence_regime iff p > 2q; nonexistence_regime iff the polynomial
    condition holds. The two can never overlap: p > 2q forces the s=1
    value 2(2q-p) below zero.
    """
    return _region_of(picone_condition(p, q))


def _region_of(report: PiconeReport) -> str:
    """The region_classify verdict for a pair whose condition is already decided."""
    p, q = report.p, report.q
    existence = p > 2.0 * q
    nonexistence = report.holds
    if existence and nonexistence:
        raise AssertionError(f"regimes overlap at p={p}, q={q}; polynomial minimum is inconsistent")
    if existence:
        return "existence_regime"
    if nonexistence:
        return "nonexistence_regime"
    return "undetermined"


def nonexistence_bound(spec: ProblemSpec, partition: SignPartition, tol: float = 1e-9) -> float:
    """min over positive-weight components A of lambda1(p; A).

    Above this value no solution can stay positive on all of {a > 0}. Each
    component interval is extended to the neighboring sign-change nodes and
    solved as its own Dirichlet eigenvalue problem on the same spacing.
    """
    if not partition.plus_components:
        raise SolverError("no positive-weight component")
    mesh = spec.mesh
    best = np.inf
    for i0, i1 in partition.plus_components:
        lo = max(i0 - 1, 0)
        hi = min(i1 + 1, mesh.n_nodes - 1)
        sub = Mesh(float(mesh.nodes[lo]), float(mesh.nodes[hi]), hi - lo)
        best = min(best, first_eigenpair(sub, spec.p, tol).lambda1)
    return float(best)


def picone_certificate(u: GridFn, spec: ProblemSpec, pair: EigenPair) -> float:
    """Residual of the nonexistence inequality for a nonnegative candidate.

    Returns r = (lambda1 - lam) * int u^(p-q) phi^q  -  int_{u>0} a phi^q.
    A residual below -tol certifies, at the discrete level, that u cannot
    be a genuine nonnegative solution positive on {a > 0} at this lam;
    used to flag spurious numerical solutions. Requires the polynomial
    condition to hold for (p, q) and u >= 0.
    """
    if u.mesh != spec.mesh:
        raise ValueError("candidate and spec live on different meshes")
    vals = u.values
    if np.min(vals) < -1e-12 * max(u.linf(), 1.0):
        raise ValueError("certificate requires a nonnegative candidate")
    if not picone_condition(spec.p, spec.q).holds:
        raise ValueError("polynomial condition fails for these exponents; certificate not applicable")
    vals = np.maximum(vals, 0.0)
    mesh = spec.mesh
    phi = pair.phi.values
    g1, g2 = gauss_values(vals)
    f1, f2 = gauss_values(phi)
    lhs = gauss_integral(
        mesh,
        np.maximum(g1, 0.0) ** (spec.p - spec.q) * f1**spec.q,
        np.maximum(g2, 0.0) ** (spec.p - spec.q) * f2**spec.q,
    )
    threshold = DEAD_CORE_RTOL * u.linf()
    node_pos = vals > threshold
    cell_pos = node_pos[:-1] & node_pos[1:]
    a1, a2 = spec.a.gauss
    rhs = gauss_integral(mesh, cell_pos * a1 * f1**spec.q, cell_pos * a2 * f2**spec.q)
    return (pair.lambda1 - spec.lam) * lhs - rhs

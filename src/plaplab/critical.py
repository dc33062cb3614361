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

Only one value per sign case is nontrivial. It is the minimum of the
Rayleigh quotient on the sphere {int |u'|^p = 1} under the one sign
constraint, which the pairing sign makes active: one retracted descent
per start on the surface where the constraint integral vanishes, from two
deterministic starts, so it takes no seed. `converged` reports the KKT
test at the winning point: the tangential gradient below tolerance and a
nonnegative multiplier. An exact feasibility restoration follows, so the
reported value is the quotient of a feasible function, an upper bound.
The quotient, the constraint integral and their gradients come from
functionals.P1Energy, one EnergyPoint per point through its one-entry
memo; the descent is preconditioned with the p-stiffness of the point
that memo holds (EnergyPoint.precondition).

The Picone condition, min over s >= 0 of the polynomial f(s) of
picone_condition being nonnegative, is decided from the shape of f: its
minimum is f(0) or f at the one root of f' where f' increases, found to
adjacent floats for a whole grid of (p, q) at once, one Newton pass in log
s closed cell by cell (picone_conditions), so no grid of s is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .descent import bb_descent
from .eigen import EigenPair, _phi_q, first_eigenpair
from .errors import NonConvergenceError, SolverError, WeightError
from .functionals import EnergyPoint, P1Energy, ProblemSpec
from .grid import (
    GridFn,
    Mesh,
    SignPartition,
    Weight,
    _close_bracket,
    gauss_integral,
    gauss_values,
    sign_partition,
    widest_component_bump,
)

__all__ = [
    "CriticalValues",
    "PiconeReport",
    "compute_critical_values",
    "picone_condition",
    "picone_conditions",
    "region_classify",
    "nonexistence_bound",
    "picone_certificate",
]

PAIRING_ZERO_RTOL = 1e-10
PICONE_TOL = 1e-12
_LOG_NEWTON_RTOL = 1e-14  # _log_s_roots: all steps below this of max(1, |t|), t's own rounding, end it
_LOG_NEWTON_MAX = 40  # and this many iterations (the tests' default region grid takes 11, the wide one 23)
# nodal values below this fraction of the sup norm count as zero: the dead
# cores of a classified solution, the zero set of the Picone certificate
DEAD_CORE_RTOL = 1e-8

# the constrained descent of _constrained_rayleigh_min
_KKT_TOL = 1e-7  # KKT test: tangential gradient, sup norm
_DESCENT_ITER = 14_000  # iteration budget per start
_SURFACE_RTOL = 1e-15  # |int a|u|^q| on the surface, relative to |a|_inf
_RETRACT_STEPS = 20  # Newton steps per retraction


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


class PiconeReport(NamedTuple):
    p: float
    q: float
    holds: bool
    min_value: float
    argmin_s: float


def _pairing_sign(phi_q: EnergyPoint, a: Weight) -> str:
    """Sign of the pairing phi_q.weight (eigen._phi_q), zero up to PAIRING_ZERO_RTOL |a|_inf int phi^q."""
    scale = max(1.0, a.linf() * phi_q.mass)
    if abs(phi_q.weight) <= PAIRING_ZERO_RTOL * scale:
        return "zero"
    return "positive" if phi_q.weight > 0.0 else "negative"


def _constrained_rayleigh_min(spec: ProblemSpec, pair: EigenPair, want_nonneg: bool) -> tuple[float, bool, float]:
    """min Rayleigh quotient subject to c(u) = int a|u|^q >= 0 (or -int a|u|^q >= 0).

    The pairing sign puts phi on the wrong side, so the constraint is
    active: R is minimized on the surface {int |u'|^p = 1, c = 0} by one
    BB descent per start in the p-stiffness metric of the iterate, with a
    retraction onto the surface as its normalize hook (Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008). The
    descent sees R's gradient with its grad c component removed, which is
    tangent to rays too, as grad c . u = q c = 0 on the surface. The
    retraction takes Newton steps on c along grad c, each followed by the
    sphere scaling, until |c| <= _SURFACE_RTOL |a|_inf, and the guard
    refuses a trial it left off the surface. A start passes the KKT test
    when its descent converged (tangential gradient below _KKT_TOL within
    _DESCENT_ITER iterations) with multiplier mu = grad R . grad c /
    |grad c|^2 >= 0: R cannot fall by moving into {c > 0}.

    Two deterministic starts: phi, and the mix of phi with the bump on the
    widest component of the required sign that is just feasible (the bump
    itself lies inside {c > 0}, where no Newton step along grad c reaches
    the surface); the bump is a candidate too. Each result is mixed with
    the bump by bisection until exactly feasible, so the reported value is
    the quotient of a feasible function, an upper bound. Returns (value,
    whether the winning start passed KKT, its multiplier; nan when the bump
    wins).
    """
    mesh, p, q = spec.mesh, spec.p, spec.q
    part = sign_partition(spec.a)
    comps = part.plus_components if want_nonneg else part.minus_components
    if not comps:
        raise SolverError("weight has no component of the required sign")
    feas_dir = widest_component_bump(mesh, comps)

    energy = P1Energy(mesh, p, q, spec.a.gauss)
    sign = 1.0 if want_nonneg else -1.0
    surface_tol = _SURFACE_RTOL * spec.a.linf()

    def rayleigh(v: np.ndarray) -> float:
        pt = energy(v)
        return pt.grad_term / pt.mass

    def constraint(v: np.ndarray) -> float:
        return sign * energy(v).weight

    def restore_feasible(v: np.ndarray) -> np.ndarray:
        if constraint(v) >= 0.0:
            return v
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # closed: a probe at an endpoint would move neither
                break
            if constraint((1.0 - mid) * v + mid * feas_dir) < 0.0:
                lo = mid
            else:
                hi = mid
        return (1.0 - hi) * v + hi * feas_dir

    def on_surface(v: np.ndarray) -> bool:
        return abs(energy(v).weight) <= surface_tol

    def retract(v: np.ndarray) -> np.ndarray:
        # ends on a point the kernel valued last, so precond finds it in the memo
        v = energy.normalize(v)
        for _ in range(_RETRACT_STEPS):
            if on_surface(v):
                break
            pt = energy.last  # on_surface just valued v
            dw = pt.weight_gradient()
            v = energy.normalize(v - (pt.weight / float(dw @ dw)) * dw)
        energy(v)
        return v

    mu = np.nan  # the multiplier at the last accepted point

    def tangent_gradient(v: np.ndarray) -> np.ndarray:
        # descent calls this only at accepted points, right after rayleigh
        # on the same array: the point is a memo hit
        nonlocal mu
        pt = energy(v)
        dg, dm = pt.gradients()
        dw = pt.weight_gradient()
        grad_r = (dg - (pt.grad_term / pt.mass) * dm) / pt.mass
        coeff = float(grad_r @ dw) / float(dw @ dw)
        mu = sign * coeff  # grad c = sign dw
        return grad_r - coeff * dw

    best, best_ok, best_mu = rayleigh(feas_dir), False, np.nan
    for start in (pair.phi.values, restore_feasible(pair.phi.values)):
        res = bb_descent(
            start,
            rayleigh,
            tangent_gradient,
            tol=_KKT_TOL,
            max_iter=_DESCENT_ITER,
            normalize=retract,
            guard=on_surface,
            # descent calls this right after tangent_gradient: the memo holds the point
            precond=lambda g: energy.last.precondition(g),
        )
        value = rayleigh(restore_feasible(res.x))
        if value < best:
            best, best_ok, best_mu = value, res.status == "converged" and mu >= 0.0, mu
    if not np.isfinite(best):
        raise NonConvergenceError("constrained Rayleigh minimization failed to produce a value")
    return float(best), best_ok, float(best_mu)


def compute_critical_values(spec: ProblemSpec, pair: EigenPair) -> CriticalValues:
    """Fill all four thresholds for this instance.

    Requires a sign-changing weight. One evaluation of phi gives the
    pairing and its sign, and the sign fills the trivial identities. The
    one nontrivial value comes from the descent on the constraint surface,
    is the quotient of a feasible function and exceeds lambda1. converged
    is that search's KKT verdict. Deterministic: the same instance gives
    the same record.
    """
    if not spec.a.is_sign_changing():
        raise WeightError("critical values require a sign-changing weight")
    phi_q = _phi_q(spec.a, pair, spec.q)
    sign = _pairing_sign(phi_q, spec.a)
    lam1 = pair.lambda1
    if sign == "zero":
        nontrivial, ok = lam1, True
    else:
        nontrivial, ok, _ = _constrained_rayleigh_min(spec, pair, want_nonneg=sign == "negative")
    star, minus = (lam1, nontrivial) if sign == "positive" else (nontrivial, lam1)
    return CriticalValues(
        lambda1=lam1,
        lambda_star=star,
        lambda_plus=star,
        lambda_minus=minus,
        lambda_zero=nontrivial,
        pairing=phi_q.weight,
        pairing_sign=sign,
        converged=ok,
    )


def _picone_poly(p: float, q: float, s: float) -> float:
    return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)


def _picone_poly_deriv(p: float, q: float, s: float) -> float:
    return p * (q - 1.0) * s ** (p - 1.0) + q * (p - 1.0) * s ** (p - 2.0) - (p - q)


def picone_condition(p: float, q: float) -> PiconeReport:
    """Decide whether f(s) = (q-1)s^p + q s^(p-1) - (p-q)s + (q-p+1) >= 0 on s >= 0: one cell of picone_conditions."""
    return picone_conditions([p], [q])[0]


def picone_conditions(p_values, q_values) -> list[PiconeReport]:
    """picone_condition for every cell (p_values[k], q_values[k]), in order.

    f''(s) = (p-1) s^(p-3) (p(q-1)s + q(p-2)) changes sign at most once, at
    s_i = max(0, q(2-p)/(p(q-1))), so f' decreases up to s_i and increases
    after it, and f' > 0 from s0 = ((p-q)/(q-1))^(1/(p-1)) on. The minimum
    is therefore f(0), or f at the one root of f' in (s_i, s0), which
    exists exactly when f' < 0 just right of s_i: p > 2 when s_i = 0, and
    f'(s_i) < 0 when p < 2. That root is the float that bisecting f' until
    the midpoint equals an endpoint returns: one _log_s_roots pass
    estimates every cell's root, and grid._close_bracket narrows [s_i, s0]
    by the sign of f' from that estimate. For p > 2 both powers in f'
    increase in s, so f' is monotone in floating point wherever pow is,
    and any narrowing by its sign ends on the bisection's float. For p < 2
    the term s^(p-2) decreases and f' can change sign more than once
    within a few ulps of the root, so the float can differ: by 4 ulps in
    one cell of the tests' wide region grid.
    """
    cells = [_root_bracket(float(p), float(q)) for p, q in zip(p_values, q_values)]
    p, q, lo, hi = np.array(cells).reshape(-1, 4).T
    # an s0 that overflows stays out of the batch: its nan would hold every cell to _LOG_NEWTON_MAX
    rooted = (lo < hi) & (hi < np.inf)
    ends = lo.copy()
    ends[rooted] = _log_s_roots(p[rooted], q[rooted], hi[rooted])
    return [_picone_report(*cell, end) for cell, end in zip(cells, ends.tolist())]


def _root_bracket(p: float, q: float) -> tuple[float, float, float, float]:
    """(p, q, s_i, s0) bracketing the root of f'; s_i = s0 = 0 where f' has none, s0 = inf where it overflows."""
    if not (1.0 < q < p):
        raise ValueError(f"need 1 < q < p, got q={q}, p={p}")
    lo = max(0.0, q * (2.0 - p) / (p * (q - 1.0)))
    try:
        hi = ((p - q) / (q - 1.0)) ** (1.0 / (p - 1.0))
    except OverflowError:
        return p, q, lo, np.inf
    return (p, q, lo, hi) if p > 2.0 or (p < 2.0 and _picone_poly_deriv(p, q, lo) < 0.0) else (p, q, 0.0, 0.0)


def _log_s_roots(p: np.ndarray, q: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """The root of f' below s0 at every cell, estimated by one Newton iteration on arrays.

    In t = log s, f' is g(t) = A e^((p-1)t) + B e^((p-2)t) - C, A = p(q-1), B = q(p-1),
    C = p-q: convex for every p, and increasing right of log s_i. At t0 = log s0,
    g = (p-1)C + B s0^(p-2) > 0, so Newton descends monotonically onto the root, and
    quadratically even as p nears 2, where f' is flat in s.
    """
    a, b, c = p * (q - 1.0), q * (p - 1.0), p - q
    # a root near 1e-300 underflows e^((p-1)t); an estimate gone astray only costs probes
    with np.errstate(all="ignore"):
        t = np.log(s0)
        for _ in range(_LOG_NEWTON_MAX):
            ea, eb = a * np.exp((p - 1.0) * t), b * np.exp((p - 2.0) * t)
            step = (ea + eb - c) / ((p - 1.0) * ea + (p - 2.0) * eb)
            t -= step
            if np.all(np.abs(step) <= _LOG_NEWTON_RTOL * np.maximum(1.0, np.abs(t))):
                break
        return np.exp(t)


def _picone_report(p: float, q: float, lo: float, hi: float, estimate: float) -> PiconeReport:
    """picone_conditions at one cell: f(0) against f at the root of f' in [lo, hi], closed from its estimate."""
    try:
        if hi == np.inf:  # s0 overflowed in _root_bracket
            raise OverflowError
        end = min(estimate, hi) if estimate >= 0.0 else lo  # nan fails >=
        s = _close_bracket(partial(_picone_poly_deriv, p, q), lo, hi, end)
        # on a tie the smaller s, 0, wins
        min_value, argmin_s = min((_picone_poly(p, q, 0.0), 0.0), (_picone_poly(p, q, s), s))
    except OverflowError:  # only near p = q = 1: the root of f' lies past 1e300, where f ~ -(p-q)s
        min_value, argmin_s = -np.inf, np.inf
    return PiconeReport(p, q, min_value >= -PICONE_TOL, min_value, argmin_s)


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


def nonexistence_bound(spec: ProblemSpec, partition: SignPartition) -> float:
    """min over positive-weight components A of lambda1(p; A).

    Above this value no solution can stay positive on all of {a > 0}. Each
    component interval is extended to the neighboring sign-change nodes and
    solved as its own Dirichlet eigenvalue problem on the same spacing, by
    first_eigenpair, to its one fixed stop and through its cache.
    """
    if not partition.plus_components:
        raise SolverError("no positive-weight component")
    mesh = spec.mesh
    best = np.inf
    for i0, i1 in partition.plus_components:
        lo = max(i0 - 1, 0)
        hi = min(i1 + 1, mesh.n_nodes - 1)
        sub = Mesh(float(mesh.nodes[lo]), float(mesh.nodes[hi]), hi - lo)
        best = min(best, first_eigenpair(sub, spec.p).lambda1)
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
    f_q = gauss_values(phi) ** spec.q
    lhs = gauss_integral(mesh, np.maximum(gauss_values(vals), 0.0) ** (spec.p - spec.q) * f_q)
    threshold = DEAD_CORE_RTOL * u.linf()
    node_pos = vals > threshold
    cell_pos = node_pos[:-1] & node_pos[1:]
    rhs = gauss_integral(mesh, cell_pos * spec.a.gauss * f_q)
    return (pair.lambda1 - spec.lam) * lhs - rhs

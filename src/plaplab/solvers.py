"""Solution-producing algorithms and solution classification.

Branches covered:

  * ground_state       least-energy solutions via ray-optimal (fibered)
                       minimization over the cone {E > 0, int a|u|^q > 0},
                       with divergence detection for the regimes where the
                       level is unbounded below;
  * m_minus            least positive-energy solutions over the opposite
                       cone {E < 0, int a|u|^q < 0};
  * minimizer_set_at_star
                       finite sample of the minimizer set at the critical
                       threshold, with a data-driven neighborhood radius;
  * local_min_continuation
                       tube-constrained descent that carries those local
                       minimizers past the threshold;
  * order_interval_min box-constrained minimization between a zero
                       subsolution and a supersolution from a larger lam;
  * mountain_pass      saddle between two nonnegative states by one
                       climbing-string run (string_relax) on the q-mean
                       path ((1-s) u^q + s w^q)^(1/q).

Every minimization is a descent.py run: Barzilai-Borwein steps, a
nonmonotone line search and the linear-stiffness preconditioner. The
climbing string steps its own beads with the same preconditioner: a
Barzilai-Borwein step for the climbing bead, a per-bead Armijo search for
the others. Iterates are raw nodal arrays with pinned boundary zeros.
The energy terms, their gradients and the sphere retraction come from
functionals.P1Energy through _Kernel, which adds only the algebra of E,
I, the ray-optimal J and the cones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .descent import PointMemo, bb_descent, projected_descent
from .eigen import EigenPair, _stiffness_preconditioner, first_eigenpair
from .errors import (
    AttainabilityError,
    EmptyConeError,
    MeshMismatchError,
    SolverError,
)
from .functionals import EnergyBreakdown, P1Energy, ProblemSpec, evaluate
from .grid import GridFn, SignPartition, component_bump, sign_partition, smooth_noise

__all__ = [
    "SolveReport",
    "MinimizerSet",
    "PathState",
    "ground_state",
    "m_minus",
    "minimizer_set_at_star",
    "local_min_continuation",
    "order_interval_min",
    "mountain_pass",
    "initial_path",
    "string_relax",
    "runaway_state",
    "multistart_truncated_descent",
    "classify",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000
J_FLOOR = -1e7
DEAD_CORE_RTOL = 1e-8
_CONE_EPS = 1e-12
# On the gradient-normalized sphere, E this small with a positive weight
# integral means the iterate has pushed its Rayleigh quotient onto lam
# while staying admissible: the minimization level is unbounded below.
_E_COLLAPSE_RTOL = 1e-8
SADDLE_TOL = 1e-6  # saddle residuals bottom out near the C^1 kink noise floor
MIN_BEADS = 9  # fewest beads of a mountain-pass string


@dataclass(frozen=True)
class SolveReport:
    """A solution candidate with its energy breakdown and provenance."""

    u: GridFn
    breakdown: EnergyBreakdown
    residual_sup: float
    kind: str  # ground | local_min | order_interval_min | mountain_pass | m_minus
    iterations: int
    lam: float
    status: str = "converged"  # converged | diverged | window_exceeded | saddle_not_found | failed
    positive_on_plus: tuple[bool, ...] | None = None
    dead_core_components: tuple[int, ...] | None = None
    ambiguous_components: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "converged"

    @property
    def level(self) -> float:
        return self.breakdown.I_trunc


@dataclass(frozen=True)
class MinimizerSet:
    """Finite sample of the minimizer set at the threshold parameter."""

    members: tuple[GridFn, ...]
    delta: float
    level: float
    lambda_star: float


@dataclass(frozen=True)
class PathState:
    """Ordered chain of states joining two endpoints, with their energies."""

    beads: tuple[GridFn, ...]
    energies: tuple[float, ...]
    # sup-norm gradient at the highest interior bead, set by string_relax
    residual: float | None = None


class _Kernel:
    """Array-level closures for one problem instance (one truncation flag).

    Every method reaches its point through a one-entry PointMemo of the
    P1Energy kernel, so the guard, value and gradient callbacks descent
    calls on one array share a single evaluation: in_cone(trial) and
    J(trial) one pass, and grad_J at the accepted point only the gradient
    assembly on top of it.
    """

    def __init__(self, spec: ProblemSpec, truncated: bool):
        self.mesh = spec.mesh
        self.p = spec.p
        self.q = spec.q
        self.lam = spec.lam
        self.precond = _stiffness_preconditioner(spec.mesh)
        self._amax = spec.a.linf()
        energy = P1Energy(spec.mesh, spec.p, spec.q, spec.a.gauss, truncated)
        self.normalize = energy.normalize
        self._point = PointMemo(energy)

    # -- scalar terms -------------------------------------------------
    def terms(self, v: np.ndarray) -> tuple[float, float, float]:
        """(grad term, mass term, weight term) with the kernel's truncation."""
        pt = self._point(v)
        return pt.grad_term, pt.mass, pt.weight

    def EG(self, v: np.ndarray) -> tuple[float, float]:
        grad_term, mass, weight = self.terms(v)
        return grad_term - self.lam * mass, weight

    def I(self, v: np.ndarray) -> float:
        grad_term, mass, weight = self.terms(v)
        return (grad_term - self.lam * mass) / self.p - weight / self.q

    # -- gradients ----------------------------------------------------
    def grad_I(self, v: np.ndarray) -> np.ndarray:
        pt = self._point(v)
        dg, dm = pt.gradients()
        return (dg - self.lam * dm) / self.p - pt.weight_gradient() / self.q

    # -- fibered objective ---------------------------------------------
    def J(self, v: np.ndarray) -> float:
        E, G = self.EG(v)
        p, q = self.p, self.q
        coeff = (p - q) / (p * q)
        return -np.sign(E) * coeff * abs(G) ** (p / (p - q)) / abs(E) ** (q / (p - q))

    def grad_J(self, v: np.ndarray) -> np.ndarray:
        E, G = self.EG(v)
        pt = self._point(v)
        dg, dm = pt.gradients()
        dE, dG = dg - self.lam * dm, pt.weight_gradient()
        p, q = self.p, self.q
        alpha = p / (p - q)
        beta = q / (p - q)
        coeff = (p - q) / (p * q)
        pref = -np.sign(E) * coeff * abs(G) ** (alpha - 1.0) * abs(E) ** (-beta - 1.0)
        return pref * (alpha * E * dG - beta * G * dE)

    # -- cones ----------------------------------------------------------
    def in_cone(self, v: np.ndarray, sign: int) -> bool:
        """sign=+1: {E > 0, G > 0}; sign=-1: {E < 0, G < 0} (strict, scaled)."""
        grad_term, mass, weight = self.terms(v)
        E = grad_term - self.lam * mass
        eps_E = _CONE_EPS * max(1.0, grad_term + abs(self.lam) * mass)
        eps_G = _CONE_EPS * max(1.0, self._amax * max(mass, 1.0))
        if sign > 0:
            return E > eps_E and weight > eps_G
        return E < -eps_E and weight < -eps_G

    def energy_collapsed(self, v: np.ndarray) -> bool:
        """True when the normalized iterate has compressed E to roundoff scale
        while keeping a positive weight integral (divergence signature)."""
        vn = self.normalize(v)
        grad_term, mass, weight = self.terms(vn)
        E = grad_term - self.lam * mass
        scale = max(1.0, grad_term + abs(self.lam) * mass)
        return E < _E_COLLAPSE_RTOL * scale and weight > 0.0

    def fiber_project(self, v: np.ndarray) -> np.ndarray:
        E, G = self.EG(v)
        return v * (G / E) ** (1.0 / (self.p - self.q))

    def residual_sup(self, v: np.ndarray) -> float:
        return float(np.max(np.abs(self.grad_I(v))))


def _plus_cone_seeds(
    kernel: _Kernel, partition: SignPartition, pair: EigenPair, count: int, seed: int
) -> list[np.ndarray]:
    """Nonnegative starts inside {E > 0, weight integral > 0}.

    Bump functions centered in each positive-weight component, then random
    positive perturbations of the eigenfunction; one fixed RNG seed per
    start index keeps runs deterministic.
    """
    seeds: list[np.ndarray] = []
    for comp in partition.plus_components:
        v = component_bump(kernel.mesh, comp)
        if kernel.in_cone(v, +1):
            seeds.append(v)
        if len(seeds) >= count:
            return seeds
    phi = pair.phi.values
    # The bare eigenfunction direction reaches minimizers that hybridize
    # with it (they sit behind a narrow low-E throat that noisy starts miss).
    if len(seeds) < count and kernel.in_cone(phi, +1):
        seeds.append(np.array(phi))
    k = 0
    scale = float(np.max(phi))
    while len(seeds) < count and k < 8 * count:
        rng = np.random.default_rng(seed * 1_000_003 + k)
        v = phi + 0.35 * scale * np.abs(smooth_noise(kernel.mesh, rng))
        v[0] = v[-1] = 0.0
        if kernel.in_cone(v, +1):
            seeds.append(v)
        k += 1
    return seeds


def _minus_cone_seeds(
    kernel: _Kernel, partition: SignPartition, pair: EigenPair, count: int, seed: int
) -> list[np.ndarray]:
    """Starts inside {E < 0, weight integral < 0}: the eigenfunction mixed
    with bumps in negative-weight components plus small perturbations."""
    seeds: list[np.ndarray] = []
    phi = pair.phi.values
    if kernel.in_cone(phi, -1):
        seeds.append(np.array(phi))
    for comp in partition.minus_components:
        for t in (0.2, 0.5):
            v = phi + t * component_bump(kernel.mesh, comp) * float(np.max(phi))
            if kernel.in_cone(v, -1):
                seeds.append(v)
            if len(seeds) >= count:
                return seeds
    k = 0
    scale = float(np.max(phi))
    while len(seeds) < count and k < 8 * count:
        rng = np.random.default_rng(seed * 2_000_003 + k)
        v = phi + 0.1 * scale * smooth_noise(kernel.mesh, rng)
        v[0] = v[-1] = 0.0
        if kernel.in_cone(v, -1):
            seeds.append(v)
        k += 1
    return seeds


def _report_from(
    kernel: _Kernel, vals: np.ndarray, spec: ProblemSpec, kind: str, iterations: int, status: str
) -> SolveReport:
    u = GridFn(spec.mesh, vals)
    return SolveReport(
        u=u,
        breakdown=evaluate(u, spec),
        residual_sup=kernel.residual_sup(vals),
        kind=kind,
        iterations=iterations,
        lam=spec.lam,
        status=status,
    )


def ground_state(
    spec: ProblemSpec,
    starts: int = 8,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    truncated: bool = True,
    j_floor: float = J_FLOOR,
) -> SolveReport:
    """Least-energy solution via ray-optimal minimization over the plus cone.

    Pipeline per start: minimize the 0-homogeneous ray-optimal energy over
    normalized functions in the cone; scale the best point onto the Nehari
    set; polish with monotone descent on the (truncated, by default)
    energy. The level estimate is breakdown.I_trunc of the returned report.

    If the ray-optimal values sink below j_floor the run is reported with
    status "diverged": the minimization level is unbounded below there and
    any returned minimizer would be spurious.
    """
    kernel = _Kernel(spec, truncated)
    partition = sign_partition(spec.a)
    pair = first_eigenpair(spec.mesh, spec.p)
    seeds = _plus_cone_seeds(kernel, partition, pair, starts, seed)
    if not seeds:
        raise SolverError("no admissible start in the positive cone; weight misconfigured?")

    guard = lambda v: kernel.in_cone(v, +1)
    best: SolveReport | None = None
    diverged: SolveReport | None = None
    total_iters = 0

    for v0 in seeds:
        res_a = bb_descent(
            v0,
            kernel.J,
            kernel.grad_J,
            tol=max(100.0 * tol, 1e-6),
            max_iter=min(max_iter, 4_000),
            guard=guard,
            floor=j_floor,
            normalize=kernel.normalize,
            precond=kernel.precond,
        )
        total_iters += res_a.iterations
        if res_a.status == "diverged" or kernel.energy_collapsed(res_a.x):
            proj = kernel.normalize(res_a.x)
            diverged = _report_from(kernel, proj, spec, "ground", total_iters, "diverged")
            continue
        x = kernel.fiber_project(res_a.x)
        res_b = bb_descent(
            x,
            kernel.I,
            kernel.grad_I,
            tol=tol,
            max_iter=max_iter,
            window=5,
            floor=j_floor,
            precond=kernel.precond,
        )
        total_iters += res_b.iterations
        if res_b.status == "diverged":
            diverged = _report_from(kernel, kernel.normalize(res_b.x), spec, "ground", total_iters, "diverged")
            continue
        if res_b.status not in ("converged",):
            continue
        cand = _report_from(kernel, res_b.x, spec, "ground", total_iters, "converged")
        cand_level = cand.breakdown.I_trunc if truncated else cand.breakdown.I
        if best is None or cand_level < (best.breakdown.I_trunc if truncated else best.breakdown.I):
            best = cand
    if best is not None:
        return best
    if diverged is not None:
        return diverged
    raise SolverError("ground state search failed on every start")


def m_minus(
    spec: ProblemSpec,
    starts: int = 8,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> SolveReport:
    """Least positive-energy solution over the minus cone {E < 0, int a|u|^q < 0}.

    The ray-optimal value is positive there (a fiber maximum); minimizing
    it over the cone and scaling onto the Nehari set yields a saddle-type
    solution. Raises EmptyConeError when lam is at or below the first
    eigenvalue (the cone is empty there).
    """
    kernel = _Kernel(spec, truncated=False)
    partition = sign_partition(spec.a)
    pair = first_eigenpair(spec.mesh, spec.p)
    if spec.lam <= pair.lambda1 * (1.0 + 1e-12):
        raise EmptyConeError(
            f"minus cone empty: lam={spec.lam} is not above lambda1={pair.lambda1}"
        )
    seeds = _minus_cone_seeds(kernel, partition, pair, starts, seed)
    if not seeds:
        raise EmptyConeError("no admissible start in the minus cone")

    guard = lambda v: kernel.in_cone(v, -1)
    best: SolveReport | None = None
    total_iters = 0
    for v0 in seeds:
        res_a = bb_descent(
            v0,
            kernel.J,
            kernel.grad_J,
            tol=max(100.0 * tol, 1e-6),
            max_iter=min(max_iter, 4_000),
            guard=guard,
            normalize=kernel.normalize,
            precond=kernel.precond,
        )
        total_iters += res_a.iterations
        x = kernel.fiber_project(res_a.x)
        res_b = bb_descent(
            x,
            kernel.J,
            kernel.grad_J,
            tol=tol,
            max_iter=max_iter,
            guard=guard,
            precond=kernel.precond,
        )
        total_iters += res_b.iterations
        x = kernel.fiber_project(res_b.x)
        status = "converged" if res_b.status in ("converged", "stalled") and kernel.residual_sup(x) < 10 * tol else "failed"
        cand = _report_from(kernel, x, spec, "m_minus", total_iters, status)
        if cand.ok and (best is None or cand.breakdown.I < best.breakdown.I):
            best = cand
    if best is None:
        raise SolverError("positive-level search failed on every start")
    return best


def _sup_dist_to_members(vals: np.ndarray, members: tuple[GridFn, ...]) -> tuple[float, int]:
    dists = [float(np.max(np.abs(vals - m.values))) for m in members]
    k = int(np.argmin(dists))
    return dists[k], k


def minimizer_set_at_star(
    spec_at_star: ProblemSpec,
    sample_count: int = 8,
    delta: float | None = None,
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    starts_per_sample: int = 2,
) -> MinimizerSet:
    """Sample the set of minimizers at the threshold parameter.

    Runs sample_count independent multi-start ground-state solves, keeps
    the converged ones at the common minimal level, and clusters them by
    sup-norm distance. The neighborhood radius defaults to half the
    minimal inter-cluster distance, floored at 5% of the largest member
    amplitude. Raises AttainabilityError when every run diverges (wrong
    regime, e.g. positive pairing).
    """
    reports: list[SolveReport] = []
    failures = 0
    for k in range(sample_count):
        try:
            rep = ground_state(
                spec_at_star, starts=starts_per_sample, tol=tol, seed=seed + 17 * k + 1
            )
        except SolverError:
            failures += 1
            continue
        if rep.ok:
            reports.append(rep)
    if not reports:
        raise AttainabilityError(
            "no converged minimizer at the threshold: level appears unbounded below"
        )
    level = min(r.breakdown.I_trunc for r in reports)
    keep = [r for r in reports if r.breakdown.I_trunc <= level + 100.0 * tol * (1.0 + abs(level))]

    clusters: list[GridFn] = []
    for r in keep:
        if not clusters:
            clusters.append(r.u)
            continue
        d, _ = _sup_dist_to_members(r.u.values, tuple(clusters))
        if d > 10.0 * tol:
            clusters.append(r.u)
    members = tuple(clusters)
    max_amp = max(m.linf() for m in members)
    if delta is None:
        # Floor at a quarter of the member amplitude: the continued local
        # minimum drifts by a few percent of the amplitude per percent of
        # lam, and a tighter tube falsely reports window exhaustion.
        if len(members) >= 2:
            gaps = []
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    gaps.append(float(np.max(np.abs(members[i].values - members[j].values))))
            delta = max(0.5 * min(gaps), 0.25 * max_amp)
        else:
            delta = 0.25 * max_amp
    return MinimizerSet(members=members, delta=float(delta), level=float(level), lambda_star=spec_at_star.lam)


def local_min_continuation(
    spec: ProblemSpec,
    kset: MinimizerSet,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Descend the truncated energy inside the tube around the minimizer set.

    Starts from every member, constrains iterates to sup-norm distance
    <= delta from the set, and succeeds only when the minimizer is interior
    (distance to the tube boundary above 0.1*delta). A boundary-pinned
    minimizer is returned with status "window_exceeded": the local-minimum
    window in lam has been left.
    """
    kernel = _Kernel(spec, truncated=True)
    members = kset.members
    delta = kset.delta

    def project(v: np.ndarray) -> np.ndarray:
        d, k = _sup_dist_to_members(v, members)
        if d <= delta:
            return v
        anchor = members[k].values
        return anchor + (v - anchor) * (delta / d)

    best: SolveReport | None = None
    pinned: SolveReport | None = None
    total_iters = 0
    for m in members:
        res = projected_descent(
            np.array(m.values),
            kernel.I,
            kernel.grad_I,
            project,
            tol=tol,
            max_iter=max_iter,
            precond=kernel.precond,
        )
        total_iters += res.iterations
        d, _ = _sup_dist_to_members(res.x, members)
        interior = d < 0.9 * delta
        if res.status == "converged" and interior:
            cand = _report_from(kernel, res.x, spec, "local_min", total_iters, "converged")
            if best is None or cand.breakdown.I_trunc < best.breakdown.I_trunc:
                best = cand
        else:
            cand = _report_from(kernel, res.x, spec, "local_min", total_iters, "window_exceeded")
            if pinned is None or cand.breakdown.I_trunc < pinned.breakdown.I_trunc:
                pinned = cand
    if best is not None:
        return best
    assert pinned is not None
    return pinned


def order_interval_min(
    spec: ProblemSpec,
    upper: GridFn,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Minimize the energy over the order interval {0 <= u <= upper}.

    upper should be a solution at a larger lam (a supersolution here). The
    iterate is seeded with a small bump inside a positive-weight component,
    scaled until the energy is negative, and clipped into the box after
    every step. The reported residual is the projected-gradient fixed-point
    residual, which reduces to the plain gradient at interior points.
    """
    if upper.mesh != spec.mesh:
        raise MeshMismatchError("upper bound lives on a different mesh")
    ub = upper.values
    if np.min(ub) < 0.0:
        raise ValueError("upper bound must be nonnegative")
    if not np.any(ub > 0.0):
        raise SolverError("degenerate order interval: upper bound is identically zero")
    kernel = _Kernel(spec, truncated=False)
    partition = sign_partition(spec.a)

    def clip(v: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(v, 0.0), ub)

    seed_vals: np.ndarray | None = None
    for comp in partition.plus_components:
        bump = component_bump(spec.mesh, comp)
        t = 1.0
        for _ in range(50):
            cand = clip(t * bump)
            if np.any(cand > 0.0) and kernel.I(cand) < 0.0:
                seed_vals = cand
                break
            t *= 0.5
        if seed_vals is not None:
            break
    if seed_vals is None:
        raise SolverError("could not seed a negative-energy start inside the order interval")

    res = projected_descent(
        seed_vals,
        kernel.I,
        kernel.grad_I,
        clip,
        tol=tol,
        max_iter=max_iter,
        precond=kernel.precond,
    )
    status = "converged" if res.status == "converged" else "failed"
    u = GridFn(spec.mesh, clip(res.x))
    fp_residual = float(np.max(np.abs(res.x - clip(res.x - kernel.grad_I(res.x)))))
    return SolveReport(
        u=u,
        breakdown=evaluate(u, spec),
        residual_sup=fp_residual,
        kind="order_interval_min",
        iterations=res.iterations,
        lam=spec.lam,
        status=status,
    )


def initial_path(spec: ProblemSpec, u: GridFn, omega: GridFn, beads: int = 17) -> PathState:
    """q-mean interpolation path ((1-s) u^q + s omega^q)^(1/q), s in [0,1].

    Both endpoints must be nonnegative; the path then stays nonnegative and
    hits the endpoints exactly at s = 0 and s = 1.
    """
    if beads < MIN_BEADS:
        raise ValueError(f"need at least {MIN_BEADS} beads")
    if u.mesh != spec.mesh or omega.mesh != spec.mesh:
        raise MeshMismatchError("path endpoints live on a different mesh")
    if np.min(u.values) < 0.0 or np.min(omega.values) < 0.0:
        raise ValueError("path endpoints must be nonnegative")
    kernel = _Kernel(spec, truncated=True)
    uq = u.values**spec.q
    wq = omega.values**spec.q
    chain = []
    energies = []
    for s in np.linspace(0.0, 1.0, beads):
        vals = ((1.0 - s) * uq + s * wq) ** (1.0 / spec.q)
        vals[0] = vals[-1] = 0.0
        chain.append(GridFn(spec.mesh, vals))
        energies.append(kernel.I(vals))
    return PathState(beads=tuple(chain), energies=tuple(energies))


def _reparametrize(chain: list[np.ndarray]) -> list[np.ndarray]:
    """Redistribute beads uniformly in cumulative sup-norm chord length."""
    n = len(chain)
    seg = np.zeros(n)
    for i in range(1, n):
        seg[i] = seg[i - 1] + float(np.max(np.abs(chain[i] - chain[i - 1])))
    if seg[-1] == 0.0:
        return chain
    targets = np.linspace(0.0, seg[-1], n)
    out = [chain[0]]
    j = 0
    for t in targets[1:-1]:
        while seg[j + 1] < t:
            j += 1
        w = (t - seg[j]) / (seg[j + 1] - seg[j])
        out.append((1.0 - w) * chain[j] + w * chain[j + 1])
    out.append(chain[-1])
    return out


def string_relax(
    spec: ProblemSpec,
    path: PathState,
    *,
    tol: float = SADDLE_TOL,
    max_sweeps: int = 2000,
) -> tuple[PathState, list[float]]:
    """Relax a path by the climbing string method until its top bead is a saddle.

    Every sweep the highest interior bead climbs: its step reverses the
    tangential part of the preconditioned gradient, reflected in the
    stiffness metric M (the preconditioner is P = M^-1),

        d = P g - 2 (g . tau) / (tau . M tau) tau,   tau = x[i+1] - x[i-1],

    with a Barzilai-Borwein step, taken in the metric M and capped at 1
    and at twice its last value. Every other interior bead descends along
    the preconditioned gradient with its (Euclidean) tangential part
    removed, under a per-bead Armijo test on that projected slope whose
    step grows 1.5x per accepted sweep up to 10. Then the beads on each
    side of the climbing bead are redistributed evenly by sup-norm
    arclength, the climbing bead the fixed end of both segments, and every
    interior bead is valued once: its energy and gradient come from that
    one point. The climbing bead is chosen anew after every sweep.

    Stops once the climbing bead's full gradient is below tol in sup norm
    (that residual is the returned path's residual), or after max_sweeps.
    Returns the path and the per-sweep barrier, the highest bead energy
    after each sweep. (Ren & Vanden-Eijnden, J. Chem. Phys. 138, 134105,
    2013, on the simplified string method of E, Ren & Vanden-Eijnden,
    J. Chem. Phys. 126, 164103, 2007.)
    """
    kernel = _Kernel(spec, truncated=True)
    h = spec.mesh.h
    chain = [np.array(b.values) for b in path.beads]
    n = len(chain)
    energies = [kernel.I(chain[0])] + [0.0] * (n - 2) + [kernel.I(chain[-1])]
    grads: list[np.ndarray] = [np.zeros(0)] * n

    def revalue() -> tuple[int, float]:
        """Value each interior bead once; the climbing bead and its residual."""
        for i in range(1, n - 1):
            energies[i], grads[i] = kernel.I(chain[i]), kernel.grad_I(chain[i])
        top = 1 + int(np.argmax(energies[1:-1]))
        return top, float(np.max(np.abs(grads[top])))

    top, residual = revalue()
    steps = [1e-2] * n
    climb_step = 1e-2
    climber, prev_x, prev_d = 0, chain[0], chain[0]  # bead 0 never climbs: no BB pair yet
    barrier_history: list[float] = []

    while residual >= tol and len(barrier_history) < max_sweeps:
        for i in range(1, n - 1):
            g = grads[i]
            tau = chain[i + 1] - chain[i - 1]
            if i == top:
                d = kernel.precond(g)
                dtau = np.diff(tau)
                tau_m_tau = float(np.dot(dtau, dtau)) / h
                if tau_m_tau > 0.0:
                    d -= (2.0 * float(np.dot(g, tau)) / tau_m_tau) * tau
                if climber == i:
                    # Barzilai-Borwein step in the stiffness metric d lives in
                    ds, dy = np.diff(chain[i] - prev_x), np.diff(d - prev_d)
                    sy = float(np.dot(ds, dy))
                    if sy > 0.0:
                        climb_step = min(float(np.dot(ds, ds)) / sy, 1.0, 2.0 * climb_step)
                climber, prev_x, prev_d = i, chain[i], d
                chain[i] = chain[i] - climb_step * d
                continue
            norm = float(np.linalg.norm(tau))
            if norm > 0.0:
                tau /= norm
                g = g - float(np.dot(g, tau)) * tau
            d = kernel.precond(g)
            slope = float(np.dot(g, d))
            if slope <= 0.0:
                continue
            step = steps[i]
            for _ in range(40):
                trial = chain[i] - step * d
                e_new = kernel.I(trial)
                if np.isfinite(e_new) and e_new <= energies[i] - 1e-4 * step * slope:
                    chain[i] = trial
                    # modest growth cap: racing a bead down the far valley
                    # outruns the redistribution and disconnects the chain
                    steps[i] = min(step * 1.5, 10.0)
                    break
                step *= 0.5
            else:
                steps[i] = max(step, 1e-14)
        chain = _reparametrize(chain[: top + 1]) + _reparametrize(chain[top:])[1:]
        top, residual = revalue()
        barrier_history.append(max(energies))

    beads = tuple(GridFn(spec.mesh, v) for v in chain)
    return PathState(beads=beads, energies=tuple(energies), residual=residual), barrier_history


def mountain_pass(
    spec: ProblemSpec,
    u: GridFn,
    omega: GridFn,
    beads: int = 17,
    *,
    tol: float = SADDLE_TOL,
    max_sweeps: int = 5000,
) -> SolveReport:
    """Saddle between a local minimum u and a lower state omega.

    One climbing-string run (string_relax) on the q-mean path from u to
    omega: the highest interior bead climbs to the saddle while the other
    beads relax onto the minimum energy path. The report is that bead, with
    the residual the string's stop test read. Fails with status
    "saddle_not_found" when the run ends at max_sweeps, or when the bead
    does not rise above both endpoints (the path collapsed into one basin).

    The default tolerance is looser than for the minimization solvers: the
    truncated energy is C^1 but not C^2 across dead-core boundaries, which
    caps how far saddle residuals can be driven down.
    """
    path0 = initial_path(spec, u, omega, beads)
    if not path0.energies[-1] < path0.energies[0]:
        raise ValueError("omega must have strictly lower energy than u")
    path, barrier_history = string_relax(spec, path0, tol=tol, max_sweeps=max_sweeps)
    top = 1 + int(np.argmax(path.energies[1:-1]))
    found = path.residual < tol and path.energies[top] > path.energies[0] + 1e-14
    saddle = path.beads[top]
    return SolveReport(
        u=saddle,
        breakdown=evaluate(saddle, spec),
        residual_sup=path.residual,
        kind="mountain_pass",
        iterations=len(barrier_history),
        lam=spec.lam,
        status="converged" if found else "saddle_not_found",
    )


def runaway_state(
    spec: ProblemSpec,
    below: float,
    pair: EigenPair | None = None,
    mix: tuple[float, ...] = (0.05, 0.02, 0.01, 0.003, 0.0),
) -> GridFn:
    """Nonnegative state with truncated energy under the given level.

    Scales up a direction with negative truncated E (the eigenfunction,
    optionally mixed with a small bump in a positive-weight component so
    the weight integral stays positive along q-mean paths). Exists for any
    lam above the first eigenvalue; raises SolverError otherwise.
    """
    kernel = _Kernel(spec, truncated=True)
    if pair is None:
        pair = first_eigenpair(spec.mesh, spec.p)
    partition = sign_partition(spec.a)
    bump = None
    if partition.plus_components:
        bump = component_bump(spec.mesh, max(partition.plus_components, key=lambda c: c[1] - c[0]))
    for eps in mix:
        dirv = pair.phi.values.copy()
        if bump is not None and eps > 0.0:
            dirv = dirv + eps * bump * pair.phi.linf()
        if kernel.EG(dirv)[0] >= 0.0:
            continue
        t = 1.0
        while kernel.I(t * dirv) > below and t < 1e10:
            t *= 1.3
        if kernel.I(t * dirv) <= below:
            return GridFn(spec.mesh, t * dirv)
    raise SolverError(
        "no unbounded descent direction found: lam does not exceed the first eigenvalue"
    )


def multistart_truncated_descent(
    spec: ProblemSpec,
    count: int = 16,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
    floor: float = J_FLOOR,
) -> list[SolveReport]:
    """Plain truncated-energy descent from count deterministic seeds.

    Used by nonexistence experiments: each run either converges to some
    nonnegative critical point (possibly with dead cores) or dives below
    the floor and is reported as diverged.
    """
    kernel = _Kernel(spec, truncated=True)
    partition = sign_partition(spec.a)
    pair = first_eigenpair(spec.mesh, spec.p)
    seeds: list[np.ndarray] = []
    for comp in partition.plus_components:
        seeds.append(component_bump(spec.mesh, comp))
    for comp in partition.minus_components:
        seeds.append(0.5 * component_bump(spec.mesh, comp))
    k = 0
    phi_amp = float(np.max(pair.phi.values))
    while len(seeds) < count:
        rng = np.random.default_rng(seed * 3_000_017 + k)
        amp = 0.5 + 1.5 * rng.random()
        v = amp * (pair.phi.values / phi_amp) + 0.4 * np.abs(smooth_noise(spec.mesh, rng))
        v[0] = v[-1] = 0.0
        seeds.append(v)
        k += 1
    reports = []
    for v0 in seeds[:count]:
        res = bb_descent(
            v0,
            kernel.I,
            kernel.grad_I,
            tol=tol,
            max_iter=max_iter,
            floor=floor,
            precond=kernel.precond,
        )
        status = {"converged": "converged", "diverged": "diverged"}.get(res.status, "failed")
        reports.append(_report_from(kernel, res.x, spec, "local_min", res.iterations, status))
    return reports


def classify(report: SolveReport, partition: SignPartition, threshold: float) -> SolveReport:
    """Fill per-component positivity and dead-core flags.

    A positive-weight component counts as positive when every nodal value
    exceeds threshold, as a dead core when every nodal value stays below
    it, and as ambiguous otherwise.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    vals = report.u.values
    pos: list[bool] = []
    dead: list[int] = []
    ambiguous: list[int] = []
    for idx, (i0, i1) in enumerate(partition.plus_components):
        seg = vals[i0 : i1 + 1]
        if np.all(seg > threshold):
            pos.append(True)
        elif np.all(seg < threshold):
            pos.append(False)
            dead.append(idx)
        else:
            pos.append(False)
            ambiguous.append(idx)
    return replace(
        report,
        positive_on_plus=tuple(pos),
        dead_core_components=tuple(dead),
        ambiguous_components=tuple(ambiguous),
    )

"""Solution-producing algorithms and solution classification.

Branches covered:

  * ground_state       least-energy solutions via ray-optimal (fibered)
                       minimization over the cone {E > 0, int a|u|^q > 0},
                       with divergence detection for the regimes where the
                       level is unbounded below;
  * m_minus            least positive-energy solutions over the opposite
                       cone {E < 0, int a|u|^q < 0};
  * minimizer_set_at_star
                       the minimizer set at the critical threshold: one
                       ground-state multistart (_ground_runs), clustered,
                       with a data-driven neighborhood radius;
  * local_min_continuation
                       tube-constrained descent that carries those local
                       minimizers past the threshold;
  * mountain_pass      saddle between two nonnegative states: a climbing
                       string (string_relax) on the q-mean path
                       ((1-s) u^q + s w^q)^(1/q) to a loose residual, then
                       Newton steps while they lower the residual, verdict
                       Morse index 1 (morse_index). string_relax has no
                       stop of its own: mountain_pass sets its residual
                       and its sweep budget.

Every multistart solve takes its starts from one generator, _starts: the
solver's fixed candidates in order, then jittered copies of the
eigenfunction, draw k from its own RNG seed, each kept only if it passes
the solver's acceptance test. ground_state and m_minus share one
ray-optimal phase, _ray_descent, in their two cones: ground_state polishes
its result on I, and for m_minus it is the whole solve.

Every minimization is a descent.py run: Barzilai-Borwein steps, a
nonmonotone line search, and a preconditioner that is the regularized
p-stiffness at the current iterate (EnergyPoint.precondition): the cell
weight |u'|^(p-2) of the Hessian of int |u'|^p, solved in O(n) at each
accepted point by the exact 1-D flux identity. That is the
preconditioned descent of Huang, Li & Liu (J. Sci. Comput. 32, 2007);
the linear stiffness it replaces is mismatched wherever u' = 0 and
p != 2. The ray phase, the ground polish, continuation and
multistart_truncated_descent all use it through Energy.precond. The
climbing string steps its own beads with the linear stiffness M
(functionals._stiffness_solver with unit weights): a Barzilai-Borwein
step for the climbing bead, a per-bead Armijo search for the others. Its
climbing bead reflects the tangent in the metric of M, so changing the
preconditioner alone would break that reflection. The saddle is the one
solve that applies the full Hessian: in 1-D the P1 Hessian of the
truncated energy is tridiagonal (Energy.hess_I), and one O(n) LDL^T
(functionals._ldlt) gives both the Newton step that finishes the string
and the Morse index that certifies the saddle. Iterates are raw nodal
arrays with pinned boundary zeros. E, I, the ray-optimal J, their
gradients, the Hessian, the cones, the metric and the sphere retraction
all come from functionals.Energy; what is left here is each solver's
policy.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .descent import DescentResult, bb_descent, projected_descent
from .eigen import EigenPair, first_eigenpair
from .errors import (
    AttainabilityError,
    EmptyConeError,
    MeshMismatchError,
    SolverError,
)
from .functionals import Energy, EnergyBreakdown, ProblemSpec, _energy, _ldlt, _stiffness_solver, evaluate
from .grid import GridFn, SignPartition, component_bump, sign_partition, smooth_noise, widest_component_bump

__all__ = [
    "SolveReport",
    "MinimizerSet",
    "PathState",
    "ground_state",
    "m_minus",
    "minimizer_set_at_star",
    "local_min_continuation",
    "mountain_pass",
    "morse_index",
    "initial_path",
    "string_relax",
    "runaway_state",
    "multistart_truncated_descent",
    "classify",
]

DEFAULT_TOL = 1e-8
J_FLOOR = -1e7
# On the gradient-normalized sphere, E this small with a positive weight
# integral means the iterate has pushed its Rayleigh quotient onto lam
# while staying admissible: the minimization level is unbounded below.
_E_COLLAPSE_RTOL = 1e-8
# mountain_pass hands the climbing bead to Newton once its sup residual is
# below this, and tightens it 10x whenever Newton stalls short of a saddle
NEWTON_ENTRY = 1e-2
_MAX_SWEEPS = 5000  # string sweeps of one mountain_pass call, over all its entries
MIN_BEADS = 9  # fewest beads of a mountain-pass string
# Two solutions count as distinct only beyond this many tol apart in sup
# norm: at tol = 1e-8 a converged solution is good to only about 1e-6.
DISTINCT_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class SolveReport:
    """A solution candidate with its energy breakdown and provenance."""

    u: GridFn
    breakdown: EnergyBreakdown
    residual_sup: float
    iterations: int
    lam: float
    status: str = "converged"  # converged | diverged | window_exceeded | saddle_not_found | failed
    positive_on_plus: tuple[bool, ...] | None = None
    dead_core_components: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class MinimizerSet:
    """Finite sample of the minimizer set at the threshold parameter."""

    members: tuple[GridFn, ...]
    delta: float
    level: float


@dataclass(frozen=True)
class PathState:
    """Ordered chain of states joining two endpoints, with their energies."""

    beads: tuple[GridFn, ...]
    energies: tuple[float, ...]


def _energy_collapsed(energy: Energy, v: np.ndarray) -> bool:
    """True when the normalized iterate has compressed E to roundoff scale
    while keeping a positive weight integral (divergence signature)."""
    grad_term, mass, weight = energy.terms(energy.normalize(v))
    E = grad_term - energy.lam * mass
    scale = max(1.0, grad_term + abs(energy.lam) * mass)
    return E < _E_COLLAPSE_RTOL * scale and weight > 0.0


def _starts(
    count: int,
    fixed: Iterable[np.ndarray],
    jitter: Callable[[np.random.Generator], np.ndarray],
    salt: int,
    seed: int,
    accept: Callable[[np.ndarray], bool],
) -> list[np.ndarray]:
    """Up to count starts of a multistart solve, each passing accept.

    The fixed candidates come first, in order; then jitter draws, draw k
    from its own generator seeded seed * salt + k (deterministic runs), at
    most 8 * count draws.
    """
    starts: list[np.ndarray] = []
    for v in fixed:
        if len(starts) == count:
            return starts
        if accept(v):
            starts.append(v)
    for k in range(8 * count):
        if len(starts) == count:
            break
        v = jitter(np.random.default_rng(seed * salt + k))
        if accept(v):
            starts.append(v)
    return starts


def _ray_descent(energy: Energy, v0: np.ndarray, sign: int, stop: float) -> DescentResult:
    """The ray-optimal phase: minimize the 0-homogeneous J over normalized
    functions in the cone of this sign, to sup residual stop. Only the
    plus cone can sink below J_FLOOR: J > 0 in the minus cone."""
    return bb_descent(
        v0,
        energy.J,
        energy.grad_J,
        tol=stop,
        max_iter=4_000,
        guard=lambda v: energy.in_cone(v, sign),
        floor=J_FLOOR,
        normalize=energy.normalize,
        precond=energy.precond,
    )


def _plain_descent(energy: Energy, x: np.ndarray, tol: float) -> DescentResult:
    """The plain descent of I from x to sup residual tol, diverged below J_FLOOR.

    bb_descent is looked up at each call, so a tracer or test that replaces it sees every run.
    """
    return bb_descent(x, energy.I, energy.grad_I, tol=tol, floor=J_FLOOR, precond=energy.precond)


def _report_from(spec: ProblemSpec, vals: np.ndarray, residual: float, iterations: int, status: str) -> SolveReport:
    u = GridFn(spec.mesh, vals)
    return SolveReport(
        u=u,
        breakdown=evaluate(u, spec),
        residual_sup=residual,
        iterations=iterations,
        lam=spec.lam,
        status=status,
    )


def _ground_runs(
    spec: ProblemSpec, starts: int, tol: float, seed: int, truncated: bool
) -> tuple[list[SolveReport], SolveReport | None, list[str]]:
    """ground_state's multistart: (converged candidates in start order, the
    last diverged report, one failure line per start that did neither).

    Each report's iterations are the running total over the starts so far.
    """
    energy = Energy(spec, truncated)
    partition = sign_partition(spec.a)
    phi = first_eigenpair(spec.mesh, spec.p).phi.values
    scale = float(np.max(phi))
    # The bare eigenfunction direction reaches minimizers that hybridize
    # with it (they sit behind a narrow low-E throat that noisy starts miss).
    fixed = [component_bump(spec.mesh, comp) for comp in partition.plus_components] + [np.array(phi)]
    jitter = lambda rng: phi + 0.35 * scale * np.abs(smooth_noise(spec.mesh, rng))
    seeds = _starts(starts, fixed, jitter, 1_000_003, seed, lambda v: energy.in_cone(v, +1))
    if not seeds:
        raise SolverError("no admissible start in the positive cone; weight misconfigured?")

    candidates: list[SolveReport] = []
    diverged: SolveReport | None = None
    total_iters = 0
    failures: list[str] = []
    for k, v0 in enumerate(seeds):
        res_a = _ray_descent(energy, v0, +1, max(100.0 * tol, 1e-6))
        total_iters += res_a.iterations
        if res_a.status == "diverged" or _energy_collapsed(energy, res_a.x):
            proj = energy.normalize(res_a.x)
            diverged = _report_from(spec, proj, energy.residual_sup(proj), total_iters, "diverged")
            continue
        x = energy.fiber_project(res_a.x)
        res_b = _plain_descent(energy, x, tol)
        total_iters += res_b.iterations
        if res_b.status == "diverged":
            proj = energy.normalize(res_b.x)
            diverged = _report_from(spec, proj, energy.residual_sup(proj), total_iters, "diverged")
        elif res_b.status != "converged":
            failures.append(
                f"start {k}: ray phase {res_a.status} after {res_a.iterations} iterations, "
                f"polish {res_b.status} after {res_b.iterations}"
            )
        else:
            candidates.append(_report_from(spec, res_b.x, energy.residual_sup(res_b.x), total_iters, "converged"))
    return candidates, diverged, failures


def ground_state(
    spec: ProblemSpec,
    starts: int = 8,
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    truncated: bool = True,
) -> SolveReport:
    """Least-energy solution via ray-optimal minimization over the plus cone.

    Pipeline per start: minimize the 0-homogeneous ray-optimal energy over
    normalized functions in the cone; scale the best point onto the Nehari
    set; polish with the nonmonotone descent on the (truncated, by
    default) energy. The level estimate is breakdown.I_trunc of the
    returned report.

    The starts are a bump in each positive-weight component, the
    eigenfunction, then positive perturbations of it. If the ray-optimal
    values sink below J_FLOOR the run is reported with status "diverged":
    the minimization level is unbounded below there and any returned
    minimizer would be spurious. When no start converges or diverges, the
    SolverError names every start's stop reason and iteration count, for
    the ray phase and for the polish.
    """
    candidates, diverged, failures = _ground_runs(spec, starts, tol, seed, truncated)
    if candidates:
        # min keeps the first of equal levels
        return min(candidates, key=lambda r: r.breakdown.I_trunc if truncated else r.breakdown.I)
    if diverged is not None:
        return diverged
    raise SolverError("ground state search failed on every start: " + "; ".join(failures))


def m_minus(
    spec: ProblemSpec,
    starts: int = 8,
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> SolveReport:
    """Least positive-energy solution over the minus cone {E < 0, int a|u|^q < 0}.

    The ray-optimal value J is positive there (a fiber maximum) and
    0-homogeneous: each start takes one descent of J retracted onto the
    sphere {int |u'|^p = 1} (_ray_descent, to sup residual tol), scaled
    onto the Nehari set. It counts when that descent converged or stalled
    and grad I there is below 10 tol in sup norm; the lowest such start
    is returned, a saddle-type solution. The starts are the eigenfunction, its mixtures with bumps in
    the negative-weight components, then small perturbations of it. Raises
    EmptyConeError when lam is at or below the first eigenvalue (the cone
    is empty there), SolverError when no start counts.
    """
    energy = Energy(spec, truncated=False)
    partition = sign_partition(spec.a)
    pair = first_eigenpair(spec.mesh, spec.p)
    if spec.lam <= pair.lambda1 * (1.0 + 1e-12):
        raise EmptyConeError(
            f"minus cone empty: lam={spec.lam} is not above lambda1={pair.lambda1}"
        )
    phi = pair.phi.values
    scale = float(np.max(phi))
    fixed = [np.array(phi)] + [
        phi + t * component_bump(spec.mesh, comp) * scale for comp in partition.minus_components for t in (0.2, 0.5)
    ]
    jitter = lambda rng: phi + 0.1 * scale * smooth_noise(spec.mesh, rng)
    seeds = _starts(starts, fixed, jitter, 2_000_003, seed, lambda v: energy.in_cone(v, -1))
    if not seeds:
        raise EmptyConeError("no admissible start in the minus cone")

    best: SolveReport | None = None
    total_iters = 0
    for v0 in seeds:
        res = _ray_descent(energy, v0, -1, tol)
        total_iters += res.iterations
        x = energy.fiber_project(res.x)
        residual = energy.residual_sup(x)
        status = "converged" if res.status in ("converged", "stalled") and residual < 10 * tol else "failed"
        cand = _report_from(spec, x, residual, total_iters, status)
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
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> MinimizerSet:
    """Sample the set of minimizers at the threshold parameter.

    Runs the ground-state multistart once with sample_count starts, keeps
    the converged solves at the common minimal level, and clusters them by
    the sup-norm distance of their positive parts, lowest level first, so
    each cluster is represented by its lowest member. The neighborhood
    radius is half the minimal inter-cluster distance, floored at a quarter
    of the largest member amplitude. Raises AttainabilityError when no start converges (wrong
    regime, e.g. positive pairing, where every start diverges).
    """
    reports, _, _ = _ground_runs(spec_at_star, sample_count, tol, seed, True)
    if not reports:
        raise AttainabilityError(
            "no converged minimizer at the threshold: level appears unbounded below"
        )
    reports.sort(key=lambda r: r.breakdown.I_trunc)
    level = reports[0].breakdown.I_trunc
    keep = [r for r in reports if r.breakdown.I_trunc <= level + 100.0 * tol * (1.0 + abs(level))]

    clusters: list[GridFn] = []
    for r in keep:
        # critical points of I_trunc are nonnegative: negative dust is no distance
        plus = np.maximum(r.u.values, 0.0)
        if all(np.max(np.abs(plus - np.maximum(m.values, 0.0))) > DISTINCT_TOL_FACTOR * tol for m in clusters):
            clusters.append(r.u)
    members = tuple(clusters)
    max_amp = max(m.linf() for m in members)
    gaps = [float(np.max(np.abs(a.values - b.values))) for a, b in combinations(members, 2)]
    # Floor at a quarter of the member amplitude: the continued local
    # minimum drifts by a few percent of the amplitude per percent of
    # lam, and a tighter tube falsely reports window exhaustion.
    delta = max(0.5 * min(gaps), 0.25 * max_amp) if gaps else 0.25 * max_amp
    return MinimizerSet(members=members, delta=float(delta), level=float(level))


def local_min_continuation(
    spec: ProblemSpec,
    kset: MinimizerSet,
    *,
    tol: float = DEFAULT_TOL,
) -> SolveReport:
    """Descend the truncated energy inside the tube around the minimizer set.

    Starts from every member, constrains iterates to sup-norm distance
    <= delta from the set, and succeeds only when the minimizer is interior
    (distance to the tube boundary above 0.1*delta). A boundary-pinned
    minimizer is returned with status "window_exceeded": the local-minimum
    window in lam has been left.
    """
    energy = Energy(spec, truncated=True)
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
            energy.I,
            energy.grad_I,
            project,
            tol=tol,
            precond=energy.precond,
        )
        total_iters += res.iterations
        d, _ = _sup_dist_to_members(res.x, members)
        interior = d < 0.9 * delta
        if res.status == "converged" and interior:
            cand = _report_from(spec, res.x, energy.residual_sup(res.x), total_iters, "converged")
            if best is None or cand.breakdown.I_trunc < best.breakdown.I_trunc:
                best = cand
        else:
            cand = _report_from(spec, res.x, energy.residual_sup(res.x), total_iters, "window_exceeded")
            if pinned is None or cand.breakdown.I_trunc < pinned.breakdown.I_trunc:
                pinned = cand
    if best is not None:
        return best
    assert pinned is not None
    return pinned


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
    energy = Energy(spec, truncated=True)
    uq = u.values**spec.q
    wq = omega.values**spec.q
    chain = []
    energies = []
    for s in np.linspace(0.0, 1.0, beads):
        vals = ((1.0 - s) * uq + s * wq) ** (1.0 / spec.q)
        vals[0] = vals[-1] = 0.0
        chain.append(GridFn(spec.mesh, vals))
        energies.append(energy.I(vals))
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
    tol: float,
    max_sweeps: int,
) -> tuple[PathState, list[float]]:
    """Relax a path by the climbing string method until its top bead is a saddle.

    Every sweep each interior bead steps along the preconditioned gradient
    with its tangential part, in the linear stiffness metric M, removed
    (c = 1) or, for the highest bead, reversed so that it climbs (c = 2):

        d = P g - c (g . tau) / (tau . M tau) tau,   tau = x[i+1] - x[i-1].

    The preconditioner is P = M^-1, the flux solve of
    functionals._stiffness_solver with unit weights, not the descents'
    p-stiffness: the projection needs P and M to be one metric. With c = 1
    the slope g . d = g . P g - (g . tau)^2 / (tau . M tau) is nonnegative
    by Cauchy-Schwarz in M, so a relaxing bead descends, under a per-bead
    Armijo test on that slope whose step grows 1.5x per accepted sweep up
    to 10. The climbing bead takes a Barzilai-Borwein step, in the metric
    M and capped at 1 and at twice its last value. Then the beads on each
    side of the climbing bead are redistributed evenly by sup-norm
    arclength, the climbing bead the fixed end of both segments, and every
    interior bead is valued once: its energy and gradient come from that
    one point. The climbing bead is chosen anew after every sweep.

    Stops once the climbing bead's full gradient is below tol in sup norm,
    or after max_sweeps. Returns the path and the per-sweep barrier, the
    highest bead energy after each sweep. (Ren & Vanden-Eijnden, J. Chem.
    Phys. 138, 134105, 2013, on the simplified string method of E, Ren &
    Vanden-Eijnden, J. Chem. Phys. 126, 164103, 2007.)
    """
    energy = Energy(spec, truncated=True)
    precond = _stiffness_solver(spec.mesh, np.ones(spec.mesh.n_cells))
    h = spec.mesh.h
    chain = [np.array(b.values) for b in path.beads]
    n = len(chain)
    energies = [energy.I(chain[0])] + [0.0] * (n - 2) + [energy.I(chain[-1])]
    grads: list[np.ndarray] = [np.zeros(0)] * n

    def revalue() -> tuple[int, float]:
        """Value each interior bead once; the climbing bead and its residual."""
        for i in range(1, n - 1):
            energies[i], grads[i] = energy.I(chain[i]), energy.grad_I(chain[i])
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
            d = precond(g)
            dtau = np.diff(tau)
            tau_m_tau = float(np.dot(dtau, dtau)) / h
            if tau_m_tau > 0.0:
                d -= ((2.0 if i == top else 1.0) * float(np.dot(g, tau)) / tau_m_tau) * tau
            if i == top:
                if climber == i:
                    # Barzilai-Borwein step in the stiffness metric d lives in
                    ds, dy = np.diff(chain[i] - prev_x), np.diff(d - prev_d)
                    sy = float(np.dot(ds, dy))
                    if sy > 0.0:
                        climb_step = min(float(np.dot(ds, ds)) / sy, 1.0, 2.0 * climb_step)
                climber, prev_x, prev_d = i, chain[i], d
                chain[i] = chain[i] - climb_step * d
                continue
            slope = float(np.dot(g, d))
            if slope <= 0.0:
                continue
            step = steps[i]
            for _ in range(40):
                trial = chain[i] - step * d
                e_new = energy.I(trial)
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
    return PathState(beads=beads, energies=tuple(energies)), barrier_history


def _newton_finish(energy: Energy, x: np.ndarray, tol: float) -> tuple[np.ndarray, float, int, int | None]:
    """Guarded Newton on grad I from x: (point, sup residual, steps, Morse index).

    Each step solves H s = g on the interior nodes with the LDL^T of the
    tridiagonal Hessian, and counts only if it lowers the sup residual.
    The run ends at residual < tol, at the first step that does not lower
    it, or where the Hessian is not finite. The index is the count of
    negative pivots at the returned point, None where it has no Hessian.
    """
    g = energy.grad_I(x)
    residual = float(np.max(np.abs(g)))
    steps = 0
    while True:
        factored = _ldlt(*energy.hess_I(x))
        if factored is None:
            return x, residual, steps, None
        solve, index = factored
        if residual < tol:
            return x, residual, steps, index
        trial = np.array(x)
        trial[1:-1] -= solve(g[1:-1])
        g_trial = energy.grad_I(trial)
        r_trial = float(np.max(np.abs(g_trial)))
        if not r_trial < residual:
            return x, residual, steps, index
        x, g, residual = trial, g_trial, r_trial
        steps += 1


def mountain_pass(
    spec: ProblemSpec,
    u: GridFn,
    omega: GridFn,
    beads: int = 17,
    *,
    tol: float = DEFAULT_TOL,
) -> SolveReport:
    """Saddle between a local minimum u and a lower state omega.

    A climbing string (string_relax) on the q-mean path from max(u, 0) to
    max(omega, 0) brings its highest interior bead into Newton's basin:
    it stops at the loose entry residual NEWTON_ENTRY. Newton steps on
    the tridiagonal Hessian of the truncated energy then finish from that
    bead while each lowers the sup residual (_newton_finish). The saddle is
    accepted at residual < tol with Morse index 1, exactly one negative
    pivot, and a level above both endpoints. When a Newton step does not
    lower the residual, the Hessian is not finite, or the point Newton
    reaches does not pass, the string resumes from where it stopped at a
    10x tighter entry residual, down to tol itself. Critical points of the
    truncated energy are nonnegative, so the path starts from the positive
    parts: a local minimum may carry negative dust within its stop residual.

    Fails with status "saddle_not_found" when the string has used its
    5000 sweeps, or reached tol itself, without an accepted saddle. The
    report's iterations are the string's sweeps plus the Newton steps.
    Where the Hessian does not exist (morse_index is None) no saddle is
    accepted: its index cannot be read.
    """
    energy = Energy(spec, truncated=True)
    path = initial_path(
        spec, GridFn(spec.mesh, np.maximum(u.values, 0.0)), GridFn(spec.mesh, np.maximum(omega.values, 0.0)), beads
    )
    if not path.energies[-1] < path.energies[0]:
        raise ValueError("omega must have strictly lower energy than u")
    entry = NEWTON_ENTRY
    sweeps = steps = 0
    while True:
        stop = max(entry, tol)
        path, barrier_history = string_relax(spec, path, tol=stop, max_sweeps=_MAX_SWEEPS - sweeps)
        sweeps += len(barrier_history)
        top = 1 + int(np.argmax(path.energies[1:-1]))
        x, residual, taken, index = _newton_finish(energy, path.beads[top].values, tol)
        steps += taken
        found = residual < tol and index == 1 and energy.I(x) > path.energies[0] + 1e-14
        if found or sweeps >= _MAX_SWEEPS or stop == tol:
            break
        entry *= 0.1
    status = "converged" if found else "saddle_not_found"
    return _report_from(spec, x, residual, sweeps + steps, status)


def morse_index(spec: ProblemSpec, u: GridFn) -> int | None:
    """Count of negative eigenvalues of the truncated energy's Hessian at u.

    0 at a strict local minimum, 1 at a mountain-pass saddle. None where
    the Hessian is not finite, the limits of unbounded curvature: for
    p < 2 where u' = 0 on a cell or u = 0 at a Gauss point, for q < 2 where
    u = 0 at a Gauss point with a != 0. None also where it is singular.
    """
    factored = _ldlt(*_energy(u, spec, truncated=True).hess_I(u.values))
    return None if factored is None else factored[1]


def runaway_state(spec: ProblemSpec, below: float, pair: EigenPair) -> GridFn:
    """Nonnegative state with truncated energy under the given level.

    Scales up a direction with negative truncated E (pair's eigenfunction,
    optionally mixed with a small bump in a positive-weight component so
    the weight integral stays positive along q-mean paths). Exists for any
    lam above the first eigenvalue; raises SolverError otherwise.
    """
    energy = Energy(spec, truncated=True)
    partition = sign_partition(spec.a)
    bump = None
    if partition.plus_components:
        bump = widest_component_bump(spec.mesh, partition.plus_components)
    for eps in (0.05, 0.02, 0.01, 0.003, 0.0):
        dirv = pair.phi.values.copy()
        if bump is not None and eps > 0.0:
            dirv = dirv + eps * bump * pair.phi.linf()
        if energy.EG(dirv)[0] >= 0.0:
            continue
        t = 1.0
        while energy.I(t * dirv) > below and t < 1e10:
            t *= 1.3
        if energy.I(t * dirv) <= below:
            return GridFn(spec.mesh, t * dirv)
    raise SolverError(
        "no unbounded descent direction found: lam does not exceed the first eigenvalue"
    )


def multistart_truncated_descent(
    spec: ProblemSpec,
    count: int = 16,
    *,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> list[SolveReport]:
    """Plain truncated-energy descent from count deterministic seeds.

    The starts are a bump in each positive-weight component, half a bump in
    each negative-weight one, then scaled eigenfunctions with positive
    noise. Used by nonexistence experiments: each run either converges to
    some nonnegative critical point (possibly with dead cores) or dives
    below J_FLOOR and is reported as diverged.
    """
    energy = Energy(spec, truncated=True)
    partition = sign_partition(spec.a)
    phi = first_eigenpair(spec.mesh, spec.p).phi.values
    phi_amp = float(np.max(phi))

    def jitter(rng: np.random.Generator) -> np.ndarray:
        amp = 0.5 + 1.5 * rng.random()
        return amp * (phi / phi_amp) + 0.4 * np.abs(smooth_noise(spec.mesh, rng))

    fixed = [component_bump(spec.mesh, comp) for comp in partition.plus_components] + [
        0.5 * component_bump(spec.mesh, comp) for comp in partition.minus_components
    ]
    reports = []
    for v0 in _starts(count, fixed, jitter, 3_000_017, seed, lambda v: True):
        res = _plain_descent(energy, v0, tol)
        status = {"converged": "converged", "diverged": "diverged"}.get(res.status, "failed")
        reports.append(_report_from(spec, res.x, energy.residual_sup(res.x), res.iterations, status))
    return reports


def classify(report: SolveReport, partition: SignPartition, threshold: float) -> SolveReport:
    """Fill per-component positivity and dead-core flags.

    A positive-weight component counts as positive when every nodal value
    exceeds threshold, as a dead core when every nodal value stays below
    it, and as neither (not positive, no dead core) otherwise.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    vals = report.u.values
    pos: list[bool] = []
    dead: list[int] = []
    for idx, (i0, i1) in enumerate(partition.plus_components):
        seg = vals[i0 : i1 + 1]
        pos.append(bool(np.all(seg > threshold)))
        if np.all(seg < threshold):
            dead.append(idx)
    return replace(report, positive_on_plus=tuple(pos), dead_core_components=tuple(dead))

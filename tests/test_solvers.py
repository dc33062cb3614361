import itertools

import numpy as np
import pytest

from plaplab.critical import compute_critical_values, nonexistence_bound
from plaplab.descent import DescentResult
from plaplab.errors import AttainabilityError, EmptyConeError, SolverError
from plaplab.eigen import first_eigenpair
from plaplab.functionals import ProblemSpec, evaluate, gradient_I, nehari_residual_rel
from plaplab.grid import GridFn, component_bump, grid_fn, make_mesh, sign_partition, smooth_noise, weight_fn
from plaplab.presets import TwoBumpParams, two_bump
from plaplab.sweeps import build_problem, parse_config
from plaplab import functionals, solvers

from oracles import central_diff_directional

TOL = 1e-8
# the string's stop when it runs alone: its first-order sweeps slow down
# near the saddle, which mountain_pass finishes with Newton instead
STRING_TOL = 1e-6


@pytest.fixture(scope="session")
def crit_neg(neg_pairing_problem):
    spec0, pair = neg_pairing_problem
    return compute_critical_values(spec0, pair)


@pytest.fixture(scope="session")
def cont_p5(zero_pairing_p5_problem, kset_p5):
    spec0, pair = zero_pairing_p5_problem
    rep = solvers.local_min_continuation(spec0.with_lambda(1.05 * pair.lambda1), kset_p5, tol=TOL)
    assert rep.ok
    return rep


@pytest.fixture(scope="module")
def relaxed_p5(zero_pairing_p5_problem, cont_p5):
    """One climbing-string run on the q-mean path from the p=5 local minimum."""
    spec0, pair = zero_pairing_p5_problem
    spec = spec0.with_lambda(1.05 * pair.lambda1)
    omega = solvers.runaway_state(spec, cont_p5.breakdown.I_trunc - 1.0, pair)
    path = solvers.initial_path(spec, cont_p5.u, omega, beads=17)
    max_sweeps = 2000
    relaxed, history = solvers.string_relax(spec, path, tol=STRING_TOL, max_sweeps=max_sweeps)
    return relaxed, history, max_sweeps


@pytest.fixture(scope="module")
def runaway_p5(zero_pairing_p5_problem, cont_p5):
    """The p=5 problem at 1.05 lambda1 and a runaway state far below the local minimum."""
    spec0, pair = zero_pairing_p5_problem
    spec = spec0.with_lambda(1.05 * pair.lambda1)
    level = cont_p5.breakdown.I_trunc
    return spec, solvers.runaway_state(spec, level - 10.0 * abs(level) - 1.0, pair)


@pytest.fixture(scope="module")
def saddle_p5(runaway_p5, cont_p5):
    """The default-tolerance saddle between the p=5 local minimum and the runaway state."""
    spec, omega = runaway_p5
    return solvers.mountain_pass(spec, cont_p5.u, omega, beads=17)


class TestGroundState:
    def test_subcritical_converges_negative_positive(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        rep = solvers.ground_state(spec0.with_lambda(0.5 * pair.lambda1), starts=4, tol=TOL, seed=1)
        assert rep.ok
        assert rep.breakdown.I_trunc < 0
        assert rep.residual_sup < TOL
        part = sign_partition(spec0.a)
        classified = solvers.classify(rep, part, 1e-8 * rep.u.linf())
        assert all(classified.positive_on_plus)

    def test_level_matches_direct_global_descent(self, neg_pairing_problem):
        # independent check: at subcritical lam the ground level is the global
        # minimum, reachable by plain multistart descent on the energy
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(0.6 * pair.lambda1)
        rep = solvers.ground_state(spec, starts=4, tol=TOL, seed=1)
        direct = solvers.multistart_truncated_descent(spec, count=8, tol=TOL, seed=33)
        best = min(r.breakdown.I_trunc for r in direct if r.status == "converged")
        assert rep.breakdown.I_trunc == pytest.approx(best, abs=5 * TOL)

    def test_truncated_and_untruncated_levels_agree(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(0.7 * pair.lambda1)
        r_t = solvers.ground_state(spec, starts=4, tol=TOL, seed=1, truncated=True)
        r_u = solvers.ground_state(spec, starts=4, tol=TOL, seed=1, truncated=False)
        assert abs(r_t.breakdown.I_trunc - r_u.breakdown.I) < 5 * TOL

    def test_divergence_above_star(self, neg_pairing_problem, crit_neg):
        spec0, pair = neg_pairing_problem
        rep = solvers.ground_state(
            spec0.with_lambda(crit_neg.lambda_star + 0.1 * pair.lambda1), starts=4, tol=TOL, seed=1
        )
        assert rep.status == "diverged"

    def test_attained_at_star_with_negative_pairing(self, neg_pairing_problem, crit_neg):
        spec0, pair = neg_pairing_problem
        rep = solvers.ground_state(spec0.with_lambda(crit_neg.lambda_star), starts=4, tol=TOL, seed=1)
        assert rep.ok and rep.breakdown.I_trunc < 0

    def test_nehari_identity_of_solution(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(0.5 * pair.lambda1)
        rep = solvers.ground_state(spec, starts=4, tol=TOL, seed=1)
        assert nehari_residual_rel(rep.u, spec) < 1e-6
        b = rep.breakdown
        coeff = (spec.p - spec.q) / (spec.p * spec.q)
        assert abs(b.I + coeff * b.E) < 10 * TOL * (1.0 + abs(b.E))


    def test_sweep_p3_first_row_iteration_gate(self, neg_pairing_problem):
        # the sweep-p3 benchmark's row at 0.9 lambda1 (8 starts, seed 7): the
        # p-stiffness metric takes about a hundred iterations, the linear
        # stiffness took 3 477
        spec0, pair = neg_pairing_problem
        rep = solvers.ground_state(spec0.with_lambda(0.9 * pair.lambda1), tol=TOL, seed=7)
        assert rep.ok and rep.residual_sup < TOL
        assert rep.iterations <= 300

    def test_p4_two_bump_polish_converges(self, mesh256):
        # with the linear-stiffness preconditioner every polish of this case
        # ran to its 50 000-iteration cap and the call raised SolverError
        pair = first_eigenpair(mesh256, 4.0)
        spec = ProblemSpec(4.0, 1.5, 1.05 * pair.lambda1, two_bump(mesh256), mesh256)
        rep = solvers.ground_state(spec, tol=TOL, seed=7)
        assert rep.ok and rep.residual_sup < TOL
        assert rep.iterations <= 5_000
        assert rep.breakdown.I_trunc == pytest.approx(-0.2673282326, abs=1e-8)
        assert nehari_residual_rel(rep.u, spec, truncated=True) < 1e-6

    def test_failure_names_every_start(self, neg_pairing_problem, monkeypatch):
        # every ray phase stalls after 11 iterations, every polish is capped after 13
        def capped(x0, fun, grad, *, normalize=None, **kwargs):
            ray = normalize is not None
            x = normalize(x0) if ray else np.array(x0)
            status, iters = ("stalled", 11) if ray else ("max_iterations", 13)
            return DescentResult(x=x, f=fun(x), iterations=iters, status=status)

        monkeypatch.setattr(solvers, "bb_descent", capped)
        spec0, pair = neg_pairing_problem
        with pytest.raises(SolverError) as err:
            solvers.ground_state(spec0.with_lambda(0.5 * pair.lambda1), starts=3, tol=TOL, seed=0)
        message = str(err.value)
        for k in range(3):
            assert f"start {k}: ray phase stalled after 11 iterations, polish max_iterations after 13" in message
        assert "start 3" not in message


class TestMMinus:
    def test_positive_level_and_identity(self, neg_pairing_problem, crit_neg):
        spec0, pair = neg_pairing_problem
        lam = pair.lambda1 + 0.5 * (crit_neg.lambda_star - pair.lambda1)
        spec = spec0.with_lambda(lam)
        rep = solvers.m_minus(spec, starts=4, tol=TOL, seed=1)
        assert rep.ok
        assert rep.breakdown.I > 0
        assert rep.residual_sup < 10 * TOL
        assert nehari_residual_rel(rep.u, spec) < 1e-6

    def test_blowup_toward_lambda1(self, neg_pairing_problem, crit_neg):
        spec0, pair = neg_pairing_problem
        gap = crit_neg.lambda_star - pair.lambda1
        lo = solvers.m_minus(spec0.with_lambda(pair.lambda1 + 0.02 * gap), starts=4, tol=TOL, seed=1)
        hi = solvers.m_minus(spec0.with_lambda(pair.lambda1 + 0.9 * gap), starts=4, tol=TOL, seed=1)
        assert lo.breakdown.I > hi.breakdown.I > 0

    def test_one_descent_per_start(self, neg_pairing_problem, crit_neg, monkeypatch):
        # J is 0-homogeneous: its minimum on the sphere is the level, so the
        # ray phase is the whole solve and no second descent follows it
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(pair.lambda1 + 0.5 * (crit_neg.lambda_star - pair.lambda1))
        descents, drawn = [], []
        real_descent, real_starts = solvers.bb_descent, solvers._starts

        def counting_descent(*args, **kwargs):
            descents.append(1)
            return real_descent(*args, **kwargs)

        def counting_starts(*args, **kwargs):
            starts = real_starts(*args, **kwargs)
            drawn.append(len(starts))
            return starts

        monkeypatch.setattr(solvers, "bb_descent", counting_descent)
        monkeypatch.setattr(solvers, "_starts", counting_starts)
        assert solvers.m_minus(spec, starts=4, tol=TOL, seed=1).ok
        assert drawn[0] > 0
        assert len(descents) == drawn[0]

    def test_empty_cone_below_lambda1(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        with pytest.raises(EmptyConeError):
            solvers.m_minus(spec0.with_lambda(0.9 * pair.lambda1), starts=2)

    def test_levels_never_cross_ground(self, neg_pairing_problem, crit_neg):
        spec0, pair = neg_pairing_problem
        lam = pair.lambda1 + 0.5 * (crit_neg.lambda_star - pair.lambda1)
        spec = spec0.with_lambda(lam)
        g = solvers.ground_state(spec, starts=4, tol=TOL, seed=1)
        m = solvers.m_minus(spec, starts=4, tol=TOL, seed=1)
        assert g.breakdown.I_trunc < 0 < m.breakdown.I


class TestMinimizerSet:
    def test_members_and_level_identity(self, zero_pairing_p5_problem, kset_p5):
        spec0, pair = zero_pairing_p5_problem
        assert len(kset_p5.members) >= 1
        assert kset_p5.level < 0
        spec_star = spec0.with_lambda(pair.lambda1)
        coeff = spec0.p * spec0.q / (spec0.p - spec0.q)
        target = -kset_p5.level * coeff
        for m in kset_p5.members:
            b = evaluate(m, spec_star)
            # Nehari identity E = G to within the stop residual: <grad I(u), u> = E - G
            residual = gradient_I(m, spec_star, truncated=True).linf()
            assert abs(b.E_trunc - b.weight_term_plus) <= residual * float(np.sum(np.abs(m.values)))
            assert b.E_trunc == pytest.approx(target, rel=1e-5)

    def test_members_are_distinct_solutions(self, kset_p5):
        # distinct as run_three_solutions counts solutions distinct: farther
        # apart than a converged solution is accurate, in their positive parts
        floor = solvers.DISTINCT_TOL_FACTOR * TOL
        for a, b in itertools.combinations(kset_p5.members, 2):
            assert float(np.max(np.abs(np.maximum(a.values, 0.0) - np.maximum(b.values, 0.0)))) > floor

    def test_negative_dust_makes_no_second_member(self):
        # p = 5, q = 1.5, orthogonal two-bump at lambda* = lambda1: both starts
        # converge to one minimizer, and the degenerate p = 5 flux leaves
        # different negative dust on the two solves
        problem = build_problem(
            parse_config("n_cells = 128\np = 5.0\nq = 1.5\nweight_family = orthogonal-two-bump\nseed = 7\n")
        )
        spec_star = problem.spec0.with_lambda(problem.pair.lambda1)
        reports, _, _ = solvers._ground_runs(spec_star, 2, TOL, 7, True)
        a, b = (r.u.values for r in reports)
        floor = solvers.DISTINCT_TOL_FACTOR * TOL
        assert float(np.max(np.abs(a - b))) > 10.0 * floor
        assert float(np.max(np.abs(np.maximum(a, 0.0) - np.maximum(b, 0.0)))) <= floor
        kset = solvers.minimizer_set_at_star(spec_star, sample_count=2, tol=TOL, seed=7)
        assert len(kset.members) == 1

    def test_each_start_solved_once(self, zero_pairing_p5_problem, monkeypatch):
        # one multistart of sample_count starts: one ray-phase descent each
        spec0, pair = zero_pairing_p5_problem
        calls = []
        ray_descent = solvers._ray_descent

        def counting(*args, **kwargs):
            calls.append(1)
            return ray_descent(*args, **kwargs)

        monkeypatch.setattr(solvers, "_ray_descent", counting)
        solvers.minimizer_set_at_star(spec0.with_lambda(pair.lambda1), sample_count=3, tol=TOL, seed=3)
        assert len(calls) == 3

    def test_positive_pairing_not_attainable(self, mesh256):
        p, q = 3.0, 2.0
        pair = first_eigenpair(mesh256, p)
        prm = TwoBumpParams(
            amp_plus=60.0, center_plus=0.45, width_plus=0.25, amp_minus=20.0, center_minus=0.85, width_minus=0.12
        )
        spec0 = ProblemSpec(p, q, 0.0, two_bump(mesh256, prm), mesh256)
        with pytest.raises(AttainabilityError):
            solvers.minimizer_set_at_star(
                spec0.with_lambda(pair.lambda1), sample_count=2, tol=TOL, seed=0
            )


class TestContinuation:
    def test_zero_offset_recovers_member(self, zero_pairing_p5_problem, kset_p5):
        spec0, pair = zero_pairing_p5_problem
        rep = solvers.local_min_continuation(spec0.with_lambda(pair.lambda1), kset_p5, tol=TOL)
        assert rep.ok
        d, _ = solvers._sup_dist_to_members(rep.u.values, kset_p5.members)
        assert d < 1e-5

    def test_interior_minimum_above_star(self, zero_pairing_p5_problem, kset_p5, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        assert cont_p5.breakdown.I_trunc < 0
        assert cont_p5.residual_sup < TOL
        part = sign_partition(spec0.a)
        classified = solvers.classify(cont_p5, part, 1e-8 * cont_p5.u.linf())
        assert all(classified.positive_on_plus)

    def test_consistency_distances_shrink(self, zero_pairing_p5_problem, kset_p5):
        spec0, pair = zero_pairing_p5_problem
        dists = []
        for eps in (0.04, 0.02, 0.01):
            rep = solvers.local_min_continuation(
                spec0.with_lambda((1.0 + eps) * pair.lambda1), kset_p5, tol=TOL
            )
            assert rep.ok
            d, _ = solvers._sup_dist_to_members(rep.u.values, kset_p5.members)
            dists.append(d)
        assert dists[0] > dists[1] > dists[2]

    def test_window_exceeded_far_above_bound(self, zero_pairing_p5_problem, kset_p5):
        spec0, pair = zero_pairing_p5_problem
        part = sign_partition(spec0.a)
        bound = nonexistence_bound(spec0, part)
        rep = solvers.local_min_continuation(spec0.with_lambda(1.1 * bound), kset_p5, tol=TOL)
        classified = solvers.classify(rep, part, 1e-8 * max(rep.u.linf(), 1e-30))
        assert rep.status == "window_exceeded" or classified.dead_core_components
        assert rep.iterations < 5_000  # a pinned run stops early, not at its 50 000 cap


class TestMountainPass:
    def test_initial_path_endpoints_exact(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        omega = solvers.runaway_state(spec, cont_p5.breakdown.I_trunc - 1.0, pair)
        path = solvers.initial_path(spec, cont_p5.u, omega, beads=9)
        assert np.array_equal(path.beads[0].values, cont_p5.u.values)
        assert np.array_equal(path.beads[-1].values, omega.values)

    def test_string_stops_before_cap(self, relaxed_p5):
        _, history, max_sweeps = relaxed_p5
        assert len(history) < max_sweeps

    def test_climbing_bead_is_interior_saddle(self, zero_pairing_p5_problem, relaxed_p5):
        # the climbing string ends on its top bead: interior, strictly highest,
        # the barrier it last recorded, and a critical point to within tol
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        path, history, _ = relaxed_p5
        energies = np.array(path.energies)
        top = int(np.argmax(energies))
        assert history[-1] == energies[top]
        assert 0 < top < len(energies) - 1
        assert np.all(np.delete(energies, top) < energies[top])
        residual = gradient_I(path.beads[top], spec, truncated=True).linf()
        assert residual < STRING_TOL

    def test_saddle_between_levels(self, cont_p5, saddle_p5):
        level = cont_p5.breakdown.I_trunc
        rep = saddle_p5
        assert rep.ok
        assert rep.residual_sup < TOL
        assert level < rep.breakdown.I_trunc < 0.0
        assert rep.breakdown.I_trunc - level > 1e-7

    def test_tight_tolerance_reaches_the_same_critical_point(self, runaway_p5, cont_p5, saddle_p5):
        # the default tol is the minimizers' 1e-8; Newton carries on to 1e-12
        spec, omega = runaway_p5
        rep = solvers.mountain_pass(spec, cont_p5.u, omega, beads=17, tol=1e-12)
        assert rep.ok
        assert rep.residual_sup < 1e-12
        assert np.max(np.abs(rep.u.values - saddle_p5.u.values)) < 1e-6
        assert abs(rep.breakdown.I_trunc - saddle_p5.breakdown.I_trunc) < 1e-12

    def test_saddle_has_index_one(self, runaway_p5, cont_p5, saddle_p5):
        spec, _ = runaway_p5
        assert solvers.morse_index(spec, cont_p5.u) == 0
        assert solvers.morse_index(spec, saddle_p5.u) == 1

    def test_rejects_higher_omega(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        with pytest.raises(ValueError):
            solvers.mountain_pass(spec, cont_p5.u, 2.0 * cont_p5.u, beads=9)

    def test_runaway_requires_supercritical(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        with pytest.raises(SolverError):
            solvers.runaway_state(spec0.with_lambda(0.5 * pair.lambda1), -100.0, pair)


class TestMorseIndex:
    # the three-p5 benchmark config; its scan finds the triple at its first
    # probe, 0.995 lambda1
    THREE_P5 = """
n_cells = 256
p = 5.0
q = 2.0
weight_family = perturbed
mu = 0.05
starts = 5
sample_count = 3
tol = 1e-8
seed = 7
"""

    def test_three_solution_triple(self):
        cfg = parse_config(self.THREE_P5)
        problem = build_problem(cfg)
        lambda1 = problem.pair.lambda1
        kset = solvers.minimizer_set_at_star(
            ProblemSpec(cfg.p, cfg.q, lambda1, problem.base, problem.spec0.mesh),
            sample_count=cfg.sample_count,
            tol=cfg.tol,
            seed=cfg.seed,
        )
        spec = problem.spec0.with_lambda(0.995 * lambda1)
        w = solvers.ground_state(spec, starts=cfg.starts, tol=cfg.tol, seed=cfg.seed)
        u = solvers.local_min_continuation(spec, kset, tol=cfg.tol)
        v = solvers.mountain_pass(spec, u.u, w.u, beads=cfg.beads, tol=cfg.tol)
        assert w.ok and u.ok and v.ok
        assert w.breakdown.I_trunc < u.breakdown.I_trunc < v.breakdown.I_trunc < 0.0
        indices = [solvers.morse_index(spec, r.u) for r in (w, u, v)]
        assert indices == [0, 0, 1]

    def test_undefined_where_the_hessian_is_not_finite(self, mesh256):
        a = weight_fn(mesh256, np.cos(3.0 * np.pi * mesh256.nodes))
        u = np.sin(np.pi * mesh256.nodes)
        u[0] = u[-1] = 0.0
        # p < 2: a flat cell
        spec = ProblemSpec(1.5, 1.2, 10.0, a, mesh256)
        assert solvers.morse_index(spec, grid_fn(mesh256, u)) is not None
        flat = u.copy()
        flat[100] = flat[101]
        assert solvers.morse_index(spec, grid_fn(mesh256, flat)) is None
        # q < 2: u = 0 at Gauss points where a != 0 (a dead core); p > 2
        spec = ProblemSpec(3.0, 1.5, 10.0, a, mesh256)
        assert solvers.morse_index(spec, grid_fn(mesh256, u)) is not None
        core = u.copy()
        core[100:120] = 0.0
        assert solvers.morse_index(spec, grid_fn(mesh256, core)) is None
        # at q = 2 the weight term has its second derivative everywhere
        spec = ProblemSpec(3.0, 2.0, 10.0, a, mesh256)
        assert solvers.morse_index(spec, grid_fn(mesh256, core)) is not None

    @pytest.mark.parametrize("p, q, node", [(1.5, 1.2, "flat"), (3.0, 1.5, "core")])
    def test_newton_stops_where_the_hessian_is_not_finite(self, mesh256, p, q, node):
        # the two points of the test above without a Hessian, far from any
        # critical point: Newton returns them as they are, with no index
        a = weight_fn(mesh256, np.cos(3.0 * np.pi * mesh256.nodes))
        x = np.sin(np.pi * mesh256.nodes)
        x[0] = x[-1] = 0.0
        if node == "flat":
            x[100] = x[101]
        else:
            x[100:120] = 0.0
        energy = functionals.Energy(ProblemSpec(p, q, 10.0, a, mesh256), truncated=True)
        assert not np.all(np.isfinite(energy.hess_I(x)[0]))
        residual = float(np.max(np.abs(energy.grad_I(x))))
        assert residual > 1.0
        point, r, steps, index = solvers._newton_finish(energy, x, TOL)
        assert point is x
        assert (r, steps, index) == (residual, 0, None)


class _StartsTaken(Exception):
    pass


class TestStarts:
    """The starts each multistart solver takes from the one start generator."""

    # solver, lam / lambda1, cone its starts must lie in (None: no cone test)
    SOLVERS = {
        "ground_state": (solvers.ground_state, 0.5, +1),
        "m_minus": (solvers.m_minus, 1.1, -1),
        "multistart_truncated_descent": (solvers.multistart_truncated_descent, 1.02, None),
    }

    @staticmethod
    def starts_of(monkeypatch, problem, name, count, seed):
        """The starts the solver draws, stopping it before its first descent."""
        solve, factor, _ = TestStarts.SOLVERS[name]
        spec0, pair = problem
        taken = []
        real = solvers._starts

        def take(*args, **kwargs):
            taken.extend(real(*args, **kwargs))
            raise _StartsTaken

        monkeypatch.setattr(solvers, "_starts", take)
        with pytest.raises(_StartsTaken):
            solve(spec0.with_lambda(factor * pair.lambda1), count, seed=seed)
        monkeypatch.undo()
        return taken

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_count_is_honoured(self, monkeypatch, neg_pairing_problem, name):
        for count in (1, 3):
            assert len(self.starts_of(monkeypatch, neg_pairing_problem, name, count, seed=0)) == count
        # the plus cone of a negative-pairing weight admits few perturbations
        # of phi: its 96 draws may run out before 12 starts are found
        assert 0 < len(self.starts_of(monkeypatch, neg_pairing_problem, name, 12, seed=0)) <= 12

    @pytest.mark.parametrize("name", ["ground_state", "m_minus"])
    def test_every_start_lies_in_the_cone(self, monkeypatch, neg_pairing_problem, name):
        _, factor, sign = self.SOLVERS[name]
        spec0, pair = neg_pairing_problem
        kernel = functionals.Energy(spec0.with_lambda(factor * pair.lambda1), truncated=sign > 0)
        starts = self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=0)
        assert starts and all(kernel.in_cone(v, sign) for v in starts)

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_boundary_entries_are_exact_zeros(self, monkeypatch, neg_pairing_problem, name):
        for v in self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=3):
            assert v[0] == 0.0 and v[-1] == 0.0

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_same_seed_same_bytes(self, monkeypatch, neg_pairing_problem, name):
        first = self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=5)
        again = self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=5)
        assert [v.tobytes() for v in first] == [v.tobytes() for v in again]

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_seeds_change_the_jittered_tail(self, monkeypatch, neg_pairing_problem, name):
        a = self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=0)
        b = self.starts_of(monkeypatch, neg_pairing_problem, name, 6, seed=1)
        differ = [u.tobytes() != v.tobytes() for u, v in zip(a, b)]
        # the fixed candidates lead both lists; past them every start is a draw
        assert all(differ[differ.index(True) :])


class TestClassify:
    def test_zero_function_every_plus_is_dead(self, neg_pairing_problem):
        spec0, _ = neg_pairing_problem
        part = sign_partition(spec0.a)
        u = grid_fn(spec0.mesh, np.zeros(spec0.mesh.n_nodes))
        rep = solvers.SolveReport(u=u, breakdown=evaluate(u, spec0), residual_sup=0.0, iterations=0, lam=0.0)
        out = solvers.classify(rep, part, threshold=1e-10)
        assert out.dead_core_components == tuple(range(len(part.plus_components)))
        assert not any(out.positive_on_plus)

    def test_manufactured_dead_core(self, mesh256):
        from plaplab.grid import Weight, cos_bump

        vals = cos_bump(mesh256, 0.25, 0.15) - cos_bump(mesh256, 0.55, 0.1) + cos_bump(mesh256, 0.8, 0.1)
        a = Weight(mesh256, vals)
        part = sign_partition(a)
        assert len(part.plus_components) == 2
        u_vals = cos_bump(mesh256, 0.25, 0.15)  # positive only on the first bump
        u_vals[0] = u_vals[-1] = 0.0
        u = grid_fn(mesh256, u_vals)
        spec = ProblemSpec(3.0, 2.0, 0.0, a, mesh256)
        rep = solvers.SolveReport(u=u, breakdown=evaluate(u, spec), residual_sup=0.0, iterations=0, lam=0.0)
        out = solvers.classify(rep, part, threshold=1e-10)
        assert out.positive_on_plus[0] and not out.positive_on_plus[1]
        assert out.dead_core_components == (1,)


class TestKernelCache:
    @pytest.mark.parametrize("truncated", [False, True])
    def test_in_place_change_never_returns_a_stale_value(self, neg_pairing_problem, truncated):
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(0.5 * pair.lambda1)
        kernel = functionals.Energy(spec, truncated)
        v = np.array(pair.phi.values)
        before = (kernel.terms(v), kernel.J(v), kernel.grad_J(v), kernel.grad_I(v))
        v[1:-1] *= 1.0 + 0.3 * np.sin(7.0 * spec.mesh.nodes[1:-1])  # same array, new content
        fresh = functionals.Energy(spec, truncated)
        assert kernel.terms(v) == fresh.terms(v) != before[0]
        assert kernel.J(v) == fresh.J(v) != before[1]
        assert np.array_equal(kernel.grad_J(v), fresh.grad_J(v))
        assert np.array_equal(kernel.grad_I(v), fresh.grad_I(v))
        assert not np.array_equal(kernel.grad_I(v), before[3])

    def test_guard_value_and_gradient_share_one_evaluation(self, neg_pairing_problem, monkeypatch):
        spec0, pair = neg_pairing_problem
        kernel = functionals.Energy(spec0.with_lambda(0.5 * pair.lambda1), truncated=False)
        passes = []
        real = functionals.gauss_values
        monkeypatch.setattr(functionals, "gauss_values", lambda vals: passes.append(1) or real(vals))
        v = component_bump(spec0.mesh, sign_partition(spec0.a).plus_components[0])
        assert kernel.in_cone(v, +1)
        j = kernel.J(v)
        g = kernel.grad_J(v)
        assert len(passes) == 1
        fresh = functionals.Energy(spec0.with_lambda(0.5 * pair.lambda1), truncated=False)
        assert fresh.J(np.array(v)) == j
        assert np.array_equal(fresh.grad_J(np.array(v)), g)


class TestKernelParity:
    """The fibered solvers' kernel and the functionals agree bit for bit."""

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("p,q", [(1.5, 1.2), (3.0, 1.5), (4.0, 2.5), (5.0, 2.0)])
    @pytest.mark.parametrize("lam", [-3.0, 7.0])
    def test_terms_and_gradient_match_functionals(self, p, q, lam, truncated):
        mesh = make_mesh(0.0, 1.0, 256)
        rng = np.random.default_rng(17)
        a = weight_fn(mesh, rng.normal(size=mesh.n_nodes))
        spec = ProblemSpec(p, q, lam, a, mesh)
        kernel = functionals.Energy(spec, truncated)
        for _ in range(3):
            vals = np.zeros(mesh.n_nodes)
            vals[1:-1] = rng.normal(size=mesh.n_nodes - 2)
            b = evaluate(grid_fn(mesh, vals), spec)
            if truncated:
                expected = (b.grad_term, b.mass_term_plus, b.weight_term_plus)
            else:
                expected = (b.grad_term, b.mass_term, b.weight_term)
            assert kernel.terms(vals) == expected
            g = gradient_I(grid_fn(mesh, vals), spec, truncated=truncated).values
            assert kernel.grad_I(vals).tobytes() == g.tobytes()


class TestFiberedGradient:
    """grad_J against central differences of J, in both cones the solvers use."""

    @pytest.mark.parametrize("q", [1.5, 2.0])
    @pytest.mark.parametrize("cone", [+1, -1])
    def test_grad_J_matches_finite_differences(self, neg_pairing_problem, cone, q):
        spec0, pair = neg_pairing_problem
        mesh = spec0.mesh
        x = mesh.nodes
        if cone > 0:
            # plus cone with truncation: a sign-changing function, so the
            # positive part is a proper piece of it
            kernel = functionals.Energy(ProblemSpec(3.0, q, 0.5 * pair.lambda1, spec0.a, mesh), truncated=True)
            v = pair.phi.values * (np.cos(3.0 * np.pi * x) + 0.3)
        else:
            # minus cone above lambda1, as m_minus searches it
            kernel = functionals.Energy(ProblemSpec(3.0, q, 1.1 * pair.lambda1, spec0.a, mesh), truncated=False)
            minus = sign_partition(spec0.a).minus_components[0]
            v = pair.phi.values + 0.05 * component_bump(mesh, minus) * pair.phi.linf()
        assert kernel.in_cone(v, cone)
        rng = np.random.default_rng(5)
        for _ in range(4):
            w = smooth_noise(mesh, rng)
            fd = central_diff_directional(kernel.J, v, w, 1e-6)
            an = float(np.dot(kernel.grad_J(v), w))
            assert an == pytest.approx(fd, rel=1e-6)

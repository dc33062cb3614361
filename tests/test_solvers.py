import numpy as np
import pytest

from plaplab.critical import compute_critical_values, nonexistence_bound
from plaplab.errors import AttainabilityError, EmptyConeError, SolverError
from plaplab.eigen import first_eigenpair
from plaplab.functionals import ProblemSpec, evaluate, nehari_residual_rel
from plaplab.grid import GridFn, component_bump, grid_fn, make_mesh, sign_partition, weight_fn
from plaplab.presets import TwoBumpParams, two_bump
from plaplab import solvers

TOL = 1e-8


@pytest.fixture(scope="session")
def crit_neg(neg_pairing_problem):
    spec0, pair = neg_pairing_problem
    return compute_critical_values(spec0, pair, seed=0)


@pytest.fixture(scope="session")
def cont_p5(zero_pairing_p5_problem, kset_p5):
    spec0, pair = zero_pairing_p5_problem
    rep = solvers.local_min_continuation(spec0.with_lambda(1.05 * pair.lambda1), kset_p5, tol=TOL)
    assert rep.ok
    return rep


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
            assert b.E_trunc == pytest.approx(b.weight_term_plus, rel=1e-6)
            assert b.E_trunc == pytest.approx(target, rel=1e-5)

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


class TestOrderInterval:
    def test_solution_below_lambda_bar(self, zero_pairing_p5_problem, kset_p5, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.02 * pair.lambda1)
        rep = solvers.order_interval_min(spec, cont_p5.u, tol=TOL)
        assert rep.ok
        assert rep.breakdown.I < 0
        assert np.all(rep.u.values >= 0.0)
        assert np.all(rep.u.values <= cont_p5.u.values + 1e-14)
        part = sign_partition(spec0.a)
        classified = solvers.classify(rep, part, 1e-8 * rep.u.linf())
        assert all(classified.positive_on_plus)

    def test_zero_upper_degenerate(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        zero = grid_fn(spec0.mesh, np.zeros(spec0.mesh.n_nodes))
        with pytest.raises(SolverError):
            solvers.order_interval_min(spec0.with_lambda(pair.lambda1), zero, tol=TOL)

    def test_negative_upper_rejected(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        vals = np.zeros(spec0.mesh.n_nodes)
        vals[5] = -1.0
        with pytest.raises(ValueError):
            solvers.order_interval_min(spec0.with_lambda(pair.lambda1), grid_fn(spec0.mesh, vals), tol=TOL)

    def test_minimizer_clipping_idempotent(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.02 * pair.lambda1)
        rep = solvers.order_interval_min(spec, cont_p5.u, tol=TOL)
        clipped = np.minimum(np.maximum(rep.u.values, 0.0), cont_p5.u.values)
        assert np.array_equal(clipped, rep.u.values)


class TestMountainPass:
    def test_initial_path_endpoints_exact(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        omega = solvers.runaway_state(spec, cont_p5.breakdown.I_trunc - 1.0, pair)
        path = solvers.initial_path(spec, cont_p5.u, omega, beads=9)
        assert np.array_equal(path.beads[0].values, cont_p5.u.values)
        assert np.array_equal(path.beads[-1].values, omega.values)

    def test_barrier_monotone(self, zero_pairing_p5_problem, cont_p5):
        # pure relaxation (no redistribution): the max-bead energy is a
        # per-sweep descent quantity
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        omega = solvers.runaway_state(spec, cont_p5.breakdown.I_trunc - 1.0, pair)
        path = solvers.initial_path(spec, cont_p5.u, omega, beads=17)
        _, history = solvers.string_relax(
            spec, path, tol=1e-7, max_sweeps=120, reparam_every=10**9
        )
        assert all(history[i + 1] <= history[i] + 1e-14 for i in range(len(history) - 1))

    def test_barrier_monotone_between_reparametrizations(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        omega = solvers.runaway_state(spec, cont_p5.breakdown.I_trunc - 1.0, pair)
        path = solvers.initial_path(spec, cont_p5.u, omega, beads=17)
        _, history = solvers.string_relax(spec, path, tol=1e-7, max_sweeps=95, reparam_every=10)
        for k in range(len(history) - 1):
            if (k + 1) % 10 != 0:  # sweeps right after a redistribution may step up
                assert history[k + 1] <= history[k] + 1e-14

    def test_saddle_between_levels(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        level = cont_p5.breakdown.I_trunc
        omega = solvers.runaway_state(spec, level - 10.0 * abs(level) - 1.0, pair)
        rep = solvers.mountain_pass(spec, cont_p5.u, omega, beads=17)
        assert rep.ok
        assert rep.residual_sup < solvers.SADDLE_TOL
        assert level < rep.breakdown.I_trunc < 0.0
        assert rep.breakdown.I_trunc - level > 1e-7

    def test_rejects_higher_omega(self, zero_pairing_p5_problem, cont_p5):
        spec0, pair = zero_pairing_p5_problem
        spec = spec0.with_lambda(1.05 * pair.lambda1)
        with pytest.raises(ValueError):
            solvers.mountain_pass(spec, cont_p5.u, 2.0 * cont_p5.u, beads=9)

    def test_runaway_requires_supercritical(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        with pytest.raises(SolverError):
            solvers.runaway_state(spec0.with_lambda(0.5 * pair.lambda1), -100.0, pair)


class TestClassify:
    def test_zero_function_every_plus_is_dead(self, neg_pairing_problem):
        spec0, _ = neg_pairing_problem
        part = sign_partition(spec0.a)
        u = grid_fn(spec0.mesh, np.zeros(spec0.mesh.n_nodes))
        rep = solvers.SolveReport(
            u=u, breakdown=evaluate(u, spec0), residual_sup=0.0, kind="ground", iterations=0, lam=0.0
        )
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
        rep = solvers.SolveReport(
            u=u, breakdown=evaluate(u, spec), residual_sup=0.0, kind="ground", iterations=0, lam=0.0
        )
        out = solvers.classify(rep, part, threshold=1e-10)
        assert out.positive_on_plus[0] and not out.positive_on_plus[1]
        assert out.dead_core_components == (1,)


class TestKernelCache:
    @pytest.mark.parametrize("truncated", [False, True])
    def test_in_place_change_never_returns_a_stale_value(self, neg_pairing_problem, truncated):
        spec0, pair = neg_pairing_problem
        spec = spec0.with_lambda(0.5 * pair.lambda1)
        kernel = solvers._Kernel(spec, truncated)
        v = np.array(pair.phi.values)
        before = (kernel.terms(v), kernel.J(v), kernel.grad_J(v), kernel.grad_I(v))
        v[1:-1] *= 1.0 + 0.3 * np.sin(7.0 * spec.mesh.nodes[1:-1])  # same array, new content
        fresh = solvers._Kernel(spec, truncated)
        assert kernel.terms(v) == fresh.terms(v) != before[0]
        assert kernel.J(v) == fresh.J(v) != before[1]
        assert np.array_equal(kernel.grad_J(v), fresh.grad_J(v))
        assert np.array_equal(kernel.grad_I(v), fresh.grad_I(v))
        assert not np.array_equal(kernel.grad_I(v), before[3])

    def test_guard_value_and_gradient_share_one_evaluation(self, neg_pairing_problem, monkeypatch):
        spec0, pair = neg_pairing_problem
        kernel = solvers._Kernel(spec0.with_lambda(0.5 * pair.lambda1), truncated=False)
        passes = []
        real = solvers.gauss_values
        monkeypatch.setattr(solvers, "gauss_values", lambda vals: passes.append(1) or real(vals))
        v = component_bump(spec0.mesh, sign_partition(spec0.a).plus_components[0])
        assert kernel.in_cone(v, +1)
        j = kernel.J(v)
        g = kernel.grad_J(v)
        assert len(passes) == 1
        fresh = solvers._Kernel(spec0.with_lambda(0.5 * pair.lambda1), truncated=False)
        assert fresh.J(np.array(v)) == j
        assert np.array_equal(fresh.grad_J(np.array(v)), g)

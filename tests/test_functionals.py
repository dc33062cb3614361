import numpy as np
import pytest

from plaplab.errors import FiberUndefinedError, MeshMismatchError, SolverError
from plaplab.functionals import (
    METRIC_EPS,
    Energy,
    P1Energy,
    ProblemSpec,
    _ldlt,
    _stiffness_solver,
    evaluate,
    fiber_scale,
    fibered_J,
    gradient_I,
    nehari_project,
    nehari_residual_rel,
)
from plaplab.grid import component_bump, grid_fn, make_mesh, weight_fn
from plaplab.sweeps import build_problem, parse_config

from oracles import central_diff_directional, p1_kernel_reference


def _spec(mesh, p=3.0, q=2.0, lam=5.0, seed=0):
    rng = np.random.default_rng(seed)
    a = weight_fn(mesh, rng.normal(size=mesh.n_nodes))
    return ProblemSpec(p, q, lam, a, mesh)


def _random_u(mesh, rng, scale=1.0):
    vals = np.zeros(mesh.n_nodes)
    vals[1:-1] = scale * rng.normal(size=mesh.n_nodes - 2)
    return grid_fn(mesh, vals)


class TestEvaluate:
    def test_zero_function_all_zero(self, mesh256):
        spec = _spec(mesh256)
        b = evaluate(grid_fn(mesh256, np.zeros(mesh256.n_nodes)), spec)
        assert b.E == 0.0 and b.I == 0.0 and b.E_trunc == 0.0 and b.I_trunc == 0.0
        assert b.grad_term == 0.0 and b.weight_term == 0.0

    def test_nonnegative_truncation_identity(self, mesh256):
        spec = _spec(mesh256)
        rng = np.random.default_rng(1)
        vals = np.zeros(mesh256.n_nodes)
        vals[1:-1] = np.abs(rng.normal(size=mesh256.n_nodes - 2))
        u = grid_fn(mesh256, vals)
        b = evaluate(u, spec)
        assert b.I == b.I_trunc
        assert b.E == b.E_trunc

    def test_eigenfunction_energy_vanishes(self, mesh256):
        from plaplab.eigen import first_eigenpair

        pair = first_eigenpair(mesh256, 2.0)
        a = weight_fn(mesh256, np.ones(mesh256.n_nodes))
        spec = ProblemSpec(2.0, 1.5, pair.lambda1, a, mesh256)
        b = evaluate(pair.phi, spec)
        assert abs(b.E) < 1e-8

    def test_breakdown_invariants(self, mesh256):
        spec = _spec(mesh256)
        u = _random_u(mesh256, np.random.default_rng(2))
        b = evaluate(u, spec)
        assert b.E == pytest.approx(b.grad_term - spec.lam * b.mass_term, rel=1e-14)
        assert b.I == pytest.approx(b.E / spec.p - b.weight_term / spec.q, rel=1e-14)
        assert b.E_trunc == pytest.approx(b.grad_term - spec.lam * b.mass_term_plus, rel=1e-14)
        assert b.nehari_residual == pytest.approx(b.E - b.weight_term, rel=1e-14)

    def test_evenness_of_untruncated(self, mesh256):
        spec = _spec(mesh256)
        u = _random_u(mesh256, np.random.default_rng(3))
        assert evaluate(u, spec).I == evaluate(-1.0 * u, spec).I

    def test_mesh_mismatch(self, mesh256):
        spec = _spec(mesh256)
        other = make_mesh(0.0, 1.0, 64)
        with pytest.raises(MeshMismatchError):
            evaluate(grid_fn(other, np.zeros(65)), spec)


class TestHessian:
    @pytest.mark.parametrize(
        "p,q",
        [(2.0, 1.5), (2.5, 1.5), (2.5, 2.0), (3.0, 1.5), (3.0, 2.0), (5.0, 1.5), (5.0, 2.0)],
    )
    @pytest.mark.parametrize("truncated", [False, True])
    def test_hessian_vector_product(self, p, q, truncated):
        # hess_I v against central differences of grad_I along v. Nodal values
        # of random sign and size in [0.5, 1.5] keep every Gauss value at
        # least 0.078 from the kinks of |g| and max(g, 0), so the difference
        # error falls as eps^2 (100x per decade) down to roundoff.
        mesh = make_mesh(0.0, 1.0, 128)
        energy = Energy(_spec(mesh, p=p, q=q, lam=7.0, seed=10), truncated)
        rng = np.random.default_rng(20)
        worst = np.zeros(2)
        for _ in range(10):
            u = np.zeros(mesh.n_nodes)
            u[1:-1] = rng.choice([-1.0, 1.0], mesh.n_nodes - 2) * (0.5 + rng.random(mesh.n_nodes - 2))
            v = _random_u(mesh, rng).values
            diag, off = energy.hess_I(u)
            hv = diag * v[1:-1]
            hv[:-1] += off * v[2:-1]
            hv[1:] += off * v[1:-2]
            for k, eps in enumerate((1e-3, 1e-4)):
                fd = (energy.grad_I(u + eps * v) - energy.grad_I(u - eps * v))[1:-1] / (2.0 * eps)
                worst[k] = max(worst[k], float(np.max(np.abs(fd - hv)) / np.max(np.abs(hv))))
        coarse, fine = worst
        assert fine < 1e-5
        assert fine <= coarse / 50.0 + 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    @pytest.mark.parametrize("definite", [True, False])
    def test_ldlt_against_dense(self, n, definite):
        rng = np.random.default_rng(100 * n + definite)
        for _ in range(5):
            if definite:  # diagonally dominant
                diag, off = 2.5 + rng.random(n), rng.uniform(-1.0, 1.0, n - 1)
            else:
                diag, off = rng.normal(size=n), rng.normal(size=n - 1)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            solve, negatives = _ldlt(diag, off)
            r = rng.normal(size=n)
            x = solve(r)
            assert np.max(np.abs(x - np.linalg.solve(dense, r))) <= 1e-9 * (1.0 + np.max(np.abs(x)))
            assert negatives == int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
            if definite:
                assert negatives == 0

    def test_ldlt_refuses_non_finite_and_singular(self):
        assert _ldlt(np.array([1.0, np.inf]), np.array([0.5])) is None
        assert _ldlt(np.array([1.0, 2.0]), np.array([np.nan])) is None
        assert _ldlt(np.array([1.0, 1.0]), np.array([1.0])) is None  # second pivot 0


class TestGradient:
    @pytest.mark.parametrize(
        "p,q",
        [(2.0, 1.5), (2.5, 1.5), (2.5, 2.0), (3.0, 1.5), (3.0, 2.0), (5.0, 1.5), (5.0, 2.0)],
    )
    @pytest.mark.parametrize("truncated", [False, True])
    def test_directional_derivative(self, p, q, truncated):
        mesh = make_mesh(0.0, 1.0, 128)
        spec = _spec(mesh, p=p, q=q, lam=7.0, seed=10)
        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(25):
            u = _random_u(mesh, rng)
            v = _random_u(mesh, rng)
            eps = (1.0 + u.linf()) * 1e-5

            def ival(vals):
                b = evaluate(grid_fn(mesh, vals), spec)
                return b.I_trunc if truncated else b.I

            fd = central_diff_directional(ival, np.array(u.values), np.array(v.values), eps)
            an = float(np.dot(gradient_I(u, spec, truncated=truncated).values, v.values))
            worst = max(worst, abs(fd - an) / max(1e-12, abs(an)))
        assert worst < 1e-6

    def test_zero_point_truncated_gradient_vanishes(self, mesh256):
        spec = _spec(mesh256, q=1.5)
        u = grid_fn(mesh256, np.zeros(mesh256.n_nodes))
        g = gradient_I(u, spec, truncated=True)
        assert np.all(g.values == 0.0)

    def test_truncation_coherence_on_nonnegative(self, mesh256):
        spec = _spec(mesh256, seed=21)
        rng = np.random.default_rng(22)
        vals = np.zeros(mesh256.n_nodes)
        vals[1:-1] = np.abs(rng.normal(size=mesh256.n_nodes - 2))
        u = grid_fn(mesh256, vals)
        g_plain = gradient_I(u, spec, truncated=False).values
        g_trunc = gradient_I(u, spec, truncated=True).values
        assert np.array_equal(g_plain, g_trunc)

    def test_eigen_pair_is_critical_without_weight_term(self, mesh256):
        # for a ~ 0 the functional reduces to E/p, critical at the eigenpair
        from plaplab.eigen import first_eigenpair

        pair = first_eigenpair(mesh256, 3.0)
        a = weight_fn(mesh256, 1e-30 * np.ones(mesh256.n_nodes))
        spec = ProblemSpec(3.0, 2.0, pair.lambda1, a, mesh256)
        g = gradient_I(pair.phi, spec)
        assert np.max(np.abs(g.values)) < 1e-9


class TestFiber:
    def test_known_scale(self, mesh256):
        # pick u, spec with E = 2, G = 8 scaled synthetically: use direct formula check
        spec = _spec(mesh256, p=4.0, q=2.0, lam=0.0, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E * b.weight_term <= 0:
                continue
            t = fiber_scale(u, spec)
            assert t == pytest.approx((b.weight_term / b.E) ** 0.5, rel=1e-12)
            return
        pytest.skip("no admissible draw")

    def test_projection_invariance_along_ray(self, mesh256):
        spec = _spec(mesh256, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E * b.weight_term <= 0:
                continue
            pu = nehari_project(u, spec)
            for c in (0.5, 2.0, 10.0):
                pc = nehari_project(c * u, spec)
                assert np.allclose(pu.values, pc.values, rtol=1e-10, atol=1e-13)
            return
        pytest.skip("no admissible draw")

    def test_fiber_undefined_on_opposite_signs(self, mesh256):
        # u supported in {a < 0}: weight integral < 0 while E > 0 at lam = 0
        mesh = mesh256
        a_vals = np.ones(mesh.n_nodes)
        a_vals[: mesh.n_nodes // 2] = -1.0
        spec = ProblemSpec(3.0, 2.0, 0.0, weight_fn(mesh, a_vals), mesh)
        vals = np.zeros(mesh.n_nodes)
        vals[5 : mesh.n_nodes // 4] = 1.0
        u = grid_fn(mesh, vals)
        with pytest.raises(FiberUndefinedError):
            fiber_scale(u, spec)

    def test_unit_scale_on_nehari(self, mesh256):
        spec = _spec(mesh256, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E > 0 and b.weight_term > 0:
                w = nehari_project(u, spec)
                assert fiber_scale(w, spec) == pytest.approx(1.0, rel=1e-10)
                return
        pytest.skip("no admissible draw")


class TestConeAlongTheRay:
    """The cone verdict is a property of the ray, and fiber_scale shares it."""

    SWEEP_P3 = "p = 3.0\nq = 2.0\nweight_family = two-bump\n"
    THREE_P5 = "p = 5.0\nq = 2.0\nweight_family = perturbed\nmu = 0.05\n"

    @pytest.mark.parametrize(
        "text,factor,truncated", [(SWEEP_P3, 0.9, True), (THREE_P5, 0.995, False)], ids=["sweep-p3", "three-p5"]
    )
    def test_scale_free_and_agrees_with_fiber_scale(self, text, factor, truncated):
        problem = build_problem(parse_config(text))
        spec = problem.spec0.with_lambda(factor * problem.pair.lambda1)
        b = component_bump(spec.mesh, problem.partition.plus_components[0])
        energy = Energy(spec, truncated)
        scaled = []
        for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            assert energy.in_cone(c * b, +1)
            scaled.append(c * fiber_scale(grid_fn(spec.mesh, c * b), spec, truncated))
        assert max(scaled) - min(scaled) <= 1e-12 * scaled[2]


class TestFiberedJ:
    def test_matches_energy_at_projection(self, mesh256):
        spec = _spec(mesh256, seed=11)
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(100):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E * b.weight_term <= 0:
                continue
            J = fibered_J(u, spec)
            I_proj = evaluate(nehari_project(u, spec), spec).I
            assert J == pytest.approx(I_proj, rel=1e-10, abs=1e-12)
            checked += 1
            if checked >= 10:
                break
        assert checked >= 1

    def test_zero_homogeneity(self, mesh256):
        spec = _spec(mesh256, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E * b.weight_term <= 0:
                continue
            J = fibered_J(u, spec)
            for c in (0.5, 2.0, 10.0):
                assert fibered_J(c * u, spec) == pytest.approx(J, rel=1e-12)
            return
        pytest.skip("no admissible draw")

    def test_sign_rule_negative_cone(self, mesh256):
        # E < 0 and G < 0 force J > 0
        from plaplab.eigen import first_eigenpair

        pair = first_eigenpair(mesh256, 3.0)
        a = weight_fn(mesh256, -np.ones(mesh256.n_nodes))
        spec = ProblemSpec(3.0, 2.0, 1.2 * pair.lambda1, a, mesh256)
        b = evaluate(pair.phi, spec)
        assert b.E < 0 and b.weight_term < 0
        assert fibered_J(pair.phi, spec) > 0

    def test_fiber_dichotomy_on_t_grid(self, mesh256):
        # E > 0, G > 0: the ray energy attains its minimum at t(u) (within one grid step)
        spec = _spec(mesh256, seed=15)
        rng = np.random.default_rng(16)
        for _ in range(100):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E > 0 and b.weight_term > 0:
                t_star = fiber_scale(u, spec)
                ts = np.linspace(0.05 * t_star, 3.0 * t_star, 121)
                vals = [evaluate(float(t) * u, spec).I for t in ts]
                k = int(np.argmin(vals))
                step = ts[1] - ts[0]
                assert abs(ts[k] - t_star) <= step + 1e-12
                return
        pytest.skip("no admissible draw")


    def test_overflow_near_q_equal_p_is_a_solver_error(self):
        # p = 3, q = 2.999: J carries G^(p/(p-q)) = G^3000, which overflows a
        # float at u = 50 phi, where G is about 1.6e4
        problem = build_problem(
            parse_config("n_cells = 64\np = 3.0\nq = 2.999\nweight_family = two-bump\namp_plus = 60\n")
        )
        spec = problem.spec0.with_lambda(0.9 * problem.pair.lambda1)
        u = grid_fn(spec.mesh, 50.0 * problem.pair.phi.values)
        with pytest.raises(SolverError, match="q is too near p"):
            fibered_J(u, spec)
        with pytest.raises(SolverError, match="q is too near p"):
            Energy(spec, truncated=False).grad_J(u.values)


class TestFiberMaxDichotomy:
    def test_ray_maximum_in_negative_cone(self, mesh256):
        # E < 0 and G < 0: the ray energy attains its maximum at t(u)
        from plaplab.eigen import first_eigenpair

        pair = first_eigenpair(mesh256, 3.0)
        a = weight_fn(mesh256, -np.ones(mesh256.n_nodes))
        spec = ProblemSpec(3.0, 2.0, 1.3 * pair.lambda1, a, mesh256)
        u = pair.phi
        b = evaluate(u, spec)
        assert b.E < 0 and b.weight_term < 0
        t_star = fiber_scale(u, spec)
        ts = np.linspace(0.05 * t_star, 3.0 * t_star, 121)
        vals = [evaluate(float(t) * u, spec).I for t in ts]
        k = int(np.argmax(vals))
        assert abs(ts[k] - t_star) <= (ts[1] - ts[0]) + 1e-12


class TestNehariIdentity:
    def test_projection_residual_and_level_identity(self, mesh256):
        spec = _spec(mesh256, seed=17)
        rng = np.random.default_rng(18)
        checked = 0
        for _ in range(200):
            u = _random_u(mesh256, rng)
            b = evaluate(u, spec)
            if b.E * b.weight_term <= 0:
                continue
            w = nehari_project(u, spec)
            assert nehari_residual_rel(w, spec) < 1e-10
            bw = evaluate(w, spec)
            coeff = (spec.p - spec.q) / (spec.p * spec.q)
            assert abs(bw.I + coeff * bw.E) < 1e-10 * (1.0 + abs(bw.E))
            checked += 1
            if checked >= 20:
                break
        assert checked >= 5


class TestMetric:
    """EnergyPoint.precondition solves with the regularized p-stiffness at the point."""

    @staticmethod
    def dense_stiffness(mesh, p, vals):
        """Interior block of sum_k w_k d_k d_k^T / h, assembled from its definition."""
        s = np.abs(np.diff(vals)) / mesh.h
        if s.max() == 0.0:
            w = np.ones(mesh.n_cells)
        else:
            w = (s**2 + (METRIC_EPS * s.max()) ** 2) ** ((p - 2.0) / 2.0)
            w = w / w.max()
        k = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for c in range(mesh.n_cells):
            k[c : c + 2, c : c + 2] += w[c] / mesh.h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        return k[1:-1, 1:-1]

    @staticmethod
    def iterates(mesh, rng):
        rough = _random_u(mesh, rng).values
        # a dead core: exactly flat (zero) over the middle third
        x = mesh.nodes
        dead = np.where(np.abs(x - 0.5) < 1.0 / 6.0, 0.0, np.sin(3.0 * np.pi * x) ** 2)
        dead[0] = dead[-1] = 0.0
        return {"rough": rough, "dead_core": dead, "zero": np.zeros(mesh.n_nodes)}

    @pytest.mark.parametrize("n", [64, 1024])
    def test_p2_is_the_linear_stiffness_bit_for_bit(self, n):
        mesh = make_mesh(0.0, 1.0, n)
        linear = _stiffness_solver(mesh, np.ones(mesh.n_cells))
        energy = P1Energy(mesh, 2.0)
        rng = np.random.default_rng(n)
        for vals in self.iterates(mesh, rng).values():
            pt = energy(vals)
            for _ in range(5):
                r = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.uniform(-8.0, 8.0)
                assert pt.precondition(r).tobytes() == linear(r).tobytes()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_solves_the_dense_p_stiffness(self, p):
        mesh = make_mesh(0.0, 2.0, 128)
        rng = np.random.default_rng(int(10 * p))
        energy = P1Energy(mesh, p)
        for name, vals in self.iterates(mesh, rng).items():
            k = self.dense_stiffness(mesh, p, vals)
            pt = energy(vals)
            for _ in range(3):
                r = rng.normal(size=mesh.n_nodes)
                z = pt.precondition(r)
                assert z[0] == 0.0 and z[-1] == 0.0
                # normwise backward error: at p = 5 the weights span 1e-6, so z
                # is large and the residual is judged against |K| |z|
                residual = np.max(np.abs(k @ z[1:-1] - r[1:-1]))
                assert residual <= 1e-12 * np.max(np.abs(k)) * np.max(np.abs(z)), (name, residual)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_flux_solve_residual(self, n):
        """Row i of K z = r, checked matrix-free: F_(i-1) - F_i = r_i with F_k = w_k (z_(k+1) - z_k) / h."""
        mesh = make_mesh(0.0, 1.0, n)
        rng = np.random.default_rng(n)
        for w in (np.ones(n), 10.0 ** rng.uniform(-6.0, 0.0, n)):
            apply = _stiffness_solver(mesh, w)
            k_max = np.max(w[:-1] + w[1:]) / mesh.h  # |K|: its largest entry, on the diagonal
            for _ in range(20):
                r = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.uniform(-8.0, 8.0)
                z = apply(r)
                assert z[0] == 0.0 and z[-1] == 0.0
                flux = w * np.diff(z) / mesh.h
                residual = np.max(np.abs(flux[:-1] - flux[1:] - r[1:-1]))
                assert residual <= 1e-12 * k_max * np.max(np.abs(z))


class TestKernelOracle:
    """P1Energy against the plain two-array restatement of its arithmetic, bit for bit."""

    @staticmethod
    def vectors(mesh):
        """A vector with flat cells, negative entries and a zero stretch, and a positive bump."""
        x = mesh.nodes
        mixed = np.sin(3.0 * np.pi * x / x[-1]) * (1.0 + 0.5 * np.cos(7.0 * x))
        mixed[(x > 0.4 * x[-1]) & (x < 0.5 * x[-1])] = -0.4
        mixed[(x > 0.75 * x[-1]) & (x < 0.85 * x[-1])] = 0.0
        if mesh.n_cells == 3:  # its interior nodes sit at zeros of the sine
            mixed[1:3] = -0.4
        mixed[0] = mixed[-1] = 0.0
        bump = component_bump(mesh, (1, mesh.n_nodes - 2))
        return {"mixed": mixed, "bump": bump}

    @staticmethod
    def weight_values(mesh):
        """Sign-changing nodal weight, zero on a stretch (and at the middle node of n = 2)."""
        x = mesh.nodes / mesh.nodes[-1]
        return np.where(np.abs(x - 0.5) < 0.1, 0.0, np.sin(2.0 * np.pi * x) + 0.3)

    @staticmethod
    def same_bits(x, y):
        if x is None or y is None:
            return x is None and y is None
        if isinstance(x, float):
            return isinstance(y, float) and x.hex() == y.hex()
        return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 256, 1025])
    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("q", [1.2, 2.0, 2.5])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_every_output_matches_the_two_array_formulas(self, p, q, truncated, n):
        mesh = make_mesh(0.0, 1.3, n)
        a = self.weight_values(mesh)
        r = np.random.default_rng(n).normal(size=mesh.n_nodes)
        for weighted in (False, True):
            kernel = P1Energy(mesh, p, q, weight_fn(mesh, a).gauss, truncated) if weighted else P1Energy(
                mesh, p, truncated=truncated
            )
            for name, v in self.vectors(mesh).items():
                ref = p1_kernel_reference(v, mesh.h, p, q, a if weighted else None, truncated, r, METRIC_EPS)
                pt = kernel(v)
                case = (name, weighted)
                assert pt.grad_term == ref["grad_term"] and self.same_bits(pt.grad_term, ref["grad_term"]), case
                assert pt.mass == ref["mass"] and self.same_bits(pt.mass, ref["mass"]), case
                assert self.same_bits(pt.weight, ref["weight"]), case
                dg, dm = pt.gradients()
                assert self.same_bits(dg, ref["dg"]) and self.same_bits(dm, ref["dm"]), case
                if weighted:
                    assert self.same_bits(pt.weight_gradient(), ref["dw"]), case
                grad, mass, weight = pt.hessian()
                for got, want in ((grad, ref["hess_grad"]), (mass, ref["hess_mass"])):
                    assert self.same_bits(got[0], want[0]) and self.same_bits(got[1], want[1]), case
                if weighted:
                    assert self.same_bits(weight[0], ref["hess_weight"][0]), case
                    assert self.same_bits(weight[1], ref["hess_weight"][1]), case
                else:
                    assert weight is None
                assert self.same_bits(pt.precondition(r), ref["precondition"]), case

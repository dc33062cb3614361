import numpy as np
import pytest

from plaplab.critical import (
    _constrained_rayleigh_min,
    compute_critical_values,
    nonexistence_bound,
    picone_certificate,
    picone_condition,
    region_classify,
)
from plaplab.errors import SolverError
from plaplab.eigen import first_eigenpair, pairing
from plaplab.functionals import ProblemSpec
from plaplab.grid import grid_fn, make_mesh, sign_partition
from plaplab.presets import TwoBumpParams, orthogonal_two_bump, two_bump

from oracles import picone_condition_loop, picone_poly_min


def sine_fn(mesh, power=1.0):
    vals = np.sin(np.pi * (mesh.nodes - mesh.x_lo) / (mesh.x_hi - mesh.x_lo)) ** power
    vals[0] = vals[-1] = 0.0  # sin(pi) float dust
    return grid_fn(mesh, vals)


class TestPiconeCondition:
    def test_p2_family_always_holds(self):
        # the polynomial factors as (q-1)(s+1)^2 at p = 2
        for q in (1.1, 1.5, 1.9):
            rep = picone_condition(2.0, q)
            assert rep.holds
            assert rep.min_value == pytest.approx(q - 1.0, abs=1e-9)

    def test_p5_q2_fails(self):
        assert not picone_condition(5.0, 2.0).holds

    def test_p3_q2_interior_minimum_decides(self):
        rep = picone_condition(3.0, 2.0)
        # s=0 value is 0 and s=1 value is 2 > 0, yet the interior minimum is negative
        oracle_min, oracle_arg = picone_poly_min(3.0, 2.0)
        assert not rep.holds
        assert rep.min_value == pytest.approx(oracle_min, abs=1e-9)
        assert rep.argmin_s == pytest.approx(oracle_arg, abs=1e-6)

    def test_s1_value_formula(self):
        # f(1) = 2(2q - p) for all pairs
        for p, q in ((3.0, 2.0), (2.7, 1.3), (5.5, 2.2)):
            f1 = (q - 1) + q - (p - q) + (q - p + 1)
            assert f1 == pytest.approx(2 * (2 * q - p), abs=1e-12)

    def test_against_bruteforce_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            q = float(rng.uniform(1.05, 3.0))
            p = float(rng.uniform(q + 0.05, q + 3.0))
            rep = picone_condition(p, q)
            mn, _ = picone_poly_min(p, q)
            assert rep.holds == (mn >= -1e-12)
            assert rep.min_value == pytest.approx(mn, abs=1e-8)

    def test_two_stationary_points_match_oracle(self):
        # at q = 1.05 and p in 1.2..1.6 on the default region grid, f' changes
        # sign twice (a local maximum, then the interior minimum)
        q = 1.05
        for p in np.linspace(1.1, 6.0, 50)[1:6]:
            s = np.geomspace(1e-8, 1e4, 200_001)
            df = p * (q - 1.0) * s ** (p - 1.0) + q * (p - 1.0) * s ** (p - 2.0) - (p - q)
            assert np.count_nonzero(np.diff(np.sign(df)) != 0) == 2
            rep = picone_condition(float(p), q)
            mn, _ = picone_poly_min(float(p), q)
            assert rep.min_value == pytest.approx(mn, abs=1e-8)
            assert rep.holds == (mn >= -1e-12)

    def test_matches_scalar_loop_bit_for_bit(self):
        rng = np.random.default_rng(1)
        pairs = [(float(p), 1.05) for p in np.linspace(1.1, 6.0, 50)[1:6]]
        for _ in range(40):
            q = float(rng.uniform(1.01, 4.0))
            pairs.append((float(rng.uniform(q + 1e-3, q + 5.0)), q))
        for p, q in pairs:
            rep = picone_condition(p, q)
            assert (rep.holds, rep.min_value, rep.argmin_s) == picone_condition_loop(p, q)

    def test_necessary_conditions(self):
        # holds forces p <= q+1 (s=0) and p <= 2q (s=1)
        for q in np.linspace(1.1, 3.0, 15):
            for p in np.linspace(q + 0.05, q + 3.0, 15):
                if picone_condition(float(p), float(q)).holds:
                    assert p <= q + 1.0 + 1e-9
                    assert p <= 2.0 * q + 1e-9


class TestRegionClassify:
    def test_examples(self):
        assert region_classify(5.0, 2.0) == "existence_regime"
        assert region_classify(2.0, 1.5) == "nonexistence_regime"
        assert region_classify(3.0, 2.0) == "undetermined"

    def test_boundary_p_equals_2q_not_existence(self):
        for q in (1.2, 1.7, 2.5):
            assert region_classify(2.0 * q, q) != "existence_regime"

    def test_regimes_disjoint_on_grid(self):
        for q in np.linspace(1.1, 3.0, 12):
            for p in np.linspace(q + 0.05, 3.0 * q, 12):
                region_classify(float(p), float(q))  # raises on overlap


class TestCriticalValues:
    def test_converged_false_when_descents_are_capped(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        _, converged = _constrained_rayleigh_min(
            spec0, pair, want_nonneg=True, starts=1, stages=1, iters_per_stage=1
        )
        assert converged is False

    def test_gradient_pieces_built_only_at_accepted_points(self, neg_pairing_problem, monkeypatch):
        import plaplab.critical as critical

        spec0, pair = neg_pairing_problem
        calls = {"scatter": 0, "scatter_in_fun": 0, "fun": 0, "grad": 0}
        in_fun = [False]
        runs = []
        real_scatter = critical.scatter_gauss_gradient
        real_descent = critical.bb_descent

        def counting_scatter(*args):
            calls["scatter"] += 1
            calls["scatter_in_fun"] += in_fun[0]
            return real_scatter(*args)

        def counting_descent(x0, fun, grad, **kwargs):
            def counted_fun(v):
                calls["fun"] += 1
                in_fun[0] = True
                try:
                    return fun(v)
                finally:
                    in_fun[0] = False

            def counted_grad(v):
                calls["grad"] += 1
                return grad(v)

            res = real_descent(x0, counted_fun, counted_grad, **kwargs)
            runs.append(res)
            return res

        monkeypatch.setattr(critical, "scatter_gauss_gradient", counting_scatter)
        monkeypatch.setattr(critical, "bb_descent", counting_descent)
        _constrained_rayleigh_min(spec0, pair, want_nonneg=True, starts=1, stages=2, iters_per_stage=6)
        # every iteration accepts a point, except one that stops at its top
        accepted = sum(r.iterations - (r.status != "max_iterations") for r in runs)
        assert len(runs) == 2 and accepted > 0
        assert calls["grad"] == len(runs) + accepted  # the start point, then each accepted point
        assert calls["scatter_in_fun"] == 0  # trial values never build gradient pieces
        # the mass gradient at every point, the weight gradient where the constraint is violated
        assert calls["grad"] <= calls["scatter"] <= 2 * calls["grad"]
        assert calls["fun"] >= calls["grad"]

    def test_negative_pairing_chain(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        assert pairing(spec0.a, pair, spec0.q) < 0
        crit = compute_critical_values(spec0, pair, seed=0)
        assert crit.pairing_sign == "negative"
        # lambda1 = lambda_minus < lambda_zero = lambda_plus = lambda_star
        assert crit.lambda_minus == crit.lambda1
        assert crit.lambda_zero == crit.lambda_plus == crit.lambda_star
        assert crit.lambda_star > crit.lambda1 + 0.05 * crit.lambda1

    def test_zero_pairing_chain(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        crit = compute_critical_values(spec0, pair, seed=0)
        assert crit.pairing_sign == "zero"
        assert crit.lambda_star == crit.lambda1 == crit.lambda_plus == crit.lambda_minus == crit.lambda_zero

    def test_positive_pairing_chain(self, mesh256):
        p, q = 3.0, 2.0
        pair = first_eigenpair(mesh256, p)
        prm = TwoBumpParams(
            amp_plus=60.0, center_plus=0.45, width_plus=0.25, amp_minus=20.0, center_minus=0.85, width_minus=0.12
        )
        a = two_bump(mesh256, prm)
        spec0 = ProblemSpec(p, q, 0.0, a, mesh256)
        crit = compute_critical_values(spec0, pair, seed=0)
        assert crit.pairing_sign == "positive"
        assert crit.lambda_star == crit.lambda1 == crit.lambda_plus
        assert crit.lambda_zero == crit.lambda_minus
        assert crit.lambda_zero > crit.lambda1 + 1e-7 * 10


class TestNonexistenceBound:
    def test_half_interval_p2(self, mesh512):
        # weight positive exactly on (0, 1/2)
        prm = TwoBumpParams(
            amp_plus=10.0, center_plus=0.25, width_plus=0.25, amp_minus=10.0, center_minus=0.75, width_minus=0.2
        )
        a = two_bump(mesh512, prm)
        part = sign_partition(a)
        spec = ProblemSpec(2.0, 1.5, 0.0, a, mesh512)
        bound = nonexistence_bound(spec, part)
        assert bound == pytest.approx(4.0 * np.pi**2, rel=5e-3)

    def test_longer_component_wins(self, mesh512):
        prm = TwoBumpParams(
            amp_plus=1.0, center_plus=0.2, width_plus=0.2, amp_minus=1.0, center_minus=0.5, width_minus=0.08
        )
        vals = two_bump(mesh512, prm).values.copy()
        # add a second, shorter positive bump
        from plaplab.grid import Weight, cos_bump

        vals += cos_bump(mesh512, 0.8, 0.1)
        a = Weight(mesh512, vals)
        part = sign_partition(a)
        assert len(part.plus_components) == 2
        spec = ProblemSpec(2.0, 1.5, 0.0, a, mesh512)
        bound = nonexistence_bound(spec, part)
        # the longer component (length ~0.4) has the smaller eigenvalue
        assert bound == pytest.approx((np.pi / 0.4) ** 2, rel=2e-2)

    def test_bound_dominates_global_eigenvalue(self, mesh512, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        part = sign_partition(spec0.a)
        bound = nonexistence_bound(spec0, part)
        assert bound >= pair.lambda1

    def test_empty_plus_set(self, mesh256):
        from plaplab.grid import SignPartition

        spec0 = ProblemSpec(2.0, 1.5, 0.0, two_bump(mesh256), mesh256)
        with pytest.raises(SolverError):
            nonexistence_bound(spec0, SignPartition((), ((1, 5),), ()))


class TestPiconeCertificate:
    def test_subcritical_ground_state_passes(self, mesh256):
        from plaplab.solvers import ground_state

        p, q = 2.0, 1.5
        pair = first_eigenpair(mesh256, p)
        a = orthogonal_two_bump(mesh256, p, q)
        spec = ProblemSpec(p, q, 0.8 * pair.lambda1, a, mesh256)
        rep = ground_state(spec, starts=4, tol=1e-8, seed=2)
        assert rep.ok
        r = picone_certificate(rep.u, spec, pair)
        assert r >= -1e-8

    def test_manufactured_positive_candidate_fails_at_lambda1(self, mesh256):
        # pairing > 0 and lam = lambda1: any positive candidate contradicts
        p, q = 2.0, 1.5
        pair = first_eigenpair(mesh256, p)
        prm = TwoBumpParams(
            amp_plus=30.0, center_plus=0.45, width_plus=0.3, amp_minus=5.0, center_minus=0.9, width_minus=0.05
        )
        a = two_bump(mesh256, prm)
        assert pairing(a, pair, q) > 0
        spec = ProblemSpec(p, q, pair.lambda1, a, mesh256)
        u = sine_fn(mesh256, power=1.2)
        r = picone_certificate(u, spec, pair)
        assert r < 0

    def test_dead_core_candidate_trivializes(self, mesh256):
        # u vanishing on {a > 0} drops the right side to the negative part only
        p, q = 2.0, 1.5
        pair = first_eigenpair(mesh256, p)
        a = orthogonal_two_bump(mesh256, p, q)
        part = sign_partition(a)
        i0, i1 = part.plus_components[0]
        vals = np.sin(np.pi * mesh256.nodes)
        vals[: i1 + 2] = 0.0
        vals[-1] = 0.0
        u = grid_fn(mesh256, vals)
        r = picone_certificate(u, spec=ProblemSpec(p, q, 1.1 * pair.lambda1, a, mesh256), pair=pair)
        assert r > 0  # right side is now <= 0, left side is small

    def test_rejects_wrong_exponents(self, mesh256):
        pair = first_eigenpair(mesh256, 5.0)
        a = orthogonal_two_bump(mesh256, 5.0, 2.0)
        spec = ProblemSpec(5.0, 2.0, 1.0, a, mesh256)
        u = sine_fn(mesh256)
        with pytest.raises(ValueError):
            picone_certificate(u, spec, pair)

    def test_rejects_negative_candidate(self, mesh256):
        p, q = 2.0, 1.5
        pair = first_eigenpair(mesh256, p)
        a = orthogonal_two_bump(mesh256, p, q)
        spec = ProblemSpec(p, q, 1.0, a, mesh256)
        u = -1.0 * sine_fn(mesh256)
        with pytest.raises(ValueError):
            picone_certificate(u, spec, pair)

import math
from collections import Counter

import numpy as np
import pytest

from plaplab import critical
from plaplab.critical import (
    _constrained_rayleigh_min,
    compute_critical_values,
    nonexistence_bound,
    picone_certificate,
    picone_condition,
    picone_conditions,
    region_classify,
)
from plaplab.errors import SolverError
from plaplab.eigen import first_eigenpair, pairing
from plaplab.functionals import ProblemSpec
from plaplab.grid import grid_fn, make_mesh, sign_partition
from plaplab.presets import TwoBumpParams, orthogonal_two_bump, two_bump

from oracles import picone_bisected, picone_poly_min, shooting_lambda_star


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
        pairs = []
        for _ in range(25):
            q = float(rng.uniform(1.05, 3.0))
            pairs.append((float(rng.uniform(q + 0.05, q + 3.0)), q))
        # with two stationary points (q = 1.05, p in 1.2..1.6) and a wider spread
        rng = np.random.default_rng(1)
        pairs += [(float(p), 1.05) for p in np.linspace(1.1, 6.0, 50)[1:6]]
        for _ in range(40):
            q = float(rng.uniform(1.01, 4.0))
            pairs.append((float(rng.uniform(q + 1e-3, q + 5.0)), q))
        for p, q in pairs:
            rep = picone_condition(p, q)
            mn, _ = picone_poly_min(p, q)
            assert rep.holds == (mn >= -1e-12)
            assert rep.min_value == pytest.approx(mn, abs=1e-14)
        # three p = 2.1 cells of the default region grid, where the root of f'
        # lies at 1.7e-9, 9.5e-11 and 2.2e-12: below where a log grid from
        # s = 1e-8 starts, and f there is below f(0) = q - p + 1
        p = float(np.linspace(1.1, 6.0, 50)[10])
        for q in np.linspace(1.05, 4.0, 50)[13:16]:
            rep = picone_condition(p, float(q))
            mn, _ = picone_poly_min(p, float(q))
            assert 0.0 < rep.argmin_s < 2e-9
            assert rep.min_value < q - p + 1.0
            assert rep.min_value == pytest.approx(mn, abs=1e-14)

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
            assert rep.min_value == pytest.approx(mn, abs=1e-14)
            assert rep.holds == (mn >= -1e-12)

    def test_minimum_beyond_double_range(self):
        # s0 = ((p-q)/(q-1))^(1/(p-1)) = 1e500 overflows; f there is far below zero
        rep = picone_condition(1.01, 1.0000001)
        assert (rep.holds, rep.min_value) == (False, -np.inf)
        assert region_classify(1.01, 1.0000001) == "undetermined"

    def test_necessary_conditions(self):
        # holds forces p <= q+1 (s=0) and p <= 2q (s=1)
        for q in np.linspace(1.1, 3.0, 15):
            for p in np.linspace(q + 0.05, q + 3.0, 15):
                if picone_condition(float(p), float(q)).holds:
                    assert p <= q + 1.0 + 1e-9
                    assert p <= 2.0 * q + 1e-9


def _region_cells(p_lo, p_hi, p_count, q_lo, q_hi, q_count):
    return [
        (float(p), float(q))
        for p in np.linspace(p_lo, p_hi, p_count)
        for q in np.linspace(q_lo, q_hi, q_count)
        if 1.0 < q < p
    ]


DEFAULT_REGION_CELLS = _region_cells(1.1, 6.0, 50, 1.05, 4.0, 50)  # the region map's default grid
# p from near 1 to 12, q from 1 + 1e-7: tiny roots of f' (p just above 2)
# and the cell (1.01, 1.0000001), whose s0 overflows
WIDE_REGION_CELLS = _region_cells(1.01, 12.0, 200, 1.0000001, 11.0, 200)


def _grid_reports(cells):
    return picone_conditions([p for p, _ in cells], [q for _, q in cells])


class TestPiconeRootMatchesBisection:
    """The root of f' is the float the plain bisection returns (oracles.picone_bisected)."""

    @staticmethod
    def _both(cells):
        found = [(r.min_value, r.argmin_s, r.holds) for r in _grid_reports(cells)]
        return found, [picone_bisected(p, q) for p, q in cells]

    def test_default_grid_identical(self):
        found, bisected = self._both(DEFAULT_REGION_CELLS)
        assert len(found) == 1764
        assert found == bisected

    def test_wide_grid_identical_but_one_p_below_2_cell(self):
        # for p > 2, f' is monotone in floating point and the float is the
        # bisection's by construction. For p < 2 its sign can flip back and
        # forth within a few ulps of the root: at (1.3966, 1.0503) f' reads
        # < 0, = 0, < 0, < 0, = 0 at the root + 0 .. 4 ulps, the bisection
        # ends on the first sign change and the Newton probes on the second
        found, bisected = self._both(WIDE_REGION_CELLS)
        assert len(found) == 21828
        moved = [(cell, a, b) for cell, a, b in zip(WIDE_REGION_CELLS, found, bisected) if a != b]
        assert [cell for cell, _, _ in moved] == [(1.3965829145728643, 1.0502513557788946)]
        for _, (min_a, s_a, holds_a), (min_b, s_b, holds_b) in moved:
            assert holds_a == holds_b
            assert abs(s_a - s_b) == 4 * math.ulp(s_b)
            assert abs(min_a - min_b) <= 2e-15

    def test_one_cell_call_is_the_batch(self):
        cells = WIDE_REGION_CELLS[::97]
        assert [picone_condition(p, q) for p, q in cells] == _grid_reports(cells)

    def test_only_the_overflowing_s0_reports_minus_inf(self):
        # the roots of f' near 1e-300 on the wide grid (the cells with p just
        # above 2) must not reach the OverflowError branch of the condition
        reports = _grid_reports(WIDE_REGION_CELLS)
        cells = [cell for cell, r in zip(WIDE_REGION_CELLS, reports) if r.min_value == -np.inf]
        assert cells == [(1.01, 1.0000001)]

    @staticmethod
    def _counted_calls(monkeypatch, cells):
        """Calls of f' per cell."""
        per_cell = Counter()
        deriv = critical._picone_poly_deriv

        def counted(p, q, s):
            per_cell[p, q] += 1
            return deriv(p, q, s)

        monkeypatch.setattr(critical, "_picone_poly_deriv", counted)
        _grid_reports(cells)
        return per_cell

    def test_derivative_calls_gate(self, monkeypatch):
        # the bisection took 91 722 calls of f' on the default grid (52.0 per
        # cell), Newton steps in s 13 208 with 9 685 of f''; the batched
        # Newton in log s, closed per cell, takes 5 188 and no f''
        per_cell = self._counted_calls(monkeypatch, DEFAULT_REGION_CELLS)
        assert len(DEFAULT_REGION_CELLS) == 1764
        assert sum(per_cell.values()) <= 6_000, sum(per_cell.values())

    def test_wide_grid_per_cell_gate(self, monkeypatch):
        # Newton steps in s took up to 1 071 calls of f' per cell where p is
        # just above 2 (f' ~ s^0.004 near a root below 1e-148); the log-s
        # estimate leaves at most 18
        per_cell = self._counted_calls(monkeypatch, WIDE_REGION_CELLS)
        assert max(n for (p, _), n in per_cell.items() if p > 2.0) <= 24

    @pytest.mark.parametrize("cells", [DEFAULT_REGION_CELLS, WIDE_REGION_CELLS], ids=["default", "wide"])
    def test_p_below_2_per_cell_gate(self, monkeypatch, cells):
        # Newton steps in s with the slope f'' took up to 16 calls of f' per
        # p < 2 cell (default grid; 15 on the wide one); the log-s estimate
        # leaves at most 5 (14)
        per_cell = self._counted_calls(monkeypatch, cells)
        assert max(n for (p, _), n in per_cell.items() if p < 2.0) <= 16

    def test_log_s_batch_runs_once_on_the_rooted_cells(self, monkeypatch):
        # one numpy pass per call, over exactly the cells where f' has a root
        # (p > 2, or p < 2 and f'(s_i) < 0) and s0 is finite; it stops well
        # before its cap (23 iterations on the wide grid, 2 np.exp each)
        batches, exp_calls = [], []
        real_batch, real_exp = critical._log_s_roots, np.exp

        def spy(p, q, s0):
            batches.append(list(zip(p.tolist(), q.tolist())))
            return real_batch(p, q, s0)

        def counted_exp(x):
            exp_calls.append(1)
            return real_exp(x)

        monkeypatch.setattr(critical, "_log_s_roots", spy)
        monkeypatch.setattr(np, "exp", counted_exp)
        _grid_reports(WIDE_REGION_CELLS)
        monkeypatch.undo()

        def rooted(p, q):
            try:
                ((p - q) / (q - 1.0)) ** (1.0 / (p - 1.0))
            except OverflowError:
                return False
            s_i = max(0.0, q * (2.0 - p) / (p * (q - 1.0)))
            return p > 2.0 or (p < 2.0 and critical._picone_poly_deriv(p, q, s_i) < 0.0)

        expected = [(p, q) for p, q in WIDE_REGION_CELLS if rooted(p, q)]
        assert batches == [expected]
        assert any(p < 2.0 for p, _ in expected)
        iterations = (len(exp_calls) - 1) // 2
        assert iterations < critical._LOG_NEWTON_MAX, iterations


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
    def test_converged_false_when_descents_are_capped(self, neg_pairing_problem, monkeypatch):
        import plaplab.critical as critical

        spec0, pair = neg_pairing_problem
        monkeypatch.setattr(critical, "_DESCENT_ITER", 1)
        _, converged, _ = _constrained_rayleigh_min(spec0, pair, want_nonneg=True)
        assert converged is False

    def test_gradient_pieces_built_only_at_accepted_points(self, neg_pairing_problem, monkeypatch):
        import plaplab.critical as critical
        import plaplab.functionals as functionals

        spec0, pair = neg_pairing_problem
        # scatters of gradient pieces, by (callback running, piece built)
        built = Counter()
        calls = Counter()
        where, piece = ["outside"], ["none"]
        runs = []
        real_scatter = functionals.scatter_gauss_gradient
        real_normalize = functionals.P1Energy.normalize
        real_descent = critical.bb_descent

        def within(counter_key, slot, value, fn):
            def wrapped(*args):
                calls[counter_key] += 1
                saved, slot[0] = slot[0], value
                try:
                    return fn(*args)
                finally:
                    slot[0] = saved

            return wrapped

        def counting_scatter(*args):
            built[where[0], piece[0]] += 1
            return real_scatter(*args)

        def counting_normalize(self, v):
            calls["scaling", where[0]] += 1
            return real_normalize(self, v)

        def counting_descent(x0, fun, grad, **kwargs):
            kwargs["normalize"] = within("retract", where, "retract", kwargs["normalize"])
            kwargs["guard"] = within("guard", where, "guard", kwargs["guard"])
            res = real_descent(x0, within("fun", where, "fun", fun), within("grad", where, "grad", grad), **kwargs)
            runs.append(res)
            return res

        ep = functionals.EnergyPoint
        monkeypatch.setattr(ep, "gradients", within("gradients", piece, "mass", ep.gradients))
        monkeypatch.setattr(ep, "weight_gradient", within("weight_gradient", piece, "weight", ep.weight_gradient))
        monkeypatch.setattr(functionals, "scatter_gauss_gradient", counting_scatter)
        monkeypatch.setattr(functionals.P1Energy, "normalize", counting_normalize)
        monkeypatch.setattr(critical, "bb_descent", counting_descent)
        _constrained_rayleigh_min(spec0, pair, want_nonneg=True)
        # every iteration accepts a point, except one that stops at its top
        accepted = sum(r.iterations - (r.status != "max_iterations") for r in runs)
        assert len(runs) == 2 and accepted > 0
        assert calls["grad"] == len(runs) + accepted  # the start point, then each accepted point
        assert calls["fun"] >= calls["grad"] and calls["retract"] >= calls["fun"]
        # trial values and the guard never build gradient pieces
        assert all(count == 0 for (callback, _), count in built.items() if callback in ("fun", "guard"))
        # the stiffness and mass gradients only at accepted points, once each
        assert built["grad", "mass"] == calls["grad"]
        assert sum(count for (_, p), count in built.items() if p == "mass") == calls["grad"]
        # the weight gradient at accepted points, and once per Newton step of
        # the retraction: each step is followed by one sphere scaling
        newton_steps = calls["scaling", "retract"] - calls["retract"]
        assert built["grad", "weight"] == calls["grad"]
        assert built["retract", "weight"] == newton_steps > 0
        assert sum(built.values()) == 2 * calls["grad"] + newton_steps

    def test_winning_multiplier_is_positive(self, neg_pairing_problem, pos_pairing_problem):
        for (spec0, pair), want_nonneg in ((neg_pairing_problem, True), (pos_pairing_problem, False)):
            _, converged, mu = _constrained_rayleigh_min(spec0, pair, want_nonneg=want_nonneg)
            assert converged is True
            assert mu > 0.0

    def test_converged_descent_with_negative_multiplier_is_not_converged(self, neg_pairing_problem, monkeypatch):
        import plaplab.critical as critical

        # phi satisfies -int a phi^q >= 0 strictly, so on the surface R falls
        # into {c > 0}: the descents converge to a point with mu < 0
        spec0, pair = neg_pairing_problem
        runs = []
        real_descent = critical.bb_descent

        def recording_descent(*args, **kwargs):
            runs.append(real_descent(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(critical, "bb_descent", recording_descent)
        value, converged, mu = _constrained_rayleigh_min(spec0, pair, want_nonneg=False)
        assert [r.status for r in runs] == ["converged", "converged"]
        assert value == pytest.approx(min(r.f for r in runs), rel=1e-12)
        assert mu < 0.0
        assert converged is False

    def test_negative_pairing_chain(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        assert pairing(spec0.a, pair, spec0.q) < 0
        crit = compute_critical_values(spec0, pair)
        assert crit.pairing_sign == "negative"
        # lambda1 = lambda_minus < lambda_zero = lambda_plus = lambda_star
        assert crit.lambda_minus == crit.lambda1
        assert crit.lambda_zero == crit.lambda_plus == crit.lambda_star
        assert crit.lambda_star > crit.lambda1 + 0.05 * crit.lambda1

    def test_zero_pairing_chain(self, zero_pairing_p5_problem):
        spec0, pair = zero_pairing_p5_problem
        crit = compute_critical_values(spec0, pair)
        assert crit.pairing_sign == "zero"
        assert crit.lambda_star == crit.lambda1 == crit.lambda_plus == crit.lambda_minus == crit.lambda_zero

    def test_positive_pairing_chain(self, pos_pairing_problem):
        spec0, pair = pos_pairing_problem
        crit = compute_critical_values(spec0, pair)
        assert crit.pairing_sign == "positive"
        assert crit.lambda_star == crit.lambda1 == crit.lambda_plus
        assert crit.lambda_zero == crit.lambda_minus
        assert crit.lambda_zero > crit.lambda1 + 1e-7 * 10


    # feasible upper bounds of the penalty search this solve replaced
    # (3 noisy starts x 6 penalty stages, seed 0); a feasible minimizer
    # may only lower them
    PENALTY_LAMBDA_STAR = 33.218755987163114
    PENALTY_LAMBDA_ZERO = 143.7097111330789

    def test_negative_pairing_kkt_verdict_and_value(self, neg_pairing_problem):
        spec0, pair = neg_pairing_problem
        crit = compute_critical_values(spec0, pair)
        assert crit.converged is True
        assert crit.lambda_star <= self.PENALTY_LAMBDA_STAR
        assert crit.lambda_star == pytest.approx(self.PENALTY_LAMBDA_STAR, rel=1e-6)

    def test_positive_pairing_kkt_verdict_and_value(self, pos_pairing_problem):
        spec0, pair = pos_pairing_problem
        crit = compute_critical_values(spec0, pair)
        assert crit.converged is True
        assert crit.lambda_zero <= self.PENALTY_LAMBDA_ZERO
        assert crit.lambda_zero == pytest.approx(self.PENALTY_LAMBDA_ZERO, rel=1e-6)

    def test_lambda_star_matches_shooting_oracle(self, neg_pairing_problem, mesh512):
        # p = 3, q = 2, default two-bump weight, on n = 256 and 512 cells
        oracle = shooting_lambda_star(3.0)
        spec512 = ProblemSpec(3.0, 2.0, 0.0, two_bump(mesh512), mesh512)
        errors = []
        for spec0, pair in (neg_pairing_problem, (spec512, first_eigenpair(mesh512, 3.0))):
            crit = compute_critical_values(spec0, pair)
            h = spec0.mesh.h
            rel = abs(crit.lambda_star - oracle) / oracle
            assert crit.converged is True
            assert rel <= 10.0 * h**2
            errors.append(rel)
        order = np.log2(errors[0] / errors[1])
        assert 1.75 <= order <= 2.25


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
            nonexistence_bound(spec0, SignPartition((), ((1, 5),)))


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

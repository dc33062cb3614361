import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.functionals import P1Energy
from plaplab.grid import (
    GridFn,
    Weight,
    _bracketed_root,
    _close_bracket,
    gauss_values,
    grid_fn,
    make_mesh,
    sign_partition,
    smooth_noise,
    weight_fn,
)

from oracles import bisect_to_adjacent, sign_partition_loop, smooth_noise_reference


def grad_term(u, p):
    """int |u'|^p, from the kernel."""
    return P1Energy(u.mesh, p)(u.values).grad_term


def mass(u, p):
    """int |u|^p on the grid's Gauss quadrature, from the kernel."""
    return P1Energy(u.mesh, p)(u.values).mass


def weight_term(u, a, q, truncated=False):
    """int a|u|^q (int a u_+^q when truncated) on the grid's Gauss quadrature, from the kernel."""
    return P1Energy(u.mesh, q, q, a.gauss, truncated)(u.values).weight


def hat(mesh):
    """Peak-1 hat at the midpoint (midpoint must be a node)."""
    vals = np.minimum(mesh.nodes - mesh.x_lo, mesh.x_hi - mesh.nodes)
    vals *= 2.0 / (mesh.x_hi - mesh.x_lo)
    return grid_fn(mesh, vals)


class TestMakeMesh:
    def test_uniform_nodes(self):
        mesh = make_mesh(0.0, 1.0, 4)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            make_mesh(0.0, 1.0, 1)

    def test_nonincreasing_interval(self):
        with pytest.raises(ValueError):
            make_mesh(1.0, 0.0, 4)

    def test_cell_width(self):
        assert make_mesh(-1.0, 1.0, 2).h == 1.0


class TestGridFn:
    def test_boundary_must_be_zero(self):
        mesh = make_mesh(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            grid_fn(mesh, [0.1, 0, 0, 0, 0])

    def test_immutable(self):
        u = hat(make_mesh(0.0, 1.0, 8))
        with pytest.raises(ValueError):
            u.values[2] = 3.0

    def test_arithmetic_preserves_trace(self):
        mesh = make_mesh(0.0, 1.0, 8)
        u = hat(mesh)
        w = 2.0 * u - u + (-u)
        assert w.values[0] == 0.0 and w.values[-1] == 0.0

    def test_weight_rejects_zero(self):
        mesh = make_mesh(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            weight_fn(mesh, np.zeros(5))

    def test_weight_gauss_values_computed_once_and_frozen(self):
        mesh = make_mesh(0.0, 1.0, 8)
        a = weight_fn(mesh, np.linspace(-1.0, 2.0, 9))
        assert a.gauss is a.gauss
        assert a.gauss.shape == (2, mesh.n_cells)
        assert np.array_equal(a.gauss, gauss_values(a.values))
        with pytest.raises(ValueError):
            a.gauss[0, 0] = 0.0
        with pytest.raises(ValueError):
            a.gauss[1, -1] = 0.0


# The three P1 integrals of functionals.P1Energy against closed forms.


class TestGradSeminorm:
    def test_hat_p2(self):
        assert grad_term(hat(make_mesh(0.0, 1.0, 8)), 2.0) == pytest.approx(4.0)

    def test_hat_p3(self):
        assert grad_term(hat(make_mesh(0.0, 1.0, 8)), 3.0) == pytest.approx(8.0)

    def test_zero_function(self):
        mesh = make_mesh(0.0, 1.0, 8)
        assert grad_term(grid_fn(mesh, np.zeros(9)), 2.5) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        c=st.floats(-8.0, 8.0, allow_nan=False).filter(lambda t: abs(t) > 1e-3),
        p=st.floats(1.1, 6.0),
    )
    def test_p_homogeneity(self, c, p):
        mesh = make_mesh(0.0, 1.0, 16)
        rng = np.random.default_rng(42)
        vals = np.zeros(17)
        vals[1:-1] = rng.normal(size=15)
        u = grid_fn(mesh, vals)
        lhs = grad_term(c * u, p)
        rhs = abs(c) ** p * grad_term(u, p)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestIntegralAbsP:
    def test_hat_analytic(self):
        # int_0^1 hat^p = 1/(p+1); quadrature exact for integer p <= 3
        u = hat(make_mesh(0.0, 1.0, 512))
        assert mass(u, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert mass(u, 3.0) == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_zero(self):
        mesh = make_mesh(0.0, 1.0, 8)
        assert mass(grid_fn(mesh, np.zeros(9)), 2.0) == 0.0

    def test_scaling_p_homogeneous(self):
        u = hat(make_mesh(0.0, 1.0, 32))
        for p in (1.5, 2.0, 3.7):
            assert mass(2.0 * u, p) == pytest.approx(2.0**p * mass(u, p), rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_quadrature_convergence_rate(self, p):
        # against the analytic hat integral: error drops at least like h^2
        exact = 1.0 / (p + 1.0)
        errs = []
        for n in (16, 32, 64, 128):
            err = abs(mass(hat(make_mesh(0.0, 1.0, n)), p) - exact)
            errs.append(max(err, 1e-17))
        for k in range(len(errs) - 1):
            assert errs[k + 1] <= errs[k] / 3.5 + 1e-15


class TestWeightedIntegral:
    def test_reduces_to_abs_p_for_unit_weight(self):
        mesh = make_mesh(0.0, 1.0, 64)
        u = hat(mesh)
        a = weight_fn(mesh, np.ones(mesh.n_nodes))
        for q in (1.5, 2.0, 2.5):
            assert weight_term(u, a, q) == pytest.approx(mass(u, q), rel=1e-14)

    def test_positive_part_of_nonpositive_is_zero(self):
        # the truncated weight term of -hat
        mesh = make_mesh(0.0, 1.0, 16)
        u = -1.0 * hat(mesh)
        a = weight_fn(mesh, np.ones(mesh.n_nodes))
        assert weight_term(u, a, 2.0, truncated=True) == 0.0

    def test_odd_weight_even_function(self):
        mesh = make_mesh(0.0, 1.0, 256)
        u = hat(mesh)  # even about 1/2
        a = weight_fn(mesh, np.sin(2.0 * np.pi * mesh.nodes))  # odd about 1/2
        assert abs(weight_term(u, a, 2.0)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.01, 10.0), q=st.floats(1.1, 4.0))
    def test_q_homogeneity_positive_scale(self, c, q):
        mesh = make_mesh(0.0, 1.0, 16)
        rng = np.random.default_rng(3)
        vals = np.zeros(17)
        vals[1:-1] = rng.normal(size=15)
        u = grid_fn(mesh, vals)
        a = weight_fn(mesh, rng.normal(size=17))
        assert weight_term(c * u, a, q) == pytest.approx(
            c**q * weight_term(u, a, q), rel=1e-12, abs=1e-15
        )


class TestSignPartition:
    def test_one_sign_change(self):
        mesh = make_mesh(0.0, 1.0, 64)
        a = weight_fn(mesh, np.sin(2.0 * np.pi * mesh.nodes))
        part = sign_partition(a)
        assert len(part.plus_components) == 1
        assert len(part.minus_components) == 1

    def test_interior_constant_positive(self):
        mesh = make_mesh(0.0, 1.0, 16)
        vals = np.ones(17)
        a = weight_fn(mesh, vals)
        part = sign_partition(a)
        assert part.plus_components == ((1, 15),)
        assert part.minus_components == ()

    def test_partition_covers_interior(self):
        # the components are disjoint and cover exactly the interior nodes where a != 0
        mesh = make_mesh(0.0, 1.0, 128)
        rng = np.random.default_rng(5)
        vals = rng.normal(size=mesh.n_nodes)
        vals[rng.choice(mesh.n_nodes, size=20, replace=False)] = 0.0
        a = weight_fn(mesh, vals)
        part = sign_partition(a)
        covered = set()
        for i0, i1 in part.plus_components + part.minus_components:
            span = set(range(i0, i1 + 1))
            assert not (covered & span)  # disjoint
            covered |= span
        assert covered == {i for i in range(1, mesh.n_nodes - 1) if vals[i] != 0.0}

    @staticmethod
    def _matches_the_loop(vals):
        part = sign_partition(weight_fn(make_mesh(0.0, 1.0, vals.size - 1), vals))
        got = (part.plus_components, part.minus_components)
        assert got == sign_partition_loop(vals), vals
        assert all(type(i) is int for runs in got for run in runs for i in run)

    def test_random_weights_with_zeros_match_the_loop(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            vals = rng.normal(size=n + 1)
            vals[rng.random(n + 1) < rng.uniform(0.0, 0.6)] = 0.0
            self._matches_the_loop(vals)

    @pytest.mark.parametrize(
        "vals",
        [
            [0.0, 1.0, -1.0, 1.0, 0.0, -2.0, 0.0],  # single-node runs
            [-3.0, 1.0, 1.0, 0.0, -1.0, -1.0, 5.0],  # runs touching nodes 1 and n-1, boundary of the other sign
            [0.0, 2.0, 0.0, 0.0, 0.0, -2.0, 0.0],
            [1.0, 2.0, 3.0, 4.0, 5.0],  # one sign
            [-1.0, -2.0, -3.0, -4.0, -5.0],
            [2.0, 0.0, 0.0, -2.0],  # interior all zero
            [0.0, 1.0, 0.0],  # n_cells = 2
            [1.0, -1.0, 1.0],
            [-1.0, 0.0, -1.0],
        ],
    )
    def test_edge_cases_match_the_loop(self, vals):
        self._matches_the_loop(np.array(vals))


class TestSmoothNoise:
    @pytest.mark.parametrize("n", [2, 256])
    def test_matches_the_sine_sum_bit_for_bit(self, n):
        mesh = make_mesh(0.5, 2.0, n)
        for seed in range(50):
            got = smooth_noise(mesh, np.random.default_rng(seed))
            want = smooth_noise_reference(mesh.nodes, mesh.x_lo, mesh.x_hi, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), seed


class TestBracketedRoot:
    """_bracketed_root returns the float of the plain bisection for a value monotone in floating point."""

    @pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, -2.5, 1e-9, 7.0e5])
    def test_cubic_lands_on_the_bisection_float(self, root):
        def value(x):
            return (x - root) ** 3 + (x - root)

        def slope(x):
            return 3.0 * (x - root) ** 2 + 1.0

        for lo, hi in ((-10.0, 10.0), (root - 1.0, root + 3.0), (-1e6, 1e6)):
            assert _bracketed_root(value, slope, lo, hi) == bisect_to_adjacent(value, lo, hi)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_unusable_slope_falls_back_to_the_midpoint(self, bad):
        def value(x):
            return x - 0.1

        assert _bracketed_root(value, lambda x: bad, 0.0, 1.0) == bisect_to_adjacent(value, 0.0, 1.0)

    def test_plateaus_and_a_root_outside_the_bracket(self):
        # a float-level plateau around the root, where the value reads 0 over
        # many ulps, and roots beyond either end, where one endpoint is never
        # probed: each ends on the bisection's adjacent pair
        def value(x):
            return np.floor(1e12 * (x - 0.7)) * 1e-12

        def slope(x):
            return 1.0

        for lo, hi in ((0.0, 1.0), (0.75, 2.0), (-3.0, 0.5), (0.7, 0.7)):
            assert _bracketed_root(value, slope, lo, hi) == bisect_to_adjacent(value, lo, hi)

    @pytest.mark.parametrize("end", [0.3, 0.3 + 1e-13, 0.0, 1.0, 0.9999, -4.0, 1e3, 5e-324])
    def test_closing_from_any_finite_guess_lands_on_the_bisection_float(self, end):
        # the probes around end narrow by sign only, so a guess changes the
        # count of probes, never the float
        def value(x):
            return (x - 0.3) ** 3 + 1e-3 * (x - 0.3)

        assert _close_bracket(value, 0.0, 1.0, end) == bisect_to_adjacent(value, 0.0, 1.0)

    def test_probes_far_fewer_than_bisection(self):
        counts = {"newton": 0, "bisect": 0}

        def counted(key):
            def value(x):
                counts[key] += 1
                return np.tanh(x - 0.123456789)

            return value

        def slope(x):
            return 1.0 - np.tanh(x - 0.123456789) ** 2

        assert _bracketed_root(counted("newton"), slope, -5.0, 5.0) == bisect_to_adjacent(counted("bisect"), -5.0, 5.0)
        assert counts["bisect"] > 50
        assert counts["newton"] <= 8, counts

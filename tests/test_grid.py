import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.grid import (
    GridFn,
    Weight,
    gauss_values,
    grad_seminorm_p,
    grid_fn,
    integral_abs_p,
    make_mesh,
    sign_partition,
    weight_fn,
    weighted_integral_q,
)


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
        a1, a2 = a.gauss
        assert a.gauss[0] is a1 and a.gauss[1] is a2
        g1, g2 = gauss_values(a.values)
        assert np.array_equal(a1, g1) and np.array_equal(a2, g2)
        with pytest.raises(ValueError):
            a1[0] = 0.0


class TestGradSeminorm:
    def test_hat_p2(self):
        assert grad_seminorm_p(hat(make_mesh(0.0, 1.0, 8)), 2.0) == pytest.approx(4.0)

    def test_hat_p3(self):
        assert grad_seminorm_p(hat(make_mesh(0.0, 1.0, 8)), 3.0) == pytest.approx(8.0)

    def test_zero_function(self):
        mesh = make_mesh(0.0, 1.0, 8)
        assert grad_seminorm_p(grid_fn(mesh, np.zeros(9)), 2.5) == 0.0

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
        lhs = grad_seminorm_p(c * u, p)
        rhs = abs(c) ** p * grad_seminorm_p(u, p)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestIntegralAbsP:
    def test_hat_analytic(self):
        # int_0^1 hat^p = 1/(p+1); quadrature exact for integer p <= 3
        u = hat(make_mesh(0.0, 1.0, 512))
        assert integral_abs_p(u, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert integral_abs_p(u, 3.0) == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_zero(self):
        mesh = make_mesh(0.0, 1.0, 8)
        assert integral_abs_p(grid_fn(mesh, np.zeros(9)), 2.0) == 0.0

    def test_scaling_p_homogeneous(self):
        u = hat(make_mesh(0.0, 1.0, 32))
        for p in (1.5, 2.0, 3.7):
            assert integral_abs_p(2.0 * u, p) == pytest.approx(2.0**p * integral_abs_p(u, p), rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_quadrature_convergence_rate(self, p):
        # against the analytic hat integral: error drops at least like h^2
        exact = 1.0 / (p + 1.0)
        errs = []
        for n in (16, 32, 64, 128):
            err = abs(integral_abs_p(hat(make_mesh(0.0, 1.0, n)), p) - exact)
            errs.append(max(err, 1e-17))
        for k in range(len(errs) - 1):
            assert errs[k + 1] <= errs[k] / 3.5 + 1e-15


class TestWeightedIntegral:
    def test_reduces_to_abs_p_for_unit_weight(self):
        mesh = make_mesh(0.0, 1.0, 64)
        u = hat(mesh)
        a = weight_fn(mesh, np.ones(mesh.n_nodes))
        for q in (1.5, 2.0, 2.5):
            assert weighted_integral_q(u, a, q) == pytest.approx(integral_abs_p(u, q), rel=1e-14)

    def test_positive_part_of_nonpositive_is_zero(self):
        mesh = make_mesh(0.0, 1.0, 16)
        u = -1.0 * hat(mesh)
        a = weight_fn(mesh, np.ones(mesh.n_nodes))
        assert weighted_integral_q(u, a, 2.0, positive_part=True) == 0.0

    def test_odd_weight_even_function(self):
        mesh = make_mesh(0.0, 1.0, 256)
        u = hat(mesh)  # even about 1/2
        a = weight_fn(mesh, np.sin(2.0 * np.pi * mesh.nodes))  # odd about 1/2
        assert abs(weighted_integral_q(u, a, 2.0)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.01, 10.0), q=st.floats(1.1, 4.0))
    def test_q_homogeneity_positive_scale(self, c, q):
        mesh = make_mesh(0.0, 1.0, 16)
        rng = np.random.default_rng(3)
        vals = np.zeros(17)
        vals[1:-1] = rng.normal(size=15)
        u = grid_fn(mesh, vals)
        a = weight_fn(mesh, rng.normal(size=17))
        assert weighted_integral_q(c * u, a, q) == pytest.approx(
            c**q * weighted_integral_q(u, a, q), rel=1e-12, abs=1e-15
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

    def test_large_threshold_moves_all_to_zero_set(self):
        mesh = make_mesh(0.0, 1.0, 16)
        a = weight_fn(mesh, np.sin(2.0 * np.pi * mesh.nodes))
        part = sign_partition(a, threshold=2.0)
        assert part.plus_components == () and part.minus_components == ()
        assert len(part.zero_set) == 15

    def test_partition_covers_interior(self):
        mesh = make_mesh(0.0, 1.0, 128)
        rng = np.random.default_rng(5)
        a = weight_fn(mesh, rng.normal(size=mesh.n_nodes))
        part = sign_partition(a)
        covered = set(part.zero_set)
        for i0, i1 in part.plus_components + part.minus_components:
            span = set(range(i0, i1 + 1))
            assert not (covered & span)  # disjoint
            covered |= span
        assert covered == set(range(1, mesh.n_nodes - 1))

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from plaplab.errors import WeightError
from plaplab.eigen import _stiffness_preconditioner, first_eigenpair, orthogonalize_weight, pairing, rayleigh
from plaplab.grid import grad_seminorm_p, grid_fn, integral_abs_p, make_mesh, weight_fn

from oracles import closed_form_lambda1, shooting_lambda1


def sine_fn(mesh, power=1.0):
    vals = np.sin(np.pi * (mesh.nodes - mesh.x_lo) / (mesh.x_hi - mesh.x_lo)) ** power
    vals[0] = vals[-1] = 0.0  # sin(pi) float dust
    return grid_fn(mesh, vals)


def test_rayleigh_sine_p2():
    mesh = make_mesh(0.0, 1.0, 1024)
    u = sine_fn(mesh)
    assert rayleigh(u, 2.0) == pytest.approx(np.pi**2, rel=1e-3)


def test_rayleigh_scale_invariance():
    mesh = make_mesh(0.0, 1.0, 64)
    u = sine_fn(mesh)
    r = rayleigh(u, 2.5)
    for c in (-3.0, 0.25, 7.0):
        assert rayleigh(c * u, 2.5) == pytest.approx(r, rel=1e-13)


def test_rayleigh_hat_exceeds_lambda1():
    mesh = make_mesh(0.0, 1.0, 512)
    vals = 2.0 * np.minimum(mesh.nodes, 1.0 - mesh.nodes)
    u = grid_fn(mesh, vals)
    assert rayleigh(u, 2.0) == pytest.approx(12.0, rel=1e-10)
    assert rayleigh(u, 2.0) >= np.pi**2


def test_rayleigh_rejects_zero():
    mesh = make_mesh(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        rayleigh(grid_fn(mesh, np.zeros(17)), 2.0)


class TestFirstEigenpair:
    def test_p2_against_pi_squared(self):
        mesh = make_mesh(0.0, 1.0, 1024)
        pair = first_eigenpair(mesh, 2.0)
        assert pair.lambda1 == pytest.approx(np.pi**2, rel=1e-3)

    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
    def test_against_shooting_oracle(self, p):
        mesh = make_mesh(0.0, 1.0, 1024)
        pair = first_eigenpair(mesh, p)
        oracle = shooting_lambda1(p)
        assert pair.lambda1 == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
    def test_closed_form_error_and_observed_order(self, p):
        # P1 converges at O(h^2): the relative error is below 10 h^2 on each
        # mesh and halves twice per halving of h
        exact = closed_form_lambda1(p)
        errs = []
        for n in (256, 512, 1024):
            pair = first_eigenpair(make_mesh(0.0, 1.0, n), p)
            errs.append(abs(pair.lambda1 - exact) / exact)
            assert errs[-1] <= 10.0 / n**2
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.75 <= np.log2(coarse / fine) <= 2.25

    def test_normalization(self):
        mesh = make_mesh(0.0, 1.0, 512)
        for p in (1.5, 2.0, 3.0):
            pair = first_eigenpair(mesh, p)
            assert abs(grad_seminorm_p(pair.phi, p) - 1.0) < 1e-10

    def test_positivity(self):
        pair = first_eigenpair(make_mesh(0.0, 1.0, 256), 3.0)
        assert np.all(pair.phi.values[1:-1] > 0.0)

    def test_rayleigh_quotient_consistency(self):
        pair = first_eigenpair(make_mesh(0.0, 1.0, 256), 2.5)
        assert rayleigh(pair.phi, 2.5) == pytest.approx(pair.lambda1, rel=1e-12)

    def test_domain_rescaling(self):
        # lambda1 on (0, L) = lambda1 on (0, 1) / L^p
        p = 3.0
        lam_unit = first_eigenpair(make_mesh(0.0, 1.0, 512), p).lambda1
        lam_l = first_eigenpair(make_mesh(0.0, 2.0, 512), p).lambda1
        assert lam_l == pytest.approx(lam_unit / 2.0**p, rel=1e-6)

    def test_multistart_agreement(self):
        mesh = make_mesh(0.0, 1.0, 128)
        p = 3.0
        tol = 1e-9
        ref = first_eigenpair(mesh, p, tol)
        rng = np.random.default_rng(0)
        for k in range(10):
            vals = np.zeros(mesh.n_nodes)
            vals[1:-1] = 0.5 + rng.random(mesh.n_nodes - 2)
            start = grid_fn(mesh, vals)
            pair = first_eigenpair(mesh, p, tol, start=start)
            assert abs(pair.lambda1 - ref.lambda1) <= 2.0 * tol * max(1.0, ref.lambda1)
            diff = np.max(np.abs(pair.phi.values - ref.phi.values))
            assert diff < 1e-6

    def test_minimality_over_random_functions(self):
        mesh = make_mesh(0.0, 1.0, 128)
        p = 2.5
        lam1 = first_eigenpair(mesh, p).lambda1
        rng = np.random.default_rng(1)
        for _ in range(1000):
            vals = np.zeros(mesh.n_nodes)
            vals[1:-1] = rng.normal(size=mesh.n_nodes - 2)
            assert rayleigh(grid_fn(mesh, vals), p) >= lam1 - 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_mesh_convergence_monotone(self, p):
        lams = [first_eigenpair(make_mesh(0.0, 1.0, n), p).lambda1 for n in (64, 128, 256, 512, 1024)]
        diffs = [abs(lams[i] - lams[i + 1]) for i in range(len(lams) - 1)]
        for k in range(len(diffs) - 1):
            assert diffs[k + 1] < diffs[k]


class TestPairing:
    def test_sign_constant_weights(self, mesh256):
        pair = first_eigenpair(mesh256, 2.0)
        ones = weight_fn(mesh256, np.ones(mesh256.n_nodes))
        assert pairing(ones, pair, 1.5) > 0
        neg = weight_fn(mesh256, -np.ones(mesh256.n_nodes))
        assert pairing(neg, pair, 1.5) < 0


class TestOrthogonalize:
    def test_orthogonalized_pairing_vanishes(self, mesh256):
        pair = first_eigenpair(mesh256, 3.0)
        rng = np.random.default_rng(2)
        raw = weight_fn(mesh256, 1.0 + 0.5 * rng.normal(size=mesh256.n_nodes))
        a = orthogonalize_weight(raw, pair, 2.0)
        scale = a.linf() * integral_abs_p(pair.phi, 2.0)
        assert abs(pairing(a, pair, 2.0)) < 1e-12 * max(scale, 1.0)
        assert a.is_sign_changing()

    def test_constant_weight_degenerates(self, mesh256):
        pair = first_eigenpair(mesh256, 2.0)
        const = weight_fn(mesh256, np.ones(mesh256.n_nodes))
        with pytest.raises(WeightError):
            orthogonalize_weight(const, pair, 1.5)

    def test_idempotent(self, mesh256):
        pair = first_eigenpair(mesh256, 3.0)
        rng = np.random.default_rng(3)
        raw = weight_fn(mesh256, 1.0 + 0.5 * rng.normal(size=mesh256.n_nodes))
        a1 = orthogonalize_weight(raw, pair, 2.0)
        a2 = orthogonalize_weight(a1, pair, 2.0)
        assert np.max(np.abs(a1.values - a2.values)) < 1e-12 * a1.linf()


@pytest.mark.parametrize("n", [256, 4096])
def test_factored_preconditioner_matches_solveh_banded_bit_for_bit(n):
    mesh = make_mesh(0.0, 1.0, n)
    apply = _stiffness_preconditioner(mesh)
    ab = np.zeros((2, n - 1))
    ab[1, :] = 2.0 / mesh.h
    ab[0, 1:] = -1.0 / mesh.h
    rng = np.random.default_rng(n)
    for _ in range(20):
        r = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.uniform(-8.0, 8.0)
        z = apply(r)
        assert z[0] == 0.0 and z[-1] == 0.0
        assert np.array_equal(z[1:-1], solveh_banded(ab, r[1:-1]))

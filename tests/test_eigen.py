import numpy as np
import pytest

from plaplab import eigen, functionals
from plaplab.errors import NonConvergenceError, WeightError
from plaplab.eigen import _solve_dg, first_eigenpair, orthogonalize_weight, pairing, rayleigh
from plaplab.functionals import P1Energy
from plaplab.grid import grid_fn, make_mesh, weight_fn

from oracles import bisection_root_finder, closed_form_lambda1, inverse_iteration_reference, shooting_lambda1


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
    with pytest.raises(ValueError, match="zero function"):
        rayleigh(grid_fn(mesh, np.zeros(17)), 2.0)


def test_rayleigh_rejects_p_at_most_one():
    with pytest.raises(ValueError, match="exponent must exceed 1"):
        rayleigh(sine_fn(make_mesh(0.0, 1.0, 16)), 1.0)


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

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 5.0])
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

    def test_step_cap_names_the_last_step(self, monkeypatch):
        monkeypatch.setattr(eigen, "_MAX_STEPS", 2)
        with pytest.raises(NonConvergenceError, match="after 2 inverse-iteration steps.*last relative step="):
            first_eigenpair(make_mesh(0.0, 1.0, 32), 2.2)

    def test_normalization(self):
        mesh = make_mesh(0.0, 1.0, 512)
        for p in (1.5, 2.0, 3.0):
            pair = first_eigenpair(mesh, p)
            assert abs(P1Energy(mesh, p)(pair.phi.values).grad_term - 1.0) < 1e-10

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

    def test_cache_key_normalizes_the_arguments(self):
        # an int p and a float p reach the same cached pair
        mesh = make_mesh(0.0, 1.0, 96)
        assert first_eigenpair(mesh, 3) is first_eigenpair(mesh, 3.0)

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
        scale = a.linf() * P1Energy(mesh256, 2.0)(pair.phi.values).mass
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


def _zigzag(mesh, rng):
    """A random Dirichlet function whose slopes stay away from zero.

    Near a zero slope (or flux) the slope-flux map |F|^(1/(p-1)) or its
    inverse has an infinite derivative, so one rounding error of the
    largest flux moves a small slope by far more than 1e-10 relative, in
    any floating-point solve: on white-noise w, S(dg(w)) is off by up to
    1e-4 in sup at p = 5 and dg(S(b)) by up to 2e-4 at p = 1.25. Slopes
    of random sign and magnitude in [0.5, 1.5] h keep both directions
    well conditioned.
    """
    n = mesh.n_cells
    du = rng.uniform(0.5, 1.5, n) * mesh.h
    down = rng.permutation(n)[: n // 2]
    du[down] *= -du.sum() / du[down].sum() + 1.0  # the slopes now sum to zero
    w = np.zeros(mesh.n_nodes)
    np.cumsum(du[:-1], out=w[1:-1])
    return w


class TestExactSolve:
    """_solve_dg inverts dg, the gradient of int |w'|^p, on Dirichlet functions."""

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 5.0])
    def test_solve_of_dg_returns_w(self, p):
        mesh = make_mesh(0.0, 1.0, 256)
        rng = np.random.default_rng(int(4 * p))
        for _ in range(5):
            w = _zigzag(mesh, rng)
            dg, _ = P1Energy(mesh, p)(w).gradients()
            back = _solve_dg(mesh, p, dg)
            assert back[0] == 0.0 and back[-1] == 0.0
            assert np.max(np.abs(back - w)) <= 1e-10 * np.max(np.abs(w))

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 5.0])
    def test_dg_of_solve_returns_b(self, p):
        mesh = make_mesh(0.0, 2.0, 256)
        rng = np.random.default_rng(int(4 * p) + 1)
        energy = P1Energy(mesh, p)
        for _ in range(5):
            b, _ = energy(_zigzag(mesh, rng)).gradients()
            b = np.array(b)
            b[0], b[-1] = rng.normal(size=2)  # ignored by the solve
            w = _solve_dg(mesh, p, b)
            dg, _ = energy(w).gradients()
            assert np.max(np.abs(dg[1:-1] - b[1:-1])) <= 1e-10 * np.max(np.abs(b[1:-1]))


def _random_rhs(count=400, seed=2026):
    """Seeded (p, mesh, b) for the solve: b of mixed sign, of one sign, half
    zero (flat stretches of the partial sums c) and integer-rounded (ties
    in c), scaled over six decades, p from 1.1 to 8, n from 8 to 4096."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = float(rng.uniform(1.1, 8.0))
        n = int(rng.integers(8, 4097))
        b = rng.normal(size=n + 1)
        if i % 4 == 1:
            b = np.abs(b)
        elif i % 4 == 2:
            b[rng.random(n + 1) < 0.5] = 0.0
        elif i % 4 == 3:
            b = np.round(3.0 * b)
        b *= 10.0 ** rng.uniform(-3.0, 3.0)
        yield p, make_mesh(0.0, float(rng.uniform(0.5, 3.0)), n), b


class TestRootMatchesBisection:
    """The Newton root of the solve is the float the plain bisection returns (oracles.bisect_to_adjacent)."""

    def test_eigenpair_ladder_byte_identical(self, monkeypatch):
        def ladder():
            monkeypatch.setattr(eigen, "_cache", {})
            out = []
            for p in (1.25, 1.5, 2.0, 3.0, 5.0):
                for n in (64, 128, 256, 512, 1024, 2048, 4096):
                    pair = first_eigenpair(make_mesh(0.0, 1.0, n), p)
                    out.append((p, n, pair.lambda1, pair.phi.values.tobytes(), pair.residual_sup, pair.iterations))
            return out

        newton = ladder()
        monkeypatch.setattr(eigen, "_bracketed_root", bisection_root_finder)
        assert newton == ladder()

    def test_random_right_hand_sides_byte_identical(self, monkeypatch):
        cases = list(_random_rhs())
        newton = [_solve_dg(mesh, p, b).tobytes() for p, mesh, b in cases]
        monkeypatch.setattr(eigen, "_bracketed_root", bisection_root_finder)
        bisected = [_solve_dg(mesh, p, b).tobytes() for p, mesh, b in cases]
        assert sum(x != y for x, y in zip(newton, bisected)) == 0

    def test_infinite_slope_at_the_first_probe(self, monkeypatch):
        # p = 3: the slope e * sum |F_0 - c_k|^(e - 1) has e - 1 = -1/2, and
        # the first probe, the midpoint of [min c, max c] = [0, 2], is c_1 = 1.
        # The slope is inf there without a RuntimeWarning (an error in this
        # suite), and the probe falls back to the midpoint.
        mesh = make_mesh(0.0, 1.0, 3)
        b = np.array([0.0, 1.0, 1.0, 0.0])
        real = eigen._bracketed_root
        first_slopes = []

        def spy(value, slope, lo, hi):
            first_slopes.append(slope(0.5 * (lo + hi)))
            return real(value, slope, lo, hi)

        monkeypatch.setattr(eigen, "_bracketed_root", spy)
        w = _solve_dg(mesh, 3.0, b)
        assert first_slopes == [np.inf]
        monkeypatch.setattr(eigen, "_bracketed_root", bisection_root_finder)
        assert w.tobytes() == _solve_dg(mesh, 3.0, b).tobytes()


def test_p15_ladder_end_value_gate(monkeypatch):
    # the bisection took 2 684 end-value passes for the 50 roots of this
    # ladder (about 54 per root); the Newton root takes 183
    counter = {"passes": 0}
    real = eigen._bracketed_root

    def counting(value, slope, lo, hi):
        def counted(x):
            counter["passes"] += 1
            return value(x)

        return real(counted, slope, lo, hi)

    monkeypatch.setattr(eigen, "_bracketed_root", counting)
    monkeypatch.setattr(eigen, "_cache", {})
    steps = sum(first_eigenpair(make_mesh(0.0, 1.0, n), 1.5).iterations for n in (256, 512, 1024, 2048, 4096))
    assert steps == 50
    assert counter["passes"] <= 250, counter


def test_eigenpair_ladder_matches_the_full_point_iteration(monkeypatch):
    # each step reads dm alone (P1Energy.mass_gradient); the oracle reads it
    # from a full EnergyPoint, as the iteration once did
    monkeypatch.setattr(eigen, "_cache", {})
    for p in (1.25, 1.5, 2.0, 3.0, 5.0):
        for n in (64, 128, 256, 512, 1024, 2048, 4096):
            mesh = make_mesh(0.0, 1.0, n)
            pair = first_eigenpair(mesh, p)
            lam, phi, residual, steps = inverse_iteration_reference(P1Energy(mesh, p), _solve_dg)
            got = (pair.lambda1, pair.phi.values.tobytes(), pair.residual_sup, pair.iterations)
            assert got == (lam, phi.tobytes(), residual, steps), (p, n)


def test_p15_ladder_builds_one_energy_point_per_rung(monkeypatch):
    # the 50 steps read dm alone; only each rung's final point, where lambda1
    # and residual_sup are read, is a full EnergyPoint (55 when every step built one)
    built = []
    real = functionals.EnergyPoint.__init__

    def counting(self, kernel, v):
        built.append(v.size)
        real(self, kernel, v)

    monkeypatch.setattr(functionals.EnergyPoint, "__init__", counting)
    monkeypatch.setattr(eigen, "_cache", {})
    steps = sum(first_eigenpair(make_mesh(0.0, 1.0, n), 1.5).iterations for n in (256, 512, 1024, 2048, 4096))
    assert steps == 50
    assert built == [257, 513, 1025, 2049, 4097]


def test_p15_ladder_iteration_gate():
    # the inverse iteration's step count does not grow with the mesh
    for n in (256, 512, 1024, 2048, 4096):
        pair = first_eigenpair(make_mesh(0.0, 1.0, n), 1.5)
        assert pair.iterations <= 15, (n, pair.iterations)


def test_large_p_fine_mesh_normalizes_past_underflow():
    # slopes ~1e-7 to the 50th power sum to 0 in double precision: normalize
    # rescales by the largest slope instead of refusing the iterate
    mesh = make_mesh(0.0, 1.0, 4096)
    pair = first_eigenpair(mesh, 50.0)
    assert pair.lambda1 == pytest.approx(closed_form_lambda1(50.0), rel=1e-5)
    assert np.all(pair.phi.values[1:-1] > 0.0)
    assert P1Energy(mesh, 50.0)(pair.phi.values).grad_term == pytest.approx(1.0, rel=1e-12)


def test_normalize_is_unchanged_where_the_power_sum_is_finite():
    mesh = make_mesh(0.0, 1.0, 64)
    energy = P1Energy(mesh, 3.0)
    v = np.sin(np.pi * mesh.nodes)
    v[0] = v[-1] = 0.0
    g = float((np.abs(np.diff(v)) ** 3.0).sum()) / energy.h_scale
    assert energy.normalize(v).tobytes() == (v / g ** (1.0 / 3.0)).tobytes()
    with pytest.raises(ValueError):
        energy.normalize(np.zeros(mesh.n_nodes))

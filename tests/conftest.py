import numpy as np
import pytest

from plaplab.eigen import first_eigenpair
from plaplab.functionals import ProblemSpec
from plaplab.grid import grid_fn, make_mesh
from plaplab.presets import TwoBumpParams, orthogonal_two_bump, two_bump
from plaplab.solvers import minimizer_set_at_star


@pytest.fixture(scope="session")
def mesh256():
    return make_mesh(0.0, 1.0, 256)


@pytest.fixture(scope="session")
def mesh512():
    return make_mesh(0.0, 1.0, 512)


def random_gridfn(mesh, rng, scale=1.0):
    vals = np.zeros(mesh.n_nodes)
    vals[1:-1] = scale * rng.normal(size=mesh.n_nodes - 2)
    return grid_fn(mesh, vals)


@pytest.fixture(scope="session")
def neg_pairing_problem(mesh256):
    """Default two-bump weight: strongly negative pairing, p=3, q=2."""
    a = two_bump(mesh256)
    pair = first_eigenpair(mesh256, 3.0)
    return ProblemSpec(3.0, 2.0, 0.0, a, mesh256), pair


@pytest.fixture(scope="session")
def pos_pairing_problem(mesh256):
    """Wide positive bump, narrow negative bump: positive pairing, p=3, q=2."""
    prm = TwoBumpParams(
        amp_plus=60.0, center_plus=0.45, width_plus=0.25, amp_minus=20.0, center_minus=0.85, width_minus=0.12
    )
    pair = first_eigenpair(mesh256, 3.0)
    return ProblemSpec(3.0, 2.0, 0.0, two_bump(mesh256, prm), mesh256), pair


@pytest.fixture(scope="session")
def zero_pairing_p5_problem(mesh256):
    """Orthogonalized weight at p=5, q=2 (the p > 2q showcase regime)."""
    a = orthogonal_two_bump(mesh256, 5.0, 2.0)
    pair = first_eigenpair(mesh256, 5.0)
    return ProblemSpec(5.0, 2.0, 0.0, a, mesh256), pair


@pytest.fixture(scope="session")
def kset_p5(zero_pairing_p5_problem):
    """Minimizer set at the threshold for the p=5 regime (shared: expensive)."""
    spec0, pair = zero_pairing_p5_problem
    return minimizer_set_at_star(
        spec0.with_lambda(pair.lambda1), sample_count=3, tol=1e-8, seed=3
    )

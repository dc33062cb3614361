"""Desk-scale numerical laboratory for the 1D indefinite subhomogeneous
p-Laplacian Dirichlet problem: energy and Nehari structure, first
eigenpair, critical parameter values, ground-state and saddle solvers,
continuation past the threshold, and Picone-based nonexistence
certificates, plus a sweep/diagram command line."""

from .critical import (
    CriticalValues,
    PiconeReport,
    compute_critical_values,
    nonexistence_bound,
    picone_certificate,
    picone_condition,
    picone_conditions,
    region_classify,
)
from .eigen import EigenPair, first_eigenpair, orthogonalize_weight, pairing, rayleigh
from .errors import (
    AttainabilityError,
    ConfigError,
    EmptyConeError,
    FiberUndefinedError,
    MeshMismatchError,
    NonConvergenceError,
    PlapLabError,
    SolverError,
    WeightError,
)
from .functionals import (
    EnergyBreakdown,
    ProblemSpec,
    evaluate,
    fiber_scale,
    fibered_J,
    gradient_I,
    nehari_project,
)
from .grid import (
    GridFn,
    Mesh,
    SignPartition,
    Weight,
    grid_fn,
    make_mesh,
    sign_partition,
    weight_fn,
)
from .solvers import (
    MinimizerSet,
    PathState,
    SolveReport,
    classify,
    ground_state,
    local_min_continuation,
    m_minus,
    minimizer_set_at_star,
    morse_index,
    mountain_pass,
)

__version__ = "0.1.0"

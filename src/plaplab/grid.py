"""1D uniform mesh, discrete Dirichlet functions, and quadrature.

Discretization: conforming P1 (piecewise-linear) elements on a uniform
mesh. Gradient integrals are exact (the derivative of the interpolant is
cellwise constant); zero-order nonlinear integrals use composite 2-point
Gauss quadrature per cell applied to the interpolant. Weights are nodal
samples interpolated with the same P1 model, so products like a*|u|^q are
evaluated pointwise at the Gauss nodes.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MeshMismatchError

__all__ = [
    "Mesh",
    "GridFn",
    "Weight",
    "SignPartition",
    "make_mesh",
    "grid_fn",
    "weight_fn",
    "grad_seminorm_p",
    "integral_abs_p",
    "weighted_integral_q",
    "component_bump",
    "smooth_noise",
    "sign_partition",
]

# P1 shape-function values at the two Gauss points of the reference cell.
_T_LO = 0.5 - 0.5 / np.sqrt(3.0)
_T_HI = 0.5 + 0.5 / np.sqrt(3.0)


@dataclass(frozen=True)
class Mesh:
    """Uniform 1D mesh on the open interval (x_lo, x_hi)."""

    x_lo: float
    x_hi: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.x_lo < self.x_hi:
            raise ValueError(f"interval must be increasing, got [{self.x_lo}, {self.x_hi}]")
        if self.n_cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.x_lo, self.x_hi, self.n_nodes)
        x.flags.writeable = False
        return x

    def interior(self) -> slice:
        """Index slice of the interior nodes."""
        return slice(1, self.n_cells)


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GridFn:
    """Nodal values of a discrete H^1_0 function: zero at both boundary nodes."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.mesh.n_nodes:
            raise ValueError(f"expected {self.mesh.n_nodes} nodal values, got shape {vals.shape}")
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ValueError("boundary nodal values must be exactly zero")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")

    def __add__(self, other: "GridFn") -> "GridFn":
        _check_same_mesh(self.mesh, other.mesh)
        return GridFn(self.mesh, self.values + other.values)

    def __sub__(self, other: "GridFn") -> "GridFn":
        _check_same_mesh(self.mesh, other.mesh)
        return GridFn(self.mesh, self.values - other.values)

    def __mul__(self, c: float) -> "GridFn":
        return GridFn(self.mesh, c * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFn":
        return GridFn(self.mesh, -self.values)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class Weight:
    """Nodal samples of a continuous weight; interior sign unconstrained."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.values)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size != self.mesh.n_nodes:
            raise ValueError(f"expected {self.mesh.n_nodes} nodal values, got shape {vals.shape}")
        if not np.any(vals != 0.0):
            raise ValueError("weight must not be identically zero")

    @cached_property
    def gauss(self) -> tuple[np.ndarray, np.ndarray]:
        """Values of the P1 interpolant at the two Gauss points of every cell."""
        a1, a2 = gauss_values(self.values)
        a1.flags.writeable = False
        a2.flags.writeable = False
        return a1, a2

    def is_sign_changing(self) -> bool:
        return bool(np.any(self.values > 0.0) and np.any(self.values < 0.0))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class SignPartition:
    """Maximal interior-node intervals where the weight is above/below a threshold.

    Components are inclusive index pairs (first_node, last_node), ordered and
    disjoint. Nodes with |a| <= threshold form the zero set.
    """

    plus_components: tuple[tuple[int, int], ...]
    minus_components: tuple[tuple[int, int], ...]
    zero_set: tuple[int, ...] = field(default_factory=tuple)


def _check_same_mesh(m1: Mesh, m2: Mesh) -> None:
    if m1 != m2:
        raise MeshMismatchError(f"mesh mismatch: {m1} vs {m2}")


def make_mesh(x_lo: float, x_hi: float, n_cells: int) -> Mesh:
    """Build a uniform mesh with n_cells cells on (x_lo, x_hi)."""
    return Mesh(float(x_lo), float(x_hi), int(n_cells))


def grid_fn(mesh: Mesh, values) -> GridFn:
    """Wrap nodal values as a GridFn (boundary entries must already be zero)."""
    return GridFn(mesh, np.asarray(values, dtype=float))


def weight_fn(mesh: Mesh, values) -> Weight:
    return Weight(mesh, np.asarray(values, dtype=float))


def gauss_values(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the P1 interpolant at the two Gauss points of every cell."""
    left = vals[:-1]
    right = vals[1:]
    g1 = _T_HI * left + _T_LO * right
    g2 = _T_LO * left + _T_HI * right
    return g1, g2


def gauss_integral(mesh: Mesh, f1: np.ndarray, f2: np.ndarray) -> float:
    """Composite 2-point Gauss sum of per-cell integrand samples f1, f2 (arrays)."""
    return 0.5 * mesh.h * float(f1.sum() + f2.sum())


def scatter_gauss_gradient(mesh: Mesh, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Assemble nodal partials from per-Gauss-point integrand derivatives.

    d1, d2 are dF/d(value at Gauss point) for the two Gauss points of each
    cell; the chain rule through the P1 shape functions distributes them to
    the two cell nodes. Boundary entries are zeroed (Dirichlet).
    """
    w = 0.5 * mesh.h
    grad = np.zeros(mesh.n_nodes)
    grad[:-1] += w * (_T_HI * d1 + _T_LO * d2)
    grad[1:] += w * (_T_LO * d1 + _T_HI * d2)
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def grad_seminorm_p(u: GridFn, p: float) -> float:
    """Exact integral of |u'|^p for the P1 interpolant.

    The derivative is cellwise constant, so each cell contributes
    h * |du/h|^p = |du|^p / h^(p-1).
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got p={p}")
    du = np.diff(u.values)
    return float(np.sum(np.abs(du) ** p)) / u.mesh.h ** (p - 1.0)


def integral_abs_p(u: GridFn, p: float) -> float:
    """Quadrature value of the integral of |u|^p."""
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got p={p}")
    g1, g2 = gauss_values(u.values)
    return gauss_integral(u.mesh, np.abs(g1) ** p, np.abs(g2) ** p)


def weighted_integral_q(u: GridFn, a: Weight, q: float, positive_part: bool = False) -> float:
    """Quadrature value of the integral of a*|u|^q (or a*max(u,0)^q)."""
    if q <= 1.0:
        raise ValueError(f"exponent must exceed 1, got q={q}")
    _check_same_mesh(u.mesh, a.mesh)
    g1, g2 = gauss_values(u.values)
    a1, a2 = a.gauss
    if positive_part:
        g1 = np.maximum(g1, 0.0)
        g2 = np.maximum(g2, 0.0)
        return gauss_integral(u.mesh, a1 * g1**q, a2 * g2**q)
    return gauss_integral(u.mesh, a1 * np.abs(g1) ** q, a2 * np.abs(g2) ** q)


def cos_bump(mesh: Mesh, center: float, width: float) -> np.ndarray:
    """Nodal values of a compactly supported cosine-squared bump.

    Equals cos(pi*(x-center)/(2*width))^2 on (center-width, center+width)
    and 0 elsewhere; peak value 1 at the center.
    """
    if width <= 0.0:
        raise ValueError("bump width must be positive")
    t = (mesh.nodes - center) / width
    out = np.where(np.abs(t) < 1.0, np.cos(0.5 * np.pi * t) ** 2, 0.0)
    return out


def component_bump(mesh: Mesh, comp: tuple[int, int]) -> np.ndarray:
    """Cosine bump spanning one sign component, widened to its neighboring nodes."""
    i0, i1 = comp
    lo = mesh.nodes[max(i0 - 1, 0)]
    hi = mesh.nodes[min(i1 + 1, mesh.n_nodes - 1)]
    vals = cos_bump(mesh, 0.5 * (lo + hi), 0.5 * (hi - lo))
    vals[0] = vals[-1] = 0.0
    return vals


def smooth_noise(mesh: Mesh, rng: np.random.Generator, modes: int = 6) -> np.ndarray:
    """Random sum of the first sine modes, amplitude of mode k drawn from N(0, 1/k)."""
    x = (mesh.nodes - mesh.x_lo) / (mesh.x_hi - mesh.x_lo)
    out = np.zeros(mesh.n_nodes)
    for k in range(1, modes + 1):
        out += rng.normal(0.0, 1.0 / k) * np.sin(k * np.pi * x)
    out[0] = out[-1] = 0.0  # sin(k*pi) float dust would break the Dirichlet pin
    return out


def sign_partition(a: Weight, threshold: float = 0.0) -> SignPartition:
    """Split the interior nodes by the sign of a relative to a threshold.

    Nodes with a > threshold form the plus components, a < -threshold the
    minus components, and |a| <= threshold the zero set. Components are
    maximal runs of consecutive interior node indices.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    vals = a.values
    n = a.mesh.n_nodes
    plus: list[tuple[int, int]] = []
    minus: list[tuple[int, int]] = []
    zero: list[int] = []

    def runs(mask: np.ndarray) -> list[tuple[int, int]]:
        out = []
        start = None
        for i in range(1, n - 1):
            if mask[i]:
                if start is None:
                    start = i
            elif start is not None:
                out.append((start, i - 1))
                start = None
        if start is not None:
            out.append((start, n - 2))
        return out

    plus = runs(vals > threshold)
    minus = runs(vals < -threshold)
    in_component = np.zeros(n, dtype=bool)
    for i0, i1 in plus + minus:
        in_component[i0 : i1 + 1] = True
    zero = [i for i in range(1, n - 1) if not in_component[i]]
    return SignPartition(tuple(plus), tuple(minus), tuple(zero))

"""1D uniform mesh, discrete Dirichlet functions, and quadrature.

Discretization: conforming P1 (piecewise-linear) elements on a uniform
mesh. Zero-order nonlinear integrals use composite 2-point Gauss
quadrature per cell applied to the interpolant; gauss_values,
gauss_integral, scatter_gauss_gradient and scatter_gauss_hessian are its
primitives. They hold both Gauss points in one (2, n_cells) array: row 0
is the point nearer each cell's left node, row 1 the one nearer its right
node, so a power or product over the integrand is one numpy call for both
points, and a row sum (.sum(axis=1)) adds each point's samples in the
order a 1-D sum would. Weights are nodal samples interpolated with the
same P1 model, so products like a*|u|^q are evaluated pointwise at the
Gauss nodes. The integrals themselves, int |u'|^p (exact: the derivative
of the interpolant is cellwise constant), int |u|^p and int a|u|^q, are
computed in one place, functionals.P1Energy. _bracketed_root is the
eigen solve's scalar root finder; its closure _close_bracket also
finishes the Picone condition's batched estimates of roots.

All types are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "component_bump",
    "widest_component_bump",
    "smooth_noise",
    "sign_partition",
]

# P1 shape-function values at the two Gauss points of the reference cell.
_T_LO = 0.5 - 0.5 / np.sqrt(3.0)
_T_HI = 0.5 + 0.5 / np.sqrt(3.0)
# The same values as columns: Gauss point i of a cell is
# _LEFT[i] * (left node) + _RIGHT[i] * (right node), and as the matrix is
# symmetric, node j's share of the two Gauss-point samples d is
# _LEFT[j] * d[0] + _RIGHT[j] * d[1].
_LEFT = np.array([[_T_HI], [_T_LO]])
_RIGHT = np.array([[_T_LO], [_T_HI]])
_LEFT_SQ = np.array([[_T_HI**2], [_T_LO**2]])
_RIGHT_SQ = np.array([[_T_LO**2], [_T_HI**2]])
_NOISE_MODES = 6  # sine modes in smooth_noise
_NEWTON_RTOL = 1e-12  # _bracketed_root: a Newton step this small, relative to its point, ends the Newton probes


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

    @cached_property
    def _noise_modes(self) -> np.ndarray:
        """Row k-1 holds sin(k pi x) at the nodes, x scaled to [0, 1], for k = 1 .. _NOISE_MODES."""
        x = (self.nodes - self.x_lo) / (self.x_hi - self.x_lo)
        modes = np.array([np.sin(k * np.pi * x) for k in range(1, _NOISE_MODES + 1)])
        modes.flags.writeable = False
        return modes


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
        if not np.all(np.isfinite(vals)):
            raise ValueError("weight values must be finite")

    @cached_property
    def gauss(self) -> np.ndarray:
        """Values of the P1 interpolant at the two Gauss points of every cell, (2, n_cells), read-only."""
        g = gauss_values(self.values)
        g.flags.writeable = False
        return g

    def is_sign_changing(self) -> bool:
        return bool(np.any(self.values > 0.0) and np.any(self.values < 0.0))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class SignPartition:
    """Maximal interior-node intervals where the weight is positive/negative.

    Components are inclusive index pairs (first_node, last_node), ordered and
    disjoint.
    """

    plus_components: tuple[tuple[int, int], ...]
    minus_components: tuple[tuple[int, int], ...]


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


def gauss_values(vals: np.ndarray) -> np.ndarray:
    """Values of the P1 interpolant at the two Gauss points of every cell, (2, n_cells)."""
    g = _LEFT * vals[:-1]
    g += _RIGHT * vals[1:]
    return g


def gauss_integral(mesh: Mesh, f: np.ndarray) -> float:
    """Composite 2-point Gauss sum of per-cell integrand samples f, (2, n_cells)."""
    s1, s2 = f.sum(axis=1).tolist()
    return 0.5 * mesh.h * (s1 + s2)


def scatter_gauss_gradient(mesh: Mesh, d: np.ndarray) -> np.ndarray:
    """Assemble nodal partials from per-Gauss-point integrand derivatives.

    d, (2, n_cells), holds dF/d(value at Gauss point) for the two Gauss
    points of each cell; the chain rule through the P1 shape functions
    distributes them to the two cell nodes. Boundary entries are zeroed
    (Dirichlet).
    """
    share = _LEFT * d[0]  # row 0 to each cell's left node, row 1 to its right node
    share += _RIGHT * d[1]
    share *= 0.5 * mesh.h
    grad = np.zeros(mesh.n_nodes)
    grad[:-1] += share[0]
    grad[1:] += share[1]
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def scatter_gauss_hessian(mesh: Mesh, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the interior tridiagonal block from per-Gauss-point second derivatives.

    c, (2, n_cells), holds d2F/d(value at Gauss point)^2 for the two Gauss
    points of each cell; the P1 shape-function values at the Gauss point
    spread each into the 2x2 block of its cell's nodes, as
    scatter_gauss_gradient spreads first derivatives. Returns (diag, off)
    over the interior nodes 1 .. n_cells - 1: diag has n_cells - 1 entries,
    off the n_cells - 2 couplings of neighboring interior nodes.
    """
    w = 0.5 * mesh.h
    # each cell adds to the diagonal entry of its left node (row 0, as that
    # node's right cell) and of its right node (row 1, as that node's left cell)
    share = _LEFT_SQ * c[0] + _RIGHT_SQ * c[1]
    share *= w
    off = (w * _T_HI * _T_LO) * (c[0] + c[1])
    return share[1, :-1] + share[0, 1:], off[1:-1]


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


def widest_component_bump(mesh: Mesh, comps: tuple[tuple[int, int], ...]) -> np.ndarray:
    """component_bump on the widest of the given components (the first of equals)."""
    return component_bump(mesh, max(comps, key=lambda c: c[1] - c[0]))


def smooth_noise(mesh: Mesh, rng: np.random.Generator) -> np.ndarray:
    """Random sum of the first _NOISE_MODES sine modes, amplitude of mode k drawn from N(0, 1/k)."""
    out = np.zeros(mesh.n_nodes)
    for k, mode in enumerate(mesh._noise_modes, start=1):
        out += rng.normal(0.0, 1.0 / k) * mode
    out[0] = out[-1] = 0.0  # sin(k*pi) float dust would break the Dirichlet pin
    return out


def sign_partition(a: Weight) -> SignPartition:
    """Split the interior nodes by the sign of a.

    Nodes with a > 0 form the plus components, a < 0 the minus components;
    nodes where a = 0 lie in neither. Components are maximal runs of
    consecutive interior node indices.
    """
    def runs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
        # boundary nodes cleared, mask flips from i to i+1 where a run ends at i or starts at i+1
        mask[[0, -1]] = False
        edges = np.flatnonzero(np.diff(mask))
        return tuple(zip((edges[0::2] + 1).tolist(), edges[1::2].tolist()))

    return SignPartition(runs(a.values > 0.0), runs(a.values < 0.0))


def _bracketed_root(value, slope, lo: float, hi: float) -> float:
    """The float that bisecting value on [lo, hi] until the midpoint equals an endpoint returns.

    Every probe x narrows the bracket by its sign, as a bisection step
    would: value(x) < 0 moves lo to x, anything else moves hi to x. The
    probes come from Newton steps, slope(x) being called right after
    value(x) at the same x. A probe falls back to the midpoint when the
    slope is not positive and finite, when the step leaves the bracket, or
    when it is more than half the step before last (rtsafe, Press et al.,
    Numerical Recipes, 2007). Once a step falls below _NEWTON_RTOL of its
    point, _close_bracket finishes from the step's end: probes around it
    close the bracket, and the bisection ends it.

    Where value is monotone in floating point, exactly one pair of
    adjacent floats has value(lo) < 0 <= value(hi) (an endpoint of the
    starting bracket counts as either side), and any narrowing by sign
    ends on it, so the returned midpoint is the bisection's own. Where it
    is not, the two can differ.
    """
    x = 0.5 * (lo + hi)
    last = prev = hi - lo  # the last move and the one before it
    while lo < x < hi:
        v = value(x)
        if v < 0.0:
            lo = x
        else:
            hi = x
        s = slope(x)
        nxt = 0.5 * (lo + hi)
        if 0.0 < s < math.inf:
            step = -v / s
            if abs(step) <= _NEWTON_RTOL * abs(x):
                x += step
                break
            if lo < x + step < hi and abs(step) <= 0.5 * prev:
                nxt = x + step
        prev, last = last, abs(nxt - x)
        x = nxt
    # x: the small step's end, or a midpoint on an endpoint of adjacent floats (no probes)
    return _close_bracket(value, lo, hi, x)


def _close_bracket(value, lo: float, hi: float, end: float) -> float:
    """Narrow [lo, hi] by the sign of value, as _bracketed_root does, from a finite estimate end of the root.

    Probes at end -+ 1, 2, 4, ... ulps close the bracket; a bisection until the midpoint equals an
    endpoint returns that midpoint. Where value is monotone, end sets the count of probes, never the float.
    """
    pad = math.ulp(end)
    while lo < hi and not (end - pad <= lo and hi <= end + pad):
        for probe in (end - pad, end + pad):
            if lo < probe < hi:
                if value(probe) < 0.0:
                    lo = probe
                else:
                    hi = probe
        pad *= 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid

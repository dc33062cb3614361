"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the eigenvalue
comes in closed form and by shooting, the critical-value oracle integrates
the ODE by shooting, the polynomial oracle is a dense grid scan, and
derivative checks use central finite differences on the plain functional
values. The P1 kernel and smooth_noise have plain restatements here, one
array per Gauss point and one sine per draw, that the library must match
bit for bit; so do the sign partition, as a walk over the nodes, and the
eigen inverse iteration, with dm read from a full EnergyPoint.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve


def shooting_lambda1(p: float, length: float = 1.0) -> float:
    """First Dirichlet eigenvalue of -(|u'|^{p-2}u')' = lam*|u|^{p-2}u on (0, length).

    Shoot with lam = 1, u(0) = 0, u'(0) = 1, in flux form
        u' = sign(w)|w|^{1/(p-1)},   w' = -|u|^{p-2}u,
    find the first interior zero x0 of u, and use the p-homogeneous scaling
    u(c x): lam scales as c^p, so lambda1 = (x0/length)^p.
    """

    def rhs(_x, yz):
        u, w = yz
        return [np.sign(w) * abs(w) ** (1.0 / (p - 1.0)), -np.sign(u) * abs(u) ** (p - 1.0)]

    def hit_zero(_x, yz):
        return yz[0]

    hit_zero.terminal = True
    hit_zero.direction = -1.0

    sol = solve_ivp(
        rhs,
        (0.0, 50.0),
        [0.0, 1.0],
        events=hit_zero,
        rtol=1e-11,
        atol=1e-13,
        max_step=0.01,
        dense_output=False,
    )
    if sol.t_events[0].size == 0:
        raise RuntimeError(f"shooting found no zero crossing for p={p}")
    x0 = float(sol.t_events[0][0])
    return (x0 / length) ** p


def closed_form_lambda1(p: float, length: float = 1.0) -> float:
    """First Dirichlet eigenvalue on (0, length) in closed form (Lindqvist, 1995):

        lambda1 = (p-1) (pi_p / length)^p,   pi_p = 2 pi / (p sin(pi/p)).
    """
    pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def default_two_bump(x: float) -> float:
    """The library's default two-bump weight at x, from its cosine-bump formula:

        20 cos^2(pi (x - 0.7) / 0.4)    on |x - 0.7|  < 0.2
      - 60 cos^2(pi (x - 0.25) / 0.44)  on |x - 0.25| < 0.22
    """

    def bump(center: float, width: float) -> float:
        t = (x - center) / width
        return float(np.cos(0.5 * np.pi * t) ** 2) if abs(t) < 1.0 else 0.0

    return 20.0 * bump(0.7, 0.2) - 60.0 * bump(0.25, 0.22)


def shooting_lambda_star(
    p: float, weight=default_two_bump, length: float = 1.0, guess: tuple[float, float] = (33.0, 2.0)
) -> float:
    """lam_* = inf R(u) over {int a u^2 >= 0} on (0, length), for q = 2 and a
    weight whose pairing with the first eigenfunction is negative.

    The constraint is then active, and the constrained minimizer u > 0 solves

        -(|u'|^{p-2}u')' = lam |u|^{p-2}u + nu a u,   u(0) = u(length) = 0,
        int a u^2 = 0,

    with a multiplier nu > 0. Under u -> t u the multiplier scales as
    t^{p-2}, so nu = 1 fixes the scale. Shoot in flux form
        u' = sign(w)|w|^{1/(p-1)},  w' = -lam |u|^{p-2}u - a u,  z' = a u^2
    from u(0) = 0, u'(0) = s, z(0) = 0, and solve u(length) = z(length) = 0
    for (lam, s) with fsolve from guess; the default guess suits the default
    two-bump weight at p = 3 (fsolve lands on the same root from lam in
    31..35). Raises RuntimeError unless the solve converges to a solution
    positive inside the interval.
    """

    def shoot(x):
        lam, s = x

        def rhs(t, y):
            u, w, _z = y
            a = weight(t)
            du = np.sign(w) * abs(w) ** (1.0 / (p - 1.0))
            return [du, -lam * np.sign(u) * abs(u) ** (p - 1.0) - a * u, a * u * u]

        return solve_ivp(
            rhs,
            (0.0, length),
            [0.0, np.sign(s) * abs(s) ** (p - 1.0), 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-13,
            max_step=0.005 * length,
        )

    def residual(x):
        sol = shoot(x)
        return [sol.y[0, -1], sol.y[2, -1]]

    root, _info, ier, msg = fsolve(residual, guess, full_output=True, xtol=1e-13)
    if ier != 1:
        raise RuntimeError(f"shooting for lam_* did not converge: {msg}")
    u = shoot(root).y[0]
    if not np.all(u[1:-1] > 0.0):
        raise RuntimeError("shooting for lam_* converged to a sign-changing solution")
    return float(root[0])


def picone_poly_min(p: float, q: float, n_grid: int = 200_001, s_max: float | None = None) -> tuple[float, float]:
    """Brute-force global minimum of the quartic-like polynomial

        f(s) = (q-1)s^p + q s^{p-1} - (p-q)s + (q-p+1),  s >= 0,

    by dense grid scan plus golden-section refinement around the best cell.
    Returns (min value, argmin).
    """
    if s_max is None:
        s_max = max(4.0, ((p - q) / (q - 1.0)) ** (1.0 / (p - 1.0)) + 2.0)

    def f(s):
        return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)

    s = np.linspace(0.0, s_max, n_grid)
    vals = f(s)
    k = int(np.argmin(vals))
    lo = s[max(k - 1, 0)]
    hi = s[min(k + 1, n_grid - 1)]
    # golden-section refine inside [lo, hi]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
    s_star = 0.5 * (a + b)
    candidates = [(float(f(0.0)), 0.0), (float(f(s_star)), float(s_star)), (float(vals[k]), float(s[k]))]
    return min(candidates, key=lambda t: t[0])


def central_diff_directional(fun, vals: np.ndarray, direction: np.ndarray, eps: float) -> float:
    """Central finite difference of fun along direction at vals."""
    return (fun(vals + eps * direction) - fun(vals - eps * direction)) / (2.0 * eps)


# The P1 kernel restated operation by operation, with the two Gauss points
# of every cell as two separate arrays; functionals.P1Energy must agree with
# it bit for bit.
_T_LO = 0.5 - 0.5 / np.sqrt(3.0)
_T_HI = 0.5 + 0.5 / np.sqrt(3.0)


def _two_point_values(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left, right = vals[:-1], vals[1:]
    return _T_HI * left + _T_LO * right, _T_LO * left + _T_HI * right


def _two_point_gradient(h: float, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    w = 0.5 * h
    grad = np.zeros(d1.size + 1)
    grad[:-1] += w * (_T_HI * d1 + _T_LO * d2)
    grad[1:] += w * (_T_LO * d1 + _T_HI * d2)
    grad[0] = 0.0
    grad[-1] = 0.0
    return grad


def _two_point_hessian(h: float, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = 0.5 * h
    left = w * (_T_HI**2 * c1 + _T_LO**2 * c2)
    right = w * (_T_LO**2 * c1 + _T_HI**2 * c2)
    off = (w * _T_HI * _T_LO) * (c1 + c2)
    return right[:-1] + left[1:], off[1:-1]


def p1_kernel_reference(
    v: np.ndarray, h: float, p: float, q: float | None, a: np.ndarray | None, truncated: bool, r: np.ndarray,
    metric_eps: float,
) -> dict:
    """grad_term, mass, weight, their nodal gradients and Hessian blocks, and the
    regularized p-stiffness solve z = K^-1 r, of the nodal vector v on a uniform
    mesh of cell size h; a holds the weight's nodal values (None: no weight).

    Every term is int over the cells of the P1 interpolant, with 2-point Gauss
    quadrature for int |u|^p and int a |u|^q (u_+ when truncated), and the
    Gauss points are handled one array each.
    """
    h_scale = h ** (p - 1.0)
    du = v[1:] - v[:-1]
    abs_du = np.abs(du)
    out = {"grad_term": float((abs_du**p).sum()) / h_scale}
    g1, g2 = _two_point_values(v)
    b1, b2 = (np.maximum(g1, 0.0), np.maximum(g2, 0.0)) if truncated else (np.abs(g1), np.abs(g2))
    out["mass"] = 0.5 * h * float((b1**p).sum() + (b2**p).sum())

    def power(e):
        if truncated:
            return b1**e, b2**e
        return np.sign(g1) * b1**e, np.sign(g2) * b2**e

    def curvature(e):
        with np.errstate(divide="ignore"):
            c1, c2 = b1**e, b2**e
        if truncated:
            c1, c2 = np.where(g1 < 0.0, 0.0, c1), np.where(g2 < 0.0, 0.0, c2)
        return c1, c2

    flux = p * (np.sign(du) * abs_du ** (p - 1.0)) / h_scale
    dg = np.zeros(v.size)
    dg[:-1] -= flux
    dg[1:] += flux
    dg[0] = dg[-1] = 0.0
    m1, m2 = power(p - 1.0)
    out["dg"], out["dm"] = dg, _two_point_gradient(h, p * m1, p * m2)

    with np.errstate(divide="ignore"):
        wc = (p * (p - 1.0) / h_scale) * abs_du ** (p - 2.0)
    out["hess_grad"] = (wc[:-1] + wc[1:], -wc[1:-1])
    m1, m2 = curvature(p - 2.0)
    out["hess_mass"] = _two_point_hessian(h, p * (p - 1.0) * m1, p * (p - 1.0) * m2)

    out["weight"] = out["dw"] = out["hess_weight"] = None
    if a is not None:
        a1, a2 = _two_point_values(a)
        out["weight"] = 0.5 * h * float((a1 * b1**q).sum() + (a2 * b2**q).sum())
        w1, w2 = power(q - 1.0)
        out["dw"] = _two_point_gradient(h, q * a1 * w1, q * a2 * w2)
        cq = q * (q - 1.0)
        w1, w2 = curvature(q - 2.0)
        with np.errstate(invalid="ignore"):
            out["hess_weight"] = _two_point_hessian(
                h, np.where(a1 != 0.0, cq * a1 * w1, 0.0), np.where(a2 != 0.0, cq * a2 * w2, 0.0)
            )

    top = float(np.max(abs_du))
    if top > 0.0:
        t = abs_du / top
        cell_w = (t * t + metric_eps**2) ** (0.5 * (p - 2.0))
        cell_w /= np.max(cell_w)
    else:
        cell_w = np.ones(du.size)
    compliance = h / cell_w
    total = float(compliance.sum())
    c = np.zeros(du.size)
    np.cumsum(r[1:-1], out=c[1:])
    flux = float(np.dot(c, compliance)) / total - c
    z = np.zeros(v.size)
    np.cumsum((flux * compliance)[:-1], out=z[1:-1])
    out["precondition"] = z
    return out


def smooth_noise_reference(nodes: np.ndarray, x_lo: float, x_hi: float, rng: np.random.Generator) -> np.ndarray:
    """Sum of sin(k pi x) for k = 1 .. 6 on the unit-scaled nodes, amplitude of mode k from N(0, 1/k)."""
    x = (nodes - x_lo) / (x_hi - x_lo)
    out = np.zeros(nodes.size)
    for k in range(1, 7):
        out += rng.normal(0.0, 1.0 / k) * np.sin(k * np.pi * x)
    out[0] = out[-1] = 0.0
    return out


def bisect_to_adjacent(value, lo: float, hi: float) -> float:
    """Bisect until the midpoint equals an endpoint and return that midpoint.

    value(mid) < 0 moves lo to mid, anything else moves hi to mid: the plain
    loop the eigen solve and the Picone condition ran before they shared a
    Newton root finder, which must return the same float.
    """
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def bisection_root_finder(value, slope, lo: float, hi: float) -> float:
    """bisect_to_adjacent in the call shape of grid._bracketed_root; slope is unused."""
    return bisect_to_adjacent(value, lo, hi)


def picone_bisected(p: float, q: float) -> tuple[float, float, bool]:
    """(min f, argmin s, min f >= -1e-12) of the Picone polynomial, its root of f' bisected.

    The plain restatement of the shape rule: the minimum is f(0), or f at
    the root of f' in (s_i, s0), s_i = max(0, q(2-p)/(p(q-1))) and
    s0 = ((p-q)/(q-1))^(1/(p-1)), which exists when p > 2, or when p < 2
    and f'(s_i) < 0. bisect_to_adjacent finds that root from [s_i, s0].
    An s0 that overflows reads (-inf, inf, False). f and f' are written as
    critical writes them, so the floats must agree bit for bit.
    """

    def f(s):
        return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)

    def df(s):
        return p * (q - 1.0) * s ** (p - 1.0) + q * (p - 1.0) * s ** (p - 2.0) - (p - q)

    lo = max(0.0, q * (2.0 - p) / (p * (q - 1.0)))
    try:
        hi = ((p - q) / (q - 1.0)) ** (1.0 / (p - 1.0))
    except OverflowError:
        return -np.inf, np.inf, False
    s = bisect_to_adjacent(df, lo, hi) if p > 2.0 or (p < 2.0 and df(lo) < 0.0) else 0.0
    min_value, argmin_s = min((f(0.0), 0.0), (f(s), s))
    return min_value, argmin_s, min_value >= -1e-12


def sign_partition_loop(vals: np.ndarray) -> tuple[tuple, tuple]:
    """(plus runs, minus runs) of the interior nodes of vals, by one walk over the nodes.

    A run is an inclusive (first, last) pair of consecutive interior indices
    where vals > 0 (plus) or vals < 0 (minus); nodes where vals = 0 lie in
    neither. grid.sign_partition must return the same tuples of ints.
    """
    n = vals.size

    def runs(mask):
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
        return tuple(out)

    return runs(vals > 0.0), runs(vals < 0.0)


def inverse_iteration_reference(kernel, solve, max_steps: int = 100, step_rtol: float = 1e-9):
    """The first eigenpair's inverse iteration with dm read from a full EnergyPoint.

    kernel is the P1Energy of the mesh and p, solve the exact solve
    (mesh, p, b) -> w of dg(w) = b. Every step values kernel at the iterate
    and takes dm from its gradients(), u <- normalize(solve(dm(u))), from the
    constant 1 on the interior nodes, until a step moves the iterate by less
    than step_rtol relative to its sup norm. Returns (lambda1, phi,
    residual_sup, iterations) as eigen.first_eigenpair computes them, which
    must match bit for bit.
    """
    mesh, p = kernel.mesh, kernel.p
    vals = np.ones(mesh.n_nodes)
    vals[0] = vals[-1] = 0.0
    x = kernel.normalize(vals)
    for steps in range(1, max_steps + 1):
        _, dm = kernel(x).gradients()
        nxt = kernel.normalize(solve(mesh, p, dm))
        step = float(np.max(np.abs(nxt - x))) / float(np.max(np.abs(nxt)))
        x = nxt
        if step < step_rtol:
            break
    else:
        raise RuntimeError(f"no convergence in {max_steps} steps")
    if np.sum(x) < 0.0:
        x = -x
    pt = kernel(x)
    lam = pt.grad_term / pt.mass
    dg, dm = pt.gradients()
    return float(lam), x, float(np.max(np.abs(dg - lam * dm))), steps

"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the eigenvalue
comes in closed form and by shooting, the critical-value oracle integrates
the ODE by shooting, the polynomial oracle is a dense grid scan, and
derivative checks use central finite differences on the plain functional
values.
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

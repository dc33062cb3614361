"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Mesh resolution: n = 1024 where a criterion pins
it, n = 512 for the eigenvalue-bound check, n = 256 for the solver-heavy
experiments (tolerances unchanged; the full suite stays inside the
single-core budget).
"""

import numpy as np
import pytest

from plaplab import solvers
from plaplab.critical import (
    _region_of,
    compute_critical_values,
    nonexistence_bound,
    picone_certificate,
    picone_condition,
)
from plaplab.eigen import first_eigenpair, pairing
from plaplab.functionals import ProblemSpec, evaluate, fibered_J, gradient_I, nehari_project
from plaplab.grid import grid_fn, make_mesh, sign_partition, weight_fn
from plaplab.presets import TwoBumpParams, orthogonal_two_bump, two_bump
from plaplab.sweeps import parse_config, run_sweep, run_three_solutions
from plaplab.tables import emit, parse_table

from oracles import central_diff_directional, picone_poly_min, shooting_lambda1

TOL = 1e-8


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_01_eigen_oracle():
    mesh = make_mesh(0.0, 1.0, 1024)
    lam2 = first_eigenpair(mesh, 2.0).lambda1
    err2 = abs(lam2 - np.pi**2) / np.pi**2
    ok = err2 < 1e-3
    details = [f"lambda1(2)={lam2:.6f} vs pi^2 rel={err2:.2e}"]
    for p in (1.5, 3.0, 5.0):
        lam = first_eigenpair(mesh, p).lambda1
        oracle = shooting_lambda1(p)
        rel = abs(lam - oracle) / oracle
        ok = ok and rel < 5e-3
        details.append(f"p={p}: rel={rel:.2e}")
    _report(1, ok, "; ".join(details))


def test_criterion_02_gradient_consistency():
    mesh = make_mesh(0.0, 1.0, 128)
    rng = np.random.default_rng(2024)
    a = weight_fn(mesh, rng.normal(size=mesh.n_nodes))
    worst = 0.0
    for p, q in ((2.0, 1.5), (3.0, 2.0), (5.0, 2.0)):
        spec = ProblemSpec(p, q, 7.0, a, mesh)
        for _ in range(100):
            u_vals = np.zeros(mesh.n_nodes)
            u_vals[1:-1] = rng.normal(size=mesh.n_nodes - 2)
            v_vals = np.zeros(mesh.n_nodes)
            v_vals[1:-1] = rng.normal(size=mesh.n_nodes - 2)
            u = grid_fn(mesh, u_vals)
            eps = (1.0 + u.linf()) * 1e-5

            def i_trunc(vals):
                return evaluate(grid_fn(mesh, vals), spec).I_trunc

            fd = central_diff_directional(i_trunc, u_vals, v_vals, eps)
            an = float(np.dot(gradient_I(u, spec, truncated=True).values, v_vals))
            worst = max(worst, abs(fd - an) / max(1e-12, abs(an)))
    _report(2, worst < 1e-6, f"worst relative FD mismatch {worst:.2e} over 300 pairs")


def test_criterion_03_algebraic_identities(neg_pairing_problem):
    spec0, pair = neg_pairing_problem
    mesh = spec0.mesh
    rng = np.random.default_rng(3)
    spec = spec0.with_lambda(0.8 * pair.lambda1)

    part = sign_partition(spec0.a)
    i0, i1 = part.plus_components[0]
    envelope = np.zeros(mesh.n_nodes)
    envelope[i0 : i1 + 1] = np.sin(np.linspace(0.0, np.pi, i1 - i0 + 1))

    worst_resid = 0.0
    worst_identity = 0.0
    worst_homog = 0.0
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 4000:
        attempts += 1
        # localized draws keep the weight integral positive for most samples
        vals = envelope * (1.0 + 0.5 * rng.normal(size=mesh.n_nodes))
        vals[0] = vals[-1] = 0.0
        u = grid_fn(mesh, vals)
        b = evaluate(u, spec)
        if b.E * b.weight_term <= 0:
            continue
        w = nehari_project(u, spec)
        bw = evaluate(w, spec)
        worst_resid = max(
            worst_resid, abs(bw.nehari_residual) / max(1.0, abs(bw.E), abs(bw.weight_term))
        )
        coeff = (spec.p - spec.q) / (spec.p * spec.q)
        worst_identity = max(worst_identity, abs(bw.I + coeff * bw.E) / (1.0 + abs(bw.E)))
        J = fibered_J(u, spec)
        for c in (0.5, 2.0, 10.0):
            worst_homog = max(worst_homog, abs(fibered_J(c * u, spec) - J) / abs(J))
        checked += 1

    worst_level = 0.0
    for frac in (0.3, 0.45, 0.6, 0.75, 0.9):
        lam = frac * pair.lambda1
        r_t = solvers.ground_state(spec0.with_lambda(lam), starts=4, tol=TOL, seed=1, truncated=True)
        r_u = solvers.ground_state(spec0.with_lambda(lam), starts=4, tol=TOL, seed=1, truncated=False)
        worst_level = max(worst_level, abs(r_t.breakdown.I_trunc - r_u.breakdown.I))
    ok = worst_resid < 1e-10 and worst_identity < 1e-10 and worst_homog < 1e-12 and worst_level < 5 * TOL
    _report(
        3,
        ok,
        f"projection residual {worst_resid:.1e} (<1e-10), level identity {worst_identity:.1e} (<1e-10), "
        f"J homogeneity {worst_homog:.1e} (<1e-12), |M - M_trunc| {worst_level:.1e} (<5e-8)",
    )


def test_criterion_04_critical_orderings(neg_pairing_problem, zero_pairing_p5_problem, mesh256):
    details = []
    # pairing < 0
    spec_n, pair_n = neg_pairing_problem
    crit_n = compute_critical_values(spec_n, pair_n)
    ok = (
        crit_n.pairing_sign == "negative"
        and crit_n.lambda_minus == crit_n.lambda1
        and crit_n.lambda_zero == crit_n.lambda_plus == crit_n.lambda_star
        and crit_n.lambda_star - crit_n.lambda1 > 0.05 * crit_n.lambda1
    )
    details.append(
        f"neg: lam*={crit_n.lambda_star:.4f} margin={(crit_n.lambda_star - crit_n.lambda1) / crit_n.lambda1:.2%}"
    )
    # pairing = 0
    spec_z, pair_z = zero_pairing_p5_problem
    crit_z = compute_critical_values(spec_z, pair_z)
    ok = ok and crit_z.pairing_sign == "zero"
    ok = ok and crit_z.lambda1 == crit_z.lambda_star == crit_z.lambda_plus == crit_z.lambda_minus == crit_z.lambda_zero
    details.append("zero: all four equal lambda1")
    # pairing > 0
    pair_p = first_eigenpair(mesh256, 3.0)
    prm = TwoBumpParams(
        amp_plus=60.0, center_plus=0.45, width_plus=0.25, amp_minus=20.0, center_minus=0.85, width_minus=0.12
    )
    spec_p = ProblemSpec(3.0, 2.0, 0.0, two_bump(mesh256, prm), mesh256)
    crit_p = compute_critical_values(spec_p, pair_p)
    ok = ok and crit_p.pairing_sign == "positive"
    ok = ok and crit_p.lambda_star == crit_p.lambda1 == crit_p.lambda_plus
    ok = ok and crit_p.lambda_zero == crit_p.lambda_minus > crit_p.lambda1 + 1e-7
    details.append(f"pos: lam0*={crit_p.lambda_zero:.4f} > lam1={crit_p.lambda1:.4f}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_level_monotonicity(neg_pairing_problem):
    spec0, pair = neg_pairing_problem
    crit = compute_critical_values(spec0, pair)
    lams = np.linspace(0.3 * pair.lambda1, 0.97 * crit.lambda_star, 8)
    levels = []
    for lam in lams:
        rep = solvers.ground_state(spec0.with_lambda(float(lam)), starts=4, tol=TOL, seed=1)
        assert rep.ok
        levels.append(rep.breakdown.I_trunc)
    decreasing = all(levels[i + 1] < levels[i] for i in range(len(levels) - 1))

    gap = crit.lambda_star - pair.lambda1
    fracs = (0.02, 0.2, 0.45, 0.7, 0.9, 0.98)
    m_levels = []
    for f in fracs:
        rep = solvers.m_minus(spec0.with_lambda(pair.lambda1 + f * gap), starts=4, tol=TOL, seed=1)
        assert rep.ok
        m_levels.append(rep.breakdown.I)
    m_positive = all(m > 0 for m in m_levels)
    m_decreasing = all(m_levels[i + 1] < m_levels[i] for i in range(len(m_levels) - 1))
    blowup = m_levels[0] > 10.0 * m_levels[-1]
    ok = decreasing and m_positive and m_decreasing and blowup
    _report(
        5,
        ok,
        f"M strictly decreasing over 8 points: {decreasing}; M- positive/decreasing: "
        f"{m_positive}/{m_decreasing}; blowup ratio {m_levels[0] / m_levels[-1]:.1e} (>10)",
    )


def test_criterion_06_supercritical_existence(zero_pairing_p5_problem, kset_p5):
    spec0, pair = zero_pairing_p5_problem
    lam = 1.05 * pair.lambda1
    spec = spec0.with_lambda(lam)
    cont = solvers.local_min_continuation(spec, kset_p5, tol=TOL)
    part = sign_partition(spec0.a)
    cont_c = solvers.classify(cont, part, 1e-8 * cont.u.linf())
    ok = cont.ok and cont.breakdown.I_trunc < 0 and all(cont_c.positive_on_plus)
    level = cont.breakdown.I_trunc
    omega = solvers.runaway_state(spec, level - 10 * abs(level) - 1.0, pair)
    mp = solvers.mountain_pass(spec, cont.u, omega, beads=17)
    gap = mp.breakdown.I_trunc - cont.breakdown.I_trunc
    ok = ok and mp.ok and gap > 10 * TOL and mp.breakdown.I_trunc < -10 * TOL
    _report(
        6,
        ok,
        f"interior local min I={cont.breakdown.I_trunc:.6f} positive on plus; saddle I={mp.breakdown.I_trunc:.6f}, "
        f"gap {gap:.2e} (>1e-7), saddle residual {mp.residual_sup:.1e}",
    )


def test_criterion_07_three_solutions():
    cfg = parse_config(
        """
n_cells = 256
p = 5.0
q = 2.0
weight_family = perturbed
mu = 0.05
tol = 1e-8
seed = 5
starts = 5
sample_count = 3
"""
    )
    table = run_three_solutions(cfg)
    ok_rows = [r for r in table.rows if r.status == "ok"]
    by_branch = {r.branch: r for r in ok_rows}
    ok = {"ground", "local_min", "mountain_pass"} <= set(by_branch)
    if ok:
        w, u, v = by_branch["ground"], by_branch["local_min"], by_branch["mountain_pass"]
        ok = w.lam == u.lam == v.lam < first_eigenpair(make_mesh(0.0, 1.0, 256), 5.0).lambda1
        ok = ok and w.energy < u.energy < v.energy < 0.0
        detail = (
            f"lam={w.lam:.4f}: I(w)={w.energy:.6f} < I(u)={u.energy:.6f} < I(v)={v.energy:.6f} < 0"
        )
    else:
        detail = f"scan found no triple; statuses={[r.status for r in table.rows]}"
    _report(7, ok, detail)


def test_criterion_08_nonexistence_consistency(mesh256):
    p, q = 2.0, 1.5
    pair = first_eigenpair(mesh256, p)
    a = orthogonal_two_bump(mesh256, p, q)
    assert picone_condition(p, q).holds
    part = sign_partition(a)
    spec = ProblemSpec(p, q, 1.02 * pair.lambda1, a, mesh256)
    reports = solvers.multistart_truncated_descent(spec, count=16, tol=TOL, seed=11)
    outcomes = {"diverged": 0, "dead_core": 0, "certified_spurious": 0, "other": 0}
    bad = 0
    for rep in reports:
        if rep.status != "converged":
            outcomes["diverged"] += 1
            continue
        classified = solvers.classify(rep, part, 1e-8 * max(rep.u.linf(), 1e-30))
        if classified.positive_on_plus and all(classified.positive_on_plus):
            residual = picone_certificate(classified.u, spec, pair)
            if residual < -TOL:
                outcomes["certified_spurious"] += 1
            else:
                bad += 1
        elif classified.dead_core_components:
            outcomes["dead_core"] += 1
        else:
            outcomes["other"] += 1
    ok = bad == 0 and sum(outcomes.values()) == 16
    _report(8, ok, f"16 starts -> {outcomes}, uncertified positive candidates: {bad}")


def test_criterion_09_divergence_detection(neg_pairing_problem, mesh256):
    spec_n, pair_n = neg_pairing_problem
    crit = compute_critical_values(spec_n, pair_n)
    rep_a = solvers.ground_state(
        spec_n.with_lambda(crit.lambda_star + 0.1 * pair_n.lambda1), starts=4, tol=TOL, seed=1
    )
    # pairing > 0 at lam = lambda_star = lambda1
    pair_p = first_eigenpair(mesh256, 3.0)
    prm = TwoBumpParams(
        amp_plus=60.0, center_plus=0.45, width_plus=0.25, amp_minus=20.0, center_minus=0.85, width_minus=0.12
    )
    spec_p = ProblemSpec(3.0, 2.0, pair_p.lambda1, two_bump(mesh256, prm), mesh256)
    rep_b = solvers.ground_state(spec_p, starts=4, tol=TOL, seed=1)
    ok = rep_a.status == "diverged" and rep_b.status == "diverged"
    _report(9, ok, f"above lam*: {rep_a.status}; at lam* with positive pairing: {rep_b.status}")


def test_criterion_10_picone_region_map():
    p_grid = np.linspace(1.1, 6.0, 50)
    q_grid = np.linspace(1.05, 4.0, 50)
    cells = disagreements = violations = overlaps = 0
    worst = 0.0
    for p in p_grid:
        for q in q_grid:
            if not 1.0 < q < p:
                continue
            cells += 1
            rep = picone_condition(float(p), float(q))
            oracle_min, _ = picone_poly_min(float(p), float(q), n_grid=50_001)
            worst = max(worst, abs(rep.min_value - oracle_min))
            if rep.holds != (oracle_min >= -1e-12):
                disagreements += 1
            if rep.holds and not (p <= q + 1.0 + 1e-9 and p <= 2.0 * q + 1e-9):
                violations += 1
            cls = _region_of(rep)  # region_classify's verdict from the same report; raises on overlap
            if cls == "existence_regime" and rep.holds:
                overlaps += 1
    ok = disagreements == 0 and violations == 0 and overlaps == 0 and worst <= 1e-14
    _report(
        10,
        ok,
        f"{cells} admissible cells: {disagreements} oracle disagreements, "
        f"{violations} necessary-condition violations, {overlaps} regime overlaps, "
        f"minimum within {worst:.1e} of the oracle",
    )


def test_criterion_11_nonexistence_bound(mesh512, zero_pairing_p5_problem, kset_p5):
    prm = TwoBumpParams(
        amp_plus=10.0, center_plus=0.25, width_plus=0.25, amp_minus=10.0, center_minus=0.75, width_minus=0.2
    )
    a = two_bump(mesh512, prm)
    part = sign_partition(a)
    spec = ProblemSpec(2.0, 1.5, 0.0, a, mesh512)
    bound = nonexistence_bound(spec, part)
    rel = abs(bound - 4.0 * np.pi**2) / (4.0 * np.pi**2)
    ok = rel < 5e-3

    spec0, pair = zero_pairing_p5_problem
    part5 = sign_partition(spec0.a)
    bound5 = nonexistence_bound(spec0, part5)
    rep = solvers.local_min_continuation(spec0.with_lambda(1.1 * bound5), kset_p5, tol=TOL)
    classified = solvers.classify(rep, part5, 1e-8 * max(rep.u.linf(), 1e-30))
    failed = rep.status == "window_exceeded" or bool(classified.dead_core_components)
    ok = ok and failed
    _report(
        11,
        ok,
        f"lambda1(2; (0,1/2)) = {bound:.4f} vs 4pi^2 rel={rel:.2e}; continuation at 1.1*bound: {rep.status}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    cfg = parse_config(
        """
n_cells = 96
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.4
lambda_stop = 1.05
lambda_count = 2
tol = 1e-8
seed = 7
starts = 2
sample_count = 1
"""
    )
    t1 = run_sweep(cfg)
    t2 = run_sweep(cfg)
    emit(t1, tmp_path / "a.csv", "csv")
    emit(t2, tmp_path / "b.csv", "csv")
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    emit(t1, tmp_path / "a.json", "json")
    roundtrip = parse_table(tmp_path / "a.csv") == t1 == parse_table(tmp_path / "a.json")
    ok = identical and roundtrip
    _report(12, ok, f"byte-identical CSV: {identical}; field-exact round-trip (csv+json): {roundtrip}")

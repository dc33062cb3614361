"""Checks of the CLI outputs, computed apart from plaplab.

Nothing here imports plaplab or compares against a stored copy of earlier
output. Eigenvalues are compared with the closed form
lambda1 = (p-1) (pi_p / L)^p, pi_p = 2 pi / (p sin(pi/p)); region cells with
a dense scan of the Picone polynomial; branch rows with properties the
methods must have (level signs and orderings, positivity on {a > 0},
residuals within the tolerances the solvers state).

An operation is one requested result: a sweep row, the three-solution
scan's triple, a region cell or an eigenpair. A check returns a Verdict:
``failed`` names requested results that are missing or marked failed,
``wrong`` names results that are present but contradict a check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import EIGEN_LADDER, read_config

# The P1 eigenvalue error is O(h^2); measured constants are 0.73 (p=1.5)
# and 1.4 (p=3) in units of h^2 relative error, so 10 h^2 leaves room for
# other exponents and still rejects a relative shift of 1e-3 at n=256.
LAMBDA1_RTOL_PER_H2 = 10.0
# observed order log2(err(n) / err(2n)) of the eigenvalue error
ORDER_RANGE = (1.75, 2.25)
# the saddle tolerance mountain_pass states (plaplab.solvers.SADDLE_TOL)
SADDLE_TOL = 1e-6
# m_minus accepts a candidate whose residual is below 10 tol
M_MINUS_TOL_FACTOR = 10.0
# the eigen command solves to min(tol, 1e-9)
EIGEN_TOL_CAP = 1e-9
# the three-solution scan probes (1 - 0.005 * 0.5^j) lambda1, j = 0, 1, ...;
# a probe that finds no triple leaves one of these rows and the scan goes on
THREE_SCAN_OFFSET = 0.005
THREE_SCAN_PROBES = ("no_distinct_pair", "no_third_solution")
# region cells whose Picone minimum lies this close to 0 may go either way
PICONE_MARGIN = 1e-9
PICONE_MIN_ATOL = 1e-8


@dataclass
class Verdict:
    attempted: int
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)


def closed_form_lambda1(p: float, length: float) -> float:
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def _lambda1_rtol(n_cells: int) -> float:
    return LAMBDA1_RTOL_PER_H2 / n_cells**2


def _length(cfg: dict[str, str]) -> float:
    return float(cfg["x_hi"]) - float(cfg["x_lo"])


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def _bool(text: str) -> bool | None:
    # the region table writes numpy booleans as True/False
    return {"": None, "true": True, "false": False, "True": True, "False": False}[text]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- eigen


def check_eigen(records: dict[int, dict], p: float, length: float) -> Verdict:
    """Eigenpairs on the mesh ladder: closed form within O(h^2), order ~ 2."""
    verdict = Verdict(attempted=len(EIGEN_LADDER))
    exact = closed_form_lambda1(p, length)
    errors: dict[int, float] = {}
    for n in EIGEN_LADDER:
        rec = records.get(n)
        if rec is None:
            verdict.failed.append(f"eigen n={n}: no eigenpair")
            continue
        if rec["n_cells"] != n or rec["p"] != p:
            verdict.wrong.append(f"eigen n={n}: record is for n={rec['n_cells']}, p={rec['p']}")
            continue
        rel = rec["lambda1"] / exact - 1.0
        errors[n] = abs(rel)
        if abs(rel) > _lambda1_rtol(n):
            verdict.wrong.append(f"eigen n={n}: lambda1 off the closed form by {rel:.3e} (relative)")
        if not rec["residual_sup"] < EIGEN_TOL_CAP:
            verdict.wrong.append(f"eigen n={n}: residual {rec['residual_sup']:.3e} above {EIGEN_TOL_CAP}")
        if not rec["phi_linf"] > 0.0:
            verdict.wrong.append(f"eigen n={n}: eigenfunction is zero")
    for coarse, fine in zip(EIGEN_LADDER, EIGEN_LADDER[1:]):
        if coarse in errors and fine in errors:
            order = math.log2(errors[coarse] / max(errors[fine], 1e-300)) / math.log2(fine / coarse)
            if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                verdict.wrong.append(f"eigen n={coarse}->{fine}: observed order {order:.3f}")
    return verdict


# ---------------------------------------------------------------- branches


def _implied_lambda1_problems(rows, factor_of, exact: float, rtol: float) -> list[str]:
    out = []
    for r in rows:
        lam = float(r["lambda"])
        implied = lam / factor_of(lam)
        if abs(implied / exact - 1.0) > rtol:
            out.append(f"{r['branch']} at lambda={lam!r}: implied lambda1 {implied!r} vs closed form {exact!r}")
    return out


def _residual_bound(branch: str, tol: float) -> float:
    if branch == "mountain_pass":
        return SADDLE_TOL
    if branch == "m_minus":
        return M_MINUS_TOL_FACTOR * tol
    return tol


def _row_problems(r: dict[str, str], tol: float) -> list[str]:
    """Residual, positivity and dead-core checks on one ok row."""
    out = []
    where = f"{r['branch']} at lambda={r['lambda']}"
    residual = _float(r["residual"])
    if residual is None or not residual <= _residual_bound(r["branch"], tol):
        out.append(f"{where}: residual {r['residual']} above {_residual_bound(r['branch'], tol)}")
    if r["branch"] in ("ground", "local_min"):
        if _bool(r["positive_on_plus"]) is not True or r["dead_cores"] != "0":
            out.append(f"{where}: minimizer not positive on {{a>0}} (dead_cores={r['dead_cores']})")
    return out


SWEEP_BRANCHES = {
    # lambda / lambda1 -> branches the sweep must report there: all three
    # points lie below lambda* (about 1.174 lambda1 for the two-bump weight at
    # p=3, q=2), and m_minus exists only above lambda1
    0.9: ("ground",),
    1.025: ("ground", "m_minus"),
    1.15: ("ground", "m_minus"),
}


def check_sweep(rows: list[dict[str, str]], cfg: dict[str, str]) -> Verdict:
    p, n, tol = float(cfg["p"]), int(cfg["n_cells"]), float(cfg["tol"])
    factors = np.linspace(float(cfg["lambda_start"]), float(cfg["lambda_stop"]), int(cfg["lambda_count"]))
    expected = {(round(float(f), 12), b) for f in factors for b in SWEEP_BRANCHES[round(float(f), 12)]}
    verdict = Verdict(attempted=len(expected))
    exact = closed_form_lambda1(p, _length(cfg))
    rtol = _lambda1_rtol(n)

    def factor_of(lam: float) -> float:
        return float(factors[int(np.argmin(np.abs(factors - lam / exact)))])

    verdict.wrong += _implied_lambda1_problems(rows, factor_of, exact, rtol)
    found: dict[tuple[float, str], dict[str, str]] = {}
    for r in rows:
        key = (round(factor_of(float(r["lambda"])), 12), r["branch"])
        if key not in expected or key in found:
            verdict.wrong.append(f"unexpected row {r['branch']} at lambda={r['lambda']}")
            continue
        found[key] = r
    for key in sorted(expected):
        r = found.get(key)
        if r is None:
            verdict.failed.append(f"{key[1]} at {key[0]} lambda1: no row")
        elif r["status"] != "ok":
            verdict.failed.append(f"{key[1]} at {key[0]} lambda1: status {r['status']}")
    ok = {k: r for k, r in found.items() if r["status"] == "ok"}
    for r in ok.values():
        verdict.wrong += _row_problems(r, tol)

    energy = {k: float(r["energy"]) for k, r in ok.items()}
    ground = sorted((f, e) for (f, b), e in energy.items() if b == "ground")
    for f, e in ground:
        if not e < 0.0:
            verdict.wrong.append(f"ground at {f} lambda1: level {e!r} not negative")
    for (f0, e0), (f1, e1) in zip(ground, ground[1:]):
        if not e1 < e0:
            verdict.wrong.append(f"ground level not decreasing in lambda: {e0!r} at {f0}, {e1!r} at {f1}")
    for (f, b), e in energy.items():
        if b == "m_minus" and not e > 0.0:
            verdict.wrong.append(f"m_minus at {f} lambda1: level {e!r} not positive")
    return verdict


def check_three(rows: list[dict[str, str]], cfg: dict[str, str]) -> Verdict:
    """The scan's triple: I(w) < I(u) < I(v) < 0 at one lambda < lambda1."""
    p, n, tol = float(cfg["p"]), int(cfg["n_cells"]), float(cfg["tol"])
    verdict = Verdict(attempted=1)
    exact = closed_form_lambda1(p, _length(cfg))
    probes = sorted({float(r["lambda"]) for r in rows})  # probe j = 0, 1, ... in ascending lambda

    def factor_of(lam: float) -> float:
        return 1.0 - THREE_SCAN_OFFSET * 0.5 ** probes.index(lam)

    verdict.wrong += _implied_lambda1_problems(rows, factor_of, exact, _lambda1_rtol(n))
    failed = [r for r in rows if r["status"] not in ("ok",) + THREE_SCAN_PROBES]
    if failed:
        verdict.failed.append(f"scan row {failed[0]['status']} at lambda={failed[0]['lambda']}")
        return verdict
    ok_rows = [r for r in rows if r["status"] == "ok"]
    triple = {r["branch"]: r for r in ok_rows}
    if sorted(r["branch"] for r in ok_rows) != ["ground", "local_min", "mountain_pass"]:
        verdict.failed.append(f"no ground/local_min/mountain_pass triple (ok rows: {sorted(triple)})")
        return verdict
    lams = {float(r["lambda"]) for r in ok_rows}
    if len(lams) != 1 or not lams.pop() < exact:
        verdict.wrong.append("triple not at one lambda below lambda1")
    for r in triple.values():
        verdict.wrong += _row_problems(r, tol)
    e_w, e_u, e_v = (float(triple[b]["energy"]) for b in ("ground", "local_min", "mountain_pass"))
    if not e_w < e_u < e_v < 0.0:
        verdict.wrong.append(f"need I(w) {e_w!r} < I(u) {e_u!r} < I(v) {e_v!r} < 0")
    return verdict


# ---------------------------------------------------------------- region


def picone_min_dense(p: float, q: float, points: int = 2001, zooms: int = 4) -> float:
    """min over s >= 0 of (q-1)s^p + q s^(p-1) - (p-q)s + (q-p+1), by dense scan.

    For s >= s_c = ((p-q) / (p(q-1)))^(1/(p-1)) the derivative
    p(q-1)s^(p-1) + q(p-1)s^(p-2) - (p-q) is positive, so the minimum lies
    in [0, max(s_c, 1)]. Each zoom rescans two grid steps around the best
    point with the same number of points.
    """

    def f(s):
        return (q - 1.0) * s**p + q * s ** (p - 1.0) - (p - q) * s + (q - p + 1.0)

    s_hi = 1.01 * max(1.0, ((p - q) / (p * (q - 1.0))) ** (1.0 / (p - 1.0)))
    lo, hi = 0.0, s_hi
    best = math.inf
    for _ in range(zooms):
        s = np.linspace(lo, hi, points)
        vals = f(s)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        step = s[1] - s[0]
        lo, hi = max(0.0, s[k] - step), min(s_hi, s[k] + step)
    return best


def check_region(rows: list[dict[str, str]], cfg: dict[str, str]) -> Verdict:
    p_grid = np.linspace(float(cfg["region_p_min"]), float(cfg["region_p_max"]), int(cfg["region_p_count"]))
    q_grid = np.linspace(float(cfg["region_q_min"]), float(cfg["region_q_max"]), int(cfg["region_q_count"]))
    expected = {(float(p), float(q)) for p in p_grid for q in q_grid if 1.0 < q < p}
    verdict = Verdict(attempted=len(expected))
    seen = set()
    for r in rows:
        p, q = float(r["p"]), float(r["q"])
        where = f"cell p={p!r} q={q!r}"
        if (p, q) not in expected or (p, q) in seen:
            verdict.wrong.append(f"unexpected {where}")
            continue
        seen.add((p, q))
        holds, exist = _bool(r["picone_holds"]), _bool(r["existence_p_gt_2q"])
        ref_min = picone_min_dense(p, q)
        if abs(float(r["picone_min"]) - ref_min) > PICONE_MIN_ATOL:
            verdict.wrong.append(f"{where}: picone_min {r['picone_min']} vs dense scan {ref_min!r}")
        if abs(ref_min) > PICONE_MARGIN and holds != (ref_min >= 0.0):
            verdict.wrong.append(f"{where}: picone_holds={holds} but dense-scan minimum is {ref_min!r}")
        if exist != (p > 2.0 * q):
            verdict.wrong.append(f"{where}: existence_p_gt_2q={exist}")
        if holds and exist:
            verdict.wrong.append(f"{where}: both existence and nonexistence")
        if holds and not (p <= q + 1.0 and p <= 2.0 * q):
            verdict.wrong.append(f"{where}: nonexistence claimed where p > q+1 or p > 2q")
        want = "existence_regime" if exist else "nonexistence_regime" if holds else "undetermined"
        if r["classification"] != want:
            verdict.wrong.append(f"{where}: classification {r['classification']}, flags say {want}")
    verdict.failed += [f"cell p={p!r} q={q!r}: missing" for p, q in sorted(expected - seen)]
    return verdict


# ---------------------------------------------------------------- dispatch


def check_outputs(workload: str, out_dir: Path) -> Verdict:
    """Read one round's outputs from out_dir and check them."""
    if workload == "eigen-p1.5":
        cfg = read_config(f"eigen-p1.5-n{EIGEN_LADDER[0]}.cfg")
        records = {}
        for n in EIGEN_LADDER:
            path = out_dir / f"eigen-n{n}.json"
            if path.exists():
                records[n] = json.loads(path.read_text())
        return check_eigen(records, float(cfg["p"]), _length(cfg))
    checker, cfg_name, output = {
        "sweep-p3": (check_sweep, "sweep-p3.cfg", "sweep.csv"),
        "three-p5": (check_three, "three-p5.cfg", "three.csv"),
        "region-map": (check_region, "region-map.cfg", "region.csv"),
    }[workload]
    path = out_dir / output
    rows = read_rows(path) if path.exists() else []
    return checker(rows, read_config(cfg_name))

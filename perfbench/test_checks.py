"""Each output check accepts real program output and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q perfbench

The sweep, three-solution and eigen fixtures are CLI outputs of the
benchmark's configs; the region fixture is computed here by plaplab on a
coarse grid.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SWEEP_CSV = """\
lambda,branch,energy,linf_norm,residual,positive_on_plus,dead_cores,iterations,status
25.460428269912633,ground,-0.042766321528337245,0.32059371965492339,4.7821485313348511e-09,true,0,3475,ok
28.996598862956052,ground,-0.055067430420250321,0.37782253700051333,7.5154377374153647e-09,true,0,2685,ok
32.532769455999471,ground,-0.079309687756072111,0.49851363596071857,6.1710174713291988e-09,true,0,2633,ok
28.996598862956052,m_minus,61.504643300323224,12.037552855057376,8.3167652903393119e-09,true,0,225,ok
32.532769455999471,m_minus,0.20577424734709759,1.5971494001983073,9.7038015053896309e-09,true,0,101,ok
"""

THREE_CSV = """\
lambda,branch,energy,linf_norm,residual,positive_on_plus,dead_cores,iterations,status
177.7695347736647,ground,,,,,,,no_distinct_pair
178.2161918962116,ground,-0.024685361821978554,0.89829717674391374,3.2925532057748175e-09,true,0,1512,ok
178.2161918962116,local_min,-0.020438371167160494,0.2932232706583176,6.743200112006853e-09,true,0,340,ok
178.2161918962116,mountain_pass,-0.019455297130710546,0.43171678323495283,7.6406973533407914e-07,true,0,1800,ok
"""

EIGEN_LAMBDA1 = {  # p = 1.5 on (0, 1)
    256: 5.3187776198567605,
    512: 5.3187329468257687,
    1024: 5.3187217912619529,
    2048: 5.3187190046170025,
    4096: 5.3187183083532226,
}


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _cfg(name: str) -> dict[str, str]:
    return checks.read_config(name)


def _eigen_records() -> dict[int, dict]:
    return {
        n: {"p": 1.5, "n_cells": n, "lambda1": lam, "residual_sup": 5e-10, "iterations": 1, "phi_linf": 0.43}
        for n, lam in EIGEN_LAMBDA1.items()
    }


def _ok(verdict: checks.Verdict) -> bool:
    return not verdict.failed and not verdict.wrong


# ---------------------------------------------------------------- lambda1


def test_closed_form_p2_is_pi_squared():
    assert checks.closed_form_lambda1(2.0, 1.0) == pytest.approx(9.869604401089358, rel=1e-15)


def test_eigen_accepts_ladder():
    assert _ok(checks.check_eigen(_eigen_records(), 1.5, 1.0))


@pytest.mark.parametrize("n", sorted(EIGEN_LAMBDA1))
def test_eigen_rejects_lambda1_shifted(n):
    records = _eigen_records()
    records[n]["lambda1"] *= 1.0 + 1e-3
    assert checks.check_eigen(records, 1.5, 1.0).wrong


def test_eigen_counts_missing_pair_as_failed():
    records = _eigen_records()
    del records[4096]
    verdict = checks.check_eigen(records, 1.5, 1.0)
    assert len(verdict.failed) == 1 and not verdict.wrong


def test_sweep_accepts_output():
    assert _ok(checks.check_sweep(_rows(SWEEP_CSV), _cfg("sweep-p3.cfg")))


def test_sweep_rejects_lambda1_shifted():
    rows = _rows(SWEEP_CSV)
    for r in rows:
        r["lambda"] = repr(float(r["lambda"]) * (1.0 + 1e-3))
    assert checks.check_sweep(rows, _cfg("sweep-p3.cfg")).wrong


def test_three_rejects_lambda1_shifted():
    rows = _rows(THREE_CSV)
    for r in rows:
        r["lambda"] = repr(float(r["lambda"]) * (1.0 + 1e-3))
    assert checks.check_three(rows, _cfg("three-p5.cfg")).wrong


# ---------------------------------------------------------------- branch rows


def test_sweep_rejects_error_row():
    rows = _rows(SWEEP_CSV)
    m_minus = next(r for r in rows if r["branch"] == "m_minus")  # the one at 1.025 lambda1
    for key in ("energy", "linf_norm", "residual", "positive_on_plus", "dead_cores", "iterations"):
        m_minus[key] = ""
    m_minus["status"] = "error:NonConvergenceError"
    verdict = checks.check_sweep(rows, _cfg("sweep-p3.cfg"))
    assert verdict.failed == ["m_minus at 1.025 lambda1: status error:NonConvergenceError"]


def test_sweep_rejects_missing_row():
    rows = _rows(SWEEP_CSV)[1:]
    assert len(checks.check_sweep(rows, _cfg("sweep-p3.cfg")).failed) == 1


def test_sweep_rejects_swapped_ground_and_m_minus():
    rows = _rows(SWEEP_CSV)
    ground, m_minus = rows[2], rows[4]  # both at 1.15 lambda1
    ground["energy"], m_minus["energy"] = m_minus["energy"], ground["energy"]
    assert checks.check_sweep(rows, _cfg("sweep-p3.cfg")).wrong


def test_sweep_rejects_ground_level_increasing():
    rows = _rows(SWEEP_CSV)
    g0, g1 = rows[0], rows[1]  # ground at 0.9 and 1.025 lambda1
    g0["energy"], g1["energy"] = g1["energy"], g0["energy"]
    assert checks.check_sweep(rows, _cfg("sweep-p3.cfg")).wrong


def test_sweep_rejects_dead_core_minimizer():
    rows = _rows(SWEEP_CSV)
    rows[0]["dead_cores"] = "1"
    assert checks.check_sweep(rows, _cfg("sweep-p3.cfg")).wrong


def test_three_accepts_output():
    assert _ok(checks.check_three(_rows(THREE_CSV), _cfg("three-p5.cfg")))


@pytest.mark.parametrize("pair", [("ground", "local_min"), ("local_min", "mountain_pass")])
def test_three_rejects_swapped_energy_order(pair):
    rows = _rows(THREE_CSV)
    a, b = (next(r for r in rows if r["branch"] == name and r["status"] == "ok") for name in pair)
    a["energy"], b["energy"] = b["energy"], a["energy"]
    assert checks.check_three(rows, _cfg("three-p5.cfg")).wrong


def test_three_rejects_error_row():
    rows = _rows(THREE_CSV)
    rows[0]["status"] = "error:SolverError"
    assert checks.check_three(rows, _cfg("three-p5.cfg")).failed


def test_three_rejects_missing_triple():
    rows = [r for r in _rows(THREE_CSV) if r["branch"] != "mountain_pass"]
    assert checks.check_three(rows, _cfg("three-p5.cfg")).failed


# ---------------------------------------------------------------- region

REGION_CFG = {
    "region_p_min": "1.1",
    "region_p_max": "6.0",
    "region_p_count": "12",
    "region_q_min": "1.05",
    "region_q_max": "4.0",
    "region_q_count": "12",
}


@pytest.fixture(scope="module")
def region_rows():
    import numpy as np

    from plaplab.sweeps import run_region_map

    p_grid = np.linspace(1.1, 6.0, 12)
    q_grid = np.linspace(1.05, 4.0, 12)
    return _rows(run_region_map(p_grid, q_grid).to_csv())


def test_region_accepts_program_map(region_rows):
    classes = {r["classification"] for r in region_rows}
    assert classes == {"existence_regime", "nonexistence_regime", "undetermined"}
    assert _ok(checks.check_region(region_rows, REGION_CFG))


@pytest.mark.parametrize("cls", ["nonexistence_regime", "undetermined"])
def test_region_rejects_flipped_cell(region_rows, cls):
    rows = [dict(r) for r in region_rows]
    cell = max(
        (r for r in rows if r["classification"] == cls),
        key=lambda r: abs(checks.picone_min_dense(float(r["p"]), float(r["q"]))),
    )
    holds = cls == "undetermined"
    cell["picone_holds"] = "true" if holds else "false"
    cell["classification"] = "nonexistence_regime" if holds else "undetermined"
    assert checks.check_region(rows, REGION_CFG).wrong


def test_region_counts_missing_cell_as_failed(region_rows):
    verdict = checks.check_region(region_rows[1:], REGION_CFG)
    assert len(verdict.failed) == 1 and not verdict.wrong


def test_dense_scan_matches_known_minima():
    # f(0) = q - p + 1 is the minimum when the derivative is positive on s > 0
    assert checks.picone_min_dense(1.2, 1.05) == pytest.approx(0.85, abs=1e-12)
    # p = 3, q = 2: f = s^3 + 2s^2 - s, stationary where 3s^2 + 4s - 1 = 0
    s = (-4.0 + 28.0**0.5) / 6.0
    assert checks.picone_min_dense(3.0, 2.0) == pytest.approx(s**3 + 2.0 * s**2 - s, abs=1e-12)


# ---------------------------------------------------------------- metric names


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(tracing.layer_metrics([], 1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    units = {name: unit for name, (_, unit) in tracing.layer_metrics([], 1.0).items()}
    for m in spec["per_layer"]:
        assert m["unit"] == units.get(m["name"], "s")
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}

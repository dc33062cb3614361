import subprocess
import sys

import numpy as np
import pytest

from plaplab.errors import ConfigError
from plaplab.sweeps import load_config, parse_config, run_certify, run_region_map, run_sweep
from plaplab.tables import BranchRow, BranchTable, emit, parse_table

SMALL_SWEEP = """
# small deterministic sweep (negative-pairing family)
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


class TestConfig:
    def test_defaults_and_comments(self):
        cfg = parse_config("# nothing but comments\n\n")
        assert cfg.n_cells == 256 and cfg.lambda_scale == "lambda1"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("wibble = 3\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("lambda_count = 0\n")

    def test_exponents_outside_range_rejected(self):
        for text in ("p = 1.5\n", "q = 3.0\n", "q = 1.0\n", "p = 1.0\nq = 0.5\n", "p = nan\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_values_parsed(self):
        cfg = parse_config(SMALL_SWEEP)
        assert cfg.n_cells == 96
        assert cfg.seed == 7
        assert cfg.lambda_count == 2


class TestTables:
    def _table(self):
        rows = (
            BranchRow(lam=1.0 / 3.0, branch="ground", energy=-1.2345678901234567e-3,
                      linf_norm=0.25, residual=1e-17, positive_on_plus=True,
                      dead_cores=0, iterations=123, status="ok"),
            BranchRow(lam=2.0, branch="m_minus", status="error:SolverError"),
        )
        return BranchTable(rows)

    def test_csv_roundtrip_field_exact(self, tmp_path):
        t = self._table()
        path = tmp_path / "t.csv"
        emit(t, path, "csv")
        back = parse_table(path)
        assert back == t

    def test_json_roundtrip_field_exact(self, tmp_path):
        t = self._table()
        path = tmp_path / "t.json"
        emit(t, path, "json")
        back = parse_table(path)
        assert back == t

    def test_csv_and_json_carry_identical_values(self, tmp_path):
        t = self._table()
        emit(t, tmp_path / "t.csv", "csv")
        emit(t, tmp_path / "t.json", "json")
        assert parse_table(tmp_path / "t.csv") == parse_table(tmp_path / "t.json")

    def test_empty_table_header_only(self, tmp_path):
        emit(BranchTable(()), tmp_path / "e.csv", "csv")
        text = (tmp_path / "e.csv").read_text()
        assert text.splitlines() == [
            "lambda,branch,energy,linf_norm,residual,positive_on_plus,dead_cores,iterations,status"
        ]

    def test_rows_sorted_by_branch_then_lambda(self):
        rows = (
            BranchRow(lam=2.0, branch="m_minus"),
            BranchRow(lam=1.0, branch="ground"),
            BranchRow(lam=3.0, branch="ground"),
        )
        out = BranchTable(rows).sorted().rows
        assert [(r.branch, r.lam) for r in out] == [("ground", 1.0), ("ground", 3.0), ("m_minus", 2.0)]


class TestSweepDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        t1 = run_sweep(cfg)
        t2 = run_sweep(cfg)
        emit(t1, tmp_path / "a.csv", "csv")
        emit(t2, tmp_path / "b.csv", "csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # ground-branch energies are nonincreasing along the grid
        ground = [r.energy for r in t1.rows if r.branch == "ground" and r.status == "ok"]
        assert len(ground) == 2 and ground[1] < ground[0]


class TestSweepBranches:
    def test_sweep_crosses_threshold(self):
        # negative pairing: ground + m_minus below the threshold, tube
        # continuation (and its saddle) above it
        cfg = parse_config(
            """
n_cells = 128
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 1.10
lambda_stop = 1.19
lambda_count = 2
tol = 1e-8
seed = 3
starts = 3
sample_count = 2
"""
        )
        table = run_sweep(cfg)
        branches = {r.branch for r in table.rows}
        assert {"ground", "m_minus", "local_min"} <= branches
        ground_rows = [r for r in table.rows if r.branch == "ground" and r.status == "ok"]
        m_rows = [r for r in table.rows if r.branch == "m_minus" and r.status == "ok"]
        cont_rows = [r for r in table.rows if r.branch == "local_min" and r.status == "ok"]
        assert ground_rows and m_rows and cont_rows
        assert all(r.energy < 0 for r in ground_rows + cont_rows)
        assert all(r.energy > 0 for r in m_rows)


class TestThreeSolutionScan:
    def test_mu_zero_finds_no_triple(self):
        from plaplab.sweeps import run_three_solutions

        cfg = parse_config(
            """
n_cells = 128
p = 5.0
q = 2.0
weight_family = perturbed
mu = 0.0
seed = 5
starts = 3
sample_count = 2
"""
        )
        table = run_three_solutions(cfg)
        assert table.rows
        assert all(r.status != "ok" for r in table.rows)

    def test_oversized_mu_refused(self):
        from plaplab.sweeps import run_three_solutions

        cfg = parse_config("p = 5.0\nq = 2.0\nweight_family = perturbed\nmu = 5.0\n")
        with pytest.raises(ConfigError):
            run_three_solutions(cfg)


class TestRegionMap:
    def test_examples_present(self):
        table = run_region_map([2.0, 3.0, 5.0], [1.5, 2.0])
        by_pq = {(r.p, r.q): r.classification for r in table.rows}
        assert by_pq[(5.0, 2.0)] == "existence_regime"
        assert by_pq[(2.0, 1.5)] == "nonexistence_regime"
        assert by_pq[(3.0, 2.0)] == "undetermined"

    def test_admissible_pairs_only(self):
        table = run_region_map([1.5, 2.0], [1.5, 2.0, 3.0])
        for r in table.rows:
            assert 1.0 < r.q < r.p

    def test_one_picone_call_per_pair(self, monkeypatch):
        import plaplab.critical
        import plaplab.sweeps

        calls = []
        original = plaplab.critical.picone_condition

        def counting(p, q):
            calls.append((p, q))
            return original(p, q)

        monkeypatch.setattr(plaplab.critical, "picone_condition", counting)
        monkeypatch.setattr(plaplab.sweeps, "picone_condition", counting)
        p_grid = np.linspace(1.1, 6.0, 6)
        q_grid = np.linspace(1.05, 4.0, 5)
        table = run_region_map(p_grid, q_grid)
        admissible = [(p, q) for p in p_grid for q in q_grid if 1.0 < q < p]
        assert len(table.rows) == len(admissible)
        assert calls == admissible

    def test_csv_booleans_lowercase(self):
        table = run_region_map(np.linspace(1.1, 6.0, 8), np.linspace(1.05, 4.0, 6))
        lines = table.to_csv().splitlines()
        header = lines[0].split(",")
        cols = [header.index("picone_holds"), header.index("existence_p_gt_2q")]
        cells = {line.split(",")[c] for line in lines[1:] for c in cols}
        assert cells == {"true", "false"}


class TestCertify:
    def test_no_uncertified_positive(self):
        cfg = parse_config(
            """
n_cells = 128
p = 2.0
q = 1.5
weight_family = orthogonal-two-bump
lambda_start = 1.02
lambda_count = 1
seed = 11
certify_starts = 8
"""
        )
        table = run_certify(cfg)
        assert len(table.rows) == 8
        assert all(r.status != "uncertified_positive" for r in table.rows)


class TestCommandLine:
    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "plaplab.cli", *args], capture_output=True, text=True
        )

    def test_eigen_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_cells = 64\np = 2.0\nq = 1.5\n")
        res = self._run(["eigen", "--config", str(cfg), "--format", "json"])
        assert res.returncode == 0
        assert '"lambda1"' in res.stdout
        lam1 = float(res.stdout.split('"lambda1": ')[1].split(",")[0])
        assert abs(lam1 - np.pi**2) < 0.01

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        res = self._run(["eigen", "--config", str(cfg)])
        assert res.returncode == 2

    def test_p_not_above_q_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p = 1.5\n")  # default q = 2
        res = self._run(["eigen", "--config", str(cfg)])
        assert res.returncode == 2
        assert "config error:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_config_exit_code(self):
        res = self._run(["eigen", "--config", "/nonexistent/path.cfg"])
        assert res.returncode == 2

    def test_region_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("region_p_count = 4\nregion_q_count = 3\n")
        out = tmp_path / "region.csv"
        res = self._run(["region", "--config", str(cfg), "--out", str(out)])
        assert res.returncode == 0
        assert out.read_text().startswith("p,q,classification")

    def test_ground_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n_cells = 96\np = 3.0\nq = 2.0\nweight_family = two-bump\n"
            "lambda_start = 0.5\nlambda_count = 1\nstarts = 2\nseed = 1\n"
        )
        res = self._run(["ground", "--config", str(cfg)])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0].startswith("lambda,branch")
        assert ",ground," in lines[1] and lines[1].endswith(",ok")

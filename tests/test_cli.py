import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from plaplab import solvers
from plaplab.cli import main
from plaplab.errors import ConfigError, SolverError
from plaplab.functionals import evaluate
from plaplab.grid import component_bump, grid_fn, widest_component_bump
from plaplab.sweeps import (
    RunConfig,
    build_problem,
    load_config,
    parse_config,
    run_certify,
    run_region_map,
    run_sweep,
    run_three_solutions,
)
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

    def test_defaults_are_the_field_defaults(self):
        assert parse_config("") == RunConfig()

    @pytest.mark.parametrize(
        "text",
        [
            "n_cells = 7.5\n",
            "seed = 1e3\n",
            "tol = abc\n",
            "b_center = \n",
            "n_cells = 1\n",
            "x_lo = 1.0\n",
            "x_lo = 2.0\nx_hi = 1.0\n",
            "x_hi = nan\n",
            "starts = 0\n",
            "sample_count = 0\n",
            "certify_starts = -1\n",
            "beads = 3\n",
            "tol = 0\n",
            "tol = -1e-8\n",
            "tol = inf\n",
            "tol = nan\n",
            "lambda_start = nan\n",
            "lambda_stop = inf\n",
            "lambda_scale = absolute\nlambda_start = nan\n",
        ],
    )
    def test_degenerate_value_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unconvertible_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 3: n_cells = '7.5' is not a valid int"):
            parse_config("# mesh\np = 3.0\nn_cells = 7.5\n")

    def test_weight_file_must_match_the_mesh(self, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("1.0\n-2.0\n3.0\n")
        cfg = parse_config(f"n_cells = 64\nweight_family = file\nweight_file = {path}\n")
        with pytest.raises(ConfigError, match="weight file"):
            build_problem(cfg)


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
    CROSSES = """
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

    def test_sweep_crosses_threshold(self):
        # negative pairing: ground + m_minus below the threshold, tube
        # continuation (and its saddle) above it
        table = run_sweep(parse_config(self.CROSSES))
        branches = {r.branch for r in table.rows}
        assert {"ground", "m_minus", "local_min"} <= branches
        ground_rows = [r for r in table.rows if r.branch == "ground" and r.status == "ok"]
        m_rows = [r for r in table.rows if r.branch == "m_minus" and r.status == "ok"]
        cont_rows = [r for r in table.rows if r.branch == "local_min" and r.status == "ok"]
        assert ground_rows and m_rows and cont_rows
        assert all(r.energy < 0 for r in ground_rows + cont_rows)
        assert all(r.energy > 0 for r in m_rows)

    def test_saddle_finishes_from_the_first_newton_entry(self, monkeypatch):
        # Newton's first step from the 1e-2 entry lowers the sup residual only
        # to 0.9 of it; a step that lowers it counts, so the string runs once
        calls = []
        string_relax = solvers.string_relax

        def counting(*args, **kwargs):
            calls.append(1)
            return string_relax(*args, **kwargs)

        monkeypatch.setattr(solvers, "string_relax", counting)
        table = run_sweep(parse_config(self.CROSSES))
        saddles = [r for r in table.rows if r.branch == "mountain_pass"]
        assert [r.status for r in saddles] == ["ok"]
        assert len(calls) == 1


class TestSaddlePastThreshold:
    # the sweep-p3 benchmark settings with the grid carried past lambda*
    # (about 1.174 lambda1) to 1.2 lambda1, where the sweep continues the
    # local minimum and runs the mountain pass from it
    CONFIG = """
n_cells = 256
x_lo = 0.0
x_hi = 1.0
p = 3.0
q = 2.0
weight_family = two-bump
lambda_start = 0.9
lambda_stop = 1.2
lambda_count = 3
tol = 1e-8
seed = 7
"""

    @pytest.mark.parametrize("seed", [2, 5])
    def test_mountain_pass_row_ok(self, tmp_path, seed):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--seed", str(seed), "--out", str(out), "--format", "csv"]) == 0
        rows = parse_table(out).rows
        lam = max(r.lam for r in rows)
        at_top = {r.branch: r for r in rows if r.lam == lam}
        saddle, local_min = at_top["mountain_pass"], at_top["local_min"]
        assert saddle.status == "ok" and local_min.status == "ok"
        assert saddle.residual < 1e-8  # the config's tol
        assert local_min.energy < saddle.energy < 0.0


class TestSaddleFromNegativeDust:
    # past lambda1 on the zero-pairing weight at q = 1.5, the continued local
    # minimum carries -2.45e-4 on 23 nodes: dust the degenerate p = 5 flux
    # leaves inside the stop residual. The mountain pass starts from its
    # positive part.
    CONFIG = """
n_cells = 128
p = 5.0
q = 1.5
weight_family = orthogonal-two-bump
lambda_start = 1.02
lambda_count = 1
tol = 1e-8
seed = 7
starts = 3
sample_count = 2
"""

    def test_mountain_pass_row_ok(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        rows = {r.branch: r for r in parse_table(out).rows}
        local_min, saddle = rows["local_min"], rows["mountain_pass"]
        assert local_min.status == "ok" and saddle.status == "ok"
        assert saddle.residual < 1e-8
        assert local_min.energy < saddle.energy < 0.0


class TestSaddleFromAResumedString:
    # a wider positive bump past lambda1: Newton fails from the 1e-2 entry,
    # so mountain_pass resumes the string to 1e-3 and Newton finishes there
    CONFIG = """
n_cells = 128
p = 5.0
q = 2.0
weight_family = orthogonal-two-bump
center_plus = 0.22
width_plus = 0.28
lambda_start = 1.035
lambda_count = 1
seed = 7
starts = 3
sample_count = 2
"""

    def test_saddle_finishes_from_the_resumed_string(self, monkeypatch):
        calls = []
        string_relax = solvers.string_relax

        def counting(*args, **kwargs):
            calls.append(1)
            return string_relax(*args, **kwargs)

        monkeypatch.setattr(solvers, "string_relax", counting)
        table = run_sweep(parse_config(self.CONFIG))
        saddles = [r for r in table.rows if r.branch == "mountain_pass"]
        assert [r.status for r in saddles] == ["ok"]
        assert saddles[0].residual < 1e-8  # the config's tol
        assert len(calls) == 2


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


class TestProblemBuilder:
    # the config of acceptance criterion 07
    THREE = """
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

    def test_three_scan_solves_with_the_built_weight(self, monkeypatch):
        class Stop(Exception):
            pass

        seen = []

        def first_solve(spec, **kwargs):
            seen.append(spec)
            raise Stop

        monkeypatch.setattr(solvers, "minimizer_set_at_star", lambda *args, **kwargs: None)
        monkeypatch.setattr(solvers, "ground_state", first_solve)
        cfg = parse_config(self.THREE)
        with pytest.raises(Stop):
            run_three_solutions(cfg)
        problem = build_problem(cfg)
        assert np.array_equal(seen[0].a.values, problem.spec0.a.values)
        assert seen[0].mesh == problem.spec0.mesh

    def test_perturbation_is_scaled_by_the_base(self):
        problem = build_problem(parse_config(self.THREE + "b_amp = 2.0\nb_width = 0.1\n"))
        bump = problem.spec0.a.values - problem.base.values
        assert np.min(bump) >= 0.0
        # mu times ||base||_inf times a bump of amplitude b_amp
        assert np.max(bump) == pytest.approx(0.05 * problem.base.linf() * 2.0, rel=1e-12)
        # the bump sits on the negative part of the base (center_minus = 0.75)
        mesh = problem.spec0.mesh
        assert abs(mesh.nodes[np.argmax(bump)] - 0.75) <= mesh.h

    def test_three_requires_the_perturbed_family(self):
        cfg = parse_config("n_cells = 64\np = 5.0\nq = 2.0\nweight_family = two-bump\n")
        with pytest.raises(ConfigError, match="perturbed"):
            run_three_solutions(cfg)


def _fail(*args, **kwargs):
    raise SolverError("forced failure")


def _not_reached(*args, **kwargs):
    raise AssertionError("this solve must not run")


class TestSweepFailureRows:
    """A solve of the sweep that raises gives a marker row of its branch, and the sweep exits 3."""

    # past the threshold of a zero-pairing weight, where lambda* = lambda1:
    # the local minimum is ok, then the mountain pass over it is made to fail
    CONFIG = """
n_cells = 128
p = 5.0
q = 2.0
weight_family = orthogonal-two-bump
lambda_start = {lam}
lambda_count = 1
seed = 7
starts = 3
sample_count = 2
"""
    # negative pairing, between lambda1 and lambda*: ground and m_minus
    BELOW_STAR = SMALL_SWEEP.replace("lambda_start = 0.4", "lambda_start = 1.05").replace(
        "lambda_count = 2", "lambda_count = 1"
    )

    @staticmethod
    def _sweep(tmp_path, text):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        return code, [(r.branch, r.status) for r in parse_table(out).rows]

    @pytest.mark.parametrize("failing", ["runaway_state", "mountain_pass"])
    def test_failure_row_names_the_mountain_pass(self, tmp_path, monkeypatch, failing):
        monkeypatch.setattr(solvers, failing, _fail)
        code, rows = self._sweep(tmp_path, self.CONFIG.format(lam=1.02))
        assert code == 3
        assert rows == [("local_min", "ok"), ("mountain_pass", "error:SolverError")]

    @pytest.mark.parametrize(
        "failing, rows",
        [
            ("ground_state", [("ground", "error:SolverError"), ("m_minus", "ok")]),
            ("m_minus", [("ground", "ok"), ("m_minus", "error:SolverError")]),
        ],
    )
    def test_failure_row_below_the_threshold(self, tmp_path, monkeypatch, failing, rows):
        monkeypatch.setattr(solvers, failing, _fail)
        assert self._sweep(tmp_path, self.BELOW_STAR) == (3, rows)

    def test_failed_continuation_ends_its_lambda(self, tmp_path, monkeypatch):
        # no local minimum to climb from: the mountain pass is not tried
        monkeypatch.setattr(solvers, "local_min_continuation", _fail)
        monkeypatch.setattr(solvers, "mountain_pass", _not_reached)
        assert self._sweep(tmp_path, self.CONFIG.format(lam=1.02)) == (3, [("local_min", "error:SolverError")])

    def test_no_minimizer_set(self, tmp_path, monkeypatch):
        # minimizer_set_at_star raising leaves the sweep without a set to continue
        monkeypatch.setattr(solvers, "minimizer_set_at_star", _fail)
        monkeypatch.setattr(solvers, "local_min_continuation", _not_reached)
        assert self._sweep(tmp_path, self.CONFIG.format(lam=1.02)) == (3, [("local_min", "error:NoMinimizerSet")])

    def test_no_mountain_pass_at_lambda1(self, tmp_path):
        # no runaway state exists at lam = lambda1, so there is no branch to fail
        assert self._sweep(tmp_path, self.CONFIG.format(lam=1.0)) == (0, [("local_min", "ok")])


class TestQNearP:
    """Where q is near p the fibered powers G^(p/(p-q)) and E^(-q/(p-q)) overflow a float."""

    # between lambda1 = 21.1524 and lambda* = 21.1908: ground and m_minus
    SWEEP = """
n_cells = 128
p = 2.71
q = 2.59
weight_family = two-bump
amp_plus = 22.53
center_plus = 0.67
width_plus = 0.22
amp_minus = 26.51
center_minus = 0.46
width_minus = 0.12
lambda_start = 1.0009
lambda_count = 1
seed = 7
"""
    GROUND = (
        "n_cells = 64\np = 3.0\nq = 2.999\nweight_family = two-bump\namp_plus = 60\n"
        "lambda_start = 0.9\nlambda_count = 1\nseed = 7\n"
    )

    def test_m_minus_row_is_a_solver_error(self, tmp_path):
        # no start passes m_minus's acceptance; the sweep still writes its table
        code, rows = TestSweepFailureRows._sweep(tmp_path, self.SWEEP)
        assert code == 3
        assert rows == [("ground", "ok"), ("m_minus", "error:SolverError")]

    def test_ground_overflow_exits_3_with_a_message(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.GROUND)
        res = subprocess.run(
            [sys.executable, "-m", "plaplab.cli", "ground", "--config", str(cfg)], capture_output=True, text=True
        )
        assert res.returncode == 3
        assert "solver failure:" in res.stderr and "q is too near p" in res.stderr
        assert "Traceback" not in res.stderr
        # |E|^(q/(p-q)) underflows before any power overflows: J must not go 0/0 on the way
        assert "RuntimeWarning" not in res.stderr


class TestThreeFailureRows:
    """A solve of the scan that raises gives a row of its own branch, and the scan goes on."""

    CONFIG = "n_cells = 64\np = 5.0\nq = 2.0\nweight_family = perturbed\nmu = 0.05\n"

    @staticmethod
    def _report(level, peak):
        u = SimpleNamespace(values=np.array([0.0, peak, 0.0]))
        return SimpleNamespace(ok=True, breakdown=SimpleNamespace(I_trunc=level), u=u)

    def _stub_solves(self, monkeypatch):
        monkeypatch.setattr(solvers, "minimizer_set_at_star", lambda *args, **kwargs: None)
        monkeypatch.setattr(solvers, "ground_state", lambda *args, **kwargs: self._report(-2.0, 2.0))
        monkeypatch.setattr(solvers, "local_min_continuation", lambda *args, **kwargs: self._report(-1.0, 1.0))

    @pytest.mark.parametrize(
        "failing, branch",
        [("ground_state", "ground"), ("local_min_continuation", "local_min"), ("mountain_pass", "mountain_pass")],
    )
    def test_failure_row_names_the_failed_solve(self, monkeypatch, failing, branch):
        self._stub_solves(monkeypatch)
        monkeypatch.setattr(solvers, failing, _fail)
        rows = run_three_solutions(parse_config(self.CONFIG)).rows
        assert len(rows) == 10
        assert {(r.branch, r.status) for r in rows} == {(branch, "error:SolverError")}

    def test_saddle_below_the_local_minimum_is_no_third_solution(self, monkeypatch):
        # a converged saddle between the two levels breaks ground < local_min < saddle
        self._stub_solves(monkeypatch)
        monkeypatch.setattr(solvers, "mountain_pass", lambda *args, **kwargs: self._report(-1.5, 1.5))
        rows = run_three_solutions(parse_config(self.CONFIG)).rows
        assert len(rows) == 10
        assert {(r.branch, r.status) for r in rows} == {("mountain_pass", "no_third_solution")}


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
    CONFIG = """
n_cells = 128
p = 2.0
q = 1.5
weight_family = orthogonal-two-bump
lambda_start = {lam}
lambda_count = 1
seed = 11
certify_starts = 8
"""

    def test_no_uncertified_positive(self):
        table = run_certify(parse_config(self.CONFIG.format(lam=1.02)))
        assert len(table.rows) == 8
        assert all(r.status != "uncertified_positive" for r in table.rows)
        # every start diverges here, so the line above holds without a
        # classified candidate; the classification is tested below
        assert {r.status for r in table.rows} == {"diverged"}

    def test_every_candidate_class(self, monkeypatch):
        # converged candidates at 0.5 lambda1, one per status, and a diverged run
        cfg = parse_config(self.CONFIG.format(lam=0.5))
        problem = build_problem(cfg)
        mesh, phi = problem.spec0.mesh, problem.pair.phi.values
        (plus,) = problem.partition.plus_components
        bump = component_bump(mesh, plus)
        part_bump = bump.copy()
        part_bump[plus[0] : (plus[0] + plus[1]) // 2] = 0.0
        candidates = [
            # positive on {a > 0} and so small that int_{u>0} a phi^q outweighs
            # the certificate's (lambda1 - lam) term
            (1e-12 * bump, "converged"),
            (phi, "converged"),  # positive everywhere; the weight pairs to 0 with phi^q
            (widest_component_bump(mesh, problem.partition.minus_components), "converged"),  # zero on {a > 0}
            (part_bump, "converged"),  # zero on part of {a > 0}
            (phi, "diverged"),
        ]

        def candidates_at(spec, **kwargs):
            reports = []
            for v, status in candidates:
                u = grid_fn(mesh, v)
                reports.append(solvers.SolveReport(u, evaluate(u, spec), 0.0, 0, spec.lam, status))
            return reports

        monkeypatch.setattr(solvers, "multistart_truncated_descent", candidates_at)
        statuses = [r.status for r in run_certify(cfg).rows]
        assert statuses == ["certified_spurious", "uncertified_positive", "dead_core", "not_positive", "diverged"]


class TestExitCodes:
    """ground, sweep and three exit 3 exactly when some branch has no ok row."""

    @staticmethod
    def _code(*rows):
        from plaplab.cli import _branch_exit_code

        return _branch_exit_code(BranchTable(tuple(BranchRow(lam=lam, branch=b, status=s) for lam, b, s in rows)))

    def test_every_branch_with_an_ok_row_exits_0(self):
        assert self._code((1.0, "ground", "ok")) == 0
        assert self._code((1.0, "ground", "ok"), (2.0, "ground", "error:SolverError"), (2.0, "m_minus", "ok")) == 0
        # a three-solution scan that found its triple after earlier probes
        assert self._code(
            (1.0, "ground", "no_distinct_pair"),
            (2.0, "mountain_pass", "no_third_solution"),
            (3.0, "ground", "ok"),
            (3.0, "local_min", "ok"),
            (3.0, "mountain_pass", "ok"),
        ) == 0

    def test_a_branch_without_an_ok_row_exits_3(self):
        assert self._code((1.0, "ground", "diverged")) == 3
        assert self._code((1.0, "ground", "ok"), (2.0, "m_minus", "error:EmptyConeError")) == 3
        assert self._code((1.0, "ground", "ok"), (2.0, "local_min", "window_exceeded")) == 3
        # a three-solution scan that found no triple
        assert self._code((1.0, "ground", "no_distinct_pair"), (2.0, "mountain_pass", "no_third_solution")) == 3


def _csv_records(text):
    header, *lines = [line.split(",") for line in text.splitlines()]
    return [dict(zip(header, cells)) for cells in lines]


def _cell_value(cell, like):
    """A CSV cell read as the type of the matching JSON value."""
    if like is None:
        return None if cell == "" else cell
    if isinstance(like, bool):
        return {"true": True, "false": False}.get(cell, cell)
    if isinstance(like, (int, float)):
        return float(cell)
    return cell


class TestSerializer:
    """JSON output parses, and carries the CSV output's values field-exact."""

    CONFIGS = {
        "eigen": "n_cells = 64\np = 2.0\nq = 1.5\n",
        "critical": "n_cells = 64\np = 3.0\nq = 2.0\nweight_family = two-bump\n",
        "region": "region_p_count = 4\nregion_q_count = 3\n",
        "sweep": SMALL_SWEEP,
    }

    @pytest.mark.parametrize("command", list(CONFIGS))
    def test_json_parses_and_equals_csv(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIGS[command])
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main([command, "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
            texts[fmt] = out.read_text()
        records = json.loads(texts["json"])
        if isinstance(records, dict):  # the single record of eigen and critical
            records = [records]
        csv_records = _csv_records(texts["csv"])
        assert len(records) == len(csv_records) > 0
        for rec, cells in zip(records, csv_records):
            assert list(rec) == list(cells)
            assert {k: _cell_value(cells[k], v) for k, v in rec.items()} == rec

    def test_non_finite_float_is_json_null(self, tmp_path, capsys):
        # at p = 1.01, q = 1 + 1e-7 the Picone minimum is -inf: JSON null, CSV -inf
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "region_p_min = 1.01\nregion_p_max = 1.02\nregion_p_count = 2\n"
            "region_q_min = 1.0000001\nregion_q_max = 1.005\nregion_q_count = 2\n"
        )
        texts = {}
        for fmt in ("csv", "json"):
            assert main(["region", "--config", str(cfg), "--format", fmt]) == 0
            texts[fmt] = capsys.readouterr().out
        records = json.loads(texts["json"])
        assert records[0]["q"] == 1.0000001 and records[0]["picone_min"] is None
        assert _csv_records(texts["csv"])[0]["picone_min"] == "-inf"


class TestCommandLine:
    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "plaplab.cli", *args], capture_output=True, text=True
        )

    def test_import_loads_no_scipy(self):
        """The package runs on numpy alone: a fresh import of the command line loads no scipy module."""
        code = "import sys, plaplab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_eigen_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_cells = 64\np = 2.0\nq = 1.5\n")
        res = self._run(["eigen", "--config", str(cfg), "--format", "json"])
        assert res.returncode == 0
        assert '"lambda1"' in res.stdout
        lam1 = float(res.stdout.split('"lambda1": ')[1].split(",")[0])
        assert abs(lam1 - np.pi**2) < 0.01

    def test_eigen_subcommand_at_p_1_25(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_cells = 256\np = 1.25\nq = 1.1\n")
        res = self._run(["eigen", "--config", str(cfg), "--format", "json"])
        assert res.returncode == 0, res.stderr
        record = json.loads(res.stdout)
        assert record["p"] == 1.25 and record["n_cells"] == 256
        assert record["iterations"] > 0 and record["phi_linf"] > 0.0

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

    @pytest.mark.parametrize(
        "text", ["n_cells = 7.5\n", "n_cells = 64\nweight_family = file\nweight_file = {dir}/w.txt\n"]
    )
    def test_degenerate_config_exit_code(self, tmp_path, text):
        (tmp_path / "w.txt").write_text("1.0\n-2.0\n3.0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("{dir}", str(tmp_path)))
        res = self._run(["ground", "--config", str(cfg)])
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

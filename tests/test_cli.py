"""CLI harness: config precedence, determinism, exit codes, file contracts."""

import csv
import importlib
import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from funmlab import cli
from funmlab.cg import cg_solve, lanczos_cg_equivalence
from funmlab.cli import ExperimentConfig, main
from funmlab.errors import SolverFailureError
from funmlab.functions import inverse_function
from funmlab.hardspectrum import hard_spectrum
from funmlab.minimax import min_degree_for, minimax
from funmlab.operators import SymmetricOperator


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse errors
        return exc.code


class TestConfigParsing:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix = diag:1,2,3\nfunction = sqrt\nk = 5\n")
        out = tmp_path / "out"
        code = run_cli([
            "apply", "--config", str(cfg), "--k", "10",
            "--output-dir", str(out),
        ])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["k"] == 10

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix = diag:1\nfoo = 1\n")
        assert run_cli(["apply", "--config", str(cfg), "--k", "1"]) == 2

    def test_unknown_flag_rejected(self):
        assert run_cli(["apply", "--foo"]) == 2

    def test_missing_command_rejected(self):
        assert run_cli([]) == 2

    def test_malformed_file_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix diag:1\n")
        assert run_cli(["apply", "--config", str(cfg), "--k", "1"]) == 2
        assert "run.cfg:1" in capsys.readouterr().err

    def test_comments_and_blank_lines_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# study\n\nmatrix = diag:1,2\nfunction = exp\nk = 2\n")
        out = tmp_path / "out"
        assert run_cli(["apply", "--config", str(cfg),
                        "--output-dir", str(out)]) == 0

    def test_missing_required_field(self, tmp_path):
        # apply without k is a config error
        assert run_cli(["apply", "--matrix", "diag:1"]) == 2

    def test_bad_file_value_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix = diag:1,2\nk = abc\n")
        assert run_cli(["apply", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "run.cfg:2" in err and "Traceback" not in err

    def test_file_values_take_the_flag_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix = diag:1,2\nk = 2\neps = 1e-3\nstop-tol = 0\n")
        out = tmp_path / "out"
        assert run_cli(["apply", "--config", str(cfg), "--output-dir", str(out)]) == 0
        config = json.loads((out / "meta.json").read_text())["config"]
        assert (config["k"], config["eps"], config["stop_tol"]) == (2, 1e-3, 0.0)

    def test_bad_flag_value_rejected(self):
        assert run_cli(["apply", "--matrix", "diag:1", "--k", "abc"]) == 2

    def test_command_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = solve\n")
        assert run_cli(["apply", "--config", str(cfg), "--k", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["apply", "--matrix", "random-spd:abc", "--k", "2"],
        ["apply", "--matrix", "diag:1,x", "--k", "2"],
        ["apply", "--matrix", "random-sym:4.5", "--k", "2"],
        ["topsv", "--matrix", "random-rect:5", "--delta", "0.2"],
        ["apply", "--matrix", "random-spd:-3", "--k", "2"],
        ["apply", "--matrix", "random-spd:0", "--k", "2"],
        ["apply", "--matrix", "random-spd:5,0", "--k", "2"],
        ["apply", "--matrix", "random-spd:5,-2", "--k", "2"],
        ["apply", "--matrix", "random-spd:5,inf", "--k", "2"],
        ["apply", "--matrix", "random-sym:0", "--k", "2"],
        ["topsv", "--matrix", "random-rect:0,5", "--delta", "0.2"],
        ["topsv", "--matrix", "random-rect:5,-1", "--delta", "0.2"],
    ])
    def test_malformed_matrix_source_is_structural(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(argv + ["--output-dir", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "StructuralError"
        assert "malformed matrix source" in report["error"]["message"]


    @pytest.mark.parametrize("argv", [
        ["topsv", "--matrix", "random-rect:5,4", "--delta", "0.2", "--trials", "-3"],
        ["topsv", "--matrix", "random-rect:5,4", "--delta", "0.2", "--trials", "0"],
        ["lowerbound", "--kappa", "4", "--eta", "1e-3", "--kmax", "0"],
    ])
    def test_count_below_one_is_structural(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        assert run_cli(argv + ["--output-dir", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "StructuralError"
        assert "must be at least 1" in report["error"]["message"]
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("invalid input: ") and "numerical failure" not in err

    def test_solver_failure_keeps_its_label(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise SolverFailureError("no convergence")

        monkeypatch.setitem(cli._RUNNERS, "apply", fail)
        out = tmp_path / "out"
        argv = ["apply", "--matrix", "diag:1,2", "--k", "2", "--output-dir", str(out)]
        assert run_cli(argv) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "SolverFailureError"
        assert capsys.readouterr().err == "numerical failure: no convergence\n"


class TestSpecInvocations:
    """The documented command lines, verbatim."""

    def test_apply_generator_alias(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "apply", "--generator", "diag:1,2,3", "--function", "sqrt",
            "--k", "3", "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # schema comment, header, single row
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["measured_error"]) <= 1e-10

    def test_lowerbound_curve_and_min_degree(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "lowerbound", "--kappa", "64", "--eta", "1e-4",
            "--target", "0.1667", "--kmax", "120", "--output-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert "min_degree" in report and "delta_curve" in report
        assert report["min_degree"] == 20

    def test_precision_sweep_generator(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "precision-sweep", "--bits", "12,16,24,52",
            "--generator", "random-spd:60", "--k", "25",
            "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 4


class TestDeterminism:
    def test_identical_csv_bodies(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli([
                "precision-sweep", "--bits", "12,24,52",
                "--matrix", "random-sym:30", "--k", "12", "--seed", "7",
                "--output-dir", str(out),
            ])
            assert code == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_cached_parser_writes_what_fresh_parsers_write(self, tmp_path):
        runs = [
            ["topsv", "--matrix", "random-rect:6,4", "--delta", "0.3",
             "--trials", "3", "--seed", "5"],
            ["apply", "--matrix", "diag:1,2,3", "--function", "sqrt", "--k", "3"],
        ]

        def outputs(prefix, fresh):
            files = []
            for i, argv in enumerate(runs):
                if fresh:
                    cli.make_parser.cache_clear()
                out = tmp_path / f"{prefix}{i}"
                assert run_cli(argv + ["--output-dir", str(out)]) == 0
                files += [(out / name).read_bytes()
                          for name in ("results.csv", "report.json")]
                # meta.json also holds times; its config shows any leaked flag
                config = json.loads((out / "meta.json").read_text())["config"]
                files.append({k: v for k, v in config.items() if k != "output_dir"})
            return files

        assert outputs("cached", fresh=False) == outputs("fresh", fresh=True)

    def test_seed_changes_results(self, tmp_path):
        bodies = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            run_cli([
                "apply", "--matrix", "random-sym:20", "--function", "exp",
                "--k", "6", "--seed", seed, "--output-dir", str(out),
            ])
            bodies.append((out / "results.csv").read_bytes())
        assert bodies[0] != bodies[1]


class TestCommands:
    def test_apply_diag_sqrt(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "apply", "--matrix", "diag:1,2,3", "--function", "sqrt",
            "--k", "3", "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# funmlab apply schema v")
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["measured_error"]) <= 1e-10
        assert row["passed"] == "true"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_solve_writes_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "solve", "--matrix", "random-spd:15,20", "--k", "6",
            "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 6  # comment, header, one row per k

    def test_exp_psd_variant(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "exp", "--matrix", "diag:0.5,1.0,2.0", "--eps", "1e-6",
            "--variant", "psd", "--output-dir", str(out),
        ])
        assert code == 0

    def test_step_containment_only(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "step", "--gamma", "0.2", "--eps", "0.05",
            "--output-dir", str(out),
        ])
        assert code == 0

    def test_lowerbound_report_has_curve(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "lowerbound", "--kappa", "16", "--eta", "1e-4",
            "--kmax", "15", "--output-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["min_degree"] == 7
        assert len(report["delta_curve"]) == report["min_degree"] + 1

    def test_topsv_summary(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "topsv", "--matrix", "random-rect:30,20", "--delta", "0.2",
            "--trials", "4", "--output-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert 0.0 <= report["success_fraction"] <= 1.0

    def test_paige_check_rows(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "paige-check", "--bits", "16", "--matrix", "random-sym:30",
            "--k", "10", "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 3  # three Paige inequalities

    def test_precision_sweep_defect_column_degrades(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "precision-sweep", "--bits", "12,16,24,52",
            "--matrix", "random-sym:40", "--k", "20",
            "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[1].split(",")
        idx_bits = header.index("bits")
        idx_defect = header.index("orthogonality_defect")
        rows = [line.split(",") for line in lines[2:]]
        by_bits = sorted(
            ((int(r[idx_bits]), float(r[idx_defect])) for r in rows),
            key=lambda item: -item[0],
        )
        for (_, earlier), (_, later) in zip(by_bits, by_bits[1:]):
            assert later >= earlier / 3.0

    def test_numerical_failure_exit_three(self, tmp_path):
        out = tmp_path / "out"
        # solve on an indefinite matrix trips nonpositive curvature
        code = run_cli([
            "solve", "--matrix", "diag:1,-1", "--k", "2",
            "--output-dir", str(out),
        ])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] in (
            "NonpositiveCurvatureError", "StructuralError"
        )

    def test_mtx_source(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 3.0\n"
        )
        out = tmp_path / "out"
        code = run_cli([
            "apply", "--matrix", f"mtx:{mtx}", "--function", "identity",
            "--k", "2", "--output-dir", str(out),
        ])
        assert code == 0

    def test_precision_sweep_at_scale_never_densifies(self, tmp_path, monkeypatch):
        """The lab on an n = 2500 Matrix Market Laplacian, with ``to_dense`` refused."""
        m = 50
        t = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
        grid = (sp.kron(t, sp.identity(m)) + sp.kron(sp.identity(m), t)) * 0.125
        mtx = tmp_path / "laplacian.mtx"
        scipy.io.mmwrite(mtx, grid.tocoo(), symmetry="symmetric")

        def refuse_to_densify(self):
            raise AssertionError(f"to_dense called on {self!r}")

        monkeypatch.setattr(SymmetricOperator, "to_dense", refuse_to_densify)
        out = tmp_path / "out"
        code = run_cli(["precision-sweep", "--matrix", f"mtx:{mtx}", "--bits",
                        "8,16,24,52", "--k", "40", "--output-dir", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [int(r["bits"]) for r in rows] == [8, 16, 24, 52]
        assert all(r["steps"] == "40" and r["passed"] == "true" for r in rows), rows
        assert json.loads((out / "report.json").read_text())["report"]["passed"]

    def test_hard_spectrum_source(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "solve", "--matrix", "hard-spectrum", "--kappa", "8",
            "--eta", "0.00078", "--k", "4", "--output-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["kappa"] <= 8.0 + 1e-9

    def test_step_with_matrix_application(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "step", "--gamma", "0.2", "--eps", "0.05",
            "--matrix", "diag:0.4,-0.3,0.1", "--output-dir", str(out),
        ])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # containment row + application row

    def test_exp_psd_variant_rejects_indefinite(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "exp", "--matrix", "diag:1,-1", "--eps", "1e-6",
            "--variant", "psd", "--output-dir", str(out),
        ])
        assert code == 3

    def test_meta_carries_timing_not_csv(self, tmp_path):
        out = tmp_path / "out"
        run_cli([
            "apply", "--matrix", "diag:1,2", "--function", "exp",
            "--k", "2", "--output-dir", str(out),
        ])
        meta = json.loads((out / "meta.json").read_text())
        assert "wall_time_seconds" in meta and "timestamp" in meta
        body = (out / "results.csv").read_text()
        assert meta["timestamp"] not in body


def read_rows(out):
    lines = (out / "results.csv").read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


class TestStudiesReuseOneRun:
    """Each study runs each algorithm once and reads every row off that run."""

    @pytest.mark.parametrize("matrix,k,stop_tol", [
        ("random-spd:40,50", 15, 0.0),
        ("random-spd:40,50", 40, 1e-6),  # stops after 35 steps
        ("diag:1,2,3,4", 7, 0.0),
        ("diag:1,2,3,4", 7, 1e-6),
    ])
    def test_solve_rows_equal_per_k_runs(self, tmp_path, matrix, k, stop_tol):
        out = tmp_path / "out"
        code = run_cli(["solve", "--matrix", matrix, "--k", str(k), "--stop-tol",
                        str(stop_tol), "--seed", "4", "--output-dir", str(out)])
        assert code == 0
        cfg = ExperimentConfig("solve", matrix=matrix, k=k, seed=4, stop_tol=stop_tol)
        a = cli.build_operator(cfg)
        b = cli._start_vector(cfg, a.n)
        reference = np.linalg.solve(a.to_dense(), b)
        rows = read_rows(out)
        assert len(rows) == k
        for j, row in enumerate(rows, start=1):
            trace = cg_solve(a, b, j, stop_tol=stop_tol)
            assert row["residual_norm"] == repr(float(trace.residual_norms[-1]))
            assert row["error"] == repr(float(np.linalg.norm(reference - trace.solution)))
            assert row["lanczos_equivalence"] == repr(lanczos_cg_equivalence(a, b, j))

    @pytest.mark.parametrize("stop_tol", ["0", "1e-6"])
    def test_solve_matvecs_linear_in_k(self, tmp_path, monkeypatch, stop_tol):
        calls = []
        original = SymmetricOperator.matvec

        def counting(self, v):
            calls.append(1)
            return original(self, v)

        monkeypatch.setattr(SymmetricOperator, "matvec", counting)
        k = 20
        code = run_cli(["solve", "--matrix", "random-spd:60,20", "--k", str(k),
                        "--stop-tol", stop_tol, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert 0 < len(calls) <= 3 * k

    def test_lowerbound_curve_equals_per_degree_minimax(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["lowerbound", "--kappa", "8", "--eta", "1e-4", "--kmax", "40",
                        "--output-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        spec = hard_spectrum(8.0, 1e-4)
        curve = [minimax(inverse_function(), spec.intervals, d)[1]
                 for d in range(len(report["delta_curve"]))]
        assert report["delta_curve"] == curve
        assert report["min_degree"] == min_degree_for(
            inverse_function(), spec.intervals, 1.0 / 6.0, 40
        ) == len(curve) - 1
        assert [float(r["delta_bar"]) for r in read_rows(out)] == curve

    def test_lowerbound_increasing_curve_is_a_solver_failure(self, tmp_path, monkeypatch):
        deltas = iter([0.5, 0.4, 0.45])
        # the package exports the function under the module's name
        monkeypatch.setattr(importlib.import_module("funmlab.minimax"), "minimax",
                            lambda f, domain, degree, c=None: (None, next(deltas)))
        out = tmp_path / "out"
        code = run_cli(["lowerbound", "--kappa", "8", "--eta", "1e-4", "--kmax", "10",
                        "--output-dir", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "SolverFailureError"

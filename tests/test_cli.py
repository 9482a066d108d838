import csv
import json
import math
import os
import subprocess
import sys

import pytest

import cylbif.pde_rectangle as pde
from cylbif.cli import main
from cylbif.errors import NonConvergenceError
from oracles import ellipk_agm

BASE_CONFIG = {
    "schema_version": 1,
    "model": {"type": "lane_emden", "p": 4.0},
    "base": {"type": "interval", "length": 1.0},
    "nodal_n": 1,
    "grids": {"ode_M": 1200, "eig_M": 1600, "nx": 64, "ny": 64},
    "t_range": {"t_min": 0.5, "t_max": 3.0, "samples": 20},
}


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    cfg.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def read_summary(tmp_path):
    with open(tmp_path / "out" / "summary.json") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSubcommands:
    def test_check_f(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["check-f", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["superlinear"] is True
        assert summary["results"]["sign"] is True
        assert (tmp_path / "out" / "check-f.csv").exists()

    def test_check_f_failure_path_is_reported_not_fatal(self, tmp_path):
        cfg = write_config(tmp_path, model={"type": "lane_emden", "p": 1.5})
        assert main(["check-f", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["superlinear"] is False

    def test_solve_1d(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve-1d", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["amplitude"] == pytest.approx(ellipk_agm(0.5), abs=1e-6)
        assert summary["results"]["nodal_count"] == 1
        rows = read_csv_rows(tmp_path / "out" / "solve-1d.csv")
        assert list(rows[0]) == ["x", "u", "uprime"]
        assert float(rows[0]["u"]) == pytest.approx(summary["results"]["amplitude"], rel=1e-12)

    def test_spectrum_1d_with_eigenfunctions(self, tmp_path):
        cfg = write_config(tmp_path, options={"k_eigs": 4, "emit_eigenfunctions": True})
        assert main(["spectrum-1d", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["m_xn"] == 1
        assert summary["results"]["oscillation_ok"] is True
        rows = read_csv_rows(tmp_path / "out" / "spectrum-1d.csv")
        assert [r["i"] for r in rows] == ["1", "2", "3", "4"]
        for i in range(1, 5):
            assert (tmp_path / "out" / f"eigenfunction_{i}.csv").exists()

    def test_base_eigs(self, tmp_path):
        cfg = write_config(tmp_path, options={"cutoff": 100.0})
        assert main(["base-eigs", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "base-eigs.csv")
        assert float(rows[0]["lambda_j"]) == 0.0
        assert float(rows[1]["lambda_j"]) == pytest.approx(math.pi**2, rel=1e-12)
        assert float(rows[2]["lambda_j"]) == pytest.approx(4 * math.pi**2, rel=1e-12)

    def test_morse_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["morse", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["m_xn"] == 1
        assert summary["results"]["ground_state_flag"] is False
        rows = read_csv_rows(tmp_path / "out" / "morse.csv")
        assert len(rows) == 20
        ms = [int(r["m"]) for r in rows]
        assert ms == sorted(ms)

    def test_morse_threads_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["morse", "--config", str(cfg)]) == 0
        single = (tmp_path / "out" / "morse.csv").read_bytes()
        assert main(["morse", "--config", str(cfg), "--threads", "4"]) == 0
        assert (tmp_path / "out" / "morse.csv").read_bytes() == single

    def test_bifurcation_points_with_synthetic_alphas(self, tmp_path):
        cfg = write_config(tmp_path, alphas=[-5.0, 1.0], t_range={"t_min": 0.5, "t_max": 5.0, "samples": 5})
        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "bifurcation-points.csv")
        expected = [j * math.pi / math.sqrt(5.0) for j in (1, 2, 3)]
        assert [float(r["t_bar"]) for r in rows] == pytest.approx(expected, rel=1e-12)
        assert all(r["simple"] == "true" for r in rows)

    def test_verify_decomposition(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify-decomposition", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["max_rel_mismatch"] < 5e-3
        rows = read_csv_rows(tmp_path / "out" / "verify-decomposition.csv")
        assert len(rows) == 10

    def test_continue_emits_branches(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            options={"branch_steps": 2, "dump_solutions": True},
        )
        assert main(["continue", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        res = summary["results"]
        assert res["kernel_pair"] == [1, 1]
        assert res["half_branches_are_reflections"] is True
        assert res["deviation_first_plus"] > 1e-3
        assert res["backtrack_distances"][-1] < 1e-3
        rows = read_csv_rows(tmp_path / "out" / "branch_plus_1.csv")
        assert len(rows) == 2
        assert {"t", "deviation", "distance_to_1d", "nodal_count", "newton_iters", "energy"} == set(rows[0])
        dump = read_csv_rows(tmp_path / "out" / "solution_plus_1_0.csv")
        assert len(dump) == 48 * 48
        assert set(dump[0]) == {"xprime", "xn", "u"}


class TestContract:
    def test_unknown_subcommand_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["frobnicate", "--config", str(cfg)]) == 64
        assert main([]) == 64

    def test_unreadable_config(self, tmp_path):
        assert main(["morse", "--config", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["morse", "--config", str(bad)]) == 2

    def test_validation_failures(self, tmp_path):
        cfg = write_config(tmp_path, model={"type": "quartic"})
        assert main(["morse", "--config", str(cfg)]) == 2
        cfg = write_config(tmp_path, schema_version=99)
        assert main(["morse", "--config", str(cfg)]) == 2
        cfg = write_config(tmp_path, bogus_key=1)
        assert main(["morse", "--config", str(cfg)]) == 2
        # unknown keys inside the maps fail like unknown top-level keys
        for section in (
            {"options": {"branch_step": 3}},
            {"grids": {"nz": 64}},
            {"tolerances": {"newton_rtol": 1e-3}},
        ):
            cfg = write_config(tmp_path, **section)
            assert main(["morse", "--config", str(cfg)]) == 2, section
        # values of the wrong type fail validation instead of crashing
        for bad in (
            {"tolerances": {"newton_tol": "tiny"}},
            {"grids": {"ode_M": "big"}},
            {"grids": {"nx": float("nan")}},
            {"tolerances": {"newton_tol": float("nan")}},
            {"options": {"dump_solutions": "yes"}},
            {"options": {"cutoff": None}},
            {"t_range": {"t_min": "zero", "t_max": 3.0, "samples": 20}},
            {"nodal_n": "one"},
            {"alphas": [-5.0, "one"]},
            {"alphas": 5.0},
            {"seed": "lucky"},
            {"model": {"type": "lane_emden", "p": "four"}},
            {"base": {"type": "disk", "radius": "one"}},
            {"output_dir": 5},
            # integer entries take integral numbers only instead of truncating
            {"grids": {"nx": 40.7}},
            {"options": {"branch_steps": 2.5}},
            {"options": {"k_eigs": 12.9}},
            {"options": {"max_modes": 1000.5}},
            {"t_range": {"t_min": 0.5, "t_max": 3.0, "samples": 40.9}},
            {"nodal_n": 1.5},
            {"seed": 0.5},
        ):
            cfg = write_config(tmp_path, **bad)
            assert main(["morse", "--config", str(cfg)]) == 2, bad
        # integral floats stay accepted
        cfg = write_config(tmp_path, grids={"nx": 64.0}, options={"k_eigs": 12.0}, nodal_n=1.0)
        assert main(["base-eigs", "--config", str(cfg)]) == 0

    def test_no_solution_exit_code(self, tmp_path):
        # c1 above (pi/2)^2 makes every trajectory oscillate before x = 1
        cfg = write_config(tmp_path, model={"type": "cubic", "c1": 10.0, "c3": 1.0})
        assert main(["solve-1d", "--config", str(cfg)]) == 4

    def test_nonconvergence_exit_code(self, tmp_path):
        # a tolerance below the residual rounding floor cannot be met
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            tolerances={"newton_tol": 1e-30},
            options={"branch_steps": 1, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 3

    def test_continue_outcome_after_recovered_halving(self, tmp_path, monkeypatch):
        # one failed continuation solve halves the step; the half-branch still
        # collects every requested point, so it did not stall
        real_solve = pde.newton_solve
        branch_solves = 0

        def fail_once(*args, **kwargs):
            nonlocal branch_solves
            if kwargs.get("reference_1d") is not None:  # solves on the branch, not the reference
                branch_solves += 1
                if branch_solves == 3:
                    raise NonConvergenceError("injected failure")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve", fail_once)
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 40, "ny": 40},
            options={"branch_steps": 4, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 0
        results = read_summary(tmp_path)["results"]
        assert results["points_plus"] == 4
        assert results["outcome_plus"] == "reached_t_limit"

    def test_continue_without_negative_alphas_has_no_crossing(self, tmp_path, caplog):
        # no alpha_i < 0 means no degeneracy scaling, and the base cutoff must stay positive
        cfg = write_config(tmp_path, alphas=[0.5, 3.0])
        assert main(["continue", "--config", str(cfg)]) == 4
        assert "no simple degeneracy scaling" in caplog.text

    def test_verify_decomposition_needs_interval_base(self, tmp_path):
        cfg = write_config(tmp_path, base={"type": "disk", "radius": 1.0})
        assert main(["verify-decomposition", "--config", str(cfg)]) == 2

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["base-eigs", "--config", str(cfg), "--out", str(other)]) == 0
        assert (other / "base-eigs.csv").exists()
        # options may also come before the subcommand
        moved = tmp_path / "moved"
        assert main(["--config", str(cfg), "--out", str(moved), "base-eigs"]) == 0
        assert (moved / "base-eigs.csv").read_bytes() == (other / "base-eigs.csv").read_bytes()

    def test_seed_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["base-eigs", "--config", str(cfg), "--seed", "12345"]) == 0
        assert read_summary(tmp_path)["seed"] == 12345

    def test_summary_has_provenance(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["base-eigs", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert len(summary["config_hash"]) == 64
        assert summary["tolerances"]["tol_terminal"] == 1e-10
        assert summary["grids"]["nx"] == 64

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32},
            options={"branch_steps": 3, "dump_solutions": False},
        )
        out = tmp_path / "out"
        for subcommand, pattern in (
            ("solve-1d", "solve-1d.csv"),
            ("verify-decomposition", "verify-decomposition.csv"),
            ("continue", "branch_*.csv"),
        ):
            outputs = []
            for _ in range(2):
                assert main([subcommand, "--config", str(cfg)]) == 0
                names = sorted(path.name for path in out.glob(pattern)) + ["summary.json"]
                outputs.append({name: (out / name).read_bytes() for name in names})
            assert len(outputs[0]) == (3 if subcommand == "continue" else 2), sorted(outputs[0])
            assert outputs[0] == outputs[1], subcommand


def test_installed_entry_point_and_log_env(tmp_path):
    cfg = write_config(tmp_path)
    env = dict(os.environ, CYLBIF_LOG="debug")
    proc = subprocess.run(
        [sys.executable, "-m", "cylbif", "base-eigs", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "running base-eigs" in proc.stderr

import ast
import csv
import importlib
import importlib.util
import inspect
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylbif.cli as cli
import cylbif.pde_rectangle as pde
import cylbif.sturm_liouville as sl
from cylbif import Interval, LaneEmden, extrapolated_alphas, neumann_eigenvalues
from cylbif.cli import format_rows, main, write_csv
from cylbif.errors import NoSolutionError, NonConvergenceError
from oracles import brute_force_negative_count, ellipk_agm, jprime_zero

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

    def test_lane_emden_past_the_overflow_of_f(self, tmp_path):
        # f, f' and F overflow at s = +-1000 from p = 103.8; check-f writes inf there without a
        # RuntimeWarning, and the admissibility rule, which samples nothing, lets solve-1d run
        cfg = write_config(tmp_path, model={"type": "lane_emden", "p": 110.0})
        assert main(["check-f", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "check-f.csv")
        assert [rows[0][k] for k in ("f", "fprime", "F")] == ["-inf", "inf", "inf"]
        assert [rows[-1][k] for k in ("f", "fprime", "F")] == ["inf", "inf", "inf"]
        assert main(["solve-1d", "--config", str(cfg)]) == 0

    def test_solve_1d(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve-1d", "--config", str(cfg)]) == 0
        summary = read_summary(tmp_path)
        assert summary["results"]["amplitude"] == pytest.approx(ellipk_agm(0.5), abs=1e-6)
        assert summary["results"]["nodal_count"] == 1
        rows = read_csv_rows(tmp_path / "out" / "solve-1d.csv")
        assert list(rows[0]) == ["x", "u", "uprime"]
        assert float(rows[0]["u"]) == pytest.approx(summary["results"]["amplitude"], rel=1e-12)

    def test_spectrum_1d_writes_the_chain_alphas(self, tmp_path):
        # the same Richardson-extrapolated alphas that morse and continue compose
        cfg = write_config(tmp_path, options={"k_eigs": 6})
        assert main(["spectrum-1d", "--config", str(cfg)]) == 0
        results = read_summary(tmp_path)["results"]
        expected, _ = extrapolated_alphas(LaneEmden(4.0), results["amplitude"], 1600, 6)
        rows = read_csv_rows(tmp_path / "out" / "spectrum-1d.csv")
        assert [float(r["alpha_i"]) for r in rows] == list(expected)
        assert results["alphas"] == list(expected)
        assert results["nondegeneracy_margin"] == float(np.min(np.abs(expected)))

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

    def test_spectrum_1d_without_a_positive_witness_writes_nothing(self, tmp_path):
        # six nodal domains give six negative alphas, so k_eigs = 5 has no positive one
        cfg = write_config(tmp_path, nodal_n=6, options={"k_eigs": 5})
        assert main(["spectrum-1d", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []

    def test_spectrum_1d_on_grids_that_do_not_halve_h_exits_2(self, tmp_path, caplog):
        # the Richardson weights assume eig_M / 4, eig_M / 2 and eig_M halve h, which 2001 breaks
        cfg = write_config(tmp_path, grids={"ode_M": 1200, "eig_M": 2001})
        assert main(["spectrum-1d", "--config", str(cfg)]) == 2
        assert "the grids 500, 1000 and 2001 do not halve h" in caplog.text
        assert not (tmp_path / "out" / "spectrum-1d.csv").exists()

    def test_spectrum_1d_solves_the_finest_grid_once(self, tmp_path, monkeypatch):
        # eig_M for the zero counts and the Richardson triple's finest grid, eig_M / 2 and eig_M / 4;
        # every eigenvalue solve goes through TridiagonalOperator._eigenvalues, whose operator's length is the grid
        grids = []
        real = sl.TridiagonalOperator._eigenvalues

        def counted(self, k, guess):
            grids.append(self.diag.size)
            return real(self, k, guess)

        monkeypatch.setattr(sl.TridiagonalOperator, "_eigenvalues", counted)
        cfg = write_config(tmp_path, options={"k_eigs": 6})
        assert main(["spectrum-1d", "--config", str(cfg)]) == 0
        assert sorted(grids) == [400, 800, 1600]

    def test_base_eigs(self, tmp_path):
        cfg = write_config(tmp_path, options={"cutoff": 100.0})
        assert main(["base-eigs", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "base-eigs.csv")
        assert float(rows[0]["lambda_j"]) == 0.0
        assert float(rows[1]["lambda_j"]) == pytest.approx(math.pi**2, rel=1e-12)
        assert float(rows[2]["lambda_j"]) == pytest.approx(4 * math.pi**2, rel=1e-12)

    def test_base_eigs_keeps_an_eigenvalue_at_the_cutoff(self, tmp_path):
        # the cutoff is (11 pi)^2 itself, which a floor of sqrt(cutoff) / pi rounded down to 10
        cfg = write_config(tmp_path, options={"cutoff": (11 * math.pi) ** 2})
        assert main(["base-eigs", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "base-eigs.csv")
        assert (rows[-1]["j"], rows[-1]["label"]) == ("11", "11")
        assert float(rows[-1]["lambda_j"]) == (11 * math.pi) ** 2

    @pytest.mark.parametrize(
        "base, label",
        [
            ({"type": "interval", "length": 1.0}, "1"),
            ({"type": "rectangle", "a": 1.0, "b": 1.0}, "0 1|1 0"),
            ({"type": "disk", "radius": 1.0}, "1 1"),
        ],
    )
    def test_base_eigs_labels_stay_in_their_column(self, tmp_path, base, label):
        # a mode's indices are joined by spaces and the modes by "|", so no label holds a comma
        cfg = write_config(tmp_path, base=base, options={"cutoff": 200.0})
        assert main(["base-eigs", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "base-eigs.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["j", "lambda_j", "multiplicity", "label"]
        assert len(rows) > 5 and all(len(row) == 4 for row in rows)
        assert rows[2][3] == label

    @pytest.mark.parametrize(
        "subcommand, keys",
        [
            ("check-f", ["sign", "superlinear"]),
            ("morse", ["contributions", "degenerate", "ground_state_flag", "m", "m_xn", "zero_multiplicity"]),
        ],
    )
    def test_results_are_the_report_fields(self, tmp_path, subcommand, keys):
        # the results are the report's fields, so a new field changes summary.json visibly
        cfg = write_config(tmp_path, alphas=[-30.0, 5.0])
        assert main([subcommand, "--config", str(cfg)]) == 0
        assert sorted(read_summary(tmp_path)["results"]) == keys

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

    @pytest.mark.parametrize(
        "length, nodal_n, t_range, expected",
        [
            # morse counts at t = 1 past a t_range that ends at 0.9
            (1.0, 3, {"t_min": 0.2, "t_max": 0.9, "samples": 8}, (12, 3, True)),
            # lambda_1 = 100 pi^2 lies past the enumeration, which certifies it exceeds -alpha_1
            (0.1, 1, {"t_min": 0.5, "t_max": 1.5, "samples": 8}, (1, 1, False)),
        ],
    )
    def test_morse_sizes_its_own_base(self, tmp_path, length, nodal_n, t_range, expected):
        cfg = write_config(tmp_path, base={"type": "interval", "length": length}, nodal_n=nodal_n, t_range=t_range)
        assert main(["morse", "--config", str(cfg)]) == 0
        results = read_summary(tmp_path)["results"]
        assert (results["m"], results["m_xn"], results["ground_state_flag"]) == expected
        rows = read_csv_rows(tmp_path / "out" / "morse.csv")
        assert main(["spectrum-1d", "--config", str(cfg)]) == 0
        alphas = read_summary(tmp_path)["results"]["alphas"]
        wide = neumann_eigenvalues(Interval(length), cutoff=4000.0)  # past -alpha_1 * t^2 and lambda_1
        for row in rows:
            t = float(row["t"])
            assert int(row["m"]) == brute_force_negative_count(alphas, wide.lambdas / t**2, wide.multiplicities), t

    def test_morse_threads_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["morse", "--config", str(cfg)]) == 0
        single = (tmp_path / "out" / "morse.csv").read_bytes()
        assert main(["morse", "--config", str(cfg), "--threads", "4"]) == 0
        assert (tmp_path / "out" / "morse.csv").read_bytes() == single

    @pytest.mark.parametrize("nodal_n", [12, 20])
    def test_morse_counts_every_nodal_domain(self, tmp_path, nodal_n):
        # more nodal domains than the default k_eigs (12) has eigenvalues
        cfg = write_config(tmp_path, nodal_n=nodal_n)
        assert main(["morse", "--config", str(cfg)]) == 0
        assert read_summary(tmp_path)["results"]["m_xn"] == nodal_n

    def test_bifurcation_points_reads_every_negative_alpha(self, tmp_path):
        # the crossings of all twenty negative alphas below t_max = 3, with default options
        cfg = write_config(tmp_path, nodal_n=20, grids={"ode_M": 2000, "eig_M": 2000})
        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        assert read_summary(tmp_path)["results"]["count"] == 1746

    def test_the_morse_chain_reads_no_k_eigs(self, tmp_path, monkeypatch):
        # morse, bifurcation-points and continue solve the n negative alphas and the positive
        # witness after them, whatever options.k_eigs says
        real, solved = cli.extrapolated_alphas, []

        def spy(model, amplitude, grid_size, k):
            solved.append(k)
            return real(model, amplitude, grid_size, k)

        def stop(*args, **kwargs):
            raise NoSolutionError("stopped before the 2D solve")

        monkeypatch.setattr(cli, "extrapolated_alphas", spy)
        monkeypatch.setattr(pde, "make_branch_context", stop)
        written = []
        for options in ({}, {"k_eigs": 2}):
            cfg = write_config(tmp_path, nodal_n=3, options=options)
            for subcommand in ("morse", "bifurcation-points"):
                assert main([subcommand, "--config", str(cfg)]) == 0
                written.append(((tmp_path / "out" / f"{subcommand}.csv").read_bytes(), read_summary(tmp_path)["results"]))
            assert main(["continue", "--config", str(cfg)]) == 4
        assert solved == [4] * 6
        assert written[:2] == written[2:]

    def test_bifurcation_points_with_synthetic_alphas(self, tmp_path):
        cfg = write_config(tmp_path, alphas=[-5.0, 1.0], t_range={"t_min": 0.5, "t_max": 5.0, "samples": 5})
        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "bifurcation-points.csv")
        expected = [j * math.pi / math.sqrt(5.0) for j in (1, 2, 3)]
        assert [float(r["t_bar"]) for r in rows] == pytest.approx(expected, rel=1e-12)
        assert all(r["simple"] == "true" for r in rows)

    def test_disk_base_morse_and_bifurcation_points(self, tmp_path):
        # unit disk: lambda = j'_{nu,k}^2, twice for nu >= 1 (cos and sin modes)
        alphas = [-20.0, -6.0, 3.0]
        t_max = 2.0
        modes = [(0.0, 1)]
        for nu in range(10):
            for k in range(1, 10):
                lam = jprime_zero(nu, k) ** 2
                if lam > 100.0:
                    break
                modes.append((lam, 1 if nu == 0 else 2))
        modes.sort()
        lambdas = [lam for lam, _ in modes]
        mults = [mult for _, mult in modes]

        cfg = write_config(
            tmp_path,
            base={"type": "disk", "radius": 1.0},
            alphas=alphas,
            t_range={"t_min": 0.5, "t_max": t_max, "samples": 7},
        )
        assert main(["morse", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "morse.csv")
        assert len(rows) == 7
        for row in rows:
            t = float(row["t"])
            expected = brute_force_negative_count(alphas, [lam / t**2 for lam in lambdas], mults)
            assert (int(row["m"]), row["degenerate"]) == (expected, "false"), t

        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        rows = read_csv_rows(tmp_path / "out" / "bifurcation-points.csv")
        expected = sorted(
            (math.sqrt(lam / -a), i, j)
            for i, a in enumerate(alphas, start=1)
            if a < 0
            for j, lam in enumerate(lambdas)
            if 0 < lam <= -a * t_max**2
        )
        assert [(int(r["i"]), int(r["j"])) for r in rows] == [(i, j) for _, i, j in expected]
        assert [float(r["t_bar"]) for r in rows] == pytest.approx([t for t, _, _ in expected], rel=1e-10)
        assert [int(r["multiplicity"]) for r in rows] == [mults[j] for _, _, j in expected]

    def test_disk_morse_with_rotation_invariant_counts_only_nu_0(self, tmp_path):
        # rotation-invariant modes of the unit disk: lambda = j'_{0,k}^2, each simple
        alphas = [-30.0, 4.0]
        lambdas = [0.0] + [jprime_zero(0, k) ** 2 for k in range(1, 6)]
        cfg = write_config(
            tmp_path,
            base={"type": "disk", "radius": 1.0},
            alphas=alphas,
            options={"rotation_invariant": True},
            t_range={"t_min": 0.5, "t_max": 2.0, "samples": 7},
        )
        assert main(["morse", "--config", str(cfg)]) == 0
        assert read_summary(tmp_path)["results"]["contributions"] == [1]  # j'_{0,1}^2 = 14.7 < 30 < j'_{0,2}^2
        rows = read_csv_rows(tmp_path / "out" / "morse.csv")
        assert len(rows) == 7
        for row in rows:
            t = float(row["t"])
            expected = brute_force_negative_count(alphas, [lam / t**2 for lam in lambdas], [1] * len(lambdas))
            assert (int(row["m"]), row["degenerate"]) == (expected, "false"), t

    def test_verify_decomposition(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["verify-decomposition", "--config", str(cfg)]) == 0
        results = read_summary(tmp_path)["results"]
        assert results["max_rel_mismatch"] < 5e-3
        rows = read_csv_rows(tmp_path / "out" / "verify-decomposition.csv")
        assert len(rows) == 10
        certificate = results["certificate"]
        assert certificate["negative_pivots"] == 10
        assert float(rows[-1]["direct_2d"]) < certificate["shift"]
        assert 0.0 < certificate["max_residual"] < 1e-9

    def test_verify_decomposition_factors_once_and_runs_no_lanczos(self, tmp_path, monkeypatch):
        # the default column ordering fills 3.66e6 entries at 200 x 200, the minimum-degree one 1.93e6
        cfg = write_config(tmp_path, grids={"ode_M": 1200, "eig_M": 1600, "nx": 200, "ny": 200})
        splu, fills = pde.spla.splu, []

        def spy(*args, **kwargs):
            lu = splu(*args, **kwargs)
            fills.append(lu.nnz)
            return lu

        def no_eigsh(*args, **kwargs):
            raise AssertionError("verify-decomposition ran an eigsh")

        monkeypatch.setattr(pde.spla, "splu", spy)
        monkeypatch.setattr(pde.spla, "eigsh", no_eigsh)
        assert main(["verify-decomposition", "--config", str(cfg)]) == 0
        assert len(fills) == 1 and fills[0] <= 2.2e6

    def test_verify_decomposition_of_a_non_separable_operator_exits_3(self, tmp_path, monkeypatch, caplog):
        assemble = pde.assemble_linearized

        def spiked(u, t, model, grid, l_base):
            matrix = assemble(u, t, model, grid, l_base).tolil()
            matrix[grid.ndof // 2, grid.ndof // 2] -= 50.0
            return matrix.tocsr()

        monkeypatch.setattr(pde, "assemble_linearized", spiked)
        assert main(["verify-decomposition", "--config", str(write_config(tmp_path))]) == 3
        assert "certificate: candidate" in caplog.text and "residual" in caplog.text
        assert not (tmp_path / "out" / "verify-decomposition.csv").exists()

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
        # at odd j the minus points after the first are reflections of the plus ones
        assert [r["newton_iters"] != "0" for r in read_csv_rows(tmp_path / "out" / "branch_minus_1.csv")] == [True, False]
        dump = read_csv_rows(tmp_path / "out" / "solution_plus_1_0.csv")
        assert len(dump) == 48 * 48
        assert set(dump[0]) == {"xprime", "xn", "u"}


    def test_continue_stops_at_t_max(self, tmp_path):
        # t_bar = 1.383 here; four steps of 0.0138 would run to t = 1.439
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            t_range={"t_min": 0.5, "t_max": 1.4, "samples": 20},
            options={"branch_steps": 4, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 0
        results = read_summary(tmp_path)["results"]
        for sign in ("plus", "minus"):
            ts = [float(r["t"]) for r in read_csv_rows(tmp_path / "out" / f"branch_{sign}_1.csv")]
            assert ts and all(t <= 1.4 for t in ts), ts
            assert ts[-1] == 1.4
            assert results[f"outcome_{sign}"] == "reached_t_limit"
            assert results[f"points_{sign}"] == len(ts) < 4

    def test_continue_with_first_point_past_t_max(self, tmp_path, caplog):
        # t_max between t_bar and the first branch point t_bar * 1.01
        caplog.set_level(logging.INFO, logger="cylbif")
        cfg = write_config(tmp_path, grids={"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32})
        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        t_bar = read_summary(tmp_path)["results"]["t_bars"][0]
        t_range = {"t_min": 0.5, "t_max": 1.005 * t_bar, "samples": 20}
        cfg = write_config(tmp_path, grids={"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32}, t_range=t_range)
        assert main(["continue", "--config", str(cfg)]) == 4
        assert "no plus half-branch" in caplog.text and "past t_max" in caplog.text

    def test_continue_dumps_are_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32},
            options={"branch_steps": 2, "dump_solutions": True},
        )
        out = tmp_path / "out"
        dumps = []
        for _ in range(2):
            assert main(["continue", "--config", str(cfg)]) == 0
            dumps.append({path.name: path.read_bytes() for path in sorted(out.glob("solution_*.csv"))})
        assert len(dumps[0]) == 4
        assert dumps[0] == dumps[1]
        for name in dumps[0]:
            rows = read_csv_rows(out / name)
            assert len(rows) == 32 * 32
            assert all(f"{float(r['u']):.17g}" == r["u"] for r in rows), name


def _fmt_reference(x) -> str:
    """The per-value formatter that CSV tables used before they were formatted in whole chunks."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _csv_reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(v if isinstance(v, str) else _fmt_reference(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def write_table(path, header, rows):
    write_csv(path, header, format_rows(header, rows))


class TestWriteCsv:
    FLOATS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1 / 3, 1e22, 0.1, -2.5e-300, 123456789.0]

    def mixed_rows(self):
        """One column per kind; each column mixes the Python and NumPy types of its kind."""
        return [
            (
                bool(k % 2) if k % 3 else np.bool_(k % 2),
                k - 4 if k % 2 else np.int64(10**15 * k),
                x,
                np.float64(self.FLOATS[-1 - k]),
                np.float32(x) if k % 2 else -x,
                f"s{k}|{k}x",
            )
            for k, x in enumerate(self.FLOATS)
        ]

    def test_every_kind_matches_the_reference(self, tmp_path):
        header = ["b", "i", "f", "f64", "f32", "s"]
        rows = self.mixed_rows()
        write_table(tmp_path / "mixed.csv", header, rows)
        assert (tmp_path / "mixed.csv").read_bytes() == _csv_reference(header, rows)
        text = (tmp_path / "mixed.csv").read_text()
        for token in (",-0,", ",nan,", ",-inf,", ",4.9406564584124654e-324,", ",1e+22,", ",0.33333333333333331,"):
            assert token in text, token

    def test_empty_rows_write_the_header(self, tmp_path):
        assert format_rows(["a", "b"], []) == ""
        write_table(tmp_path / "empty.csv", ["a", "b"], [])
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"

    # the sizes around 4,096 and twice it that the renderer once split its rows at
    @pytest.mark.parametrize("count", [1, 4095, 4096, 8199])
    def test_generators_across_chunks(self, tmp_path, count):
        rows = [(k, k / 7.0, k % 3 == 0, str(k)) for k in range(count)]
        write_table(tmp_path / "gen.csv", ["k", "x", "b", "s"], (row for row in rows))
        assert (tmp_path / "gen.csv").read_bytes() == _csv_reference(["k", "x", "b", "s"], rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [(1,), (2.5,)],  # a float in an integer column is never truncated
            [(1.0,), (True,)],
            [(1.0,), (2,)],
            [(True,), (1,)],
            [("a",), (1.5,)],
            [(1,)] * 4096 + [(np.float64(2.0),)],  # thousands of rows after the first
        ],
    )
    def test_a_column_of_mixed_kinds_is_rejected(self, rows):
        with pytest.raises(TypeError, match="column a mixes"):
            format_rows(["a"], rows)

    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("check-f", {}),
            ("solve-1d", {}),
            ("spectrum-1d", {"options": {"k_eigs": 4, "emit_eigenfunctions": True}}),
            ("base-eigs", {"base": {"type": "rectangle", "a": 1.0, "b": 1.0}, "options": {"cutoff": 60.0}}),
            ("morse", {}),
            ("bifurcation-points", {}),
            (
                "continue",
                {
                    "grids": {"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32},
                    "options": {"branch_steps": 2, "dump_solutions": True},
                },
            ),
        ],
    )
    def test_caller_rows_match_the_reference(self, tmp_path, monkeypatch, subcommand, overrides):
        rendered, written = {}, []

        def render(header, rows):
            rows = list(rows)
            body = format_rows(header, rows)
            rendered[body] = rows
            return body

        def capture(path, header, body):
            write_csv(path, header, body)
            # a dump is filled into its grid's row template, not rendered from rows: read its rows back
            rows = rendered[body] if body in rendered else [tuple(map(float, line.split(","))) for line in body.splitlines()]
            written.append((path, header, rows))

        monkeypatch.setattr(cli, "format_rows", render)
        monkeypatch.setattr(cli, "write_csv", capture)
        cfg = write_config(tmp_path, **overrides)
        assert main([subcommand, "--config", str(cfg)]) == 0
        assert written
        for path, header, rows in written:
            assert Path(path).read_bytes() == _csv_reference(header, rows), path
        if subcommand == "base-eigs":
            assert any("|" in row[-1] for _, _, rows in written for row in rows)  # a square's double eigenvalues
        if subcommand == "morse":
            assert {row[-1] for row in written[0][2]} == {False}
        if subcommand == "continue":
            assert sum(1 for path, _, rows in written if len(rows) == 32 * 32) == 4


def test_mirrored_dumps_match_the_float_path(tmp_path, monkeypatch):
    # a minus dump written from the permuted plus strings must carry the bytes of formatting it
    grid = pde.Grid2D(16, 21)  # nx != ny: a template with x' and x_N swapped writes other bytes
    plus = np.random.default_rng(0).standard_normal((grid.ny, grid.nx))
    plus[-1] = 0.0
    plus[3, 2] = 0.0
    same = plus[:, ::-1].copy()  # the mirror's bits
    signed = same.copy()
    signed[3, grid.nx - 1 - 2] = -0.0  # equal values, other bits: "-0" where the plus strings hold "0"
    assert np.array_equal(signed, same) and signed.tobytes() != same.tobytes()
    formatted = []
    real_strings = cli._u_strings
    monkeypatch.setattr(cli, "_u_strings", lambda u: formatted.append(u) or real_strings(u))
    cli.write_solution_dumps(tmp_path, 1, grid, [plus, plus], [same, signed])
    assert len(formatted) == 3  # both plus dumps and the signed minus one
    x, y = np.meshgrid(grid.x_nodes(), grid.y_nodes())
    for idx, minus in enumerate((same, signed)):
        write_table(tmp_path / "reference.csv", ["xprime", "xn", "u"], zip(*(a.ravel().tolist() for a in (x, y, minus))))
        assert (tmp_path / f"solution_minus_1_{idx}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert b",-0\n" in (tmp_path / "solution_minus_1_1.csv").read_bytes()
    assert b",-0\n" not in (tmp_path / "solution_minus_1_0.csv").read_bytes()


@pytest.mark.parametrize("plus_count, minus_count", [(2, 1), (1, 3)])
def test_dumps_of_half_branches_of_unequal_length(tmp_path, plus_count, minus_count):
    grid = pde.Grid2D(16, 17)
    rng = np.random.default_rng(1)
    plus = [rng.standard_normal((grid.ny, grid.nx)) for _ in range(plus_count)]
    minus = [rng.standard_normal((grid.ny, grid.nx)) for _ in range(minus_count)]
    cli.write_solution_dumps(tmp_path, 2, grid, plus, minus)
    expected = {f"solution_plus_2_{i}.csv" for i in range(plus_count)}
    expected |= {f"solution_minus_2_{i}.csv" for i in range(minus_count)}
    assert {path.name for path in tmp_path.iterdir()} == expected
    x, y = np.meshgrid(grid.x_nodes(), grid.y_nodes())
    for sign_name, solutions in (("plus", plus), ("minus", minus)):
        for idx, u in enumerate(solutions):
            write_table(tmp_path / "reference.csv", ["xprime", "xn", "u"], zip(*(a.ravel().tolist() for a in (x, y, u))))
            written = (tmp_path / f"solution_{sign_name}_2_{idx}.csv").read_bytes()
            assert written == (tmp_path / "reference.csv").read_bytes()


_IMPORT_PROBE = """
import json, sys
import cylbif.cli
args = json.loads(sys.argv[1])
assert not args or cylbif.cli.main(args) == 0
loaded = [name in sys.modules for name in ("scipy.special", "scipy.ndimage", "scipy.linalg")]
print(json.dumps([*loaded, any(name.partition(".")[0] == "scipy" for name in sys.modules)]))
"""

_GRID_32 = {"grids": {"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32}}
_DISK = {"type": "disk", "radius": 1.0}
_RECTANGLE = {"type": "rectangle", "a": 1.0, "b": 0.8}


@pytest.mark.parametrize(
    "subcommand, overrides, loaded",
    [
        (None, {}, [False, False, False, False]),
        ("morse", {}, [False, False, False, False]),
        ("base-eigs", {"base": _DISK, "options": {"cutoff": 100.0}}, [False, False, False, False]),
        ("verify-decomposition", _GRID_32, [False, False, True, True]),
        # the 2D nodal count uses scipy.sparse.csgraph, neither special nor ndimage
        ("continue", {**_GRID_32, "options": {"branch_steps": 1}}, [False, False, True, True]),
        ("check-f", {}, [False, False, False, False]),
        ("solve-1d", {}, [False, False, False, False]),
        ("spectrum-1d", {}, [False, False, False, False]),
        ("base-eigs", {"options": {"cutoff": 100.0}}, [False, False, False, False]),
        ("base-eigs", {"base": _RECTANGLE, "options": {"cutoff": 100.0}}, [False, False, False, False]),
        ("morse", {"base": _RECTANGLE}, [False, False, False, False]),
        ("bifurcation-points", {}, [False, False, False, False]),
        ("bifurcation-points", {"base": _RECTANGLE}, [False, False, False, False]),
        ("morse", {"base": _DISK}, [False, False, False, False]),
        ("bifurcation-points", {"base": _DISK}, [False, False, False, False]),
    ],
)
def test_scipy_special_and_ndimage_load_only_where_called(tmp_path, subcommand, overrides, loaded):
    # a fresh interpreter; the columns are scipy.special, scipy.ndimage, scipy.linalg and any
    # scipy module: the 1D chain loads no scipy on any base (the Bessel zeros of a disk come
    # from base_spectrum's own recurrence), the 2D subcommands load scipy.linalg, and nothing
    # loads scipy.special or scipy.ndimage
    cfg = write_config(tmp_path, **overrides)
    args = [subcommand, "--config", str(cfg)] if subcommand else []
    paths = [str(Path(pde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(args)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


def _run_traced(tmp_path, args):
    """Run the CLI under benchmarks/tracing.py in a fresh interpreter; the invocation's profile."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    paths = [str(Path(pde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "tracing.py"), "--spans", str(spans), "--", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("tracing", root / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing, tracing.invocation_profile(spans)


def test_tracing_records_the_1d_chain(tmp_path):
    # tracing.py finds the layers in sys.modules after importing cylbif.cli, where
    # pde_rectangle is registered lazily; the 1D spans must still be recorded
    cfg = write_config(tmp_path, options={"k_eigs": 6})
    tracing, profile = _run_traced(tmp_path, ["spectrum-1d", "--config", str(cfg)])
    # the two coarse grids of the Richardson triple compute eigenvalues only
    assert profile["calls"]["sturm_liouville.sl_eigenpairs"] == 1
    assert profile["calls"]["ode_shooting.integrate_ivp"] > 3
    metrics = tracing.layer_metrics([profile])
    assert metrics["sturm_liouville.eig_s"] > 0.0 and metrics["ode_shooting.ivp_s"] > 0.0


def test_tracing_counts_every_file_written(tmp_path):
    # benchmarks/tracing.py wraps cylbif functions by name and binds write_csv's path,
    # newton_solve's tol and reference_1d; a rename shows up here instead of in a benchmark run
    cfg = write_config(
        tmp_path,
        grids={"ode_M": 1200, "eig_M": 1600, "nx": 32, "ny": 32},
        options={"branch_steps": 2, "dump_solutions": True},
    )
    tracing, profile = _run_traced(tmp_path, ["continue", "--config", str(cfg)])
    metrics = tracing.layer_metrics([profile])
    assert metrics["cli.files_written"] == len(list((tmp_path / "out").iterdir()))
    assert metrics["pde_rectangle.newton_calls"] > 0


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
            {"model": {"type": "lane_emden", "p": 4.0, "q": 1}},
            {"base": {"type": "rectangle", "a": 1.0, "b": 1.0, "radius": 1.0}},
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
            {"model": {"type": "lane_emden", "p": "3"}},
            {"model": {"type": "lane_emden", "p": True}},
            {"base": {"type": "interval", "length": "1"}},
            {"base": {"type": "interval", "length": True}},
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

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("verify-decomposition", "options", "t_verify", 0),
            ("verify-decomposition", "options", "t_verify", -1),
            ("continue", "options", "branch_steps", 0),
            ("continue", "options", "branch_steps", -2),
            ("spectrum-1d", "grids", "eig_M", 0),
            ("spectrum-1d", "options", "k_eigs", 0),
            ("morse", "options", "max_modes", 0),
            ("morse", "options", "cutoff", 0),
            ("continue", "tolerances", "newton_tol", -1),
        ],
    )
    def test_a_non_positive_config_number_exits_2_before_any_solve(
        self, tmp_path, monkeypatch, caplog, command, section, key, value
    ):
        # every grids, tolerances and options number is positive, checked at load under its key,
        # not after the shooting solve by the library rule that reads it
        shots = []
        for module in (cli, sl, importlib.import_module("cylbif.ode_shooting")):
            monkeypatch.setattr(module, "integrate_ivp", lambda *args: shots.append(args))
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{section}.{key} must be positive" in caplog.text
        assert shots == []

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("solve-1d", "grids", "ode_M", 99, "ShootingConfig.steps must be >= 100, got 99"),
            ("spectrum-1d", "grids", "eig_M", 2001, "the grids 500, 1000 and 2001 do not halve h"),
            ("morse", "grids", "eig_M", 4, "the coarsest grid 1 of the triple gives k = 1 .. 0, got k=1"),
            ("spectrum-1d", "options", "k_eigs", 400, "the coarsest grid 400 of the triple gives k = 1 .. 399, got k=400"),
            ("check-f", "options", "k_eigs", 5000, "the coarsest grid 400 of the triple gives k = 1 .. 399, got k=5000"),
        ],
    )
    def test_a_config_number_outside_its_owners_range_exits_2_before_any_solve(
        self, tmp_path, monkeypatch, caplog, command, section, key, value, message
    ):
        # the range rules beyond the sign are checked at load by the modules that own them,
        # ode_shooting's ShootingConfig for ode_M and sturm_liouville's Richardson triple for
        # eig_M and k_eigs, and re-raised under the config key
        shots = []
        for module in (cli, sl, importlib.import_module("cylbif.ode_shooting")):
            monkeypatch.setattr(module, "integrate_ivp", lambda *args: shots.append(args))
        cfg = write_config(tmp_path, **{section: {**BASE_CONFIG.get(section, {}), key: value}})
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{section}.{key}: {message}" in caplog.text
        assert shots == []

    def test_config_values_take_their_default_types(self, tmp_path):
        # a count spelled as a float is an int, a tolerance spelled as an integer a float
        cfg = cli.load_config(str(write_config(tmp_path, grids={"nx": 64.0}, tolerances={"newton_tol": 1})))
        assert (type(cfg.grids["nx"]), cfg.grids["nx"]) == (int, 64)
        assert (type(cfg.tolerances["newton_tol"]), cfg.tolerances["newton_tol"]) == (float, 1.0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"options": []}, "options must be a JSON object"),
            (None, "config root must be a JSON object"),
            ({"nodal_n": 0}, "nodal_n must be >= 1, got 0"),
            pytest.param(
                {"tolerances": {"newton_tol": -1}},
                "tolerances.newton_tol must be positive, got -1.0",
                id="overrides3-all tolerances must be positive",
            ),
            ({"t_range": {"t_min": 0.5, "samples": 20}}, "t_range must provide t_min, t_max, samples"),
            ({"t_range": [0.5, 3.0, 20]}, "t_range must provide t_min, t_max, samples"),
            ({"t_range": {"t_min": 3.0, "t_max": 0.5, "samples": 20}}, "need 0 < t_min < t_max and samples >= 2"),
            ({"t_range": {"t_min": 0.5, "t_max": 3.0, "samples": 1}}, "need 0 < t_min < t_max and samples >= 2"),
            ({"alphas": [1, -1]}, "config alphas must be sorted ascending"),
            ({"model": {"type": "lane_emden", "p": 2}}, "LaneEmden needs p > 2, got p = 2.0"),
            ({"model": {"type": "lane_emden", "p": 1.5}}, "LaneEmden needs p > 2, got p = 1.5"),
            ({"model": {"type": "lane_emden", "p": -1000}}, "LaneEmden needs p > 2, got p = -1000.0"),
            ({"t_range": {"t_min": 0.5, "t_max": 3.0, "samples": 7, "smaples": 7}}, "unknown t_range keys: ['smaples']"),
        ],
    )
    def test_config_value_failures_name_the_rule(self, tmp_path, caplog, overrides, message):
        # overrides None writes a JSON list as the root
        cfg = write_config(tmp_path, **(overrides or {}))
        if overrides is None:
            cfg.write_text(json.dumps([BASE_CONFIG]))
        assert main(["morse", "--config", str(cfg)]) == 2
        assert message in caplog.text

    def test_no_solution_exit_code(self, tmp_path):
        # c1 above (pi/2)^2 makes every trajectory oscillate before x = 1
        cfg = write_config(tmp_path, model={"type": "cubic", "c1": 10.0, "c3": 1.0})
        assert main(["solve-1d", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("c1, c3, code", [(1.0, 1e-12, 0), (1e6, 1e-6, 4)])
    def test_admissible_cubics_reach_the_solver(self, tmp_path, c1, c3, code):
        # every cubic is admissible, also where f'(s) - f(s)/s = 2 c3 s^2 vanishes next to c1 in
        # floating point; c1 = 1e6 > (pi/2)^2 has no n = 1 solution
        cfg = write_config(tmp_path, model={"type": "cubic", "c1": c1, "c3": c3})
        assert main(["solve-1d", "--config", str(cfg)]) == code
        if code == 0:
            assert read_summary(tmp_path)["results"]["amplitude"] == pytest.approx(1.4168e6, rel=1e-4)

    def test_amplitude_beyond_float_range_exit_code(self, tmp_path, caplog):
        # the p = 2.001 amplitude is about exp(903); the search stops where F(a) overflows
        cfg = write_config(tmp_path, model={"type": "lane_emden", "p": 2.001})
        assert main(["solve-1d", "--config", str(cfg)]) == 4
        assert "beyond the float range" in caplog.text

    @pytest.mark.parametrize("p, n", [(110.0, 5), (60.0, 8), (30.0, 8)])
    def test_unsorted_extrapolated_alphas_exit_3(self, tmp_path, caplog, p, n):
        # the triple 500, 1000, 2000 is too coarse for these profiles: its grids count different
        # numbers of negative eigenvalues, a non-convergence found before any eigensolve (at
        # p = 110 and 60 the extrapolated alphas would also come out unsorted, at p = 30 sorted
        # but wrong); config alphas out of order stay exit 2, test_config_value_failures_name_the_rule
        counts = {110.0: "[9, 7, 6]", 60.0: "[14, 10, 9]", 30.0: "[9, 8, 8]"}[p]
        grids = {"ode_M": 2000, "eig_M": 2000, "nx": 64, "ny": 64}
        cfg = write_config(tmp_path, model={"type": "lane_emden", "p": p}, nodal_n=n, grids=grids)
        for subcommand in ("spectrum-1d", "morse", "bifurcation-points"):
            caplog.clear()
            assert main([subcommand, "--config", str(cfg)]) == 3, subcommand
            assert f"the grids 500, 1000 and 2000 count {counts} negative eigenvalues" in caplog.text
        assert list((tmp_path / "out").iterdir()) == []

    def test_grids_that_disagree_on_the_count_exit_3(self, tmp_path, caplog):
        # the 15-nodal p = 8 profile: the coarsest grid counts one negative eigenvalue too many
        grids = {"ode_M": 2000, "eig_M": 2000}
        cfg = write_config(tmp_path, model={"type": "lane_emden", "p": 8.0}, nodal_n=15, grids=grids)
        assert main(["morse", "--config", str(cfg)]) == 3
        assert "the grids 500, 1000 and 2000 count [16, 15, 15] negative eigenvalues" in caplog.text
        assert not (tmp_path / "out" / "morse.csv").exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        # a tolerance below the residual rounding floor cannot be met
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            tolerances={"newton_tol": 1e-30},
            options={"branch_steps": 1, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 3

    def test_shooting_bisection_budget_is_nonconvergence(self, tmp_path, caplog):
        # tolerances no bisection can reach: the interval halves until the budget runs out
        cfg = write_config(
            tmp_path, grids={"ode_M": 200}, tolerances={"tol_terminal": 1e-300, "tol_amplitude": 1e-300}
        )
        assert main(["solve-1d", "--config", str(cfg)]) == 3
        assert "terminal bisection did not converge in 200 iterations" in caplog.text

    def test_reference_polish_names_the_rounding_floor(self, tmp_path, caplog, monkeypatch):
        # the p = 2.5, n = 3 amplitude is 4580, so at 48 x 48 the residual
        # cannot be rounded below about 9e-9, far above newton_tol 2e-9
        floors = []
        real_floor = pde._rounding_floor

        def spy(*args):
            floors.append(real_floor(*args))
            return floors[-1]

        monkeypatch.setattr(pde, "_rounding_floor", spy)
        cfg = write_config(
            tmp_path,
            model={"type": "lane_emden", "p": 2.5},
            nodal_n=3,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            t_range={"t_min": 0.5, "t_max": 5.0, "samples": 20},
            tolerances={"newton_tol": 2e-9},
            options={"dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 3
        found = re.search(r"reference solve: .* rounding floor .* is (\S+) against tol 2e-09", caplog.text)
        assert found, caplog.text
        # Newton's own floor-stall checks come first; the message names the last floor computed
        assert found.group(1) == f"{floors[-1]:.3g}"
        assert 8e-9 < floors[-1] < 1e-8

    def test_switch_stalled_at_the_rounding_floor_is_nonconvergence(self, tmp_path, caplog):
        # p = 2.6, n = 3 at 48 x 48: the reference polish at t = 1 meets newton_tol 1e-8, but
        # the first branch point t = 0.3549 stiffens the x'-stencil by 1/t^2, and every switch
        # attempt stalls near the floor there, about 1e-8: tol is unmet, no branch is missing.
        # Newton stops once its residual flattens there instead of spending its 25 iterations
        caplog.set_level(logging.DEBUG, logger="cylbif.pde")
        cfg = write_config(
            tmp_path,
            model={"type": "lane_emden", "p": 2.6},
            nodal_n=3,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            t_range={"t_min": 0.5, "t_max": 5.0, "samples": 20},
            options={"dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 3
        found = re.search(
            r"every branch switch attempt at t = (\S+) stalled.* rounding floor there is (\S+) against tol 1e-08",
            caplog.text,
        )
        assert found, caplog.text
        assert float(found.group(1)) == pytest.approx(0.3549, abs=1e-4)
        assert 9e-9 < float(found.group(2)) < 1.1e-8
        attempts = [int(k) for k in re.findall(r"newton t = 0\.3548\d*: (\d+) iterations", caplog.text)]
        assert len(attempts) == 3 and max(attempts) <= 10, attempts

    def test_backtrack_reports_only_branch_points(self, tmp_path, caplog):
        # from the first plus point at distance 0.226, the first backtrack solve of p = 2.5,
        # n = 2 at 48 x 48 lands at distance 1.62, on another solution; it ends the backtrack
        caplog.set_level(logging.INFO, logger="cylbif")
        cfg = write_config(
            tmp_path,
            model={"type": "lane_emden", "p": 2.5},
            nodal_n=2,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48},
            t_range={"t_min": 0.5, "t_max": 5.0, "samples": 20},
            options={"branch_steps": 2, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 0
        start = float(read_csv_rows(tmp_path / "out" / "branch_plus_1.csv")[0]["distance_to_1d"])
        distances = [start] + read_summary(tmp_path)["results"]["backtrack_distances"]
        assert all(a > b > 1e-7 for a, b in zip(distances, distances[1:]))
        assert re.search(r"backtrack left the branch at t = \S+ \(distance 1\.6\d* after 0\.226\); kept 0 points", caplog.text)

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

    def test_continue_caps_halvings_per_step(self, tmp_path, monkeypatch):
        # four failed solves at each of two steps halve the step 8 times in
        # all, but at most 6 times per step is the cap, so nothing stalls
        real_solve = pde.newton_solve
        accepted = 0
        failed = {}

        def flaky(*args, **kwargs):
            nonlocal accepted
            on_branch = kwargs.get("reference_1d") is not None
            if on_branch and accepted in (2, 4) and failed.get(accepted, 0) < 4:
                failed[accepted] = failed.get(accepted, 0) + 1
                raise NonConvergenceError("injected failure")
            bp = real_solve(*args, **kwargs)
            accepted += on_branch
            return bp

        monkeypatch.setattr(pde, "newton_solve", flaky)
        cfg = write_config(
            tmp_path,
            grids={"ode_M": 1200, "eig_M": 1600, "nx": 40, "ny": 40},
            options={"branch_steps": 6, "dump_solutions": False},
        )
        assert main(["continue", "--config", str(cfg)]) == 0
        assert failed == {2: 4, 4: 4}
        results = read_summary(tmp_path)["results"]
        assert results["points_plus"] == 6
        assert results["outcome_plus"] == "reached_t_limit"

    def test_continue_below_first_crossing_has_no_crossing(self, tmp_path, caplog):
        # the first t_bar of p = 4, n = 1 on the unit interval is about 1.38
        cfg = write_config(tmp_path, t_range={"t_min": 0.5, "t_max": 1.0, "samples": 5})
        assert main(["continue", "--config", str(cfg)]) == 4
        assert "no simple degeneracy scaling" in caplog.text

    def test_bifurcation_points_without_negative_alphas_is_empty(self, tmp_path):
        # no alpha_i < 0 means no degeneracy scaling, and the base cutoff must stay positive
        cfg = write_config(tmp_path, alphas=[0.5, 3.0])
        assert main(["bifurcation-points", "--config", str(cfg)]) == 0
        assert read_csv_rows(tmp_path / "out" / "bifurcation-points.csv") == []
        assert read_summary(tmp_path)["results"]["count"] == 0

    def test_bifurcation_points_on_a_truncated_alpha_list_exits_2(self, tmp_path, caplog):
        # without a positive witness the list may lack negative alphas, whose crossings would go missing
        cfg = write_config(tmp_path, alphas=[-30.0, -5.0])
        assert main(["bifurcation-points", "--config", str(cfg)]) == 2
        assert "positive eigenvalue witness" in caplog.text
        # config alphas have no k to increase: the message states the fact
        assert "the largest alpha, -5.0, is not positive" in caplog.text
        assert "increase k" not in caplog.text
        assert not (tmp_path / "out" / "bifurcation-points.csv").exists()

    def test_bad_threads_creates_no_output_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "never"
        assert main(["base-eigs", "--config", str(cfg), "--threads", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_decomposition_needs_interval_base(self, tmp_path):
        cfg = write_config(tmp_path, base={"type": "disk", "radius": 1.0})
        assert main(["verify-decomposition", "--config", str(cfg)]) == 2

    def test_verify_decomposition_enumerates_the_base_within_max_modes(self, tmp_path, caplog):
        # the base that covers t_verify = 1 up to alpha_10 needs 10 interval modes here
        cfg = write_config(
            tmp_path, grids={"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48}, options={"t_verify": 1.0, "max_modes": 5}
        )
        assert main(["verify-decomposition", "--config", str(cfg)]) == 2
        assert "interval enumeration needs 10 modes > budget 5" in caplog.text
        assert not (tmp_path / "out" / "verify-decomposition.csv").exists()

    def test_verify_decomposition_reads_no_k_eigs(self, tmp_path):
        # the ten smallest sums lie at or below alpha_10, so alpha_1..alpha_10 are solved whatever
        # options.k_eigs says; only the config hash, which records the config, may differ
        grids = {"ode_M": 1200, "eig_M": 1600, "nx": 48, "ny": 48}
        outputs = []
        for k_eigs in (2, 10, 12, 20):
            cfg = write_config(tmp_path, grids=grids, options={"t_verify": 1.0, "k_eigs": k_eigs})
            assert main(["verify-decomposition", "--config", str(cfg)]) == 0, k_eigs
            summary = read_summary(tmp_path)
            del summary["config_hash"]
            outputs.append(((tmp_path / "out" / "verify-decomposition.csv").read_bytes(), summary))
        assert all(output == outputs[0] for output in outputs[1:])

    def test_verify_decomposition_rejects_synthetic_alphas(self, tmp_path, caplog):
        # composing config alphas against the solved 2D operator checks nothing
        cfg = write_config(tmp_path, alphas=[-5.0, 1.0, 60.0, 200.0], grids={"nx": 32, "ny": 32})
        assert main(["verify-decomposition", "--config", str(cfg)]) == 2
        assert "alphas" in caplog.text
        assert not (tmp_path / "out" / "verify-decomposition.csv").exists()

    def test_continue_rejects_synthetic_alphas(self, tmp_path, caplog, monkeypatch):
        # the branch lives on the solved 2D operator, which has no crossing at the alphas' t_bar
        monkeypatch.setattr(cli, "find_one_dim_solution", lambda *a, **k: pytest.fail("solved before validating"))
        cfg = write_config(tmp_path, alphas=[-5.0, 1.0, 60.0, 200.0], grids={"nx": 32, "ny": 32})
        assert main(["continue", "--config", str(cfg)]) == 2
        assert "alphas" in caplog.text
        assert not list((tmp_path / "out").glob("*.csv"))

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


def test_verify_decomposition_bytes_do_not_depend_on_blas_threads(tmp_path):
    # BLAS sums in another order under another thread count; the certificate sums without it
    cfg = write_config(tmp_path, grids={"ode_M": 1200, "eig_M": 1600, "nx": 200, "ny": 200})
    paths = [str(Path(pde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-m", "cylbif", "verify-decomposition", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes() for name in ("verify-decomposition.csv", "summary.json")})
    assert outputs[0] == outputs[1]


def test_cli_imports_only_public_names():
    # __all__ is the only list of public names (star-import semantics where a module has
    # none), so every name cli.py takes from a sibling module must be in it; none is an
    # underscore name, so a rule cli.py needs is exported by the module that owns it
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names = {alias.name for alias in node.names}
            assert not {name for name in names if name.startswith("_")}, (node.module, sorted(names))
            module = importlib.import_module(f"cylbif.{node.module}")
            public = getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])
            missing = names - set(public)
            assert not missing, (node.module, sorted(missing))
    # pde_rectangle is taken as a module, so that scipy loads only when a command reads
    # pde.<name>; the same rule holds for every name read through it
    modules = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    assert modules == {None: "__version__", "pde": "pde_rectangle"}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pde"
    }
    assert "certified_spectrum" in read
    assert read <= set(pde.__all__), sorted(read - set(pde.__all__))


def test_base_spectrum_imports_no_scipy():
    # the disk's Bessel values come from base_spectrum's own recurrence, so the 1D chain loads no
    # scipy on any base; an import of it at module or function level would bring back about 0.2 s
    # of every disk run's start-up
    tree = ast.parse(Path(importlib.import_module("cylbif.base_spectrum").__file__).read_text())
    imported = [
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            else [node.module or ""]
            if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert imported and not [name for name in imported if name.partition(".")[0] == "scipy"], imported


def test_cli_does_not_cast_config_values_again():
    # load_config stores each grids, tolerances and options value as its default's type, so
    # no read site converts one again
    sections = {"grids", "tolerances", "options"}
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("int", "float", "bool"):
            for arg in node.args:
                read = arg.value if isinstance(arg, ast.Subscript) else None
                assert not (isinstance(read, ast.Attribute) and read.attr in sections), ast.unparse(node)


def test_no_pde_function_takes_both_a_context_and_a_point():
    # a BranchContext owns its crossing, so no public function takes a BifurcationPoint
    # next to one: the two could describe different crossings
    checked = set()
    for node in ast.parse(Path(pde.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in pde.__all__:
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [ast.unparse(arg.annotation) for arg in args if arg.annotation is not None]
            takes = {kind for kind in ("BranchContext", "BifurcationPoint") if any(kind in a for a in annotations)}
            assert takes != {"BranchContext", "BifurcationPoint"}, node.name
            checked.add(node.name)
    assert {"make_branch_context", "continue_branch", "continue_half_branches", "backtrack_branch"} <= checked


def test_every_pde_l_base_is_required():
    # the state arguments (u, t, model, grid, l_base) stay uniform: no public function of
    # pde_rectangle falls back on a unit base length that its caller did not pass
    functions = {name: getattr(pde, name) for name in pde.__all__ if inspect.isfunction(getattr(pde, name))}
    takes = {name for name, fn in functions.items() if "l_base" in inspect.signature(fn).parameters}
    for name in takes:
        assert inspect.signature(functions[name]).parameters["l_base"].default is inspect.Parameter.empty, name
    assert {"assemble_linearized", "smallest_eigenvalues", "newton_solve", "eval_energy", "make_branch_context"} <= takes


@pytest.mark.parametrize(
    "module, name, params",
    [
        ("ode_shooting", "count_nodal_domains_1d", ["values"]),
        ("pde_rectangle", "count_nodal_domains_2d", ["u", "grid"]),
        ("sturm_liouville", "assemble_sl_operator", ["potential"]),
        ("sturm_liouville", "TridiagonalOperator", ["diag", "off"]),
        ("sturm_liouville", "SturmSpectrum", ["alphas", "eigenfunctions"]),
        ("morse_bifurcation", "BifurcationPoint", ["t_bar", "pairs", "kernel_multiplicity"]),
        ("morse_bifurcation", "SumSet", ["a", "b"]),
        ("cli", "_alphas_for", ["cfg", "sol"]),
        ("ode_shooting", "OneDimSolution", ["values", "derivative_values", "amplitude", "nodal_count", "residual"]),
    ],
)
def test_derived_values_are_neither_parameters_nor_fields(module, name, params):
    # sign-count thresholds, grid sizes, the spacing, zero counts, simplicity, the sample grid
    # and the Morse chain's length follow from the data; as a parameter or a field they could
    # disagree with it
    owner = getattr(importlib.import_module(f"cylbif.{module}"), name)
    assert list(inspect.signature(owner).parameters) == params


def test_installed_entry_point_and_log_env(tmp_path):
    cfg = write_config(tmp_path)
    # the package's own directory first, so that a checkout runs without an install
    paths = [str(Path(pde.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, CYLBIF_LOG="debug", PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cylbif", "base-eigs", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "running base-eigs" in proc.stderr


def test_an_unknown_log_level_falls_back_to_info(monkeypatch):
    levels = []
    monkeypatch.setenv("CYLBIF_LOG", "verbose")
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
    assert main(["no-such-subcommand"]) == cli.EXIT_USAGE
    assert levels == [logging.INFO]

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; timings are checked where a budget is part of the criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cylbif import (
    Disk,
    Grid2D,
    Interval,
    LaneEmden,
    Rectangle,
    assemble_linearized,
    assemble_sl_operator,
    backtrack_branch,
    continue_branch,
    count_nodal_domains_2d,
    degeneracy_times,
    embed_one_dim,
    find_one_dim_solution,
    ground_state_flag,
    integrate_ivp,
    linearized_spectrum,
    make_branch_context,
    morse_index,
    morse_vs_t,
    neumann_eigenvalues,
    richardson_extrapolate,
    scale_spectrum,
    sl_eigenpairs,
    smallest_eigenvalues,
)
from cylbif.errors import BranchNotFoundError
from cylbif.morse_bifurcation import BifurcationPoint
from oracles import brute_force_negative_count, ellipk_agm


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {label}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {label}: PASS ({time.perf_counter() - start:.1f} s)")


@pytest.fixture(scope="module")
def real_spectra():
    """Richardson-extrapolated linearization spectra for both families, n = 1..3."""
    out = {}
    for label, model in (("u3", LaneEmden(4.0)), ("p3", LaneEmden(3.0))):
        for n in (1, 2, 3):
            sol = find_one_dim_solution(model, n)
            k = max(n + 5, 12)
            per_m = {m: linearized_spectrum(model, sol.amplitude, m, k) for m in (500, 1000, 2000)}
            rich = np.array(
                [
                    richardson_extrapolate(
                        [per_m[500].alphas[i], per_m[1000].alphas[i], per_m[2000].alphas[i]]
                    )
                    for i in range(k)
                ]
            )
            err_est = np.abs(per_m[2000].alphas - rich)
            out[(label, n)] = {
                "model": model,
                "solution": sol,
                "spectra": per_m,
                "alphas": rich,
                "err_est": err_est,
            }
    return out


@pytest.fixture(scope="module")
def cubic_n1(real_spectra):
    return real_spectra[("u3", 1)]


def test_criterion_01_analytic_eigenvalues():
    with criterion(1, "analytic mixed-BC eigenvalues via Richardson"):
        start = time.perf_counter()
        per_m = {}
        for m in (500, 1000, 2000):
            per_m[m] = sl_eigenpairs(assemble_sl_operator(np.zeros(m + 1), m), 5).alphas
        for i in range(5):
            exact = ((2 * (i + 1) - 1) * math.pi / 2) ** 2
            rich = richardson_extrapolate([per_m[500][i], per_m[1000][i], per_m[2000][i]])
            assert abs(rich - exact) / exact <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_02_shooting_amplitudes():
    with criterion(2, "shooting amplitudes vs AGM elliptic oracle"):
        start = time.perf_counter()
        model = LaneEmden(4.0)
        k_half = ellipk_agm(0.5)
        for n in (1, 2, 3):
            sol = find_one_dim_solution(model, n)
            assert abs(sol.amplitude - (2 * n - 1) * k_half) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_03_one_dim_morse_equals_nodal_count(real_spectra):
    with criterion(3, "one-dimensional Morse index equals nodal count"):
        for (label, n), data in real_spectra.items():
            alphas_fine = data["spectra"][2000].alphas
            assert int(np.count_nonzero(alphas_fine < 0.0)) == n
            next_eig = alphas_fine[n]
            assert next_eig > 0.0
            assert next_eig > 10.0 * data["err_est"][n]


def test_criterion_04_oscillation_structure(real_spectra):
    with criterion(4, "i-th eigenfunction has i-1 interior sign changes"):
        for data in real_spectra.values():
            for spec in data["spectra"].values():
                for i, count in enumerate(spec.zero_counts):
                    assert int(count) == i


def test_criterion_05_spectrum_decomposition(cubic_n1):
    with criterion(5, "2D spectrum equals composed 1D + base spectrum"):
        start = time.perf_counter()
        model = cubic_n1["model"]
        amplitude = cubic_n1["solution"].amplitude
        alphas = cubic_n1["alphas"]
        lambdas = np.array([(j * math.pi) ** 2 for j in range(8)])
        composed = np.sort((alphas[:, None] + lambdas[None, :]).ravel())[:10]

        mismatch = {}
        for nn in (100, 200):
            grid = Grid2D(nn, nn)
            u1d, _ = integrate_ivp(model, amplitude, grid.ny - 1)
            op = assemble_linearized(embed_one_dim(u1d, grid), 1.0, model, grid)
            direct = smallest_eigenvalues(op, 10)
            mismatch[nn] = float(np.max(np.abs(direct - composed) / np.abs(composed)))
        assert mismatch[200] <= 2e-3
        order = math.log2(mismatch[100] / mismatch[200])
        assert order >= 1.5
        assert time.perf_counter() - start < 60.0


def test_criterion_06_formula_equals_brute_force(real_spectra):
    with criterion(6, "Morse formula equals brute-force negative count"):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            alphas = np.sort(rng.uniform(-30.0, 50.0, size=k))
            alphas[-1] = abs(alphas[-1]) + 1.0
            n_lam = int(rng.integers(2, 9))
            lambdas = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 80.0, size=n_lam))])
            mults = np.concatenate([[1], rng.integers(1, 4, size=n_lam)])
            from test_morse_bifurcation import synthetic_base

            base = synthetic_base(lambdas, mults, cutoff=100.0)
            assert morse_index(alphas, base).m == brute_force_negative_count(alphas, lambdas, mults)

        base = neumann_eigenvalues(Interval(1.0), cutoff=600.0)
        for data in real_spectra.values():
            for t in (0.7, 1.0, 1.9):
                scaled = scale_spectrum(base, t)
                report = morse_index(data["alphas"], scaled)
                assert report.m == brute_force_negative_count(
                    data["alphas"], scaled.lambdas, scaled.multiplicities
                )


def test_criterion_07_scaling_law():
    with criterion(7, "dilation scales every eigenvalue by 1/t^2"):
        domains = [Interval(1.0), Rectangle(1.0, 1.0), Disk(1.0)]
        for domain in domains:
            unit = neumann_eigenvalues(domain, cutoff=60.0)
            for t in (0.5, 2.0, 3.7):
                scaled = scale_spectrum(unit, t)
                if isinstance(domain, Interval):
                    direct = neumann_eigenvalues(Interval(t), cutoff=60.0 / t**2)
                elif isinstance(domain, Rectangle):
                    direct = neumann_eigenvalues(Rectangle(t, t), cutoff=60.0 / t**2)
                else:
                    direct = neumann_eigenvalues(Disk(t), cutoff=60.0 / t**2)
                assert np.array_equal(scaled.multiplicities, direct.multiplicities)
                rel = np.abs(scaled.lambdas[1:] - direct.lambdas[1:]) / direct.lambdas[1:]
                assert np.max(rel) <= 1e-12
                assert scaled.lambdas[0] == direct.lambdas[0] == 0.0


def test_criterion_08_degeneracy_sequence(cubic_n1):
    with criterion(8, "Morse index vs dilation is the predicted step function"):
        alphas = cubic_n1["alphas"]
        a1 = float(alphas[0])
        t_bar1 = math.pi / math.sqrt(-a1)
        t_max = 3.0 * (3.0 * t_bar1)
        base = neumann_eigenvalues(Interval(1.0), cutoff=1.05 * (-a1) * t_max**2)
        points = degeneracy_times(alphas, base, t_max)
        ts = np.linspace(0.5, t_max, 800)
        samples = morse_vs_t(alphas, base, ts)
        ms = np.array([s.m for s in samples])
        assert np.all(np.diff(ms) >= 0)
        cell = ts[1] - ts[0]
        jump_at = np.where(np.diff(ms) > 0)[0]
        for idx in jump_at:
            nearest = min(points, key=lambda p: abs(p.t_bar - ts[idx]))
            assert abs(nearest.t_bar - ts[idx]) <= cell
            assert ms[idx + 1] - ms[idx] == nearest.kernel_multiplicity
        assert ms[-1] >= 4


def test_criterion_09_local_bifurcation(cubic_n1):
    with criterion(9, "branch switching at the first degeneracy scaling"):
        start = time.perf_counter()
        model = cubic_n1["model"]
        amplitude = cubic_n1["solution"].amplitude
        a1 = float(cubic_n1["alphas"][0])
        t_bar1 = math.pi / math.sqrt(-a1)
        point = BifurcationPoint(t_bar=t_bar1, pairs=[(1, 1)], kernel_multiplicity=1, simple=True)

        grid = Grid2D(200, 200)
        ctx = make_branch_context(model, grid, 1.0, amplitude, i=1, j=1)

        sides = {}
        for direction in (+1, -1):
            t_side = t_bar1 * (1.0 + direction * 0.01)
            try:
                sides[direction] = continue_branch(ctx, point, direction, steps=1)[0]
            except BranchNotFoundError:
                # Newton still converges at this offset, onto the trivial branch
                fallback = ctx.solve(ctx.u_ref, t_side)
                assert fallback.residual <= ctx.tol
                sides[direction] = None

        found = [bp for bp in sides.values() if bp is not None]
        assert found, "no side produced a bifurcating solution"
        assert any(bp.deviation >= 1e-3 for bp in found)
        for bp in found:
            assert bp.nodal_count_2d == 1
            assert bp.residual <= ctx.tol

        back = backtrack_branch(ctx, found[0])
        dists = [bp.distance_to_1d for bp in back]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-3
        for bp in back:
            assert bp.nodal_count_2d == 1
        assert time.perf_counter() - start < 300.0


def test_criterion_10_ground_state_flag(cubic_n1):
    with criterion(10, "wide bases force non-one-dimensional ground states"):
        alphas = cubic_n1["alphas"]
        narrow = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        wide = neumann_eigenvalues(Interval(3.0), cutoff=50.0)
        assert ground_state_flag(alphas, narrow) is False
        assert ground_state_flag(alphas, wide) is True
        # consistency with lambda_1 = pi^2 / L^2
        a1 = -float(alphas[0])
        assert (math.pi**2 / 1.0 < a1) == ground_state_flag(alphas, narrow)
        assert (math.pi**2 / 9.0 < a1) == ground_state_flag(alphas, wide)

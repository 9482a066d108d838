import functools
import math

import numpy as np
import pytest

import cylbif.sturm_liouville as sl
from cylbif import (
    CubicFamily,
    InsufficientSpectrumError,
    LaneEmden,
    NonConvergenceError,
    TridiagonalOperator,
    ValidationError,
    assemble_sl_operator,
    count_nodal_domains_1d,
    eval_fprime,
    find_one_dim_solution,
    integrate_ivp,
    linearized_spectrum,
    nondegeneracy_margin,
    one_dim_morse,
    oscillation_check,
    richardson_extrapolate,
    sl_eigenpairs,
)
from oracles import lapack_eigenpairs

# Richardson-extrapolated leading eigenvalue of the linearization around
# the positive f(u) = u^3 solution, frozen from M in {500, 1000, 2000}
ALPHA1_CUBIC_N1 = -5.156389362236


def analytic_free_alphas(k):
    return np.array([((2 * i - 1) * math.pi / 2) ** 2 for i in range(1, k + 1)])


class TestAssembly:
    def test_small_grid_dispersion_is_exact(self):
        # cosine modes diagonalize the mirror-ghost stencil exactly
        m = 4
        op = assemble_sl_operator(np.zeros(m + 1))
        eigs = np.sort(np.linalg.eigvalsh(op.dense()))
        thetas = np.array([(2 * i - 1) * math.pi / (2 * m) for i in range(1, m + 1)])
        expected = np.sort(2.0 * m**2 * (1.0 - np.cos(thetas)))
        assert eigs == pytest.approx(expected, rel=1e-12)

    def test_constant_potential_shifts_spectrum(self):
        m = 64
        base = np.sort(np.linalg.eigvalsh(assemble_sl_operator(np.zeros(m + 1)).dense()))
        c = 3.7
        shifted = np.sort(np.linalg.eigvalsh(assemble_sl_operator(np.full(m + 1, c)).dense()))
        assert shifted == pytest.approx(base - c, rel=1e-12)

    def test_zero_amplitude_potential_is_fprime_at_zero(self, cubic_model):
        # f'(0) = 0, so the linearization at u = 0 is the free operator
        spec = linearized_spectrum(cubic_model, 0.0, 100, 3)
        free = sl_eigenpairs(assemble_sl_operator(np.zeros(101)), 3)
        assert np.array_equal(spec.alphas, free.alphas)

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match=r"1-d with at least 5 samples, got shape \(5, 2\)"):
            assemble_sl_operator(np.zeros((5, 2)))
        op = assemble_sl_operator(np.zeros(101))
        with pytest.raises(ValidationError):
            sl_eigenpairs(op, 100)


class TestFreeOperator:
    def test_analytic_eigenvalues_after_richardson(self):
        per_m = {}
        for m in (500, 1000, 2000):
            per_m[m] = sl_eigenpairs(assemble_sl_operator(np.zeros(m + 1)), 5).alphas
        exact = analytic_free_alphas(5)
        for i in range(5):
            rich = richardson_extrapolate([per_m[500][i], per_m[1000][i], per_m[2000][i]])
            assert abs(rich - exact[i]) / exact[i] <= 1e-8

    def test_zero_counts_and_morse(self):
        spec = sl_eigenpairs(assemble_sl_operator(np.zeros(501)), 5)
        assert oscillation_check(spec)
        assert one_dim_morse(spec.alphas) == 0
        assert nondegeneracy_margin(spec.alphas) == pytest.approx((math.pi / 2) ** 2, rel=1e-5)


class TestLinearizedSpectra:
    def test_morse_equals_nodal_count(self, cubic_model, cubic_solutions):
        for n, sol in cubic_solutions.items():
            spec = linearized_spectrum(cubic_model, sol.amplitude, 2000, max(n + 5, 12))
            assert one_dim_morse(spec.alphas) == n
            assert oscillation_check(spec)
            # the count is certified: next eigenvalue is positive
            assert spec.alphas[n] > 0.0

    def test_morse_equals_nodal_count_p3(self, cubic_solutions):
        model = LaneEmden(3.0)
        from cylbif import find_one_dim_solution

        for n in (1, 2, 3):
            sol = find_one_dim_solution(model, n)
            spec = linearized_spectrum(model, sol.amplitude, 2000, max(n + 5, 12))
            assert one_dim_morse(spec.alphas) == n

    def test_frozen_leading_eigenvalue(self, cubic_alphas_n1):
        assert abs(cubic_alphas_n1[0] - ALPHA1_CUBIC_N1) < 1e-6

    def test_grid_convergence_is_second_order(self, cubic_spectra_n1, cubic_alphas_n1):
        errs = {m: abs(cubic_spectra_n1[m].alphas[0] - cubic_alphas_n1[0]) for m in (500, 1000, 2000)}
        assert errs[500] / errs[1000] == pytest.approx(4.0, rel=0.15)
        assert errs[1000] / errs[2000] == pytest.approx(4.0, rel=0.15)

    def test_richardson_agrees_with_fine_grid(self, cubic_spectra_n1, cubic_alphas_n1):
        # the h^2 error constant grows like the mode frequency to the 4th
        # power, so the 1e-6 relative budget applies to the leading block
        fine = cubic_spectra_n1[4000].alphas
        for i in range(4):
            assert abs(fine[i] - cubic_alphas_n1[i]) / abs(cubic_alphas_n1[i]) <= 1e-6

    def test_margin_beats_discretization_error(self, cubic_spectra_n1, cubic_alphas_n1):
        spec = cubic_spectra_n1[2000]
        err_est = np.abs(spec.alphas - cubic_alphas_n1[: len(spec.alphas)])
        margin = nondegeneracy_margin(spec.alphas)
        assert margin > 10.0 * err_est[np.argmin(np.abs(spec.alphas))]

    def test_eigenvalues_strictly_simple(self, cubic_spectra_n1, cubic_alphas_n1):
        spec = cubic_spectra_n1[2000]
        err_est = np.abs(spec.alphas - cubic_alphas_n1[: len(spec.alphas)])
        gaps = np.diff(spec.alphas)
        combined = err_est[:-1] + err_est[1:]
        assert np.all(gaps > 10.0 * combined)

    def test_eigenfunction_residual(self, cubic_model, cubic_solutions, cubic_spectra_n1):
        spec = cubic_spectra_n1[500]
        m = spec.eigenfunctions.shape[1] - 1
        h = 1.0 / m
        potential = eval_fprime(cubic_model, integrate_ivp(cubic_model, cubic_solutions[1].amplitude, m)[0])
        worst = 0.0
        for i in range(6):
            z = spec.eigenfunctions[i]
            d2 = (z[:-2] - 2.0 * z[1:-1] + z[2:]) / h**2
            res = -d2 - potential[1:-1] * z[1:-1] - spec.alphas[i] * z[1:-1]
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst <= 5e-2 * max(1.0, float(np.max(np.abs(spec.alphas[:6]))))

    def test_eigenfunction_orthogonality(self, cubic_spectra_n1):
        spec = cubic_spectra_n1[1000]
        m = spec.eigenfunctions.shape[1] - 1
        h = 1.0 / m
        w = np.ones(m + 1)
        w[0] = w[-1] = 0.5
        z = spec.eigenfunctions
        gram = h * np.einsum("ik,jk,k->ij", z, z, w)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8
        assert np.diag(gram) == pytest.approx(np.ones(len(spec.alphas)), rel=1e-12)

    def test_boundary_and_sign_conventions(self, cubic_spectra_n1):
        spec = cubic_spectra_n1[500]
        assert np.all(spec.eigenfunctions[:, -1] == 0.0)
        assert np.all(spec.eigenfunctions[:, 0] > 0.0)


# profiles of the kernel tests: the free operator, and the linearizations around
# a two-domain Lane-Emden and a positive cubic solution
PROFILES = {"free": None, "lane_emden": (LaneEmden(4.0), 2), "cubic": (CubicFamily(1.0, 1.0), 1)}


@functools.cache
def _amplitude(model, n):
    return find_one_dim_solution(model, n).amplitude


def profile_operator(profile, m):
    if PROFILES[profile] is None:
        return assemble_sl_operator(np.zeros(m + 1))
    model, n = PROFILES[profile]
    u, _ = integrate_ivp(model, _amplitude(model, n), m)
    return assemble_sl_operator(eval_fprime(model, u))


def inf_norm(op):
    rows = np.abs(op.diag)
    rows[:-1] += np.abs(op.off)
    rows[1:] += np.abs(op.off)
    return float(np.max(rows))


def assert_matches_lapack(op, spec):
    """Eigenvalues within 4 eps ||T||_inf of stebz, and vectors with small residuals,
    trapezoid-orthonormal, z(0) > 0, with the zero counts of LAPACK's vectors."""
    m, k, h = len(op.diag), len(spec.alphas), 1.0 / len(op.diag)
    scale = np.finfo(float).eps * inf_norm(op)
    ref_alphas, ref_vecs = lapack_eigenpairs(op.diag, op.off, k)
    assert np.max(np.abs(spec.alphas - ref_alphas)) <= 4.0 * scale
    # back to the symmetrized coordinates, where the vectors have unit 2-norm
    v = spec.eigenfunctions[:, :m] * math.sqrt(h)
    v[:, 0] /= math.sqrt(2.0)
    residual = (op.diag - spec.alphas[:, None]) * v
    residual[:, :-1] += op.off * v[:, 1:]
    residual[:, 1:] += op.off * v[:, :-1]
    assert np.max(np.linalg.norm(residual, axis=1)) <= 16.0 * scale
    weights = np.full(m + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    gram = np.einsum("ik,jk,k->ij", spec.eigenfunctions, spec.eigenfunctions, weights)
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-8
    assert np.all(spec.eigenfunctions[:, 0] > 0.0) and np.all(spec.eigenfunctions[:, -1] == 0.0)
    ref = ref_vecs.T * np.sign(np.sum(ref_vecs.T * v, axis=1))[:, None]
    assert np.max(np.abs(v - ref)) <= 1e-7
    ref_counts = [count_nodal_domains_1d(z) - 1 for z in ref]
    assert spec.zero_counts.tolist() == ref_counts


class TestSturmKernel:
    """sl_eigenpairs against LAPACK's stebz/stein, the reference it replaces."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("m", [4, 64, 199, 500, 2000])
    def test_matches_lapack(self, profile, m):
        # 22 pairs at M = 199 is the height block of the 2D certificate
        op = profile_operator(profile, m)
        spec = sl_eigenpairs(op, min(22, m - 1))
        assert_matches_lapack(op, spec)
        assert oscillation_check(spec)

    def test_clustered_eigenvalues_on_each_grid_of_the_triple(self):
        # p = 60, n = 8: alpha_1..alpha_8 sit within a few hundred of -2.1e5 (within 40
        # at M = 2000, against ||T|| = 1.6e7), one eigenfunction on each peak of |u|;
        # each grid is solved cold and warm-started from the coarser one, as the triple is
        model = LaneEmden(60.0)
        amplitude = _amplitude(model, 8)
        guess = None
        for m in (500, 1000, 2000):
            u, _ = integrate_ivp(model, amplitude, m)
            op = assemble_sl_operator(eval_fprime(model, u))
            cold = sl_eigenpairs(op, 12)
            assert_matches_lapack(op, cold)
            assert np.all(cold.alphas[:8] < -1.9e5) and cold.alphas[8] > -1e3
            if guess is not None:
                warm = sl_eigenpairs(op, 12, guess=guess)
                assert_matches_lapack(op, warm)
            guess = cold.alphas
        assert cold.alphas[7] - cold.alphas[0] < 50.0

    def test_guesses_only_place_the_first_shifts(self):
        op = profile_operator("lane_emden", 500)
        cold = sl_eigenpairs(op, 12)
        scale = np.finfo(float).eps * inf_norm(op)
        for guess in (cold.alphas * (1.0 + 1e-6), cold.alphas[::-1], cold.alphas + 1e3, np.zeros(12)):
            warm = sl_eigenpairs(op, 12, guess=guess)
            assert np.max(np.abs(warm.alphas - cold.alphas)) <= 4.0 * scale
            assert np.array_equal(warm.zero_counts, cold.zero_counts)
        with pytest.raises(ValidationError, match="need k = 12 guesses, got 3"):
            sl_eigenpairs(op, 12, guess=cold.alphas[:3])

    def test_a_shift_on_a_zero_pivot_counts_right(self):
        # every diagonal entry of the free operator is 2/h^2, so at that shift d_1 = 0
        # exactly; it counts as -pivmin, and so does every second pivot after it
        op = assemble_sl_operator(np.zeros(65))
        x = float(op.diag[0])
        assert op.diag[0] - x == 0.0
        expected = int(np.count_nonzero(np.linalg.eigvalsh(op.dense()) < x))
        assert op.count_below(x) == expected == 32

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_count_below_is_the_number_of_eigenvalues_below_the_shift(self, profile):
        op = profile_operator(profile, 64)
        eigs = np.linalg.eigvalsh(op.dense())
        for shift in (-1e4, -10.0, 0.0, 50.0, float(np.mean(eigs[3:5])), 1e6):
            assert op.count_below(shift) == int(np.count_nonzero(eigs < shift)), shift

    def test_coincident_eigenvalues_cannot_be_isolated(self):
        # uncoupled equal diagonal entries make a double eigenvalue: the count jumps by 2
        # at 1.0 and no bisection separates the two
        op = TridiagonalOperator(diag=np.array([1.0, 1.0, 2.0, 3.0, 4.0]), off=np.zeros(4))
        with pytest.raises(NonConvergenceError, match="eigenvalue 1 cannot be isolated .*2 eigenvalues coincide"):
            sl_eigenpairs(op, 2)

    def test_a_poor_eigenvalue_gives_no_vector(self, monkeypatch):
        # an eigenvalue off by 1e-3 leaves a residual far above M eps ||T|| (2.4e-10 here)
        polish = TridiagonalOperator._polish
        monkeypatch.setattr(TridiagonalOperator, "_polish", lambda self, *args: polish(self, *args) + 1e-3)
        with pytest.raises(NonConvergenceError, match=r"residual .* > M eps \|\|T\|\|"):
            sl_eigenpairs(assemble_sl_operator(np.zeros(65)), 3)


class TestOperatorView:
    """A ``TridiagonalOperator`` builds the float view its Sturm queries run on once, from entries that stay fixed."""

    def test_one_view_per_operator(self, monkeypatch):
        builds = []
        build = TridiagonalOperator._view.func

        def spy(self):
            builds.append(self.diag.size)
            return build(self)

        view = functools.cached_property(spy)
        view.__set_name__(TridiagonalOperator, "_view")
        monkeypatch.setattr(TridiagonalOperator, "_view", view)
        # the triple counts each grid at 0 and then solves it: one view per grid
        model = LaneEmden(4.0)
        sl.extrapolated_alphas(model, _amplitude(model, 2), 2000, 12)
        assert sorted(builds) == [500, 1000, 2000]
        builds.clear()
        op = profile_operator("lane_emden", 200)
        counts = [op.count_below(shift) for shift in np.linspace(-1e5, 1e5, 200)]
        assert builds == [200]
        assert counts == sorted(counts) and counts[0] == 0 and counts[-1] > 0

    def test_entries_are_read_only_copies(self):
        diag, off = np.array([2.0, 3.0, 4.0]), np.array([1.0, -1.0])
        op = TridiagonalOperator(diag=diag, off=off)
        with pytest.raises(AttributeError):
            op.diag = np.zeros(3)
        assert not op.diag.flags.writeable and not op.off.flags.writeable
        with pytest.raises(ValueError):
            op.diag[0] = 0.0
        assert diag.flags.writeable and off.flags.writeable
        diag[0] = 9.0
        assert op.diag.tolist() == [2.0, 3.0, 4.0] and op.count_below(2.5) == 1


class TestTripleCounts:
    """``extrapolated_alphas`` counts the negative eigenvalues of its three operators before any eigensolve."""

    @pytest.mark.parametrize(
        "model", [LaneEmden(3.0), LaneEmden(4.0), CubicFamily(1.0, 1.0), CubicFamily(0.0, 2.0)], ids=repr
    )
    def test_the_n_nodal_profile_counts_n_on_every_grid(self, model):
        # the linearization around the n-nodal profile has n negative eigenvalues (Sturm), and
        # each grid of the eig_M = 2000 triple resolves that up to n = 20
        for n in range(1, 21):
            amplitude = _amplitude(model, n)
            counts = [
                assemble_sl_operator(eval_fprime(model, integrate_ivp(model, amplitude, m)[0])).count_below(0.0)
                for m in (500, 1000, 2000)
            ]
            assert counts == [n, n, n], n

    def test_agreeing_counts_still_need_ascending_alphas(self, monkeypatch):
        # p = 60, n = 8: the grids disagree on the count ([14, 10, 9]); forced to agree, the
        # Richardson weights still meet the profile outside their regime and give unsorted alphas
        model = LaneEmden(60.0)
        with pytest.raises(NonConvergenceError, match="count \\[14, 10, 9\\] negative eigenvalues"):
            sl.extrapolated_alphas(model, _amplitude(model, 8), 2000, 12)
        monkeypatch.setattr(TridiagonalOperator, "count_below", lambda self, shift: 9)
        with pytest.raises(NonConvergenceError, match="gives alphas out of order: alpha_4 = .* >= alpha_5"):
            sl.extrapolated_alphas(model, _amplitude(model, 8), 2000, 12)


class TestDiagnostics:
    def test_oscillation_check_detects_corruption(self, cubic_spectra_n1):
        spec = cubic_spectra_n1[500]
        corrupted = type(spec)(alphas=spec.alphas.copy(), eigenfunctions=spec.eigenfunctions[::-1].copy())
        assert not oscillation_check(corrupted)

    def test_insufficient_spectrum(self, cubic_model, cubic_solutions):
        # k = 1 around the two-domain solution sees only negative values
        spec = linearized_spectrum(cubic_model, cubic_solutions[2].amplitude, 500, 1)
        with pytest.raises(InsufficientSpectrumError):
            one_dim_morse(spec.alphas)

    def test_zero_is_not_a_positive_witness(self):
        with pytest.raises(InsufficientSpectrumError):
            one_dim_morse([-1.0, 0.0])
        assert one_dim_morse([-1.0, 0.5]) == 1

    def test_richardson_needs_two_values(self):
        with pytest.raises(ValidationError):
            richardson_extrapolate([1.0])


@pytest.mark.parametrize(
    "call, match",
    [(lambda: assemble_sl_operator(np.zeros(4)), r"potential must be 1-d with at least 5 samples, got shape \(4,\)")],
    ids=["grid-size"],
)
def test_unreached_raises_name_the_rule(call, match):
    with pytest.raises(ValidationError, match=match):
        call()

import math

import numpy as np
import pytest

from cylbif import (
    DegenerateInputError,
    Grid2D,
    LaneEmden,
    NonConvergenceError,
    ValidationError,
    assemble_linearized,
    assemble_sl_operator,
    backtrack_branch,
    continue_branch,
    count_nodal_domains_2d,
    embed_one_dim,
    eval_energy,
    eval_fprime,
    integrate_ivp,
    make_branch_context,
    newton_solve,
    one_dimensionality_deviation,
    smallest_eigenvalues,
)
from cylbif.errors import BranchNotFoundError
from cylbif.morse_bifurcation import BifurcationPoint
from cylbif.pde_rectangle import _neumann_block


def mixed_laplacian_analytic(count):
    vals = sorted(
        ((2 * a - 1) * math.pi / 2) ** 2 + (b * math.pi) ** 2
        for a in range(1, 6)
        for b in range(0, 6)
    )
    return np.array(vals[:count])


@pytest.fixture(scope="module")
def grid64():
    return Grid2D(64, 64)


@pytest.fixture(scope="module")
def embedded_n1(cubic_model, cubic_solutions, grid64):
    u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid64.ny - 1)
    return embed_one_dim(u1d, grid64)


@pytest.fixture(scope="module")
def branch_ctx(cubic_model, cubic_solutions, grid64):
    return make_branch_context(cubic_model, grid64, 1.0, cubic_solutions[1].amplitude, i=1, j=1)


@pytest.fixture(scope="module")
def first_crossing(cubic_alphas_n1):
    t_bar = math.pi / math.sqrt(-float(cubic_alphas_n1[0]))
    return BifurcationPoint(t_bar=t_bar, pairs=[(1, 1)], kernel_multiplicity=1, simple=True)


class TestOperator:
    def test_matrix_is_exactly_symmetric(self, embedded_n1, cubic_model, grid64):
        op = assemble_linearized(embedded_n1, 1.3, cubic_model, grid64)
        assert abs(op.matrix - op.matrix.T).max() == 0.0

    def test_free_laplacian_eigenvalues(self, grid64):
        # LaneEmden p=3 has f'(0) = 0, so u = 0 gives the pure operator
        op = assemble_linearized(np.zeros((64, 64)), 1.0, LaneEmden(3.0), grid64)
        vals = smallest_eigenvalues(op, 5)
        assert vals == pytest.approx(mixed_laplacian_analytic(5), rel=3e-3)
        assert vals[0] == pytest.approx((math.pi / 2) ** 2, rel=1e-3)
        assert vals[1] == pytest.approx((math.pi / 2) ** 2 + math.pi**2, rel=1e-3)

    def test_constant_shift_identity(self, embedded_n1, grid64):
        # adding c to the potential shifts the whole spectrum by -c
        from cylbif import CubicFamily

        c = 2.5
        op0 = assemble_linearized(np.zeros((64, 64)), 1.0, LaneEmden(3.0), grid64)
        op1 = assemble_linearized(np.zeros((64, 64)), 1.0, CubicFamily(c1=c, c3=1.0), grid64)
        diff = op0.matrix - op1.matrix
        assert abs(diff - c * np.eye(grid64.ndof)).max() < 1e-12
        v0 = smallest_eigenvalues(op0, 4)
        v1 = smallest_eigenvalues(op1, 4)
        assert v1 == pytest.approx(v0 - c, rel=1e-10, abs=1e-8)

    def test_discrete_tensor_decomposition_is_exact(self, cubic_model, cubic_solutions):
        # eigenvalues of the 2D matrix are exactly the sums of the two
        # 1D block spectra when the potential depends on the height only
        grid = Grid2D(24, 24)
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid.ny - 1)
        emb = embed_one_dim(u1d, grid)
        t = 1.37
        op = assemble_linearized(emb, t, cubic_model, grid)
        dense = op.matrix.toarray()
        eigs2d = np.sort(np.linalg.eigvalsh(dense))

        q = eval_fprime(cubic_model, u1d)
        sy = assemble_sl_operator(q, grid.ny - 1)
        mu = np.linalg.eigvalsh(sy.dense())
        sx, _ = _neumann_block(grid.nx, 1.0 / ((t * 1.0) ** 2 * grid.hx**2))
        xi = np.linalg.eigvalsh(sx.toarray())
        sums = np.sort((mu[:, None] + xi[None, :]).ravel())
        assert eigs2d == pytest.approx(sums, rel=1e-10, abs=1e-8)

    def test_decomposition_against_composed_spectrum(self, cubic_model, cubic_solutions, cubic_alphas_n1):
        # two independent routes: direct 2D eigenvalues vs alpha + lambda
        grid = Grid2D(100, 100)
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid.ny - 1)
        op = assemble_linearized(embed_one_dim(u1d, grid), 1.0, cubic_model, grid)
        direct = smallest_eigenvalues(op, 10)
        lambdas = np.array([(j * math.pi) ** 2 for j in range(6)])
        composed = np.sort((cubic_alphas_n1[:8, None] + lambdas[None, :]).ravel())[:10]
        assert np.max(np.abs(direct - composed) / np.abs(composed)) <= 1e-3

    def test_eigen_solver_nonconvergence_reported(self, embedded_n1, cubic_model, grid64):
        op = assemble_linearized(embedded_n1, 1.0, cubic_model, grid64)
        with pytest.raises(NonConvergenceError):
            smallest_eigenvalues(op, 8, maxiter=1)


class TestNewton:
    def test_embedded_solution_is_fixed_point(self, branch_ctx):
        # u_ref solves the transported problem at every dilation
        for t in (0.8, 1.7):
            bp = branch_ctx.solve(branch_ctx.u_ref, t)
            assert bp.newton_iters == 0
            assert bp.deviation < 1e-12
            assert bp.distance_to_1d < 1e-10
            assert bp.nodal_count_2d == 1

    def test_zero_initial_converges_to_zero(self, cubic_model, grid64):
        bp = newton_solve(np.zeros((64, 64)), 1.0, cubic_model, grid64, tol=1e-10, max_iters=10)
        assert np.all(bp.solution == 0.0)
        assert bp.nodal_count_2d == 0
        assert bp.deviation == 0.0

    def test_two_domain_solution_embeds(self, cubic_model, cubic_solutions, grid64):
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[2].amplitude, grid64.ny - 1)
        bp = newton_solve(embed_one_dim(u1d, grid64), 1.0, cubic_model, grid64, tol=1e-10, max_iters=20)
        assert bp.nodal_count_2d == 2
        assert bp.deviation < 1e-10

    def test_max_iters_enforced(self, cubic_model, cubic_solutions, grid64):
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid64.ny - 1)
        rough = embed_one_dim(u1d, grid64) * 1.8
        with pytest.raises(NonConvergenceError):
            newton_solve(rough, 1.0, cubic_model, grid64, tol=1e-12, max_iters=1)

    def test_validation(self, cubic_model, grid64):
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((64, 64)), 1.0, cubic_model, grid64, tol=0.0, max_iters=5)
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((10, 10)), 1.0, cubic_model, grid64, tol=1e-8, max_iters=5)
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((64, 64)), -1.0, cubic_model, grid64, tol=1e-8, max_iters=5)

    def test_grid_floor(self):
        with pytest.raises(ValidationError):
            Grid2D(10, 64)
        with pytest.raises(ValidationError):
            Grid2D(64, 15)


class TestDiagnostics:
    def test_deviation_of_embedded_is_zero(self, embedded_n1, grid64):
        assert one_dimensionality_deviation(embedded_n1, grid64) < 1e-13

    def test_deviation_of_pure_mode_is_one(self, grid64):
        x = grid64.x_nodes()
        y = grid64.y_nodes()
        u = np.outer(np.cos(math.pi * y / 2), np.cos(math.pi * x))
        assert one_dimensionality_deviation(u, grid64) == pytest.approx(1.0, abs=1e-12)

    def test_deviation_first_order_in_perturbation(self, branch_ctx, grid64):
        u = branch_ctx.u_ref + 0.1 * branch_ctx.kernel
        norm_u = math.sqrt(branch_ctx.ref_norm**2 + 0.01)
        assert one_dimensionality_deviation(u, grid64) == pytest.approx(0.1 / norm_u, rel=0.02)

    def test_deviation_rejects_zero(self, grid64):
        with pytest.raises(DegenerateInputError):
            one_dimensionality_deviation(np.zeros((64, 64)), grid64)

    def test_nodal_counts(self, embedded_n1, grid64, cubic_model, cubic_solutions):
        assert count_nodal_domains_2d(embedded_n1, grid64, 1e-8) == 1
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[2].amplitude, grid64.ny - 1)
        emb2 = embed_one_dim(u1d, grid64)
        assert count_nodal_domains_2d(emb2, grid64, 1e-8 * np.max(np.abs(emb2))) == 2
        x = grid64.x_nodes()
        y = grid64.y_nodes()
        mode = np.outer(np.cos(math.pi * y / 2), np.cos(math.pi * x))
        assert count_nodal_domains_2d(mode, grid64, 1e-8) == 2
        with pytest.raises(DegenerateInputError):
            count_nodal_domains_2d(np.zeros((64, 64)), grid64, 1e-8)

    def test_energy_of_zero_is_zero(self, cubic_model, grid64):
        assert eval_energy(np.zeros((64, 64)), 1.0, cubic_model, grid64) == 0.0

    def test_energy_of_embedded_is_t_independent(self, embedded_n1, cubic_model, grid64):
        e1 = eval_energy(embedded_n1, 1.0, cubic_model, grid64)
        e2 = eval_energy(embedded_n1, 2.5, cubic_model, grid64)
        assert e1 == pytest.approx(e2, abs=1e-14)
        assert np.isfinite(e1)


class TestKernelMode:
    def test_unit_norm(self, branch_ctx, grid64):
        w = branch_ctx.kernel
        wx = np.ones(grid64.nx)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(grid64.ny)
        wy[0] = wy[-1] = 0.5
        norm2 = grid64.hx * grid64.hy * np.einsum("i,j,ij->", wy, wx, w * w)
        assert norm2 == pytest.approx(1.0, rel=1e-12)

    def test_kernel_is_exact_at_discrete_crossing(self, branch_ctx, cubic_model, grid64):
        # one height-block eigensolve at u_ref's potential gives both the mode
        # and t_bar_discrete, so the mode is the discrete kernel there
        op = assemble_linearized(branch_ctx.u_ref, branch_ctx.t_bar_discrete, cubic_model, grid64)
        dof = branch_ctx.kernel[: grid64.ny - 1, :].ravel()
        assert np.max(np.abs(op.apply(dof))) <= 1e-8

    def test_context_rejects_pairs_without_crossing(self, cubic_model, cubic_solutions, grid64):
        amplitude = cubic_solutions[1].amplitude
        with pytest.raises(ValidationError):
            make_branch_context(cubic_model, grid64, 1.0, amplitude, i=1, j=0)
        # the single-domain solution has one negative height eigenvalue
        with pytest.raises(ValidationError, match="nonnegative"):
            make_branch_context(cubic_model, grid64, 1.0, amplitude, i=2, j=1)

    def test_kernel_residual_shrinks_at_second_order(self, cubic_model, cubic_solutions, cubic_alphas_n1):
        # at the continuum scaling the discrete kernel is off by O(h^2)
        t_bar = math.pi / math.sqrt(-float(cubic_alphas_n1[0]))
        res = {}
        for nn in (60, 120):
            grid = Grid2D(nn, nn)
            ctx = make_branch_context(cubic_model, grid, 1.0, cubic_solutions[1].amplitude, i=1, j=1)
            op = assemble_linearized(ctx.u_ref, t_bar, cubic_model, grid)
            dof = ctx.kernel[: grid.ny - 1, :].ravel()
            res[nn] = float(np.max(np.abs(op.apply(dof))))
            scale = abs(cubic_alphas_n1[0]) * 2.0 + float(np.max(eval_fprime(cubic_model, ctx.u_ref)))
            assert res[nn] <= 10.0 * (grid.hx**2 + grid.hy**2) * scale
        assert res[60] / res[120] == pytest.approx(4.0, rel=0.35)


class TestBranch:
    def test_exists_on_exactly_one_side(self, branch_ctx, first_crossing):
        found = {}
        for direction in (+1, -1):
            try:
                branch = continue_branch(branch_ctx, first_crossing, direction, steps=1)
                found[direction] = branch[0]
            except BranchNotFoundError:
                found[direction] = None
        hits = [d for d, bp in found.items() if bp is not None]
        assert hits == [+1]
        bp = found[+1]
        assert bp.deviation > 1e-3
        assert bp.distance_to_1d > 1e-3
        assert bp.nodal_count_2d == 1

    def test_continuation_returns_ordered_points(self, branch_ctx, first_crossing):
        branch = continue_branch(branch_ctx, first_crossing, +1, steps=3)
        assert len(branch) == 3
        ts = [bp.t for bp in branch]
        assert ts == sorted(ts)
        assert all(bp.nodal_count_2d == 1 for bp in branch)
        # moving away from the crossing the defect keeps growing
        assert branch[-1].deviation > branch[0].deviation

    def test_backtrack_distance_shrinks_monotonically(self, branch_ctx, first_crossing):
        start = continue_branch(branch_ctx, first_crossing, +1, steps=1)[0]
        back = backtrack_branch(branch_ctx, start)
        dists = [bp.distance_to_1d for bp in back]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-3
        assert all(bp.nodal_count_2d == 1 for bp in back)

    def test_kernel_crossing_eigenvalue_vanishes(self, branch_ctx, first_crossing, cubic_model, grid64):
        # at the continuum scaling the smallest-magnitude eigenvalue sits at
        # discretization size; at the discrete scaling it vanishes outright
        op = assemble_linearized(branch_ctx.u_ref, first_crossing.t_bar, cubic_model, grid64)
        vals = smallest_eigenvalues(op, 4)
        assert np.min(np.abs(vals)) <= 10.0 * (grid64.hx**2 + grid64.hy**2) * abs(first_crossing.t_bar) ** -2 * 100
        op_h = assemble_linearized(branch_ctx.u_ref, branch_ctx.t_bar_discrete, cubic_model, grid64)
        vals_h = smallest_eigenvalues(op_h, 4)
        assert np.min(np.abs(vals_h)) <= 1e-9

    def test_negative_count_changes_across_crossing(self, branch_ctx, cubic_model, grid64):
        t_bar_h = branch_ctx.t_bar_discrete
        counts = {}
        for t in (0.98 * t_bar_h, 1.02 * t_bar_h):
            op = assemble_linearized(branch_ctx.u_ref, t, cubic_model, grid64)
            vals = smallest_eigenvalues(op, 6)
            counts[t] = int(np.count_nonzero(vals < 0.0))
        low, high = sorted(counts)
        assert counts[high] - counts[low] == 1

    def test_morse_bound_on_branch(self, branch_ctx, first_crossing, cubic_model, grid64):
        bp = continue_branch(branch_ctx, first_crossing, +1, steps=1)[0]
        op = assemble_linearized(bp.solution, bp.t, cubic_model, grid64)
        vals = smallest_eigenvalues(op, 6)
        negatives = int(np.count_nonzero(vals < 0.0))
        assert negatives >= bp.nodal_count_2d

    def test_branch_energy_differs_from_reference(self, branch_ctx, first_crossing, cubic_model, grid64):
        bp = continue_branch(branch_ctx, first_crossing, +1, steps=1)[0]
        e_branch = eval_energy(bp.solution, bp.t, cubic_model, grid64)
        e_ref = eval_energy(branch_ctx.u_ref, bp.t, cubic_model, grid64)
        assert np.isfinite(e_branch) and np.isfinite(e_ref)
        assert abs(e_branch - e_ref) > 1e-8

    def test_non_simple_point_rejected(self, branch_ctx):
        fat = BifurcationPoint(t_bar=1.4, pairs=[(1, 1), (1, 2)], kernel_multiplicity=2, simple=False)
        with pytest.raises(ValidationError):
            continue_branch(branch_ctx, fat, +1, steps=1)

    def test_half_branches_are_reflections(self, branch_ctx, first_crossing):
        eps = 0.1 * branch_ctx.ref_norm
        plus = continue_branch(branch_ctx, first_crossing, +1, steps=1, eps0=eps)[0]
        minus = continue_branch(branch_ctx, first_crossing, +1, steps=1, eps0=-eps)[0]
        mirrored = plus.solution[:, ::-1]
        scale = np.max(np.abs(mirrored))
        assert np.max(np.abs(minus.solution - mirrored)) / scale < 1e-8

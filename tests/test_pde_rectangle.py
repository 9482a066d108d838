import functools
import logging
import logging.handlers
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, splu

import cylbif.pde_rectangle as pde
from cylbif import (
    CubicFamily,
    DegenerateInputError,
    Grid2D,
    LaneEmden,
    NonConvergenceError,
    ValidationError,
    assemble_linearized,
    assemble_sl_operator,
    backtrack_branch,
    certified_spectrum,
    continue_branch,
    continue_half_branches,
    count_nodal_domains_2d,
    embed_one_dim,
    eval_energy,
    eval_f,
    eval_fprime,
    find_one_dim_solution,
    integrate_ivp,
    make_branch_context,
    newton_solve,
    one_dimensionality_deviation,
    sl_eigenpairs,
    smallest_eigenvalues,
)
from cylbif.errors import BranchNotFoundError
from cylbif.morse_bifurcation import BifurcationPoint
from oracles import flood_fill_domains


def weighted_norm(u, grid):
    wx = np.ones(grid.nx)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(grid.ny)
    wy[0] = wy[-1] = 0.5
    return math.sqrt(grid.hx * grid.hy * np.einsum("i,j,ij->", wy, wx, u * u))


def neumann_block(n, c):
    """Dense symmetrized second difference with Neumann mirrors at both ends."""
    sx = c * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    sx[0, 1] = sx[1, 0] = sx[-1, -2] = sx[-2, -1] = -c * math.sqrt(2.0)
    return sx


def grid_action(operator, grid, v):
    """diag(dvec)^-1 operator(dvec * v), dvec the weights of the assembled matrix A: A's action
    on true grid values v when ``operator`` multiplies by A, its solve's when it solves with A."""
    dvec = pde._grid_parts(grid)[2]
    return operator(dvec * v) / dvec


def direct_newton(initial, t, model, grid, tol):
    """Exact Newton with one sparse LU per step: the reference for the Krylov solves."""
    # f'(0) = 0 for both families, so the operator at u = 0 is the bare D_t
    lap = assemble_linearized(np.zeros((grid.ny, grid.nx)), t, model, grid, 1.0)
    v = initial[:-1].ravel().copy()
    for _ in range(25):
        r = grid_action(lap.dot, grid, v) - eval_f(model, v)
        if np.max(np.abs(r)) <= tol:
            full = np.zeros((grid.ny, grid.nx))
            full[:-1] = v.reshape(grid.ny - 1, grid.nx)
            return full
        jac = (lap - sparse.diags(eval_fprime(model, v))).tocsc()
        v = v + grid_action(splu(jac).solve, grid, -r)
    raise AssertionError("reference Newton did not converge")


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


def simple_point(i: int, j: int, t_bar: float = 1.0) -> BifurcationPoint:
    return BifurcationPoint(t_bar=t_bar, pairs=[(i, j)], kernel_multiplicity=1)


@pytest.fixture(scope="module")
def branch_ctx(cubic_model, cubic_solutions, grid64, first_crossing):
    return make_branch_context(cubic_model, grid64, 1.0, cubic_solutions[1].amplitude, first_crossing, tol=1e-8)


@pytest.fixture(scope="module")
def ctx48(cubic_model, cubic_solutions, first_crossing):
    return make_branch_context(cubic_model, Grid2D(48, 48), 1.0, cubic_solutions[1].amplitude, first_crossing, tol=1e-8)


@pytest.fixture(scope="module")
def height_only_200(cubic_model, cubic_solutions):
    """Grid, dilation, height profile and the state it embeds, of a height-only state at the
    benchmark's 200 x 200."""
    grid, t = Grid2D(200, 200), 1.0
    u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid.ny - 1)
    return grid, t, u1d, embed_one_dim(u1d, grid)


@pytest.fixture(scope="module")
def first_crossing(cubic_alphas_n1):
    return simple_point(1, 1, math.pi / math.sqrt(-float(cubic_alphas_n1[0])))


@pytest.fixture(scope="module")
def followed_64(branch_ctx, first_crossing):
    """Both 8-point half-branches of the 64 x 64 crossing, the backtrack from the first plus
    point, and the debug log of their solves."""
    handler = logging.handlers.BufferingHandler(10_000)
    logger = logging.getLogger("cylbif.pde")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        halves = continue_half_branches(branch_ctx, steps=8, t_max=2 * first_crossing.t_bar)
        back = backtrack_branch(branch_ctx, halves.branches["plus"][0])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return halves, back, [record.getMessage() for record in handler.buffer]


@pytest.fixture(scope="module")
def height_profile():
    """The height-only profile with n nodal domains on the ny = size grid, shot once per case."""

    @functools.cache
    def profile(model, n, size):
        return integrate_ivp(model, find_one_dim_solution(model, n).amplitude, size - 1)[0]

    return profile


class TestOperator:
    def test_matrix_is_exactly_symmetric(self, embedded_n1, cubic_model, grid64):
        matrix = assemble_linearized(embedded_n1, 1.3, cubic_model, grid64, 1.0)
        assert abs(matrix - matrix.T).max() == 0.0

    def test_free_laplacian_eigenvalues(self, grid64):
        # LaneEmden p=3 has f'(0) = 0, so u = 0 gives the pure operator
        vals = smallest_eigenvalues(np.zeros((64, 64)), 1.0, LaneEmden(3.0), grid64, 1.0, 5)
        assert vals == pytest.approx(mixed_laplacian_analytic(5), rel=3e-3)
        assert vals[0] == pytest.approx((math.pi / 2) ** 2, rel=1e-3)
        assert vals[1] == pytest.approx((math.pi / 2) ** 2 + math.pi**2, rel=1e-3)

    def test_constant_shift_identity(self, embedded_n1, grid64):
        # adding c to the potential shifts the whole spectrum by -c
        from cylbif import CubicFamily

        c, zero = 2.5, np.zeros((64, 64))
        models = (LaneEmden(3.0), CubicFamily(c1=c, c3=1.0))
        op0, op1 = (assemble_linearized(zero, 1.0, model, grid64, 1.0) for model in models)
        assert abs(op0 - op1 - c * np.eye(grid64.ndof)).max() < 1e-12
        v0, v1 = (smallest_eigenvalues(zero, 1.0, model, grid64, 1.0, 4) for model in models)
        assert v1 == pytest.approx(v0 - c, rel=1e-10, abs=1e-8)

    def test_discrete_tensor_decomposition_is_exact(self, cubic_model, cubic_solutions):
        # eigenvalues of the 2D matrix are exactly the sums of the two
        # 1D block spectra when the potential depends on the height only
        grid = Grid2D(24, 24)
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid.ny - 1)
        emb = embed_one_dim(u1d, grid)
        t = 1.37
        dense = assemble_linearized(emb, t, cubic_model, grid, 1.0).toarray()
        eigs2d = np.sort(np.linalg.eigvalsh(dense))

        q = eval_fprime(cubic_model, u1d)
        sy = assemble_sl_operator(q)
        mu = np.linalg.eigvalsh(sy.dense())
        xi = np.linalg.eigvalsh(neumann_block(grid.nx, 1.0 / ((t * 1.0) ** 2 * grid.hx**2)))
        sums = np.sort((mu[:, None] + xi[None, :]).ravel())
        assert eigs2d == pytest.approx(sums, rel=1e-10, abs=1e-8)

    def test_decomposition_against_composed_spectrum(self, cubic_model, cubic_solutions, cubic_alphas_n1):
        # two independent routes: direct 2D eigenvalues vs alpha + lambda
        grid = Grid2D(100, 100)
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid.ny - 1)
        direct = smallest_eigenvalues(embed_one_dim(u1d, grid), 1.0, cubic_model, grid, 1.0, 10)
        lambdas = np.array([(j * math.pi) ** 2 for j in range(6)])
        composed = np.sort((cubic_alphas_n1[:8, None] + lambdas[None, :]).ravel())[:10]
        assert np.max(np.abs(direct - composed) / np.abs(composed)) <= 1e-3

    @pytest.mark.parametrize("nx", [48, 200, 400])
    def test_closed_form_x_modes_match_eigh_tridiagonal(self, nx):
        grid = Grid2D(nx, 16)
        t, l_base = 1.3, 0.7
        owner = pde._TensorSum(grid, t, l_base)
        sx = neumann_block(nx, 1.0 / ((t * l_base) ** 2 * grid.hx**2))
        ref = eigh_tridiagonal(np.diag(sx), np.diag(sx, 1), eigvals_only=True)
        xi, vecs = owner.xi, owner.modes
        scale = np.max(xi)
        assert np.max(np.abs(xi - ref)) <= 1e-15 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(nx))) <= 1e-13
        assert np.max(np.abs(sx @ vecs - vecs * xi)) <= 1e-14 * scale

    @pytest.mark.parametrize("nx", [22, 48, 200])
    def test_x_modes_are_built_once_per_width(self, nx):
        # the modes as each _TensorSum built them for itself, from its grid's h_x;
        # at nx = 22, pi * h_x and pi / (nx - 1) differ in the last bit
        hx, k = Grid2D(nx, 16).hx, np.arange(nx)
        dx = np.ones(nx)
        dx[0] = dx[-1] = 1.0 / math.sqrt(2.0)
        ref = dx[:, None] * np.cos((np.outer(k, k) % (2 * (nx - 1))) * (math.pi * hx))
        ref /= np.linalg.norm(ref, axis=0)
        shared = pde._TensorSum(Grid2D(nx, 16), 1.3, 0.7).modes
        assert pde._TensorSum(Grid2D(nx, 16), 0.4, 1.0).modes is shared
        assert shared.tobytes() == ref.tobytes() and not shared.flags.writeable
        # the modes are cached per grid, but their bytes depend on the width alone
        assert pde._TensorSum(Grid2D(nx, 40), 0.4, 1.0).modes.tobytes() == ref.tobytes()

    def test_grid_parts_are_built_once_per_grid(self):
        # the other grid parts as each _TensorSum built them for itself
        for nx in (22, 48, 200):
            grid = Grid2D(nx, 40)
            height = assemble_sl_operator(np.zeros(grid.ny))
            k, dx, dy = np.arange(nx), np.ones(nx), np.ones(grid.ny - 1)
            dx[0] = dx[-1] = dy[0] = 1.0 / math.sqrt(2.0)
            shared = {
                "sy": height.dense(),
                "dy": dy,
                "dvec": np.kron(dy, dx),
                "blocks_off": np.tile(np.append(height.off, 0.0), nx)[:-1],
            }
            first, second = pde._TensorSum(grid, 1.3, 0.7), pde._TensorSum(Grid2D(nx, 40), 0.4, 1.0)
            for name, ref in shared.items():
                part = getattr(first, name)
                assert getattr(second, name) is part, name
                arrays = (part.data, part.indices, part.indptr) if sparse.issparse(part) else (part,)
                assert not any(a.flags.writeable for a in arrays), name
                assert (part.toarray() if sparse.issparse(part) else part).tobytes() == ref.tobytes(), name
            # the unit x'-block and its eigenvalues, which each _TensorSum scales by its own c
            *_, sx, xi = pde._grid_parts(grid)
            assert pde._grid_parts(Grid2D(nx, 40))[-2] is sx and pde._grid_parts(Grid2D(nx, 40))[-1] is xi
            assert sx.toarray().tobytes() == neumann_block(nx, 1.0).tobytes()
            assert xi.tobytes() == (2.0 * (1.0 - np.cos(k * math.pi * grid.hx))).tobytes()
            assert not any(a.flags.writeable for a in (sx.data, sx.indices, sx.indptr, xi))
            assert pde._TensorSum(Grid2D(nx, 48), 1.3, 0.7).sy is not first.sy

    @pytest.mark.parametrize("nx", [22, 48, 200])
    def test_scaled_x_block_matches_the_per_t_formulas(self, nx):
        # S_x(t) and xi(t) as each _TensorSum built them from c = 1/(t L h_x)^2 before the
        # unit block was shared: scaling by c rounds exactly as those formulas did
        grid, k = Grid2D(nx, 16), np.arange(nx)
        for t, l_base in np.exp(np.random.default_rng(nx).uniform(-4.0, 4.0, (20, 2))):
            c = 1.0 / ((t * l_base) ** 2 * grid.hx**2)
            off = np.full(nx - 1, -c)
            off[0] = off[-1] = -c * math.sqrt(2.0)
            sx = sparse.diags([off, np.full(nx, 2.0 * c), off], [-1, 0, 1], format="csr")
            op = pde._TensorSum(grid, t, l_base)
            assert op.xi.tobytes() == (2.0 * c * (1.0 - np.cos(k * math.pi * grid.hx))).tobytes()
            for name in ("data", "indices", "indptr"):
                assert getattr(op.sx, name).tobytes() == getattr(sx, name).tobytes(), name

    @pytest.mark.parametrize("n", [48, 200])
    def test_factored_apply_matches_the_assembled_matrix(self, cubic_model, n):
        # f'(0) = 0, so the assembled operator at u = 0 is the bare D_t
        grid, t, l_base = Grid2D(n, n), 1.3, 0.7
        owner = pde._TensorSum(grid, t, l_base)
        assembled = assemble_linearized(np.zeros((n, n)), t, cubic_model, grid, l_base)
        for v in np.random.default_rng(0).standard_normal((3, grid.ndof)):
            ref = grid_action(assembled.dot, grid, v)
            assert np.max(np.abs(owner.apply(v) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_eigen_solver_nonconvergence_reported(self, embedded_n1, cubic_model, grid64):
        with pytest.raises(NonConvergenceError, match=r"converged only \d+/8 pairs") as info:
            smallest_eigenvalues(embedded_n1, 1.0, cubic_model, grid64, 1.0, 8, maxiter=1)
        # the residual field holds a norm elsewhere; an eigensolve that stops early has none
        assert info.value.residual is None
        assert isinstance(info.value.__cause__, ArpackNoConvergence)

    def test_shift_invert_factors_once_in_a_symmetric_ordering(self, cubic_model, height_only_200, monkeypatch):
        # splu's default column ordering fills 3.66e6 entries here, the minimum-degree one 1.93e6
        fills = []

        def spy(*args, **kwargs):
            lu = splu(*args, **kwargs)
            fills.append(lu.nnz)
            return lu

        grid, t, _, state = height_only_200
        monkeypatch.setattr(pde.spla, "splu", spy)
        smallest_eigenvalues(state, t, cubic_model, grid, 1.0, 10)
        assert len(fills) == 1
        assert fills[0] <= 2.2e6

    def test_shift_invert_matches_sum_set_at_benchmark_size(self, cubic_model, height_only_200):
        # the closed-form x'-eigenvalues plus the height block's at the same potential
        grid, t, u1d, state = height_only_200
        c = 1.0 / (t**2 * grid.hx**2)
        xi = 2.0 * c * (1.0 - np.cos(np.arange(10) * math.pi * grid.hx))
        sy = assemble_sl_operator(eval_fprime(cubic_model, u1d))
        mu = eigh_tridiagonal(sy.diag, sy.off, eigvals_only=True, select="i", select_range=(0, 9))
        sums = np.sort((mu[:, None] + xi[None, :]).ravel())[:10]
        direct = smallest_eigenvalues(state, t, cubic_model, grid, 1.0, 10)
        assert np.max(np.abs(direct - sums) / np.abs(sums)) <= 1e-10


class TestCertifiedSpectrum:
    @pytest.mark.parametrize("model", [LaneEmden(4.0), CubicFamily(1.0, 1.0)], ids=["le4", "cubic"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("size", [48, 200])
    def test_matches_shift_invert_lanczos(self, height_profile, model, n, size):
        grid, u1d = Grid2D(size, size), height_profile(model, n, size)
        for t in (0.5, 1.0, 2.0):
            cert = certified_spectrum(u1d, t, model, grid, 1.0, 10)
            ref = smallest_eigenvalues(embed_one_dim(u1d, grid), t, model, grid, 1.0, 10)
            assert np.max(np.abs(cert.values - ref) / np.abs(ref)) <= 1e-10, t
            assert cert.negative_pivots == 10 and cert.values[-1] < cert.shift

    def test_a_pair_coinciding_at_index_k_moves_the_shift_to_the_next_gap(self, height_profile, cubic_model):
        # mu_1 + xi_2(t) = mu_2 + xi_0 at t^2 = xi_2(1) / (mu_2 - mu_1), since xi scales as 1/t^2
        grid = Grid2D(48, 48)
        u1d = height_profile(cubic_model, 1, 48)
        mu = sl_eigenpairs(assemble_sl_operator(eval_fprime(cubic_model, u1d)), k=4).alphas
        t = math.sqrt(pde._TensorSum(grid, 1.0, 1.0).xi[2] / (mu[1] - mu[0]))
        sums = np.sort((mu[:, None] + pde._TensorSum(grid, t, 1.0).xi[None, :8]).ravel())
        k = int(np.argmin(np.diff(sums[:6]))) + 1  # the pair sits at indices k and k + 1
        assert sums[k] - sums[k - 1] <= 1e-12 * abs(sums[k])
        cert = certified_spectrum(u1d, t, cubic_model, grid, 1.0, k)
        assert cert.negative_pivots == k + 1
        assert sums[k] < cert.shift < sums[k + 1]
        assert cert.values == pytest.approx(sums[:k], rel=1e-10)

    def test_a_potential_that_is_not_separable_fails_the_residuals(self, height_profile, cubic_model, monkeypatch):
        grid = Grid2D(48, 48)
        assemble = pde.assemble_linearized

        def spiked(*args, **kwargs):
            spike = np.zeros(grid.ndof)
            spike[grid.ndof // 2] = 50.0
            return (assemble(*args, **kwargs) - sparse.diags(spike)).tocsr()

        monkeypatch.setattr(pde, "assemble_linearized", spiked)
        with pytest.raises(NonConvergenceError, match="certificate: candidate .* has residual"):
            certified_spectrum(height_profile(cubic_model, 1, 48), 1.0, cubic_model, grid, 1.0, 10)

    def test_no_gap_among_the_candidates_raises(self, height_profile, cubic_model, monkeypatch):
        # a random diagonal spreads the candidates' residuals past every gap between them
        grid = Grid2D(48, 48)
        assemble = pde.assemble_linearized
        noise = 1e3 * np.random.default_rng(0).standard_normal(grid.ndof)

        def noisy(*args, **kwargs):
            return (assemble(*args, **kwargs) - sparse.diags(noise)).tocsr()

        monkeypatch.setattr(pde, "assemble_linearized", noisy)
        monkeypatch.setattr(pde, "CERTIFICATE_RESIDUAL_REL", 1e30)
        with pytest.raises(NonConvergenceError, match="certificate: no gap wider than .* among the 22 smallest"):
            certified_spectrum(height_profile(cubic_model, 1, 48), 1.0, cubic_model, grid, 1.0, 10)

    @pytest.mark.parametrize(
        "perm_r, pivots, message",
        [
            ([1, 0, 2], [-1.0, 2.0, 3.0], "left the diagonal"),
            ([0, 1, 2], [-1.0, 0.0, 3.0], "zero pivot"),
            ([0, 1, 2], [-1.0, -2.0, 3.0], "2 eigenvalues lie below the shift .* but 10 candidates do"),
        ],
    )
    def test_a_void_or_wrong_count_raises(self, height_profile, cubic_model, monkeypatch, perm_r, pivots, message):
        # what certified_spectrum reads of a SuperLU factor: the two permutations and U
        fake = SimpleNamespace(perm_r=np.array(perm_r), perm_c=np.arange(3), U=sparse.diags(pivots))
        monkeypatch.setattr(pde, "_symmetric_lu", lambda matrix, shift: fake)
        with pytest.raises(NonConvergenceError, match=f"certificate: .*{message}"):
            certified_spectrum(height_profile(cubic_model, 1, 48), 1.0, cubic_model, Grid2D(48, 48), 1.0, 10)

    def test_a_singular_factor_is_nonconvergence(self):
        with pytest.raises(NonConvergenceError, match="zero pivot"):
            pde._symmetric_lu(sparse.diags([1.0, 0.0, 2.0], format="csr"), 0.0)


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
        bp = newton_solve(np.zeros((64, 64)), 1.0, cubic_model, grid64, tol=1e-10, l_base=1.0)
        assert np.all(bp.solution == 0.0)
        assert bp.nodal_count_2d == 0
        assert bp.deviation == 0.0

    def test_two_domain_solution_embeds(self, cubic_model, cubic_solutions, grid64):
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[2].amplitude, grid64.ny - 1)
        bp = newton_solve(embed_one_dim(u1d, grid64), 1.0, cubic_model, grid64, tol=1e-10, l_base=1.0)
        assert bp.nodal_count_2d == 2
        assert bp.deviation < 1e-10

    def test_max_iters_enforced(self, cubic_model, cubic_solutions, grid64, monkeypatch):
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[1].amplitude, grid64.ny - 1)
        rough = embed_one_dim(u1d, grid64) * 1.8
        monkeypatch.setattr(pde, "BRANCH_MAX_ITERS", 1)
        with pytest.raises(NonConvergenceError, match="in 1 iterations"):
            newton_solve(rough, 1.0, cubic_model, grid64, tol=1e-12, l_base=1.0)

    def test_a_diverging_step_is_nonconvergence(self, cubic_model, embedded_n1, grid64, monkeypatch):
        # a linear solve that returns a wild step sends the residual past 1e8 times its start
        fgmres = pde._fgmres

        def wild(*args):
            step, iters, converged = fgmres(*args)
            return 1e12 * step, iters, converged

        monkeypatch.setattr(pde, "_fgmres", wild)
        with pytest.raises(NonConvergenceError, match="newton diverged") as exc:
            newton_solve(1.5 * embedded_n1, 1.0, cubic_model, grid64, tol=1e-10, l_base=1.0)
        assert exc.value.residual > 1e8

    def test_branch_point_matches_direct_newton(self, cubic_model, ctx48, first_crossing):
        grid = ctx48.grid
        guess = ctx48.u_ref + 0.1 * ctx48.ref_norm * ctx48.kernel
        t = 1.01 * first_crossing.t_bar
        bp = newton_solve(guess, t, cubic_model, grid, tol=1e-8, l_base=1.0, reference_1d=ctx48.u_ref)
        ref = direct_newton(guess, t, cubic_model, grid, tol=1e-8)
        assert bp.distance_to_1d > 1e-3
        assert weighted_norm(bp.solution - ref, grid) / weighted_norm(ref, grid) <= 1e-8

    def test_branch_solve_assembles_no_2d_matrix(self, ctx48, first_crossing, monkeypatch):
        # Newton applies the tensor sum as its 1D factors; only the direct check builds the Kronecker sum
        def no_kronsum(*args, **kwargs):
            raise AssertionError("2D matrix assembled")

        monkeypatch.setattr(pde.sparse, "kronsum", no_kronsum)
        bp = ctx48.solve(ctx48.u_ref + 0.1 * ctx48.ref_norm * ctx48.kernel, 1.01 * first_crossing.t_bar)
        assert bp.newton_iters > 0 and bp.residual <= ctx48.tol
        assert bp.distance_to_1d > 1e-3

    def test_preconditioned_operator_is_the_jacobian_times_p(self, cubic_model, ctx48, first_crossing):
        # J = (D_t - diag qbar) - diag(q - qbar), so J P v = v - (q - qbar) * P v off the height-only states
        t = 1.01 * first_crossing.t_bar
        bp = ctx48.solve(ctx48.u_ref + 0.1 * ctx48.ref_norm * ctx48.kernel, t)
        assert bp.distance_to_1d > 1e-3
        q = eval_fprime(cubic_model, bp.solution[:-1].ravel())
        precond, rest = pde._TensorSum(ctx48.grid, t, 1.0).separable(q)
        v = np.random.default_rng(0).standard_normal(ctx48.grid.ndof)
        jac_p = assemble_linearized(bp.solution, t, cubic_model, ctx48.grid, 1.0) @ precond(v)
        assert np.max(np.abs(v - rest * precond(v) - jac_p)) <= 1e-10 * np.max(np.abs(jac_p))

    def test_separable_solve_is_exact_at_height_only(self, branch_ctx, cubic_model, grid64):
        # at a height-only state the preconditioner is the Jacobian itself
        t = 1.3
        matrix = assemble_linearized(branch_ctx.u_ref, t, cubic_model, grid64, 1.0)
        q = eval_fprime(cubic_model, branch_ctx.u_ref[:-1].ravel())
        owner = pde._TensorSum(grid64, t, 1.0)
        xi = np.linalg.eigh(neumann_block(grid64.nx, 1.0 / (t**2 * grid64.hx**2)))[0]
        assert np.max(np.abs(owner.xi - xi)) <= 1e-12 * xi[-1]
        solve, _ = owner.separable(q)
        b = np.random.default_rng(0).standard_normal(grid64.ndof)
        ref = splu(matrix.tocsc()).solve(b)
        assert np.max(np.abs(solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_each_krylov_iteration_applies_p_once(self, ctx48, first_crossing, monkeypatch, caplog):
        # flexible GMRES keeps z_j = P v_j: neither the step nor its residual applies P again
        applies = []
        separable = pde._TensorSum.separable

        def counted(self, q):
            solve, rest = separable(self, q)
            return (lambda b: applies.append(1) or solve(b)), rest

        monkeypatch.setattr(pde._TensorSum, "separable", counted)
        with caplog.at_level(logging.DEBUG, logger="cylbif.pde"):
            bp = ctx48.solve(ctx48.u_ref + 0.1 * ctx48.ref_norm * ctx48.kernel, 1.01 * first_crossing.t_bar)
        krylov = int(re.search(r"(\d+) krylov iterations", caplog.text).group(1))
        assert bp.newton_iters > 0 and krylov >= bp.newton_iters
        assert len(applies) == krylov

    def test_flexible_step_solves_the_assembled_jacobian(self, cubic_model, cubic_solutions, first_crossing):
        # the assembled matrix is built without P, so this checks the flexible residual, not P's exactness
        grid = Grid2D(32, 32)
        ctx = make_branch_context(cubic_model, grid, 1.0, cubic_solutions[1].amplitude, first_crossing, tol=1e-8)
        t = 1.01 * first_crossing.t_bar
        full = ctx.u_ref + 0.1 * ctx.ref_norm * ctx.kernel
        u = full[:-1].ravel()
        op = pde._TensorSum(grid, t, 1.0)
        b = op.dvec * (op.apply(u) - eval_f(cubic_model, u))
        atol = 1e-8 * np.linalg.norm(b)
        precond, rest = op.separable(eval_fprime(cubic_model, u))
        vs, zs = np.empty((pde.KRYLOV_MAX_ITERS + 1, u.size)), np.empty((pde.KRYLOV_MAX_ITERS, u.size))
        step, iters, converged = pde._fgmres(precond, rest, -b, atol, vs, zs)
        assert converged and iters > 1
        jacobian = assemble_linearized(full, t, cubic_model, grid, 1.0)
        assert np.linalg.norm(jacobian @ step + b) <= 1.01 * atol

    def test_one_pass_runs_past_half_the_cap(self):
        # with P = I the Krylov operator is J = diag(1 - rest), here 60 distinct eigenvalues
        # spread over [1, 100]: a residual of 1e-10 |b| takes 69 iterations, more than half
        # the cap, and one pass runs them all
        n = 120
        rest = 1.0 - np.repeat(np.geomspace(1.0, 1e2, 60), 2)
        b = np.random.default_rng(0).standard_normal(n)
        atol = 1e-10 * np.linalg.norm(b)
        applies = []
        vs, zs = np.empty((pde.KRYLOV_MAX_ITERS + 1, n)), np.empty((pde.KRYLOV_MAX_ITERS, n))
        step, iters, converged = pde._fgmres(lambda v: applies.append(1) or v.copy(), rest, b, atol, vs, zs)
        assert converged and pde.KRYLOV_MAX_ITERS // 2 < iters < pde.KRYLOV_MAX_ITERS
        assert len(applies) == iters
        assert np.linalg.norm(step - rest * step - b) <= atol

    def test_wrong_side_guess_hits_stall_cap(self, branch_ctx, first_crossing, caplog):
        # below t_bar no branch exists; a kick far outside the switching range
        # leaves every linear solve stalled, and the iteration cap ends the solve
        guess = branch_ctx.u_ref + 1.6 * branch_ctx.ref_norm * branch_ctx.kernel
        with caplog.at_level(logging.DEBUG, logger="cylbif.pde"):
            with pytest.raises(NonConvergenceError, match="gmres"):
                branch_ctx.solve(guess, 0.99 * first_crossing.t_bar)
        assert "gmres stalled" in caplog.text
        assert "krylov iterations" in caplog.text

    def test_validation(self, cubic_model, grid64):
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((64, 64)), 1.0, cubic_model, grid64, tol=0.0, l_base=1.0)
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((10, 10)), 1.0, cubic_model, grid64, tol=1e-8, l_base=1.0)
        with pytest.raises(ValidationError):
            newton_solve(np.zeros((64, 64)), -1.0, cubic_model, grid64, tol=1e-8, l_base=1.0)

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
        assert count_nodal_domains_2d(embedded_n1, grid64) == 1
        u1d, _ = integrate_ivp(cubic_model, cubic_solutions[2].amplitude, grid64.ny - 1)
        emb2 = embed_one_dim(u1d, grid64)
        assert count_nodal_domains_2d(emb2, grid64) == 2
        x = grid64.x_nodes()
        y = grid64.y_nodes()
        mode = np.outer(np.cos(math.pi * y / 2), np.cos(math.pi * x))
        assert count_nodal_domains_2d(mode, grid64) == 2
        with pytest.raises(DegenerateInputError):
            count_nodal_domains_2d(np.zeros((64, 64)), grid64)

    def test_the_nodal_threshold_is_relative_to_the_largest_sample(self):
        # a cell at NODAL_REL_TOL_2D * max|u| carries no sign, one just above it is a domain of its own
        grid = Grid2D(16, 16)
        u = np.full((grid.ny, grid.nx), 4.0)
        at = pde.NODAL_REL_TOL_2D * 4.0
        u[8, 8] = -at
        assert count_nodal_domains_2d(u, grid) == 1
        u[8, 8] = -np.nextafter(at, 1.0)
        assert count_nodal_domains_2d(u, grid) == 2

    @pytest.mark.parametrize("nx, ny", [(16, 40), (37, 16), (23, 23)])
    @pytest.mark.parametrize("positive, band", [(0.5, 0.0), (0.3, 0.2), (0.6, 0.3), (0.85, 0.1), (0.45, 0.5)])
    def test_nodal_counts_match_flood_fill(self, nx, ny, positive, band):
        # shares of positive, in-band and negative samples; in-band ones include |u| == tol exactly
        grid = Grid2D(nx, ny)
        rng = np.random.default_rng([nx, ny, int(100 * positive), int(100 * band)])
        for _ in range(5):
            sign = rng.choice([1, 0, -1], size=(ny, nx), p=[positive, band, 1.0 - positive - band])
            u = sign * (1.0 + rng.random((ny, nx)))
            tol = pde.NODAL_REL_TOL_2D * float(np.max(np.abs(u)))  # the band's samples leave max|u| as it is
            u = np.where(sign == 0, tol * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(ny, nx)), u)
            assert count_nodal_domains_2d(u, grid) == flood_fill_domains(u.tolist(), tol)

    def test_nodal_count_hand_cases(self):
        grid = Grid2D(16, 20)
        y, x = np.indices((grid.ny, grid.nx))
        checkerboard = np.where((x + y) % 2 == 0, 1.0, -1.0)  # every cell its own domain
        assert count_nodal_domains_2d(checkerboard, grid) == grid.nx * grid.ny
        ring = -np.ones((grid.ny, grid.nx))  # a positive ring splits the negative plane into hole and outside
        ring[4:12, 3:10] = 1.0
        ring[6:10, 5:8] = -1.0
        assert count_nodal_domains_2d(ring, grid) == 3
        corners = np.zeros((grid.ny, grid.nx))  # blocks that share only a corner are not 4-connected
        corners[2:5, 2:5] = corners[5:9, 5:8] = 1.0
        assert count_nodal_domains_2d(corners, grid) == 2
        for u in (checkerboard, ring, corners):
            assert count_nodal_domains_2d(u, grid) == flood_fill_domains(u.tolist(), 0.0)

    def test_energy_of_zero_is_zero(self, cubic_model, grid64):
        assert eval_energy(np.zeros((64, 64)), 1.0, cubic_model, grid64, 1.0) == 0.0

    def test_energy_of_embedded_is_t_independent(self, embedded_n1, cubic_model, grid64):
        e1 = eval_energy(embedded_n1, 1.0, cubic_model, grid64, 1.0)
        e2 = eval_energy(embedded_n1, 2.5, cubic_model, grid64, 1.0)
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
        matrix = assemble_linearized(branch_ctx.u_ref, branch_ctx.t_bar_discrete, cubic_model, grid64, 1.0)
        dof = branch_ctx.kernel[: grid64.ny - 1, :].ravel()
        assert np.max(np.abs(grid_action(matrix.dot, grid64, dof))) <= 1e-8

    def test_discrete_crossing_is_the_closed_form_ratio(self, branch_ctx, cubic_model, first_crossing, grid64):
        # t_bar_discrete = sqrt(xi_j / -mu_i), xi_j the x'-block eigenvalue at t = 1 and mu_i the
        # height-block eigenvalue at u_ref's potential: the same IEEE division and sqrt, bit for bit
        ((i, j),) = first_crossing.pairs
        q = eval_fprime(cubic_model, branch_ctx.u_ref[:, 0])
        mu_i = float(sl_eigenpairs(assemble_sl_operator(q), k=i).alphas[i - 1])
        xi_j = float(pde._TensorSum(grid64, 1.0, 1.0).xi[j])
        assert branch_ctx.t_bar_discrete == math.sqrt(xi_j / -mu_i)

    def test_context_rejects_pairs_without_crossing(self, cubic_model, cubic_solutions, grid64):
        amplitude = cubic_solutions[1].amplitude
        with pytest.raises(ValidationError):
            make_branch_context(cubic_model, grid64, 1.0, amplitude, simple_point(1, 0), tol=1e-8)
        with pytest.raises(ValidationError, match="mode index"):
            make_branch_context(cubic_model, grid64, 1.0, amplitude, simple_point(1, grid64.nx), tol=1e-8)
        # the single-domain solution has one negative height eigenvalue
        with pytest.raises(ValidationError, match="nonnegative"):
            make_branch_context(cubic_model, grid64, 1.0, amplitude, simple_point(2, 1), tol=1e-8)

    def test_a_reference_off_the_height_only_subspace_raises(
        self, cubic_model, cubic_solutions, grid64, first_crossing, monkeypatch
    ):
        # a polish that returned an x'-dependent solution would give no height-only u_ref
        solve = pde.newton_solve

        def tilted(*args, **kwargs):
            bp = solve(*args, **kwargs)
            bp.solution[:-1] += 1e-6 * np.max(np.abs(bp.solution)) * np.cos(math.pi * grid64.x_nodes())
            bp.deviation = one_dimensionality_deviation(bp.solution, grid64)
            return bp

        monkeypatch.setattr(pde, "newton_solve", tilted)
        with pytest.raises(NonConvergenceError, match="reference solve left the height-only subspace"):
            make_branch_context(cubic_model, grid64, 1.0, cubic_solutions[1].amplitude, first_crossing, tol=1e-8)

    def test_kernel_residual_shrinks_at_second_order(self, cubic_model, cubic_solutions, cubic_alphas_n1, first_crossing):
        # at the continuum scaling the discrete kernel is off by O(h^2)
        res = {}
        for nn in (60, 120):
            grid = Grid2D(nn, nn)
            ctx = make_branch_context(cubic_model, grid, 1.0, cubic_solutions[1].amplitude, first_crossing, tol=1e-8)
            matrix = assemble_linearized(ctx.u_ref, ctx.t_bar, cubic_model, grid, 1.0)
            dof = ctx.kernel[: grid.ny - 1, :].ravel()
            res[nn] = float(np.max(np.abs(grid_action(matrix.dot, grid, dof))))
            scale = abs(cubic_alphas_n1[0]) * 2.0 + float(np.max(eval_fprime(cubic_model, ctx.u_ref)))
            assert res[nn] <= 10.0 * (grid.hx**2 + grid.hy**2) * scale
        assert res[60] / res[120] == pytest.approx(4.0, rel=0.35)


class TestBranch:
    def test_exists_on_exactly_one_side(self, branch_ctx, first_crossing):
        found = {}
        for direction in (+1, -1):
            try:
                branch, _ = continue_branch(branch_ctx, direction, steps=1, t_max=2 * first_crossing.t_bar)
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
        branch, outcome = continue_branch(branch_ctx, +1, steps=3, t_max=2 * first_crossing.t_bar)
        assert len(branch) == 3
        assert outcome == "reached_t_limit"  # by the step count
        ts = [bp.t for bp in branch]
        assert ts == sorted(ts)
        assert all(bp.nodal_count_2d == 1 for bp in branch)
        # moving away from the crossing the defect keeps growing
        assert branch[-1].deviation > branch[0].deviation

    def test_continuation_ends_at_t_max(self, branch_ctx, first_crossing):
        # the first point sits at 1.01 * t_bar; the next step would reach 1.02 * t_bar
        t_max = 1.015 * first_crossing.t_bar
        branch, outcome = continue_branch(branch_ctx, +1, steps=5, t_max=t_max)
        assert [bp.t for bp in branch] == [pytest.approx(1.01 * first_crossing.t_bar, rel=1e-14), t_max]
        assert outcome == "reached_t_limit"
        assert all(bp.residual <= branch_ctx.tol for bp in branch)

    def test_stalls_when_every_step_fails(self, branch_ctx, first_crossing, monkeypatch):
        # every solve after the first point fails, so the step is halved until continuation gives up
        real_solve = pde.newton_solve
        t1 = first_crossing.t_bar + pde.FIRST_STEP_REL * first_crossing.t_bar
        failures = []

        def fail_past_first_point(initial, t, *args, **kwargs):
            if t != t1:
                failures.append(t)
                raise NonConvergenceError("injected failure")
            return real_solve(initial, t, *args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve", fail_past_first_point)
        branch, outcome = continue_branch(branch_ctx, +1, steps=3, t_max=2 * first_crossing.t_bar)
        assert outcome == "stalled"
        assert [bp.t for bp in branch] == [t1]
        assert len(failures) == 7

    def test_reports_a_return_to_the_height_only_solution(self, branch_ctx, first_crossing, monkeypatch):
        # later solves are started from u_ref, so the last point lies on the height-only solution
        real_solve = pde.newton_solve
        t1 = first_crossing.t_bar + pde.FIRST_STEP_REL * first_crossing.t_bar

        def collapse_past_first_point(initial, t, *args, **kwargs):
            return real_solve(initial if t == t1 else branch_ctx.u_ref, t, *args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve", collapse_past_first_point)
        branch, outcome = continue_branch(branch_ctx, +1, steps=2, t_max=2 * first_crossing.t_bar)
        assert outcome == "returned_to_one_dimensional"
        assert len(branch) == 2 and branch[-1].distance_to_1d < pde.FALLBACK_TOL_REL * branch_ctx.tol

    def test_a_point_at_the_fallback_threshold_fell_back(self, branch_ctx, first_crossing, monkeypatch):
        # the switch and the outcome read the same predicate, so a point exactly at
        # FALLBACK_TOL_REL * tol is off the branch for both
        threshold = pde.FALLBACK_TOL_REL * branch_ctx.tol
        t1 = first_crossing.t_bar + pde.FIRST_STEP_REL * first_crossing.t_bar
        distances = {}

        def solve_at(initial, t, *args, **kwargs):
            return pde.BranchPoint(t, initial, 0.5, 2, 1, distances.get(t, threshold), 0.0)

        monkeypatch.setattr(pde, "newton_solve", solve_at)
        with pytest.raises(BranchNotFoundError, match="escalating"):
            continue_branch(branch_ctx, +1, steps=2, t_max=2 * first_crossing.t_bar)
        distances[t1] = 1.0
        branch, outcome = continue_branch(branch_ctx, +1, steps=2, t_max=2 * first_crossing.t_bar)
        assert [bp.distance_to_1d for bp in branch] == [1.0, threshold]
        assert outcome == "returned_to_one_dimensional"

    def test_first_point_past_t_max_is_not_a_branch(self, branch_ctx, first_crossing):
        with pytest.raises(BranchNotFoundError, match="t_max"):
            continue_branch(branch_ctx, +1, steps=3, t_max=1.005 * first_crossing.t_bar)

    def test_backtrack_distance_shrinks_monotonically(self, branch_ctx, first_crossing):
        start = continue_branch(branch_ctx, +1, steps=1, t_max=2 * first_crossing.t_bar)[0][0]
        back = backtrack_branch(branch_ctx, start)
        dists = [bp.distance_to_1d for bp in back]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        # on the branch each distance is sqrt(BACKTRACK_RATIO) times the last; a solve that
        # fell back onto u_ref would still shrink, but not by this ratio
        ratios = [b / a for a, b in zip(dists, dists[1:])]
        assert ratios == pytest.approx([math.sqrt(pde.BACKTRACK_RATIO)] * len(ratios), rel=0.02)
        assert dists[-1] < 1e-3
        assert all(bp.nodal_count_2d == 1 for bp in back)

    def test_square_root_predictor_counts(self, followed_64):
        # predicting in t (a secant, the first point unchanged as the second guess, the
        # backtrack's sqrt(BACKTRACK_RATIO) shrink) takes 5, 5, 3, 3, 3, 3, 3, 3 and 4, 4, 4, 4, 1
        halves, back, _ = followed_64
        assert [bp.newton_iters for bp in halves.branches["plus"]] == [5, 3, 3, 2, 1, 1, 1, 1]
        assert [bp.newton_iters for bp in back] == [4, 2, 1, 0, 0]

    def test_every_point_meets_the_newton_tol(self, followed_64, branch_ctx, cubic_model, grid64):
        # 0-iteration points are predictions or reflections accepted as they are; each
        # recorded residual is recomputed on the assembled matrix, to rounding (1e-3 tol)
        halves, back, log_lines = followed_64
        points = halves.branches["plus"] + halves.branches["minus"] + back
        assert len(points) == 21 and sum(bp.newton_iters == 0 for bp in points) == 9
        for bp in points:
            lap = assemble_linearized(np.zeros((grid64.ny, grid64.nx)), bp.t, cubic_model, grid64, 1.0)
            v = bp.solution[:-1].ravel()
            residual = float(np.max(np.abs(grid_action(lap.dot, grid64, v) - eval_f(cubic_model, v))))
            assert bp.residual <= branch_ctx.tol
            assert residual == pytest.approx(bp.residual, abs=1e-3 * branch_ctx.tol)
        # each solve's debug line ends with the residual it started from
        solves = [
            re.fullmatch(r"newton t = \S+: (\d+) iterations, \d+ krylov iterations, residual (\S+), started at (\S+)", line)
            for line in log_lines
            if line.startswith("newton t = ")
        ]
        assert len(solves) == 21 and all(solves)
        for found in solves:
            iters, final, start = int(found.group(1)), float(found.group(2)), float(found.group(3))
            assert start == final if iters == 0 else start > branch_ctx.tol >= final

    @pytest.mark.parametrize(
        "distances, kept",
        [([0.03], 0), ([0.01, 0.02], 1), ([0.01, 0.01], 1), ([0.01, 0.005, 1e-7], 2), ([0.01, 0.005, 1e-13], 2)],
    )
    def test_backtrack_keeps_only_branch_points(self, branch_ctx, monkeypatch, caplog, distances, kept):
        # a solve that fell back onto u_ref, or whose distance is not below the previous
        # one (the start's included), ends the backtrack; the points before it are kept
        t_bar = branch_ctx.t_bar_discrete
        start = pde.BranchPoint(1.01 * t_bar, branch_ctx.u_ref + 0.02 * branch_ctx.kernel, 0.1, 1, 3, 0.02, 0.0)
        solved = iter(distances + [1e-4] * pde.BACKTRACK_OFFSETS)

        def solve_at(initial, t, *args, **kwargs):
            return pde.BranchPoint(t, initial, 0.1, 1, 2, next(solved), 0.0)

        monkeypatch.setattr(pde, "newton_solve", solve_at)
        caplog.set_level(logging.INFO, logger="cylbif.pde")
        back = backtrack_branch(branch_ctx, start)
        assert [bp.distance_to_1d for bp in back] == distances[:kept]
        assert f"kept {kept} points" in caplog.text

    def test_kernel_crossing_eigenvalue_vanishes(self, branch_ctx, first_crossing, cubic_model, grid64):
        # at the continuum scaling the smallest-magnitude eigenvalue sits at
        # discretization size; at the discrete scaling it vanishes outright
        vals = smallest_eigenvalues(branch_ctx.u_ref, first_crossing.t_bar, cubic_model, grid64, 1.0, 4)
        assert np.min(np.abs(vals)) <= 10.0 * (grid64.hx**2 + grid64.hy**2) * abs(first_crossing.t_bar) ** -2 * 100
        vals_h = smallest_eigenvalues(branch_ctx.u_ref, branch_ctx.t_bar_discrete, cubic_model, grid64, 1.0, 4)
        assert np.min(np.abs(vals_h)) <= 1e-9

    def test_negative_count_changes_across_crossing(self, branch_ctx, cubic_model, grid64):
        t_bar_h = branch_ctx.t_bar_discrete
        counts = {}
        for t in (0.98 * t_bar_h, 1.02 * t_bar_h):
            vals = smallest_eigenvalues(branch_ctx.u_ref, t, cubic_model, grid64, 1.0, 6)
            counts[t] = int(np.count_nonzero(vals < 0.0))
        low, high = sorted(counts)
        assert counts[high] - counts[low] == 1

    def test_morse_bound_on_branch(self, branch_ctx, first_crossing, cubic_model, grid64):
        bp = continue_branch(branch_ctx, +1, steps=1, t_max=2 * first_crossing.t_bar)[0][0]
        vals = smallest_eigenvalues(bp.solution, bp.t, cubic_model, grid64, 1.0, 6)
        negatives = int(np.count_nonzero(vals < 0.0))
        assert negatives >= bp.nodal_count_2d

    def test_lanczos_shift_lies_below_the_spectrum(self, followed_64, cubic_model, grid64, monkeypatch):
        # the reference owns its shift -max(0, max f'(u)) - 1, below the spectrum since D_t is
        # positive semidefinite; the Lanczos comparisons at 200 x 200 are sensitive to its value
        shifts, factor = [], pde._symmetric_lu

        def spy(matrix, shift):
            shifts.append(shift)
            return factor(matrix, shift)

        monkeypatch.setattr(pde, "_symmetric_lu", spy)
        bp = followed_64[0].branches["plus"][0]
        vals = smallest_eigenvalues(bp.solution, bp.t, cubic_model, grid64, 1.0, 6)
        assert shifts == [-max(0.0, float(np.max(eval_fprime(cubic_model, bp.solution[:-1].ravel())))) - 1.0]
        assert shifts[0] < vals[0]

    def test_branch_energy_differs_from_reference(self, branch_ctx, first_crossing, cubic_model, grid64):
        bp = continue_branch(branch_ctx, +1, steps=1, t_max=2 * first_crossing.t_bar)[0][0]
        e_branch = eval_energy(bp.solution, bp.t, cubic_model, grid64, 1.0)
        e_ref = eval_energy(branch_ctx.u_ref, bp.t, cubic_model, grid64, 1.0)
        assert np.isfinite(e_branch) and np.isfinite(e_ref)
        assert abs(e_branch - e_ref) > 1e-8

    def test_non_simple_point_rejected(self, cubic_model, cubic_solutions, grid64, monkeypatch):
        # the context owns the crossing, so it rejects a point with no single simple pair
        # before it integrates or polishes anything
        calls = []
        for name in ("integrate_ivp", "newton_solve"):
            monkeypatch.setattr(pde, name, lambda *args, _name=name, **kwargs: calls.append(_name))
        for point in (
            BifurcationPoint(t_bar=1.4, pairs=[(1, 1), (1, 2)], kernel_multiplicity=2),
            BifurcationPoint(t_bar=1.4, pairs=[(1, 1)], kernel_multiplicity=2),
            BifurcationPoint(t_bar=1.4, pairs=[(1, 1), (1, 2)], kernel_multiplicity=1),
        ):
            with pytest.raises(ValidationError, match="simple kernel"):
                make_branch_context(cubic_model, grid64, 1.0, cubic_solutions[1].amplitude, point, tol=1e-8)
        assert calls == []

    @pytest.mark.parametrize("sign", [0, 2])
    def test_sign_must_be_a_unit(self, branch_ctx, first_crossing, sign):
        with pytest.raises(ValidationError, match="sign"):
            continue_branch(branch_ctx, +1, steps=1, t_max=3.0, sign=sign)

    def test_half_branches_are_reflections(self, branch_ctx, first_crossing):
        plus = continue_branch(branch_ctx, +1, steps=1, t_max=2 * first_crossing.t_bar, sign=1)[0][0]
        minus = continue_branch(branch_ctx, +1, steps=1, t_max=2 * first_crossing.t_bar, sign=-1)[0][0]
        mirrored = plus.solution[:, ::-1]
        scale = np.max(np.abs(mirrored))
        assert np.max(np.abs(minus.solution - mirrored)) / scale < 1e-8


class TestPredictor:
    """_predict extrapolates in sigma = sqrt|t - t_bar| through the anchor (0, u_ref)."""

    T_BAR = 1.3

    @pytest.fixture
    def quartic(self):
        # u(sigma) = u_ref + sum_k sigma^k a_k, and points at four offsets on one side
        rng = np.random.default_rng(5)
        ctx = SimpleNamespace(u_ref=rng.standard_normal((6, 5)), t_bar_discrete=self.T_BAR)
        coefs = rng.standard_normal((4, 6, 5))

        def state(t):
            sigma = math.sqrt(abs(t - self.T_BAR))
            return ctx.u_ref + sum(sigma ** (k + 1) * coefs[k] for k in range(4))

        points = [pde.BranchPoint(self.T_BAR + d, state(self.T_BAR + d), 0.0, 1, 1, 0.0, 0.0) for d in (0.04, 0.03, 0.02, 0.01)]
        return ctx, state, points

    @pytest.mark.parametrize("t", [T_BAR + 0.05, T_BAR + 0.001, T_BAR + 1e-7])
    def test_reproduces_a_quartic_in_sigma(self, quartic, t):
        ctx, state, points = quartic
        expected = state(t)
        assert np.max(np.abs(pde._predict(ctx, points, t) - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_fewer_points_give_the_lower_degree_interpolant(self, quartic, count):
        # through the anchor and the last `count` points: u_ref + sum_{k <= count} sigma^k b_k
        ctx, _, points = quartic
        used = points[-count:]
        sigmas = np.sqrt([bp.t - self.T_BAR for bp in used])
        vander = sigmas[:, None] ** np.arange(1, count + 1)
        b = np.linalg.solve(vander, np.stack([(bp.solution - ctx.u_ref).ravel() for bp in used]))
        t = self.T_BAR + 0.05
        expected = ctx.u_ref + (math.sqrt(0.05) ** np.arange(1, count + 1) @ b).reshape(ctx.u_ref.shape)
        assert np.max(np.abs(pde._predict(ctx, used, t) - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_only_the_last_points_count(self, quartic):
        ctx, _, points = quartic
        stray = pde.BranchPoint(self.T_BAR + 0.09, np.full_like(ctx.u_ref, 1e6), 0.0, 1, 1, 0.0, 0.0)
        t = self.T_BAR + 0.05
        assert np.array_equal(pde._predict(ctx, [stray] + points, t), pde._predict(ctx, points, t))
        assert pde.PREDICT_POINTS == len(points)

    def test_a_node_with_a_taken_sigma_is_dropped(self, quartic):
        # a point at t_bar shares the anchor's sigma = 0, one mirrored across t_bar and a
        # repeated one share a later point's; each would make the Lagrange weights infinite
        ctx, _, points = quartic
        t = self.T_BAR + 0.05
        on_anchor = pde.BranchPoint(self.T_BAR, np.full_like(ctx.u_ref, 7.0), 0.0, 1, 1, 0.0, 0.0)
        mirrored = pde.BranchPoint(2 * self.T_BAR - points[2].t, points[2].solution, 0.0, 1, 1, 0.0, 0.0)
        reference = pde._predict(ctx, points[1:], t)
        for extra in (on_anchor, mirrored, points[-1]):
            guess = pde._predict(ctx, [points[1], extra, *points[2:]], t)
            assert np.all(np.isfinite(guess))
            assert np.max(np.abs(guess - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestHalfBranches:
    """continue_half_branches takes the minus half-branch of an odd-j crossing from the plus one."""

    def test_minus_points_after_the_first_are_verified_reflections(self, ctx48, first_crossing, caplog):
        caplog.set_level(logging.INFO, logger="cylbif")
        halves = continue_half_branches(ctx48, steps=4, t_max=2 * first_crossing.t_bar)
        plus, minus = halves.branches["plus"], halves.branches["minus"]
        assert halves.reflections is True
        assert len(plus) == len(minus) == 4
        assert halves.outcomes == {"plus": "reached_t_limit", "minus": "reached_t_limit"}
        assert minus[0].newton_iters > 0
        for p, m in zip(plus[1:], minus[1:]):
            assert m.newton_iters == 0
            assert m.residual <= ctx48.tol
            assert m.solution.tobytes() == p.solution[:, ::-1].tobytes()
            assert m.t == p.t
        assert "minus half-branch: 1 Newton-solved, 3 reflected (0 of them polished, largest residual" in caplog.text
        assert "plus half-branch: 4 Newton-solved, 0 reflected (0 of them polished, largest residual nan)" in caplog.text

    def test_reflections_are_polished_and_a_failed_polish_stalls(self, ctx48, first_crossing, monkeypatch):
        t_max = 2 * first_crossing.t_bar
        plus, _ = continue_branch(ctx48, +1, steps=4, t_max=t_max)
        real_solve = pde.newton_solve

        def disturb_reflections(initial, t, *args, **kwargs):
            if np.array_equal(initial, plus[1].solution[:, ::-1]):  # residual far above tol
                initial = initial + 1e-3 * np.max(np.abs(initial)) * ctx48.kernel
            if np.array_equal(initial, plus[2].solution[:, ::-1]):
                raise NonConvergenceError("injected failure")
            return real_solve(initial, t, *args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve", disturb_reflections)
        halves = continue_half_branches(ctx48, steps=4, t_max=t_max)
        minus = halves.branches["minus"]
        assert halves.outcomes == {"plus": "reached_t_limit", "minus": "stalled"}
        assert [bp.t for bp in minus] == [bp.t for bp in plus[:2]]
        assert minus[1].newton_iters > 0 and minus[1].residual <= ctx48.tol
        mirrored = plus[1].solution[:, ::-1]
        assert np.max(np.abs(minus[1].solution - mirrored)) / np.max(np.abs(mirrored)) < 1e-6

    def test_even_j_continues_both_halves(self, cubic_model, cubic_solutions, first_crossing):
        # cos(2 pi x') is even under x' -> 1 - x', so the minus half-branch is no mirror of the plus one
        point = simple_point(1, 2, 2 * first_crossing.t_bar)
        ctx = make_branch_context(cubic_model, Grid2D(48, 48), 1.0, cubic_solutions[1].amplitude, point, tol=1e-8)
        halves = continue_half_branches(ctx, steps=3, t_max=2 * point.t_bar)
        assert halves.reflections is False
        assert halves.outcomes == {"plus": "reached_t_limit", "minus": "reached_t_limit"}
        assert len(halves.branches["minus"]) == 3
        assert all(bp.newton_iters > 0 for bp in halves.branches["minus"])

    def test_a_first_minus_point_that_is_no_mirror_is_continued_by_newton(self, ctx48, first_crossing, monkeypatch):
        t_max = 2 * first_crossing.t_bar
        monkeypatch.setattr(pde, "REFLECTION_TOL_REL", 0.0)  # no first minus point passes as a mirror
        halves = continue_half_branches(ctx48, steps=3, t_max=t_max)
        expected, outcome = continue_branch(ctx48, +1, steps=3, t_max=t_max, sign=-1)
        assert halves.reflections is False
        assert halves.outcomes["minus"] == outcome
        minus = halves.branches["minus"]
        assert all(bp.newton_iters > 0 for bp in minus)
        assert [bp.solution.tobytes() for bp in minus] == [bp.solution.tobytes() for bp in expected]

    def test_no_first_point_reads_branch_not_found(self, ctx48, first_crossing):
        halves = continue_half_branches(ctx48, steps=3, t_max=1.005 * first_crossing.t_bar)
        assert halves.branches == {"plus": [], "minus": []}
        assert halves.outcomes == {"plus": "branch_not_found", "minus": "branch_not_found"}
        assert halves.reflections is None


GRID16 = Grid2D(16, 16)
CUBIC = CubicFamily(1.0, 1.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: assemble_linearized(np.zeros((16, 16)), 1.0, CUBIC, GRID16, 0.0), "base length must be positive, got 0.0"),
        (lambda: smallest_eigenvalues(np.zeros((16, 16)), 1.0, CUBIC, GRID16, 1.0, 0), "k must be >= 1"),
        (lambda: certified_spectrum(np.zeros(16), 1.0, CUBIC, GRID16, 1.0, 0), "k must be >= 1"),
        (
            lambda: certified_spectrum(np.zeros(16), 1.0, CUBIC, GRID16, 1.0, 14),
            "a 16 x 16 grid has too few height modes for k = 14",
        ),
        (lambda: embed_one_dim(np.zeros(15), GRID16), r"expected 16 height samples, got shape \(15,\)"),
        (lambda: continue_branch(SimpleNamespace(), +1, steps=0, t_max=2.0), "steps must be >= 1"),
        (
            lambda: backtrack_branch(SimpleNamespace(t_bar_discrete=1.25), SimpleNamespace(t=1.25)),
            "start point must sit away from the bifurcation scaling",
        ),
    ],
    ids=["l-base", "lanczos-k", "certificate-k", "certificate-grid", "embed-shape", "steps", "backtrack-start"],
)
def test_unreached_raises_name_the_rule(call, match):
    with pytest.raises(ValidationError, match=match):
        call()

"""Transported two-dimensional problem on the fixed unit square.

For an interval base of length L dilated by t, the problem on the scaled
cylinder pulls back to the unit square (x', y) in [0,1]^2 with operator

    D_t u = -(1 / (t L)^2) d^2u/dx'^2 - d^2u/dy^2,

Dirichlet on the top edge y = 1 and homogeneous Neumann on the other
three sides.  The discretization is the five-point stencil with mirror
ghost nodes on the Neumann sides; half-weight similarity scaling restores
symmetry exactly as in the one-dimensional eigenproblem.  Because the
x'-independent functions are preserved by the stencil, the solution of
the height-only problem is a fixed point of D_t u = f(u) at every t, and
branch detection can compare against that stored fixed point.  D_t is held
as its two 1D factors, D_t = I (x) S_x(t) + S_y (x) I.  Newton applies them for
its residuals and solves with flexible GMRES, right-preconditioned by the separable
solve P of the tensor sum D_t - diag qbar, qbar the x'-average of q = f'(u), in the
closed-form x'-modes; the operator v -> v - (q - qbar) * P v is the identity at
height-only states.  Flexible GMRES keeps each P v_j of its basis, so P is applied
once per Krylov iteration.  Only ``assemble_linearized`` builds the 2D matrix, for the
direct checks: ``certified_spectrum`` certifies the sum set on it at a height-only state
by tensor-product residuals and one Sylvester count, and ``smallest_eigenvalues`` solves
for its smallest eigenvalues at any state.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse import linalg as spla

from .errors import (
    BranchNotFoundError,
    DegenerateInputError,
    NonConvergenceError,
    ValidationError,
)
from .nonlinearity import NonlinearityModel, eval_F, eval_f, eval_fprime
from .ode_shooting import integrate_ivp
from .sturm_liouville import assemble_sl_operator, sl_eigenpairs
from .morse_bifurcation import BifurcationPoint, SumSet

__all__ = [
    "Grid2D",
    "CertifiedSpectrum",
    "BranchPoint",
    "BranchContext",
    "HalfBranches",
    "assemble_linearized",
    "smallest_eigenvalues",
    "certified_spectrum",
    "newton_solve",
    "embed_one_dim",
    "make_branch_context",
    "continue_branch",
    "continue_half_branches",
    "backtrack_branch",
    "one_dimensionality_deviation",
    "count_nodal_domains_2d",
    "eval_energy",
]

log = logging.getLogger("cylbif.pde")

#: count_nodal_domains_2d ignores samples up to this multiple of max|u|
NODAL_REL_TOL_2D = 1e-6
#: Newton iteration budget of every solve
BRANCH_MAX_ITERS = 25
#: first continuation step, relative to the degeneracy scaling
FIRST_STEP_REL = 1e-2
#: size of the first branch-switch perturbation, relative to |u_ref|
SWITCH_EPS_REL = 1e-1
#: a solve within this multiple of the Newton tol of u_ref is on the height-only solution
FALLBACK_TOL_REL = 10.0
#: a solve whose residual stopped, or flattened, within this multiple of the rounding floor stalled on it
FLOOR_STALL_REL = 10.0
#: the first minus point mirrors the first plus point when they differ by less than this share of max|u|
REFLECTION_TOL_REL = 1e-6
#: backtracking solves at offsets dt * BACKTRACK_RATIO**k, k = 1..BACKTRACK_OFFSETS
BACKTRACK_OFFSETS = 5
BACKTRACK_RATIO = 0.12
#: branch points, besides the anchor u_ref, through which a continuation guess is extrapolated
PREDICT_POINTS = 4
#: Eisenstat-Walker forcing (choice 2) of the Newton steps; eta_0 is the cap
FORCING_GAMMA = 0.9
FORCING_ETA_MAX = 0.1
#: absolute GMRES floor on the symmetrized residual, relative to the Newton tol
KRYLOV_FLOOR_REL = 0.05
#: Krylov iteration cap of one linear solve, a single Arnoldi pass
KRYLOV_MAX_ITERS = 100
#: a certified_spectrum candidate's residual |A v - theta v| may be at most this multiple of eps * |A|_inf
CERTIFICATE_RESIDUAL_REL = 100.0


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on the unit square; ny includes the Dirichlet row."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValidationError(f"grid must be at least 16 x 16 nodes, got {self.nx} x {self.ny}")

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def ndof(self) -> int:
        return self.nx * (self.ny - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    def y_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)


def _as_full(u, grid: Grid2D) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.shape != (grid.ny, grid.nx):
        raise ValidationError(f"expected array of shape {(grid.ny, grid.nx)}, got {arr.shape}")
    return arr


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _x_average(a: np.ndarray) -> np.ndarray:
    """The trapezoid average of each row of ``a`` over x'."""
    wx = _trapezoid_weights(a.shape[1])
    return (a @ wx) / wx.sum()


def _rounding_floor(u: np.ndarray, grid: Grid2D, t: float, l_base: float) -> float:
    """The inf-norm residual of D_t u - f(u) cannot be rounded below about
    max|u| * (2/(t l h_x)^2 + 2/h_y^2) * eps, the stencil's largest row sum times eps."""
    stencil = 2.0 / (t * l_base * grid.hx) ** 2 + 2.0 / grid.hy**2
    return float(np.max(np.abs(u))) * stencil * np.finfo(float).eps


@functools.cache
def _grid_parts(grid: Grid2D):
    """Every part of D_t that depends on ``grid`` alone, built once per grid: the height
    stencil S_y at zero potential; the height half weights dy and dvec = dy (x) dx, the
    weights of the symmetrization; the half-weighted, unit-normalized cosines cos(k pi x'),
    k = 0..nx-1, in the columns of ``modes``; the off-diagonal of the block-tridiagonal
    height systems of ``_TensorSum.separable``; and the x'-block S_x at c = 1, with its
    -sqrt(2) Neumann couplings, and its closed-form eigenvalues xi_k = 2(1 - cos(k pi h_x)),
    which ``_TensorSum`` scales.  Read-only, since every _TensorSum on the grid shares them."""
    height = assemble_sl_operator(np.zeros(grid.ny))
    sy = sparse.diags([height.off, height.diag, height.off], [-1, 0, 1], format="csr")
    n, k = grid.nx, np.arange(grid.nx)
    dx = np.ones(n)
    dx[0] = dx[-1] = 1.0 / math.sqrt(2.0)
    dy = np.ones(grid.ny - 1)
    dy[0] = 1.0 / math.sqrt(2.0)
    dvec = np.kron(dy, dx)
    # cos(k pi x_i) = cos(pi (i k mod 2(n-1)) h_x): the reduced argument stays below 2 pi
    modes = dx[:, None] * np.cos((np.outer(k, k) % (2 * (n - 1))) * (math.pi * grid.hx))
    modes /= np.linalg.norm(modes, axis=0)
    blocks_off = np.tile(np.append(height.off, 0.0), n)[:-1]
    off = np.full(n - 1, -1.0)
    off[0] = off[-1] = -math.sqrt(2.0)
    sx = sparse.diags([off, np.full(n, 2.0), off], [-1, 0, 1], format="csr")
    xi = 2.0 * (1.0 - np.cos(k * math.pi * grid.hx))
    for part in (sy.data, sy.indices, sy.indptr, dy, dvec, modes, blocks_off, sx.data, sx.indices, sx.indptr, xi):
        part.flags.writeable = False
    return sy, dy, dvec, modes, blocks_off, sx, xi


def _weighted_norm(u: np.ndarray, grid: Grid2D) -> float:
    wx = _trapezoid_weights(grid.nx)
    wy = _trapezoid_weights(grid.ny)
    return math.sqrt(grid.hx * grid.hy * float(np.einsum("i,j,ij->", wy, wx, u * u)))


class _TensorSum:
    """D_t = I (x) S_x(t) + S_y (x) I on one (grid, t, l_base), the linearization at zero
    potential, kept as its symmetrized 1D factors.  The grid's parts are shared from
    ``_grid_parts``; the only part that depends on t is the scale c = 1/(t L h_x)^2 of the
    Neumann x'-block, S_x(t) = c S_x(1), so its closed-form eigenvalues are
    xi_k = c xi_k(1) = 2c(1 - cos(k pi h_x)), k = 0..nx-1, on the cosine ``modes``."""

    def __init__(self, grid: Grid2D, t: float, l_base: float):
        if not (np.isfinite(t) and t > 0.0):
            raise ValidationError(f"dilation factor must be positive, got {t}")
        if not (np.isfinite(l_base) and l_base > 0.0):
            raise ValidationError(f"base length must be positive, got {l_base}")
        self.grid = grid
        c = 1.0 / ((t * l_base) ** 2 * grid.hx**2)
        self.sy, self.dy, self.dvec, self.modes, self.blocks_off, sx, xi = _grid_parts(grid)
        self.sx, self.xi = c * sx, c * xi

    def apply(self, dof: np.ndarray) -> np.ndarray:
        """D_t on true grid values U: S_y W + W S_x^T, W = diag(dy) U diag(dx), unweighted."""
        w = (self.dvec * dof).reshape(self.grid.ny - 1, self.grid.nx)
        return (self.sy @ w + w @ self.sx.T).ravel() / self.dvec

    def separable(self, q: np.ndarray):
        """The solve P of D_t - diag qbar, qbar the x'-average of the potential q, and
        the remainder q - qbar, so that D_t - diag q = (D_t - diag qbar) - diag(q - qbar).
        In the x'-modes P is one tridiagonal height system per mode (fast
        diagonalization), factored together as one block-diagonal matrix."""
        q2 = q.reshape(self.grid.ny - 1, self.grid.nx)
        qbar = _x_average(q2)
        diag = (self.xi[:, None] + (self.sy.diagonal() - qbar)).ravel()
        *factor, info = lapack.dgttrf(self.blocks_off, diag, self.blocks_off)
        if info != 0:
            raise NonConvergenceError("separable preconditioner is singular")

        modes = self.modes

        def solve(b):
            z = lapack.dgttrs(*factor, (b.reshape(q2.shape) @ modes).T.ravel())[0]
            return (modes @ z.reshape(q2.shape[::-1])).T.ravel()

        return solve, (q2 - qbar[:, None]).ravel()


def assemble_linearized(u, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float) -> sparse.csr_matrix:
    """Five-point D_t - f'(u) on the unit square: the only 2D matrix of the tensor sum.

    The matrix A is the symmetrized one, in the weights dvec = dy (x) dx of ``_grid_parts``:
    on true grid values v of the unknowns (every row but the Dirichlet one) the operator
    acts as (A @ (dvec * v)) / dvec.
    """
    full = _as_full(u, grid)
    op = _TensorSum(grid, t, l_base)
    q = eval_fprime(model, full[:-1].ravel())
    return (sparse.kronsum(op.sx, op.sy, format="csr") - sparse.diags(q)).tocsr()


def _symmetric_lu(matrix: sparse.csr_matrix, shift: float):
    """splu of ``matrix - shift I`` in the minimum-degree ordering of A + A^T, taking the
    diagonal pivot wherever it is nonzero: about half the fill of splu's default column
    ordering.  While the pivots stay on the diagonal (perm_r = perm_c = p), the factors of
    the symmetric A - shift I are P (A - shift I) P^T = L U with U = D L^T, so by Sylvester's
    law the negative entries of diag(U) count the eigenvalues of A below the shift."""
    try:
        return spla.splu(
            (matrix - shift * sparse.eye(matrix.shape[0])).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU found no nonzero pivot in a column
        raise NonConvergenceError(f"the LU of A - {shift:.6g} I has a zero pivot ({exc})") from exc


def smallest_eigenvalues(
    u, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float, k: int, maxiter: int | None = None
) -> np.ndarray:
    """k smallest eigenvalues of ``assemble_linearized`` at the state ``u`` via shift-invert
    Lanczos below the spectrum, started from a fixed-seed random vector so that repeated
    calls agree; unlike ``certified_spectrum`` it needs no height-only state.  D_t is
    positive semidefinite, so D_t - diag q, q = f'(u), has no eigenvalue below -max q, and
    the shift -max(0, max q) - 1 lies below the spectrum: A - shift I is SPD and
    ``_symmetric_lu`` factors it once.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    matrix = assemble_linearized(u, t, model, grid, l_base)
    shift = -max(0.0, float(np.max(eval_fprime(model, _as_full(u, grid)[:-1].ravel())))) - 1.0
    n = matrix.shape[0]
    lu = _symmetric_lu(matrix, shift)
    try:
        vals = spla.eigsh(
            matrix,
            k=k,
            sigma=shift,
            which="LM",
            v0=np.random.default_rng(0).standard_normal(n),
            maxiter=maxiter,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
            return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"eigenvalue iteration converged only {len(exc.eigenvalues)}/{k} pairs"
        ) from exc
    return np.sort(vals)


@dataclass(frozen=True)
class CertifiedSpectrum:
    """The k smallest eigenvalues of the assembled D_t - f'(u) at a height-only u, and the
    certificate behind them: ``negative_pivots`` eigenvalues lie below ``shift``, as many as
    candidates do, and no candidate's residual exceeds ``max_residual``."""

    values: np.ndarray
    shift: float
    negative_pivots: int
    max_residual: float


def certified_spectrum(
    u1d, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float, k: int
) -> CertifiedSpectrum:
    """The k smallest eigenvalues of ``assemble_linearized`` at the height-only state with
    profile ``u1d`` (ny samples), certified instead of iterated for.

    At such a state the matrix is the tensor sum of the height block S_y - diag f'(u1d),
    whose eigenpairs (mu_a, z_a) come from one tridiagonal eigensolve, and the x'-block,
    whose eigenpairs (xi_b, c_b) are ``_TensorSum``'s closed-form modes.  The candidates
    z_a (x) c_b, in the matrix's symmetrized coordinates, are taken in the order of their sums
    mu_a + xi_b, ``SumSet(mu, xi).ordered(1, inf)`` with xi the x'-block's eigenvalues at this t,
    over the first `pool` of each.  Each one's Rayleigh quotient theta and residual
    |A v - theta v| are computed on the assembled A; a residual above
    CERTIFICATE_RESIDUAL_REL * eps * |A|_inf raises NonConvergenceError.  The candidates are
    orthonormal, so by Kahan's theorem (Parlett, The Symmetric Eigenvalue Problem, ch. 11)
    distinct eigenvalues of A lie within R = |residuals|_2 of them.  The shift sigma is the
    midpoint of the first gap at or after index k wider than 2R, and ``_symmetric_lu``
    factors A - sigma I once: its negative pivots must equal the number of candidates below
    sigma, which certifies that no eigenvalue below sigma was missed.  A pivot that left
    the diagonal, a zero pivot or another count raises NonConvergenceError.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    # the smallest `pool` sums of a pool x pool table are the smallest of all sums
    pool = min(2 * (k + 1), grid.ny - 2, grid.nx)
    if pool < k + 1:
        raise ValidationError(f"a {grid.nx} x {grid.ny} grid has too few height modes for k = {k}")
    u1d = np.asarray(u1d, dtype=float)
    matrix = assemble_linearized(embed_one_dim(u1d, grid), t, model, grid, l_base)
    bound = CERTIFICATE_RESIDUAL_REL * np.finfo(float).eps * float(abs(matrix).sum(axis=1).max())
    height = sl_eigenpairs(assemble_sl_operator(eval_fprime(model, u1d)), k=pool)
    op = _TensorSum(grid, t, l_base)
    zs = height.eigenfunctions[:, :-1] * op.dy  # symmetrized; only the norm is off
    _, rows, cols = SumSet(height.alphas, op.xi[:pool]).ordered(1.0, math.inf)
    thetas, residuals = [], []
    # sums and residuals by numpy's pairwise add.reduce, not BLAS, so the bytes do not depend on its threads
    for i, j in zip(rows[:pool].tolist(), cols[:pool].tolist()):
        v = np.kron(zs[i - 1], op.modes[:, j])
        v /= math.sqrt(np.add.reduce(v * v))
        av = matrix @ v
        theta = float(np.add.reduce(v * av))
        residual = math.sqrt(np.add.reduce((av - theta * v) ** 2))
        if not residual <= bound:
            raise NonConvergenceError(
                f"certificate: candidate (height mode {i}, x' mode {j}) has residual {residual:.3g} "
                f"above the bound {bound:.3g}; the operator is not the tensor sum at this state"
            )
        thetas.append(theta)
        residuals.append(residual)
        ordered, gap = np.sort(thetas), 2.0 * math.sqrt(math.fsum(r * r for r in residuals))
        below = next((m for m in range(k, len(ordered)) if ordered[m] - ordered[m - 1] > gap), None)
        if below is not None:
            break
    else:
        raise NonConvergenceError(
            f"certificate: no gap wider than {gap:.3g} at or after index {k} among the {pool} smallest candidates"
        )
    shift = 0.5 * float(ordered[below - 1] + ordered[below])
    lu = _symmetric_lu(matrix, shift)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NonConvergenceError(f"certificate: a pivot of the LU at shift {shift:.6g} left the diagonal")
    pivots = lu.U.diagonal()
    if not np.all(pivots):
        raise NonConvergenceError(f"certificate: the LU at shift {shift:.6g} has a zero pivot")
    negative = int(np.count_nonzero(pivots < 0.0))
    if negative != below:
        raise NonConvergenceError(
            f"certificate: {negative} eigenvalues lie below the shift {shift:.6g} but {below} candidates do"
        )
    return CertifiedSpectrum(
        values=ordered[:k], shift=shift, negative_pivots=negative, max_residual=max(residuals)
    )


@dataclass
class BranchPoint:
    """A Newton-converged solution of D_t u = f(u) at one dilation factor."""

    t: float
    solution: np.ndarray  # full (ny, nx) array, Dirichlet row included
    deviation: float
    nodal_count_2d: int
    newton_iters: int
    distance_to_1d: float
    residual: float


def _fgmres(precond, rest, b, atol, vs, zs):
    """Flexible GMRES (Saad 1993) for J s = b, where J z = v - rest * z at z = P v, P the
    separable solve ``precond``: each iteration applies P once and keeps z_j = P v_j in
    ``zs``, so the step s = sum_j y_j z_j and its residual b - sum_j y_j (v_j - rest * z_j)
    cost no further apply.  The rows of ``vs`` hold the orthonormal basis, built by
    classical Gram-Schmidt with one reorthogonalization; one Arnoldi pass runs, at most
    as many iterations as ``zs`` has rows.  Returns the step, the Krylov iterations and
    whether that residual, recomputed from the stored vectors, reached ``atol``."""
    beta = float(np.linalg.norm(b))
    if beta <= atol:
        return np.zeros_like(b), 0, True
    m = zs.shape[0]
    vs[0] = b / beta
    hess, rot = np.zeros((m, m + 1)), np.zeros((m, 2))  # row k: column k of the Hessenberg matrix
    g = np.zeros(m + 1)  # the rotated right-hand side beta e_1
    g[0] = beta
    for k in range(m):
        zs[k] = precond(vs[k])
        w = vs[k] - rest * zs[k]
        w_norm, basis, h = float(np.linalg.norm(w)), vs[: k + 1], hess[k]
        for _ in range(2):  # the second pass removes what rounding left of the first
            coef = basis @ w
            w -= coef @ basis
            h[: k + 1] += coef
        h[k + 1] = np.linalg.norm(w)
        breakdown = h[k + 1] <= np.finfo(float).eps * w_norm
        if not breakdown:
            vs[k + 1] = w / h[k + 1]
        for i, (c, s) in enumerate(rot[:k]):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        c, s, h[k] = lapack.dlartg(h[k], h[k + 1])
        rot[k], h[k + 1] = (c, s), 0.0
        g[k], g[k + 1] = c * g[k], -s * g[k]
        if abs(g[k + 1]) <= atol or breakdown:
            break
    y = lapack.dtrtrs(hess[: k + 1, : k + 1], g[: k + 1], lower=1, trans=1)[0]
    step = y @ zs[: k + 1]
    return step, k + 1, float(np.linalg.norm(b - y @ vs[: k + 1] + rest * step)) <= atol


def newton_solve(
    initial,
    t: float,
    model: NonlinearityModel,
    grid: Grid2D,
    tol: float,
    l_base: float,
    reference_1d: np.ndarray | None = None,
) -> BranchPoint:
    """Inexact Newton iteration on R(u) = D_t u - f(u), D_t applied as its 1D factors;
    each step is a flexible GMRES solve (``_fgmres``) of the Jacobian, right-preconditioned
    by P, the separable solve at the x'-average qbar of q = f'(u): its Krylov operator is
    v -> v - (q - qbar) * P v, and the step is assembled from the stored P v_j, so a solve
    applies P once per Krylov iteration and at no other time.  Each solve is one Arnoldi
    pass of at most KRYLOV_MAX_ITERS iterations, into two bases allocated once per call.
    A linear solve that ends short of its tolerance raises NonConvergenceError, and so do
    an iteration past BRANCH_MAX_ITERS and one that has flattened on the rounding floor:
    its residual lies within FLOOR_STALL_REL of ``_rounding_floor`` and above half the
    residual two iterations earlier, so ``tol`` is out of reach.

    ``reference_1d`` (full-grid array) fixes the yardstick for
    ``distance_to_1d``; without it the distance is reported as NaN.
    """
    if not tol > 0.0:
        raise ValidationError("newton tolerance must be positive")
    full = _as_full(initial, grid)
    op = _TensorSum(grid, t, l_base)
    u = full[:-1].flatten()  # the unknowns, a copy: every row but the Dirichlet one
    r = op.apply(u) - eval_f(model, u)
    rnorm = float(np.max(np.abs(r)))
    r0 = max(rnorm, 1.0)
    history = [rnorm]  # the residual before each iteration and after the last
    iters = krylov_iters = 0
    vs, zs = np.empty((KRYLOV_MAX_ITERS + 1, u.size)), np.empty((KRYLOV_MAX_ITERS, u.size))  # the Krylov bases
    try:
        while rnorm > tol:
            floor = _rounding_floor(u, grid, t, l_base)
            if iters >= 2 and rnorm <= FLOOR_STALL_REL * floor and rnorm >= 0.5 * history[-3]:
                raise NonConvergenceError(
                    f"newton flattened at residual {rnorm:.3g} after {iters} iterations, within "
                    f"{FLOOR_STALL_REL:g} times its rounding floor {floor:.3g}",
                    residual=rnorm,
                )
            if iters >= BRANCH_MAX_ITERS:
                raise NonConvergenceError(
                    f"newton did not reach tol {tol} in {BRANCH_MAX_ITERS} iterations", residual=rnorm
                )
            b = op.dvec * r
            bnorm = float(np.linalg.norm(b))
            # the usual safeguard max(eta, gamma * eta_prev**2) only acts above 0.1, which
            # the cap rules out; eta <= |b| keeps the last steps quadratic, since near the
            # pitchfork a loose solve leaves an error along the near-kernel that |R| hides
            ratio = bnorm / bnorm_prev if iters else 1.0
            eta, bnorm_prev = min(FORCING_ETA_MAX, FORCING_GAMMA * ratio**2, bnorm), bnorm
            precond, rest = op.separable(eval_fprime(model, u))
            atol = max(eta * bnorm, KRYLOV_FLOOR_REL * tol)
            step, krylov, converged = _fgmres(precond, rest, -b, atol, vs, zs)
            krylov_iters += krylov
            if not converged:
                log.debug("gmres stalled at t = %.8g after %d iterations", t, krylov)
                raise NonConvergenceError(f"gmres stalled after {krylov} iterations", residual=rnorm)
            u += step / op.dvec
            r = op.apply(u) - eval_f(model, u)
            rnorm = float(np.max(np.abs(r)))
            history.append(rnorm)
            iters += 1
            if not np.isfinite(rnorm) or rnorm > 1e8 * r0:
                raise NonConvergenceError(f"newton diverged (residual {rnorm})", residual=rnorm)
    finally:
        log.debug(
            "newton t = %.8g: %d iterations, %d krylov iterations, residual %.3g, started at %.3g",
            t, iters, krylov_iters, rnorm, history[0],
        )

    solution = np.zeros((grid.ny, grid.nx))
    solution[:-1] = u.reshape(grid.ny - 1, grid.nx)
    if np.any(solution):
        deviation = one_dimensionality_deviation(solution, grid)
        nodal = count_nodal_domains_2d(solution, grid)
    else:
        deviation = 0.0
        nodal = 0
    if reference_1d is not None:
        ref = _as_full(reference_1d, grid)
        distance = _weighted_norm(solution - ref, grid) / _weighted_norm(ref, grid)
    else:
        distance = math.nan
    return BranchPoint(
        t=float(t),
        solution=solution,
        deviation=deviation,
        nodal_count_2d=nodal,
        newton_iters=iters,
        distance_to_1d=distance,
        residual=rnorm,
    )


def embed_one_dim(values_1d, grid: Grid2D) -> np.ndarray:
    """Extend height-only samples (ny values, top = 0) constantly in x'."""
    v = np.asarray(values_1d, dtype=float)
    if v.shape != (grid.ny,):
        raise ValidationError(f"expected {grid.ny} height samples, got shape {v.shape}")
    return np.tile(v[:, None], (1, grid.nx))


def one_dimensionality_deviation(u, grid: Grid2D) -> float:
    """Relative distance of u from its own x'-average, in [0, 1]."""
    full = _as_full(u, grid)
    norm = _weighted_norm(full, grid)
    if norm == 0.0:
        raise DegenerateInputError("cannot measure deviation of the zero function")
    return _weighted_norm(full - _x_average(full)[:, None], grid) / norm


def count_nodal_domains_2d(u, grid: Grid2D) -> int:
    """4-connected constant-sign components of {|u| > NODAL_REL_TOL_2D * max|u|}: the connected
    components of the graph whose nodes are the horizontal runs of one sign and whose edges join
    two runs wherever cells of that sign sit one above the other."""
    from scipy.sparse.csgraph import connected_components  # on first call: only runs that count pay its import

    full = _as_full(u, grid)
    tol = NODAL_REL_TOL_2D * float(np.max(np.abs(full)))
    sign = (full > tol).astype(np.int8) - (full < -tol)
    if not sign.any():
        raise DegenerateInputError("all samples are zero; no nodal information")
    start = sign != 0  # a run starts at each signed cell whose left neighbour has another sign
    start[:, 1:] &= sign[:, 1:] != sign[:, :-1]
    run = np.cumsum(start).reshape(sign.shape) - 1  # the run of each signed cell, numbered row-major
    joined = (sign[:-1] != 0) & (sign[:-1] == sign[1:])
    runs = int(run[-1, -1]) + 1
    graph = sparse.coo_matrix(
        (np.ones(int(joined.sum())), (run[:-1][joined], run[1:][joined])), shape=(runs, runs)
    )
    return int(connected_components(graph, directed=False)[0])


def eval_energy(u, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float) -> float:
    """Transported energy: trapezoid quadrature of |grad u|^2_t / 2 - F(u).

    The x'-derivative carries the 1/(t L) metric factor; the height-only
    solutions therefore have t-independent energy.
    """
    full = _as_full(u, grid)
    ux = np.gradient(full, grid.hx, axis=1) / (t * l_base)
    uy = np.gradient(full, grid.hy, axis=0)
    integrand = 0.5 * (ux**2 + uy**2) - eval_F(model, full)
    return float(np.trapezoid(np.trapezoid(integrand, dx=grid.hx, axis=1), dx=grid.hy))


@dataclass
class BranchContext:
    """Everything a branch continuation needs at one simple crossing: the reference
    fixed point, the kernel mode, and the continuum and discrete dilations of the crossing."""

    model: NonlinearityModel
    grid: Grid2D
    l_base: float
    u_ref: np.ndarray  # discrete height-only fixed point on the 2D grid
    kernel: np.ndarray  # unit-norm (ny, nx) mode z_i(y) cos(j pi x'), Dirichlet row included
    j: int  # the kernel's x'-mode
    t_bar: float  # the continuum crossing: where the first point and the step are placed
    t_bar_discrete: float  # the linearization at u_ref is singular here
    tol: float

    @property
    def ref_norm(self) -> float:
        return _weighted_norm(self.u_ref, self.grid)

    def solve(self, initial, t: float) -> BranchPoint:
        return newton_solve(
            initial,
            t,
            self.model,
            self.grid,
            tol=self.tol,
            l_base=self.l_base,
            reference_1d=self.u_ref,
        )


def make_branch_context(
    model: NonlinearityModel,
    grid: Grid2D,
    l_base: float,
    amplitude: float,
    point: BifurcationPoint,
    tol: float,
) -> BranchContext:
    """Prepare the reference fixed point, kernel mode and discrete crossing of ``point``.

    ``point`` must be simple, with one pair (i, j): the height-block eigenvalue and
    the x'-mode of the kernel.  Anything else raises ValidationError before anything
    is integrated.  Its ``t_bar``, the continuum crossing, is stored next to the
    discrete one.  The height-only initial guess is re-integrated at the grid's own
    y-resolution and polished by one Newton solve, so the stored reference
    is the exact discrete fixed point (the same object at every t).

    The linearization at u_ref is the tensor sum of the x'-block and the
    height block with u_ref's own potential, so one eigensolve of the
    height block gives both the kernel and where it occurs.  The closed-form
    x'-block eigenvalue xi_j of cos(j pi X) scales as 1/t^2 with no discretization
    error in t, so the crossing sits exactly at t^2 = xi_j(1) / (-mu_i), the pair's
    ``SumSet(mu, xi(1)).crossing(i, j)``, with kernel z_i(y) cos(j pi X), i.e.
    cos(j pi x'/L) on the unit square.
    Backtracking toward this value (rather than the continuum scaling, which
    differs by O(h^2)) lets the branch be followed arbitrarily close to the
    pitchfork.  A reference polish that fails raises NonConvergenceError naming
    the inf-norm residual floor max|u| * (2/(t l h_x)^2 + 2/h_y^2) * eps next to ``tol``.
    """
    if not point.simple or len(point.pairs) != 1:
        raise ValidationError(
            f"branch switching requires a simple kernel, got multiplicity {point.kernel_multiplicity} "
            f"and pairs {point.pairs}"
        )
    ((i, j),) = point.pairs
    if not 1 <= j < grid.nx:
        raise ValidationError(f"x' mode index must lie in [1, {grid.nx - 1}] for a dilation-driven crossing, got {j}")
    u1d, _ = integrate_ivp(model, amplitude, grid.ny - 1)
    embedded = embed_one_dim(u1d, grid)
    try:
        seed = newton_solve(embedded, 1.0, model, grid, tol=tol, l_base=l_base)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"reference solve: {exc}; the residual's rounding floor max|u|*(2/(t*l*h_x)^2 + 2/h_y^2)*eps "
            f"is {_rounding_floor(embedded, grid, 1.0, l_base):.3g} against tol {tol:.3g}",
            residual=exc.residual,
        ) from exc
    if seed.deviation > 1e-8:
        raise NonConvergenceError(
            f"reference solve left the height-only subspace (deviation {seed.deviation:.3g})"
        )
    q = eval_fprime(model, seed.solution[:, 0])
    spec = sl_eigenpairs(assemble_sl_operator(q), k=i)
    mu_i = float(spec.alphas[i - 1])
    if mu_i >= 0.0:
        raise ValidationError(f"height-block eigenvalue {i} is nonnegative ({mu_i:.6g}); no crossing")
    kernel = np.outer(spec.eigenfunctions[i - 1], np.cos(j * math.pi * grid.x_nodes()))
    kernel /= _weighted_norm(kernel, grid)
    return BranchContext(
        model=model,
        grid=grid,
        l_base=l_base,
        u_ref=seed.solution,
        kernel=kernel,
        j=j,
        t_bar=point.t_bar,
        t_bar_discrete=float(SumSet(spec.alphas, _TensorSum(grid, 1.0, l_base).xi).crossing(i, j)),
        tol=tol,
    )


def continue_branch(
    ctx: BranchContext,
    direction: int,
    steps: int,
    t_max: float,
    sign: int = 1,
) -> tuple[list[BranchPoint], str]:
    """Switch onto the bifurcating branch at ``ctx``'s crossing and follow it by Newton.

    The first solve starts from u_ref + eps * w at t = t_bar + direction *
    dt0, with t_bar = ctx.t_bar, dt0 = FIRST_STEP_REL * t_bar and eps = sign *
    SWITCH_EPS_REL * |u_ref| escalated over {1x, 2x, 4x} if Newton falls back onto the
    height-only solution; ``sign`` picks the half-branch.  Near the
    pitchfork the new solution sits at amplitude ~sqrt(dt) and a guess
    below roughly 0.6 of that amplitude contracts back to the trivial
    branch, so the perturbation has to be commensurate with the branch,
    not merely nonzero.  Subsequent points use natural-parameter
    continuation (``_follow``) by steps of dt0, halved at most 6 times per step, each solve
    started from ``_predict``: the branch is smooth in sigma = sqrt|t - t_bar|,
    so the guess is extrapolated in sigma through u_ref at sigma = 0 and the
    last PREDICT_POINTS points.  No point is solved past ``t_max``: a step that
    would cross it is cut to end there, and the branch ends at it.

    Returns the ordered branch and why it ended: ``reached_t_limit`` after
    ``steps`` points or at ``t_max``, ``stalled`` when continuation gave up
    short of both, and ``returned_to_one_dimensional`` when the last point
    lies on the height-only solution.  Raises BranchNotFoundError when no
    first point is found, but NonConvergenceError naming the rounding floor at
    the first t when no attempt fell back and every one stalled within
    FLOOR_STALL_REL of that floor, where ``tol`` cannot be met.
    ``continue_half_branches`` follows both signs and, for odd j, takes the
    minus half-branch after its first point from the plus one.
    """
    if direction not in (-1, 1) or sign not in (-1, 1):
        raise ValidationError("direction and sign must be +1 or -1")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    eps0 = sign * (SWITCH_EPS_REL * ctx.ref_norm)

    branch: list[BranchPoint] = []
    t1 = ctx.t_bar + direction * FIRST_STEP_REL * ctx.t_bar
    if t1 > t_max:
        raise BranchNotFoundError(f"the first branch point t = {t1:.6g} lies past t_max = {t_max:.6g}")
    attempts = (eps0, 2.0 * eps0, 4.0 * eps0)
    stalls = []  # the residuals at which failed attempts stopped
    for eps in attempts:
        guess = ctx.u_ref + eps * ctx.kernel
        try:
            bp = ctx.solve(guess, t1)
        except NonConvergenceError as exc:
            log.debug("branch switch attempt eps=%.3g failed to converge", eps)
            stalls.append(math.inf if exc.residual is None else exc.residual)
            continue
        if not _fell_back(ctx, bp):
            branch.append(bp)
            break
        log.debug("branch switch attempt eps=%.3g fell back onto the 1d solution", eps)
    if not branch:
        floor = _rounding_floor(ctx.u_ref, ctx.grid, t1, ctx.l_base)
        if len(stalls) == len(attempts) and max(stalls) <= FLOOR_STALL_REL * floor:
            raise NonConvergenceError(
                f"every branch switch attempt at t = {t1:.6g} stalled, at residuals {min(stalls):.3g} to "
                f"{max(stalls):.3g}; the residual's rounding floor there is {floor:.3g} against tol {ctx.tol:.3g}",
                residual=min(stalls),
            )
        raise BranchNotFoundError(
            f"no branch found at t = {t1:.6g} after escalating the kernel perturbation"
        )
    return _follow(ctx, branch, direction, steps, t_max)


def _predict(ctx: BranchContext, points: list[BranchPoint], t: float) -> np.ndarray:
    """The guess at ``t`` for the branch through ``points``: Lagrange extrapolation in
    sigma = sqrt|t - t_bar_discrete| through the anchor (0, u_ref) and the last
    PREDICT_POINTS points.  At a simple crossing u = u_ref + s w + s^2 v_2 + ... with
    t - t_bar = tau_2 s^2 + ..., so a branch state is smooth in sigma and passes through
    u_ref at sigma = 0, where in t it has a square-root singularity.  A point whose sigma
    coincides with a node already taken, the anchor's or a later point's, is dropped."""
    def sigma(t_k):
        return math.sqrt(abs(t_k - ctx.t_bar_discrete))

    nodes, deviations = [0.0], []  # nodes[k] is the sigma of deviations[k - 1]
    for bp in reversed(points[-PREDICT_POINTS:]):
        if sigma(bp.t) not in nodes:
            nodes.append(sigma(bp.t))
            deviations.append(bp.solution - ctx.u_ref)
    x = sigma(t)
    guess = ctx.u_ref.copy()
    for k, deviation in enumerate(deviations, start=1):
        guess += math.prod((x - s) / (nodes[k] - s) for i, s in enumerate(nodes) if i != k) * deviation
    return guess


def _follow(
    ctx: BranchContext, branch: list[BranchPoint], direction: int, steps: int, t_max: float
) -> tuple[list[BranchPoint], str]:
    """Continue ``branch`` from its last point by steps of dt = FIRST_STEP_REL * t_bar, the
    continuation step it owns, halved on a failed solve; each solve starts from ``_predict``."""
    dt = FIRST_STEP_REL * ctx.t_bar
    halvings = 0
    while len(branch) < steps and branch[-1].t < t_max:
        t_next = branch[-1].t + direction * dt
        if t_next > t_max:  # a failed solve there halves the shortened step
            t_next, dt = t_max, t_max - branch[-1].t
        try:
            bp = ctx.solve(_predict(ctx, branch, t_next), t_next)
        except NonConvergenceError:
            halvings += 1
            dt *= 0.5
            if halvings > 6:
                log.info("continuation stalled at t = %.6g after 6 halvings", branch[-1].t)
                break
            continue
        branch.append(bp)
        halvings = 0
    return branch, _outcome(ctx, branch, steps, t_max)


def _fell_back(ctx: BranchContext, bp: BranchPoint) -> bool:
    """Whether ``bp`` lies on the height-only solution: within FALLBACK_TOL_REL * tol of it."""
    return bp.distance_to_1d <= FALLBACK_TOL_REL * ctx.tol


def _outcome(ctx: BranchContext, branch: list[BranchPoint], steps: int, t_max: float) -> str:
    """Why a half-branch ended: on the height-only solution, after ``steps`` points or at
    ``t_max``, or short of both."""
    if _fell_back(ctx, branch[-1]):
        return "returned_to_one_dimensional"
    return "reached_t_limit" if len(branch) >= steps or branch[-1].t >= t_max else "stalled"


@dataclass
class HalfBranches:
    """Both half-branches of one crossing, keyed "plus" and "minus", and why each ended.

    ``reflections`` says whether the first minus point is the mirror image of the
    first plus point under x' -> 1 - x'; it is None unless both exist.
    """

    branches: dict[str, list[BranchPoint]]
    outcomes: dict[str, str]
    reflections: bool | None


def continue_half_branches(ctx: BranchContext, steps: int, t_max: float) -> HalfBranches:
    """Follow both half-branches at ``ctx``'s crossing toward larger t.

    Each sign is switched onto by ``continue_branch``.  A sign with no first
    point reads ``branch_not_found``.  For odd j the discrete problem is
    symmetric under x' -> 1 - x' and the kernel changes sign there, so the
    minus half-branch is the mirror image of the plus one (an equivariant
    pitchfork).  When the Newton-solved first minus point is that mirror
    image, to REFLECTION_TOL_REL of max|u|, every later plus point is
    reflected and handed to Newton at its t: a reflection whose residual is
    already at most tol comes back with 0 iterations, any other is polished,
    and a polish that fails ends the minus half-branch there.  Its outcome
    follows ``continue_branch``'s rules.  For even j, without a plus
    half-branch or when the first minus point is no mirror, the minus
    half-branch is continued by Newton like the plus one.
    """
    branches: dict[str, list[BranchPoint]] = {}
    outcomes: dict[str, str] = {}
    for name, sign, count in (("plus", 1, steps), ("minus", -1, 1)):  # the minus side's first point only
        try:
            branches[name], outcomes[name] = continue_branch(ctx, +1, steps=count, t_max=t_max, sign=sign)
        except BranchNotFoundError as exc:
            log.info("no %s half-branch: %s", name, exc)
            branches[name], outcomes[name] = [], "branch_not_found"
    plus, minus = branches["plus"], branches["minus"]
    reflections = None
    if plus and minus:
        mirrored = plus[0].solution[:, ::-1]
        reflections = bool(
            np.max(np.abs(minus[0].solution - mirrored)) / np.max(np.abs(mirrored)) < REFLECTION_TOL_REL
        )
    reflected: list[BranchPoint] = []
    if reflections and ctx.j % 2 == 1:
        for bp in plus[1:]:
            try:
                reflected.append(ctx.solve(bp.solution[:, ::-1], bp.t))
            except NonConvergenceError:
                log.info("the reflected plus point at t = %.6g failed its polish", bp.t)
                break
        minus += reflected
        outcomes["minus"] = _outcome(ctx, minus, steps, t_max)
    elif minus:
        branches["minus"], outcomes["minus"] = _follow(ctx, minus, +1, steps, t_max)
    for name, taken in (("plus", []), ("minus", reflected)):
        log.info(
            "%s half-branch: %d Newton-solved, %d reflected (%d of them polished, largest residual %.3g)",
            name, len(branches[name]) - len(taken), len(taken), sum(bp.newton_iters > 0 for bp in taken),
            max((bp.residual for bp in taken), default=math.nan),
        )
    return HalfBranches(branches=branches, outcomes=outcomes, reflections=reflections)


def backtrack_branch(ctx: BranchContext, start: BranchPoint) -> list[BranchPoint]:
    """Follow the branch back toward the discrete bifurcation point.

    From ``start`` at offset dt = start.t - ctx.t_bar_discrete, solves at
    offsets dt * BACKTRACK_RATIO**k for k = 1..BACKTRACK_OFFSETS, each from
    ``_predict`` through ``start`` and the backtrack points solved so far.  Along the
    true branch the distance to the height-only solution shrinks monotonically to 0
    like sqrt(offset), so the backtrack keeps only branch points: it stops at the first
    solve that fell back onto u_ref or whose distance is not below the previous one,
    ``start``'s included, and returns the points before it.
    """
    t_bar = ctx.t_bar_discrete
    dt = start.t - t_bar
    if dt == 0.0:
        raise ValidationError("start point must sit away from the bifurcation scaling")
    points = [start]
    for k in range(1, BACKTRACK_OFFSETS + 1):
        t_k = t_bar + dt * BACKTRACK_RATIO**k
        bp = ctx.solve(_predict(ctx, points, t_k), t_k)
        if _fell_back(ctx, bp) or not bp.distance_to_1d < points[-1].distance_to_1d:
            log.info(
                "backtrack left the branch at t = %.8g (distance %.3g after %.3g); kept %d points",
                t_k, bp.distance_to_1d, points[-1].distance_to_1d, k - 1,
            )
            break
        points.append(bp)
    return points[1:]

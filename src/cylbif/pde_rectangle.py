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
branch detection can compare against that stored fixed point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
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
from .morse_bifurcation import BifurcationPoint

__all__ = [
    "Grid2D",
    "Linearized2D",
    "BranchPoint",
    "BranchContext",
    "assemble_linearized",
    "smallest_eigenvalues",
    "newton_solve",
    "embed_one_dim",
    "make_branch_context",
    "continue_branch",
    "backtrack_branch",
    "one_dimensionality_deviation",
    "count_nodal_domains_2d",
    "eval_energy",
]

log = logging.getLogger("cylbif.pde")

#: default relative threshold for 2D nodal counting
NODAL_REL_TOL_2D = 1e-6
#: Newton iteration budget of every branch-stage solve
BRANCH_MAX_ITERS = 25
#: first continuation step, relative to the degeneracy scaling
FIRST_STEP_REL = 1e-2
#: backtracking solves at offsets dt * BACKTRACK_RATIO**k, k = 1..BACKTRACK_OFFSETS
BACKTRACK_OFFSETS = 5
BACKTRACK_RATIO = 0.12

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


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


def _dof_from_full(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    return u[: grid.ny - 1, :].ravel().copy()


def _full_from_dof(dof: np.ndarray, grid: Grid2D) -> np.ndarray:
    full = np.zeros((grid.ny, grid.nx))
    full[: grid.ny - 1, :] = dof.reshape(grid.ny - 1, grid.nx)
    return full


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _weighted_norm(u: np.ndarray, grid: Grid2D) -> float:
    wx = _trapezoid_weights(grid.nx)
    wy = _trapezoid_weights(grid.ny)
    return math.sqrt(grid.hx * grid.hy * float(np.einsum("i,j,ij->", wy, wx, u * u)))


def _neumann_block(n: int, c: float):
    """Symmetrized 1D second-difference with Neumann mirrors at both ends."""
    diag = np.full(n, 2.0 * c)
    off = np.full(n - 1, -c)
    off[0] = -c * math.sqrt(2.0)
    off[-1] = -c * math.sqrt(2.0)
    d = np.ones(n)
    d[0] = d[-1] = 1.0 / math.sqrt(2.0)
    return sparse.diags([off, diag, off], [-1, 0, 1], format="csr"), d


@dataclass
class Linearized2D:
    """Symmetrized sparse operator D_t - f'(u) together with its weights.

    ``matrix`` is the similarity-transformed (symmetric) matrix; ``dvec``
    holds the diagonal weights, so the action on true grid values v is
    (matrix @ (dvec * v)) / dvec.  ``sigma_floor`` is a certified lower
    bound for the spectrum, used as the shift in shift-invert solves.
    """

    matrix: sparse.csr_matrix
    dvec: np.ndarray
    sigma_floor: float

    def apply(self, dof: np.ndarray) -> np.ndarray:
        return (self.matrix @ (self.dvec * dof)) / self.dvec


def _laplacian_parts(grid: Grid2D, t: float, l_base: float):
    if not (np.isfinite(t) and t > 0.0):
        raise ValidationError(f"dilation factor must be positive, got {t}")
    if not (np.isfinite(l_base) and l_base > 0.0):
        raise ValidationError(f"base length must be positive, got {l_base}")
    cx = 1.0 / ((t * l_base) ** 2 * grid.hx**2)
    sx, dx = _neumann_block(grid.nx, cx)
    # the height block is the 1D eigenproblem's stencil with zero potential
    height = assemble_sl_operator(np.zeros(grid.ny), grid.ny - 1)
    sy = sparse.diags([height.off, height.diag, height.off], [-1, 0, 1], format="csr")
    dy = np.ones(grid.ny - 1)
    dy[0] = 1.0 / math.sqrt(2.0)
    s0 = sparse.kron(sy, sparse.identity(grid.nx), format="csr") + sparse.kron(
        sparse.identity(grid.ny - 1), sx, format="csr"
    )
    dvec = np.kron(dy, dx)
    return s0, dvec


def assemble_linearized(
    u, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float = 1.0
) -> Linearized2D:
    """Five-point discretization of D_t - f'(u) on the unit square."""
    full = _as_full(u, grid)
    s0, dvec = _laplacian_parts(grid, t, l_base)
    q = eval_fprime(model, _dof_from_full(full, grid))
    matrix = (s0 - sparse.diags(q)).tocsr()
    return Linearized2D(matrix=matrix, dvec=dvec, sigma_floor=-max(0.0, float(np.max(q))) - 1.0)


def smallest_eigenvalues(operator: Linearized2D, k: int, maxiter: int | None = None) -> np.ndarray:
    """k smallest eigenvalues via shift-invert Lanczos below the spectrum,
    started from a fixed-seed random vector so that repeated calls agree."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    try:
        vals = spla.eigsh(
            operator.matrix,
            k=k,
            sigma=operator.sigma_floor,
            which="LM",
            v0=np.random.default_rng(0).standard_normal(operator.matrix.shape[0]),
            maxiter=maxiter,
            return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"eigenvalue iteration converged only {len(exc.eigenvalues)}/{k} pairs",
            residual=exc,
        ) from exc
    return np.sort(vals)


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


def newton_solve(
    initial,
    t: float,
    model: NonlinearityModel,
    grid: Grid2D,
    tol: float,
    max_iters: int,
    l_base: float = 1.0,
    reference_1d: np.ndarray | None = None,
) -> BranchPoint:
    """Newton iteration on R(u) = D_t u - f(u) with sparse direct solves.

    ``reference_1d`` (full-grid array) fixes the yardstick for
    ``distance_to_1d``; without it the distance is reported as NaN.
    """
    if not tol > 0.0:
        raise ValidationError("newton tolerance must be positive")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    full = _as_full(initial, grid)
    s0, dvec = _laplacian_parts(grid, t, l_base)
    u = _dof_from_full(full, grid)

    def residual_vec(vec):
        return (s0 @ (dvec * vec)) / dvec - eval_f(model, vec)

    r = residual_vec(u)
    rnorm = float(np.max(np.abs(r)))
    r0 = max(rnorm, 1.0)
    iters = 0
    while rnorm > tol:
        if iters >= max_iters:
            raise NonConvergenceError(
                f"newton did not reach tol {tol} in {max_iters} iterations", residual=rnorm
            )
        jac = (s0 - sparse.diags(eval_fprime(model, u))).tocsc()
        try:
            lu = spla.splu(jac)
        except RuntimeError as exc:  # exactly singular at a bifurcation point
            raise NonConvergenceError(f"jacobian factorization failed: {exc}") from exc
        y = lu.solve(-(dvec * r))
        u = u + y / dvec
        r = residual_vec(u)
        rnorm = float(np.max(np.abs(r)))
        iters += 1
        if not np.isfinite(rnorm) or rnorm > 1e8 * r0:
            raise NonConvergenceError(f"newton diverged (residual {rnorm})", residual=rnorm)

    solution = _full_from_dof(u, grid)
    if np.any(solution):
        deviation = one_dimensionality_deviation(solution, grid)
        nodal = count_nodal_domains_2d(
            solution, grid, NODAL_REL_TOL_2D * float(np.max(np.abs(solution)))
        )
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
    wx = _trapezoid_weights(grid.nx)
    mean = (full @ wx) / wx.sum()
    return _weighted_norm(full - mean[:, None], grid) / norm


def count_nodal_domains_2d(u, grid: Grid2D, tol: float) -> int:
    """4-connected constant-sign components of {|u| > tol}."""
    if tol < 0.0:
        raise ValidationError("tolerance must be >= 0")
    full = _as_full(u, grid)
    pos = full > tol
    neg = full < -tol
    if not (pos.any() or neg.any()):
        raise DegenerateInputError("all samples below tolerance; no nodal information")
    _, n_pos = ndimage.label(pos, structure=_FOUR_CONNECTED)
    _, n_neg = ndimage.label(neg, structure=_FOUR_CONNECTED)
    return int(n_pos + n_neg)


def eval_energy(u, t: float, model: NonlinearityModel, grid: Grid2D, l_base: float = 1.0) -> float:
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
    """Everything a branch continuation needs: the reference fixed point,
    the kernel mode and the discrete dilation at which it is a kernel."""

    model: NonlinearityModel
    grid: Grid2D
    l_base: float
    u_ref: np.ndarray  # discrete height-only fixed point on the 2D grid
    kernel: np.ndarray  # unit-norm (ny, nx) mode z_i(y) cos(j pi x'), Dirichlet row included
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
            max_iters=BRANCH_MAX_ITERS,
            l_base=self.l_base,
            reference_1d=self.u_ref,
        )


def make_branch_context(
    model: NonlinearityModel,
    grid: Grid2D,
    l_base: float,
    amplitude: float,
    i: int,
    j: int,
    tol: float = 1e-8,
) -> BranchContext:
    """Prepare the reference fixed point, kernel mode and discrete crossing.

    The height-only initial guess is re-integrated at the grid's own
    y-resolution and polished by one Newton solve, so the stored reference
    is the exact discrete fixed point (the same object at every t).

    The linearization at u_ref is the tensor sum of the x'-block and the
    height block with u_ref's own potential, so one eigensolve of the
    height block gives both the kernel and where it occurs.  The x'-block
    eigenvalue xi_j of cos(j pi X) scales as 1/t^2 with no discretization
    error in t, so the crossing sits exactly at t^2 = xi_j(1) / (-mu_i),
    with kernel z_i(y) cos(j pi X), i.e. cos(j pi x'/L) on the unit square.
    Backtracking toward this value (rather than the continuum scaling, which
    differs by O(h^2)) lets the branch be followed arbitrarily close to the
    pitchfork.  The default ``tol`` keeps two decades of margin above the
    inf-norm residual floor ~ |u| * (2/h^2) * eps, about 1e-10 at 200 x 200.
    """
    if j < 1:
        raise ValidationError("x' mode index must be >= 1 for a dilation-driven crossing")
    u1d, _ = integrate_ivp(model, amplitude, grid.ny - 1)
    embedded = embed_one_dim(u1d, grid)
    seed = newton_solve(embedded, 1.0, model, grid, tol=tol, max_iters=BRANCH_MAX_ITERS, l_base=l_base)
    if seed.deviation > 1e-8:
        raise NonConvergenceError(
            f"reference solve left the height-only subspace (deviation {seed.deviation:.3g})"
        )
    q = eval_fprime(model, seed.solution[:, 0])
    spec = sl_eigenpairs(assemble_sl_operator(q, grid.ny - 1), k=i)
    mu_i = float(spec.alphas[i - 1])
    if mu_i >= 0.0:
        raise ValidationError(f"height-block eigenvalue {i} is nonnegative ({mu_i:.6g}); no crossing")
    xi_j = (2.0 / (l_base**2 * grid.hx**2)) * (1.0 - math.cos(j * math.pi * grid.hx))
    kernel = np.outer(spec.eigenfunctions[i - 1], np.cos(j * math.pi * grid.x_nodes()))
    kernel /= _weighted_norm(kernel, grid)
    return BranchContext(
        model=model,
        grid=grid,
        l_base=l_base,
        u_ref=seed.solution,
        kernel=kernel,
        t_bar_discrete=math.sqrt(xi_j / (-mu_i)),
        tol=tol,
    )


def continue_branch(
    ctx: BranchContext,
    point: BifurcationPoint,
    direction: int,
    steps: int,
    eps0: float | None = None,
) -> list[BranchPoint]:
    """Switch onto the bifurcating branch at a simple point and follow it.

    The first solve starts from u_ref + eps * w at t = t_bar + direction *
    dt0, dt0 = FIRST_STEP_REL * t_bar, escalating eps over {1x, 2x, 4x} if
    Newton falls back onto the height-only solution.  The default eps0 is 0.1 * |u_ref|; near the
    pitchfork the new solution sits at amplitude ~sqrt(dt) and a guess
    below roughly 0.6 of that amplitude contracts back to the trivial
    branch, so the perturbation has to be commensurate with the branch,
    not merely nonzero.  Subsequent points use natural-parameter
    continuation with a secant predictor and step halving (at most 6
    halvings per step).  Returns the ordered branch; it may be shorter
    than ``steps`` if continuation stalls.
    """
    if not point.simple:
        raise ValidationError(
            f"branch switching requires a simple kernel, got multiplicity {point.kernel_multiplicity}"
        )
    if direction not in (-1, 1):
        raise ValidationError("direction must be +1 or -1")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    t_bar = point.t_bar
    dt0 = FIRST_STEP_REL * t_bar
    if eps0 is None:
        eps0 = 1e-1 * ctx.ref_norm
    fallback_threshold = 10.0 * ctx.tol

    branch: list[BranchPoint] = []
    t1 = t_bar + direction * dt0
    for eps in (eps0, 2.0 * eps0, 4.0 * eps0):
        guess = ctx.u_ref + eps * ctx.kernel
        try:
            bp = ctx.solve(guess, t1)
        except NonConvergenceError:
            log.debug("branch switch attempt eps=%.3g failed to converge", eps)
            continue
        if bp.distance_to_1d > fallback_threshold:
            branch.append(bp)
            break
        log.debug("branch switch attempt eps=%.3g fell back onto the 1d solution", eps)
    if not branch:
        raise BranchNotFoundError(
            f"no branch found at t = {t1:.6g} after escalating the kernel perturbation"
        )

    dt = dt0
    halvings = 0
    while len(branch) < steps:
        t_next = branch[-1].t + direction * dt
        if len(branch) >= 2:
            prev, last = branch[-2], branch[-1]
            slope = (last.solution - prev.solution) / (last.t - prev.t)
            guess = last.solution + slope * (t_next - last.t)
        else:
            guess = branch[-1].solution
        try:
            bp = ctx.solve(guess, t_next)
        except NonConvergenceError:
            halvings += 1
            dt *= 0.5
            if halvings > 6:
                log.info("continuation stalled at t = %.6g after 6 halvings", branch[-1].t)
                break
            continue
        branch.append(bp)
    return branch


def backtrack_branch(ctx: BranchContext, start: BranchPoint) -> list[BranchPoint]:
    """Follow the branch back toward the discrete bifurcation point.

    From ``start`` at offset dt = start.t - ctx.t_bar_discrete, solves at
    offsets dt * BACKTRACK_RATIO**k for k = 1..BACKTRACK_OFFSETS, each
    seeded from the previous solution.  Along the true branch the distance
    to the height-only solution shrinks monotonically to 0 like sqrt(offset).
    """
    t_bar = ctx.t_bar_discrete
    dt = start.t - t_bar
    if dt == 0.0:
        raise ValidationError("start point must sit away from the bifurcation scaling")
    out = []
    seed = start.solution
    for k in range(1, BACKTRACK_OFFSETS + 1):
        t_k = t_bar + dt * BACKTRACK_RATIO**k
        bp = ctx.solve(seed, t_k)
        out.append(bp)
        seed = bp.solution
    return out

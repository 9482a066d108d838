"""Eigenpairs of -z'' - q(x) z = alpha z with z'(0) = z(1) = 0.

Second-order central differences on a uniform grid of M+1 nodes; the
Neumann end is handled by a mirror ghost node and the operator is restored
to symmetric tridiagonal form by the standard half-weight similarity
scaling, so the computed spectrum is real with certified ordering.

The eigenpairs of that tridiagonal T (diagonal a_i, off-diagonal e_i) are
computed here, in the manner of LAPACK's stebz and stein (Barth, Martin &
Wilkinson 1967; Parlett, The Symmetric Eigenvalue Problem, ch. 7):

* Count.  The number of eigenvalues below a shift x is the number of
  negative pivots of T - xI = L D L^T, d_1 = a_1 - x and
  d_i = (a_i - x) - e_{i-1}^2 / d_{i-1} (Sylvester's law of inertia).  A
  pivot smaller than pivmin in magnitude is replaced by -pivmin, as stebz
  does.  One pass gives this count and p'/p, the log-derivative of
  p(x) = det(T - xI); ``TridiagonalOperator.count_below`` is the count.
* Isolate.  Each of the k smallest eigenvalues is bisected until the counts
  at the ends of its bracket are i - 1 and i; isolation is decided by counts,
  never by the bracket's width.
* Polish.  Inside its bracket the eigenvalue is refined by Newton's method
  on p, whose p'/p = sum_i d_i'/d_i comes out of the counting pass.  A step
  that leaves the bracket, or that does not halve the step before last, is
  replaced by a bisection step.  The polish stops once a step is below
  eps ||T||_inf, the accuracy stebz promises (about 3.5e-9 absolute at M = 2000).
* Vectors.  Each eigenvector comes from the twisted factorization of
  T - alpha I at the polished alpha: one step of inverse iteration from the
  unit vector at the twist index, where the forward and backward pivots
  meet with the smallest defect gamma_r.  A vector whose residual
  ||T z - alpha z|| exceeds M eps ||T||_inf raises NonConvergenceError.

So the eigenvalues agree with stebz within a few eps ||T||_inf, and the
eigenvectors are accurate to that residual over the gap to the neighbouring
eigenvalues.

Eigenvectors are reported as grid values of z on all M+1 nodes (the
Dirichlet node carries an explicit 0), normalized to 1 in the trapezoid
discrete L2 norm and signed so that z(0) > 0.

M is read from the data (the potential's samples less one, the operator's length),
h = 1/M, and a spectrum's zero counts are counted from its eigenfunctions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientSpectrumError,
    NonConvergenceError,
    ValidationError,
)
from .nonlinearity import NonlinearityModel, eval_fprime
from .ode_shooting import count_nodal_domains_1d, integrate_ivp

__all__ = [
    "TridiagonalOperator",
    "SturmSpectrum",
    "assemble_sl_operator",
    "sl_eigenpairs",
    "oscillation_check",
    "one_dim_morse",
    "nondegeneracy_margin",
    "linearized_spectrum",
    "richardson_extrapolate",
    "extrapolated_alphas",
]


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
#: Newton or bisection steps allowed per eigenvalue; bisection alone reaches
#: eps ||T|| from the Gershgorin interval in about 55
MAX_POLISH = 200


# T as plain floats, so that a pivot pass is O(M) with no numpy call per step: a_1, (a_i, e_{i-1}^2) for
# i = 2..M, a_M, (a_i, e_i^2) for i = M-1..1, ||T||_inf, stebz's pivmin and its widened Gershgorin interval
_FloatView = namedtuple("_FloatView", "a0 forward a_last backward norm pivmin lower upper")


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetrized finite-difference operator for the mixed-BC eigenproblem, h = 1/M, and its Sturm
    sequence.  ``diag`` and ``off`` are read-only copies: the float view is built once from them."""

    diag: np.ndarray  # length M
    off: np.ndarray  # length M-1; off[0] carries the sqrt(2) Neumann weight

    def __post_init__(self):
        for name in ("diag", "off"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).flags.writeable = False

    @cached_property
    def _view(self) -> _FloatView:
        a = self.diag.tolist()
        e2 = (self.off * self.off).tolist()
        radius = np.append(np.abs(self.off), 0.0) + np.append(0.0, np.abs(self.off))
        norm = float(np.max(np.abs(self.diag) + radius))
        pivmin = _TINY * max(1.0, max(e2, default=0.0))
        fudge = 2.1 * (norm * _EPS * len(a) + 2.0 * pivmin)
        lower = float(np.min(self.diag - radius)) - fudge
        upper = float(np.max(self.diag + radius)) + fudge
        forward, backward = list(zip(a[1:], e2)), list(zip(a[-2::-1], e2[::-1]))
        return _FloatView(a[0], forward, a[-1], backward, norm, pivmin, lower, upper)

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.off, 1) + np.diag(self.off, -1)
        return a

    def count_below(self, shift: float) -> int:
        """Number of eigenvalues below ``shift``: the negative LDL^T pivots of T - shift I."""
        return self._count_and_log_derivative(shift)[0]

    def _count_and_log_derivative(self, x: float) -> tuple[int, float]:
        """The count at ``x`` and p'/p = sum d_i'/d_i of p(x) = det(T - xI)."""
        view = self._view
        pivmin = view.pivmin
        d = view.a0 - x
        count = 0
        if d < pivmin:  # negative, or too small and replaced by -pivmin
            count = 1
            if d > -pivmin:
                d = -pivmin
        # r = d_i'/d_i with d_i' = -1 + (e_{i-1}^2 / d_{i-1}) r_{i-1}
        r = -1.0 / d
        total = r
        for a, e2 in view.forward:
            t = e2 / d
            d = (a - x) - t
            if d < pivmin:
                count += 1
                if d > -pivmin:
                    d = -pivmin
            r = (t * r - 1.0) / d
            total += r
        return count, total

    def _pivots(self, first: float, pairs: list, x: float) -> list[float]:
        pivmin = self._view.pivmin
        d = first - x
        if d < pivmin and d > -pivmin:
            d = -pivmin
        pivots = [d]
        append = pivots.append
        for a, e2 in pairs:
            d = (a - x) - e2 / d
            if d < pivmin and d > -pivmin:
                d = -pivmin
            append(d)
        return pivots

    def _eigenvalues(self, k: int, guess) -> list[float]:
        """The k smallest eigenvalues, each isolated by the counts in a bracket (lo_i, hi_i) with count(lo_i)
        = i - 1 and count(hi_i) = i, then polished inside it.  ``guess``, k approximate eigenvalues such as
        those of a coarser grid, only places the first trial shifts between them and starts the polish."""
        m = self.diag.size
        if not 1 <= k <= m - 1:
            raise ValidationError(f"need 1 <= k <= M - 1, got k={k}, M={m}")
        if guess is not None:
            guess = [float(g) for g in guess]
            if len(guess) != k:
                raise ValidationError(f"need k = {k} guesses, got {len(guess)}")
        lo, hi = [self._view.lower] * k, [self._view.upper] * k
        count_lo, count_hi = [0] * k, [m] * k

        def record(x: float) -> None:
            c = self._count_and_log_derivative(x)[0]
            for i in range(k):
                if lo[i] < x < hi[i]:
                    if c <= i:
                        lo[i], count_lo[i] = x, c
                    else:
                        hi[i], count_hi[i] = x, c

        if guess is not None and k > 1:
            middles = [0.5 * (g + h) for g, h in zip(guess, guess[1:])]
            for x in [2.0 * guess[0] - middles[0], *middles, 2.0 * guess[-1] - middles[-1]]:
                record(x)
        for i in range(k):
            while count_lo[i] != i or count_hi[i] != i + 1:
                x = 0.5 * (lo[i] + hi[i])
                if not lo[i] < x < hi[i]:
                    raise NonConvergenceError(
                        f"eigenvalue {i + 1} cannot be isolated in [{lo[i]!r}, {hi[i]!r}]: "
                        f"{count_hi[i] - count_lo[i]} eigenvalues coincide to working precision"
                    )
                record(x)
        return [self._polish(i, lo[i], hi[i], None if guess is None else guess[i]) for i in range(k)]

    def _polish(self, i: int, lo: float, hi: float, start: float | None) -> float:
        """The (i+1)-th eigenvalue by safeguarded Newton inside its isolating bracket."""
        tol = _EPS * self._view.norm
        x = start if start is not None and lo < start < hi else 0.5 * (lo + hi)
        step = before = hi - lo
        for _ in range(MAX_POLISH):
            count, log_derivative = self._count_and_log_derivative(x)
            if count <= i:
                lo = x
            else:
                hi = x
            # a pivot at -pivmin can leave the sum infinite, whose Newton step would be 0
            usable = log_derivative != 0.0 and math.isfinite(log_derivative)
            newton = x - 1.0 / log_derivative if usable else math.nan
            if lo < newton < hi and abs(newton - x) <= 0.5 * abs(before):
                before, step = step, newton - x
            else:
                before, step = step, 0.5 * (lo + hi) - x
            x += step
            if abs(step) <= tol:
                return x
        raise NonConvergenceError(f"eigenvalue {i + 1} not polished to {tol:.3g} in {MAX_POLISH} steps")

    def _unit_eigenvectors(self, alphas: list[float]) -> np.ndarray:
        """Rows of unit 2-norm for the polished ``alphas``, by the twisted factorization of T - alpha I:
        the forward and backward pivots meet at the twist index r of least defect gamma_r, and
        (T - alpha I) z = gamma_r e_r with z_r = 1.  A residual ||T z - alpha z|| above M eps ||T|| raises."""
        view = self._view
        forward = np.array([self._pivots(view.a0, view.forward, x) for x in alphas])
        backward = np.array([self._pivots(view.a_last, view.backward, x) for x in alphas])[:, ::-1]
        shifted = self.diag - np.array(alphas)[:, None]
        twists = np.argmin(np.abs(forward + backward - shifted), axis=1)
        z = np.ones_like(shifted)
        # a pivot at -pivmin can overflow a product; the residual test then rejects the vector
        with np.errstate(over="ignore", invalid="ignore"):
            for row, r in enumerate(twists.tolist()):
                z[row, :r] = np.cumprod((-self.off[:r] / forward[row, :r])[::-1])[::-1]
                z[row, r + 1 :] = np.cumprod(-self.off[r:] / backward[row, r + 1 :])
            z /= np.linalg.norm(z, axis=1)[:, None]
            residual = shifted * z
            residual[:, :-1] += self.off * z[:, 1:]
            residual[:, 1:] += self.off * z[:, :-1]
            sizes = np.linalg.norm(residual, axis=1)
        bound = self.diag.size * _EPS * view.norm
        for alpha, size in zip(alphas, sizes.tolist()):
            if not size <= bound:
                raise NonConvergenceError(
                    f"eigenvector at alpha = {alpha!r} has residual {size:.3g} > M eps ||T|| = {bound:.3g}",
                    residual=size,
                )
        return z


@dataclass
class SturmSpectrum:
    """First k eigenpairs, ordered ascending; all eigenvalues are simple."""

    alphas: np.ndarray
    eigenfunctions: np.ndarray  # shape (k, M+1), Dirichlet node included

    @property
    def zero_counts(self) -> np.ndarray:
        """Interior sign changes of each eigenfunction, by ``count_nodal_domains_1d``."""
        return np.array([count_nodal_domains_1d(z) - 1 for z in self.eigenfunctions])


def assemble_sl_operator(potential) -> TridiagonalOperator:
    """Build the symmetric tridiagonal discretization for grid spacing 1/M.

    ``potential`` is sampled on the full uniform grid, so its M+1 values fix
    M; the Dirichlet node sample is unused.  The plain ghost-node stencil has
    a 2/h^2, -2/h^2 first row; the similarity scaling by diag(1/sqrt(2),
    1, ..., 1) turns both first-row couplings into -sqrt(2)/h^2 without
    touching the spectrum.
    """
    q = np.asarray(potential, dtype=float)
    if q.ndim != 1 or q.size < 5:
        raise ValidationError(f"potential must be 1-d with at least 5 samples, got shape {q.shape}")
    m = q.size - 1
    c = float(m) ** 2  # 1/h^2
    diag = 2.0 * c - q[:m]
    off = np.full(m - 1, -c)
    off[0] = -c * math.sqrt(2.0)
    return TridiagonalOperator(diag=diag, off=off)


def sl_eigenpairs(operator: TridiagonalOperator, k: int, *, guess=None) -> SturmSpectrum:
    """First k eigenpairs by Sturm-sequence bisection, Newton polish and
    twisted-factorization inverse iteration.

    ``guess``, k approximate eigenvalues such as those of a coarser grid,
    only speeds the isolation and starts the polish."""
    alphas = operator._eigenvalues(k, guess)
    z = operator._unit_eigenvectors(alphas)
    m = operator.diag.size

    # undo the half-weight similarity, then normalize in the trapezoid L2
    # norm h*(z0^2/2 + sum z_j^2); for the transformed vector this equals
    # h * |v|^2, and the vectors have |v| = 1
    z[:, 0] *= math.sqrt(2.0)
    z /= math.sqrt(1.0 / m)
    z *= np.where(z[:, :1] < 0.0, -1.0, 1.0)

    full = np.zeros((k, m + 1))
    full[:, :m] = z
    return SturmSpectrum(alphas=np.array(alphas), eigenfunctions=full)


def oscillation_check(spec: SturmSpectrum) -> bool:
    """True iff the i-th eigenfunction has exactly i-1 interior sign changes."""
    return spec.zero_counts.tolist() == list(range(len(spec.alphas)))


def one_dim_morse(alphas) -> int:
    """Number of strictly negative eigenvalues of ascending ``alphas``; the
    largest must be a positive witness that the count is complete."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or alphas[-1] <= 0.0:
        found = f"the largest alpha, {float(alphas[-1])!r}, is not positive" if alphas.size else "the list is empty"
        raise InsufficientSpectrumError(
            f"need a positive eigenvalue witness to certify the 1D Morse index: {found}, "
            "so the list may omit negative eigenvalues"
        )
    return int(np.count_nonzero(alphas < 0.0))


def nondegeneracy_margin(alphas) -> float:
    """min_i |alpha_i|, the distance of the spectrum from 0."""
    return float(np.min(np.abs(alphas)))


# no caller in the package: kept for benchmarks/tracing.py, which wraps it until it traces extrapolated_alphas
def linearized_spectrum(model: NonlinearityModel, amplitude: float, grid_size: int, k: int) -> SturmSpectrum:
    """Spectrum of the ODE linearization around the shooting solution.

    The initial-value problem is re-integrated at the eigenproblem grid
    resolution so the potential q = f'(u) carries no interpolation error.
    """
    u, _ = integrate_ivp(model, amplitude, grid_size)
    q = eval_fprime(model, u)
    return sl_eigenpairs(assemble_sl_operator(q), k)


def richardson_extrapolate(values) -> float:
    """Eliminate the leading error terms h^2, h^4, ... of the second-order
    scheme from a refinement sequence listed coarsest first, halving h."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValidationError("richardson extrapolation needs at least two values")
    p = 2
    while len(vals) > 1:
        factor = 2.0**p
        vals = [(factor * fine - coarse) / (factor - 1.0) for coarse, fine in zip(vals, vals[1:])]
        p += 2
    return vals[0]


def extrapolated_alphas(
    model: NonlinearityModel, amplitude: float, grid_size: int, k: int
) -> tuple[np.ndarray, SturmSpectrum]:
    """First k linearization eigenvalues, Richardson-extrapolated from the
    grids grid_size // 4, grid_size // 2 and grid_size, and the spectrum
    solved on the finest of them, the only grid that computes eigenvectors.
    The h^2, h^4 weights assume that each grid halves h, so a grid_size that
    is not a multiple of 4 raises ValidationError.

    Operators whose ``count_below(0)`` differ do not resolve the Morse index
    and raise NonConvergenceError before any eigensolve.  Each grid starts
    from the coarser grids' alphas: grid_size // 2 from those of grid_size // 4,
    and grid_size from the h^2 error term of the two.  Extrapolated alphas that
    are not strictly ascending lie outside the weights' regime and raise
    NonConvergenceError."""
    grids = (grid_size // 4, grid_size // 2, grid_size)
    if grid_size % 4:
        raise ValidationError(
            f"the grids {grids[0]}, {grids[1]} and {grids[2]} do not halve h; the finest must be a multiple of 4"
        )
    operators = [assemble_sl_operator(eval_fprime(model, integrate_ivp(model, amplitude, m)[0])) for m in grids]
    counts = [op.count_below(0.0) for op in operators]
    if len(set(counts)) > 1:
        raise NonConvergenceError(
            f"the grids {grids[0]}, {grids[1]} and {grids[2]} count {counts} negative eigenvalues; "
            "the grids are too coarse to resolve the Morse index of this profile"
        )
    coarse = np.array(operators[0]._eigenvalues(k, None))
    middle = np.array(operators[1]._eigenvalues(k, coarse))
    finest = sl_eigenpairs(operators[2], k, guess=middle + (middle - coarse) / 4.0)
    alphas = np.array([richardson_extrapolate(column) for column in zip(coarse, middle, finest.alphas)])
    values = alphas.tolist()
    for i in range(k - 1):
        if not values[i] < values[i + 1]:
            raise NonConvergenceError(
                f"Richardson extrapolation from the grids {grids[0]}, {grids[1]} and {grids[2]} gives "
                f"alphas out of order: alpha_{i + 1} = {values[i]!r} >= alpha_{i + 2} = {values[i + 1]!r}; "
                "the grids are too coarse for this profile"
            )
    return alphas, finest

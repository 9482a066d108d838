"""Eigenpairs of -z'' - q(x) z = alpha z with z'(0) = z(1) = 0.

Second-order central differences on a uniform grid of M+1 nodes; the
Neumann end is handled by a mirror ghost node and the operator is restored
to symmetric tridiagonal form by the standard half-weight similarity
scaling, so the computed spectrum is real with certified ordering.
Eigenvalues are obtained by Sturm-sequence bisection plus inverse
iteration (LAPACK stebz/stein).

Eigenvectors are reported as grid values of z on all M+1 nodes (the
Dirichlet node carries an explicit 0), normalized to 1 in the trapezoid
discrete L2 norm and signed so that z(0) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    InsufficientSpectrumError,
    NonConvergenceError,
    ValidationError,
)
from .nonlinearity import NonlinearityModel, eval_fprime
from .ode_shooting import SIGN_CHANGE_REL_TOL, count_nodal_domains_1d, integrate_ivp

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


@dataclass
class TridiagonalOperator:
    """Symmetrized finite-difference operator for the mixed-BC eigenproblem."""

    diag: np.ndarray  # length M
    off: np.ndarray  # length M-1; off[0] carries the sqrt(2) Neumann weight
    h: float
    grid_size: int  # M

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.off, 1) + np.diag(self.off, -1)
        return a


@dataclass
class SturmSpectrum:
    """First k eigenpairs, ordered ascending; all eigenvalues are simple."""

    alphas: np.ndarray
    eigenfunctions: np.ndarray  # shape (k, M+1), Dirichlet node included
    zero_counts: np.ndarray
    grid_size: int


def assemble_sl_operator(potential, grid_size: int) -> TridiagonalOperator:
    """Build the symmetric tridiagonal discretization for grid spacing 1/M.

    ``potential`` must be sampled on the full uniform grid (M+1 values);
    the Dirichlet node sample is unused.  The plain ghost-node stencil has
    a 2/h^2, -2/h^2 first row; the similarity scaling by diag(1/sqrt(2),
    1, ..., 1) turns both first-row couplings into -sqrt(2)/h^2 without
    touching the spectrum.
    """
    m = int(grid_size)
    q = np.asarray(potential, dtype=float)
    if m < 4:
        raise ValidationError(f"grid_size must be >= 4, got {grid_size}")
    if q.shape != (m + 1,):
        raise ValidationError(
            f"potential must have grid_size+1 = {m + 1} samples on a uniform grid, got shape {q.shape}"
        )
    c = float(m) ** 2  # 1/h^2
    diag = 2.0 * c - q[:m]
    off = np.full(m - 1, -c)
    off[0] = -c * math.sqrt(2.0)
    return TridiagonalOperator(diag=diag, off=off, h=1.0 / m, grid_size=m)


def sl_eigenpairs(operator: TridiagonalOperator, k: int) -> SturmSpectrum:
    """First k eigenpairs by Sturm-sequence bisection + inverse iteration."""
    m = operator.grid_size
    if not 1 <= k <= m - 1:
        raise ValidationError(f"need 1 <= k <= grid_size - 1, got k={k}, M={m}")
    try:
        alphas, vecs = eigh_tridiagonal(
            operator.diag,
            operator.off,
            select="i",
            select_range=(0, k - 1),
            lapack_driver="stebz",
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NonConvergenceError(f"inverse iteration failed: {exc}") from exc

    # undo the half-weight similarity, then normalize in the trapezoid L2
    # norm h*(z0^2/2 + sum z_j^2); for the transformed vector this equals
    # h * |v|^2, and LAPACK returns |v| = 1 columns
    z = vecs.copy()
    z[0, :] *= math.sqrt(2.0)
    z /= math.sqrt(operator.h)
    flip = np.where(z[0, :] < 0.0, -1.0, 1.0)
    z *= flip

    full = np.zeros((k, m + 1))
    full[:, :m] = z.T
    counts = np.array([count_nodal_domains_1d(z, SIGN_CHANGE_REL_TOL * float(np.max(np.abs(z)))) - 1 for z in full])
    return SturmSpectrum(alphas=alphas, eigenfunctions=full, zero_counts=counts, grid_size=m)


def oscillation_check(spec: SturmSpectrum) -> bool:
    """True iff the i-th eigenfunction has exactly i-1 interior sign changes."""
    return all(int(spec.zero_counts[i]) == i for i in range(len(spec.alphas)))


def one_dim_morse(alphas) -> int:
    """Number of strictly negative eigenvalues of ascending ``alphas``; the
    largest must be a positive witness that the count is complete."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or alphas[-1] <= 0.0:
        raise InsufficientSpectrumError(
            "need a positive eigenvalue witness to certify the 1D Morse index; increase k"
        )
    return int(np.count_nonzero(alphas < 0.0))


def nondegeneracy_margin(alphas) -> float:
    """min_i |alpha_i|, the distance of the spectrum from 0."""
    return float(np.min(np.abs(alphas)))


def linearized_spectrum(
    model: NonlinearityModel, amplitude: float, grid_size: int, k: int
) -> SturmSpectrum:
    """Spectrum of the ODE linearization around the shooting solution.

    The initial-value problem is re-integrated at the eigenproblem grid
    resolution so the potential q = f'(u) carries no interpolation error.
    """
    u, _ = integrate_ivp(model, amplitude, grid_size)
    q = eval_fprime(model, u)
    return sl_eigenpairs(assemble_sl_operator(q, grid_size), k)


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
    solved on the finest of them."""
    finest = linearized_spectrum(model, amplitude, grid_size, k)
    coarse = [linearized_spectrum(model, amplitude, grid_size // d, k).alphas for d in (4, 2)]
    return np.array([richardson_extrapolate(column) for column in zip(*coarse, finest.alphas)]), finest

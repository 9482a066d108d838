"""Composition of the linearized spectrum and the bifurcation scalings.

The full linearized spectrum around a one-dimensional solution is the
Minkowski sum {alpha_i + lambda_j} of the 1D linearization eigenvalues
and the base Neumann eigenvalues.  The Morse index therefore evaluates to

    m = m_xn + sum_{i <= m_xn} #{ j >= 1 : lambda_j < -alpha_i },

with lambda counted with multiplicity, and the solution is degenerate
exactly when some alpha_i + lambda_j vanishes.  Dilating the base by t
rescales lambda_j to lambda_j / t^2, so each pair (alpha_i < 0,
lambda_j > 0) produces the degeneracy scaling t = sqrt(lambda_j / -alpha_i).
The paper's ground-state test lambda_1 < -alpha_1 is the i = 1 term of the
sum at t = 1 being positive, reported as ``MorseReport.ground_state_flag``.

``SumSet`` is the one enumeration of such a sum set, for the queries below on
(alpha, lambda) and for ``pde_rectangle`` on its height and x'-block eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .base_spectrum import BaseSpectrum
from .errors import CoverageError, ValidationError
from .sturm_liouville import one_dim_morse

__all__ = [
    "SumSet",
    "ComposedSpectrum",
    "MorseReport",
    "BifurcationPoint",
    "MorseSample",
    "coverage_cutoff",
    "compose_spectrum",
    "morse_index",
    "degeneracy_times",
    "morse_vs_t",
]

#: relative tolerance for grouping coincident degeneracy scalings
GROUP_REL_TOL = 1e-9
#: alpha_i + lambda_j counts as zero below this multiple of max(1, |alpha_1|)
ZERO_REL_TOL = 1e-8
#: degeneracy scalings up to t_max * (1 + T_MAX_REL_TOL) are reported
T_MAX_REL_TOL = 1e-12


@dataclass
class ComposedSpectrum:
    """Sums alpha_i + lambda_j in ascending order, with their pairs (i is 1-based, j indexes
    distinct base eigenvalues, j = 0 the constant mode) and the multiplicities of lambda_j."""

    values: np.ndarray
    i: np.ndarray
    j: np.ndarray
    multiplicity: np.ndarray


class SumSet:
    """The sum set {a_i + b_j / t^2} of an ascending spectrum ``a`` and an ascending base spectrum ``b``
    at t = 1: the spectrum of a tensor sum on the base dilated by t.  Pairs (i, j) are 1-based in i.
    On a continuum base, b_j / t**2 is the division ``scale_spectrum`` performs."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def ordered(self, t: float, top: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sums <= ``top`` at dilation t, as the arrays (value, i, j) ordered by (value, i, j)."""
        sums = np.add.outer(self.a, self.b / t**2)
        rows, cols = np.nonzero(sums <= top)
        order = np.lexsort((cols, rows, sums[rows, cols]))
        rows, cols = rows[order], cols[order]
        return sums[rows, cols], rows + 1, cols

    def counts(self, ts: np.ndarray, mults) -> tuple[np.ndarray, np.ndarray]:
        """Per t of ``ts``, one row each, with b_j of multiplicity ``mults[j]``: the multiplicity of the
        b_j / t^2 in (0, -a_i), one column per a_i < 0, and that of the sums in the zero band
        |a_i + b_j / t^2| < ZERO_REL_TOL * max(1, |a_1|)."""
        neg, tol_zero = self.a[self.a < 0.0], _zero_tol(self.a)
        # t**2 on Python floats, as scale_spectrum squares its factor
        t2 = np.array([float(t) ** 2 for t in ts])
        contributions = np.zeros((t2.size, neg.size), dtype=int)
        zero_mult = np.zeros(t2.size, dtype=int)
        # blocks of about 2**16 (t, b) pairs keep each temporary array near 512 KiB
        step = max(1, (1 << 16) // max(1, self.b.size))
        for lo in range(0, t2.size, step):
            rows = slice(lo, lo + step)
            scaled = self.b[None, :] / t2[rows, None]
            positive = scaled > 0.0
            for i, a in enumerate(neg):
                contributions[rows, i] = (positive & (scaled < -a)) @ mults
            for a in self.a:
                zero_mult[rows] += (np.abs(a + scaled) < tol_zero) @ mults
        return contributions, zero_mult

    def crossing(self, i, j):
        """The dilation sqrt(b_j / -a_i) at which a_i + b_j / t^2 vanishes, for a_i < 0 < b_j; i and j broadcast."""
        return np.sqrt(self.b[j] / -self.a[i - 1])

    def crossings(self, t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``crossing`` t <= t_max * (1 + T_MAX_REL_TOL), as the arrays (t, i, j) ordered by (t, i, j)."""
        neg, pos = np.flatnonzero(self.a < 0.0), np.flatnonzero(self.b > 0.0)
        ts = self.crossing(neg[:, None] + 1, pos)
        rows, cols = np.nonzero(ts <= t_max * (1.0 + T_MAX_REL_TOL))
        ts, i, j = ts[rows, cols], neg[rows] + 1, pos[cols]
        order = np.lexsort((j, i, ts))
        return ts[order], i[order], j[order]


@dataclass
class MorseReport:
    """The Morse formula's terms at t = 1.  ``ground_state_flag`` is lambda_1 < -alpha_1 (a Morse-index-one
    solution on this base is not height-only), read as ``contributions[0] > 0``; False if alpha_1 >= 0."""

    m: int
    m_xn: int
    contributions: list[int]
    degenerate: bool
    zero_multiplicity: int
    ground_state_flag: bool


@dataclass
class BifurcationPoint:
    """A dilation factor at which the one-dimensional solution degenerates."""

    t_bar: float
    pairs: list[tuple[int, int]]
    kernel_multiplicity: int

    @property
    def simple(self) -> bool:
        """A one-dimensional kernel: one pair (i, j) whose lambda_j is simple."""
        return self.kernel_multiplicity == 1


@dataclass(frozen=True)
class MorseSample:
    t: float
    m: int
    degenerate: bool


def _check_sorted(alphas) -> np.ndarray:
    arr = np.asarray(alphas, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("alphas must be a nonempty 1-d sequence")
    if np.any(np.diff(arr) < 0.0):
        raise ValidationError("alphas must be sorted ascending")
    return arr


def _zero_tol(arr: np.ndarray) -> float:
    return ZERO_REL_TOL * max(1.0, abs(float(arr[0])))


def coverage_cutoff(alphas, t_max: float = 1.0, top: float = 0.0) -> float:
    """Base cutoff that completes every sum alpha_i + lambda_j / t^2 <= ``top`` at every
    dilation t <= ``t_max``: (top - alpha_1) t_max^2, floored at zero.  It is padded by
    the zero band and by T_MAX_REL_TOL, which also covers the rounding of lambda_j / t^2
    at the band's edge, so that it holds every lambda_j the queries below read.  Each
    query checks its base against this value."""
    arr = _check_sorted(alphas)
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValidationError(f"t_max must be positive, got {t_max}")
    return (max(top - float(arr[0]), 0.0) + _zero_tol(arr)) * (t_max * (1.0 + T_MAX_REL_TOL)) ** 2


def _covered_sums(alphas, base: BaseSpectrum, t_max: float, top: float, witness: bool) -> SumSet:
    """The sum set of sorted ``alphas`` on ``base``, whose cutoff must complete it up to ``top`` at dilations
    up to ``t_max``; with ``witness``, ``one_dim_morse`` first checks that ``alphas`` holds every negative alpha."""
    arr = _check_sorted(alphas)
    if witness:
        one_dim_morse(arr)
    needed = coverage_cutoff(arr, t_max, top)
    if base.cutoff < needed:
        raise CoverageError(
            f"base spectrum enumerated to {base.cutoff} but sums <= {top} at dilations "
            f"up to {t_max} need eigenvalues up to {needed}"
        )
    return SumSet(arr, base.lambdas)


def compose_spectrum(alphas, base: BaseSpectrum, cutoff: float, t: float = 1.0) -> ComposedSpectrum:
    """Sorted Minkowski-sum multiset {alpha_i + lambda_j / t^2} up to ``cutoff``
    on ``base`` dilated by ``t``.

    The alpha list is taken as the complete 1D spectrum up to its largest
    entry.  Completeness of the composed list below ``cutoff`` additionally
    needs the base enumerated to ``coverage_cutoff(alphas, t, cutoff)``;
    a shorter base raises ``CoverageError``.
    """
    values, i, j = _covered_sums(alphas, base, t, cutoff, False).ordered(t, cutoff)
    return ComposedSpectrum(values, i, j, np.asarray(base.multiplicities)[j])


def morse_index(alphas, base: BaseSpectrum) -> MorseReport:
    """Evaluate the Morse-index formula with multiplicity-weighted counts.

    ``alphas`` must hold every negative alpha, as ``one_dim_morse`` checks."""
    contributions, zero_mult = _covered_sums(alphas, base, 1.0, 0.0, True).counts(np.ones(1), base.multiplicities)
    contributions = [int(c) for c in contributions[0]]
    m_xn = len(contributions)
    m = m_xn + sum(contributions)
    zero_mult = int(zero_mult[0])
    degenerate = zero_mult > 0
    flag = m_xn > 0 and contributions[0] > 0
    return MorseReport(m, m_xn, contributions, degenerate, zero_mult, ground_state_flag=flag)


def degeneracy_times(alphas, base: BaseSpectrum, t_max: float) -> list[BifurcationPoint]:
    """All scalings t <= t_max at which some alpha_i + lambda_j / t^2 = 0.

    ``base`` must describe the unit domain, and ``alphas`` must hold every negative
    alpha, as ``one_dim_morse`` checks: a list without a positive witness raises
    InsufficientSpectrumError rather than drop the crossings of the missing ones.
    Events within relative tolerance 1e-9 of each other are grouped into one point;
    a group fed by more than one (i, j) pair is reported non-simple with a warning,
    never silently merged.
    """
    ts, i_idx, j_idx = _covered_sums(alphas, base, t_max, 0.0, True).crossings(t_max)
    mults = np.asarray(base.multiplicities)[j_idx]
    events = zip(ts.tolist(), i_idx.tolist(), j_idx.tolist(), mults.tolist())

    points: list[BifurcationPoint] = []
    for t, i, j, mult in events:
        if points and t - points[-1].t_bar <= GROUP_REL_TOL * points[-1].t_bar:
            points[-1].pairs.append((i, j))
            points[-1].kernel_multiplicity += mult
            warnings.warn(           # noqa: B028 - caller should see the merge site
                f"distinct mode pairs coincide at t = {t:.12g}; "
                "treating as one non-simple degeneracy",
                stacklevel=2,
            )
        else:
            points.append(BifurcationPoint(t_bar=t, pairs=[(i, j)], kernel_multiplicity=mult))
    return points


def morse_vs_t(alphas, base: BaseSpectrum, t_grid) -> list[MorseSample]:
    """Morse index along a dilation sweep of the base domain.

    Samples landing within the degeneracy tolerance of a crossing are
    flagged; the sequence of indices is a nondecreasing step function whose
    jumps sit at the degeneracy scalings with the kernel multiplicities as
    jump sizes.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("t_grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(ts) & (ts > 0.0)) or np.any(np.diff(ts) <= 0.0):
        raise ValidationError("t_grid must be finite, positive and strictly ascending")
    contributions, zero_mult = _covered_sums(alphas, base, float(ts[-1]), 0.0, True).counts(ts, base.multiplicities)
    m_xn = contributions.shape[1]
    return [
        MorseSample(t=float(t), m=m_xn + int(c), degenerate=bool(z > 0))
        for t, c, z in zip(ts, contributions.sum(axis=1), zero_mult)
    ]

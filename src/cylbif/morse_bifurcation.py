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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .base_spectrum import BaseSpectrum
from .errors import CoverageError, CylbifError, ValidationError
from .sturm_liouville import one_dim_morse

__all__ = [
    "ComposedEntry",
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


@dataclass(frozen=True)
class ComposedEntry:
    """One value alpha_i + lambda_j; i is 1-based, j indexes distinct
    base eigenvalues (j = 0 is the constant mode)."""

    value: float
    i: int
    j: int
    multiplicity: int


@dataclass
class ComposedSpectrum:
    entries: list[ComposedEntry]

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def negative_count(self) -> int:
        return int(sum(e.multiplicity for e in self.entries if e.value < 0.0))


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


def _check_coverage(arr: np.ndarray, base: BaseSpectrum, t_max: float, top: float) -> None:
    needed = coverage_cutoff(arr, t_max, top)
    if base.cutoff < needed:
        raise CoverageError(
            f"base spectrum enumerated to {base.cutoff} but sums <= {top} at dilations "
            f"up to {t_max} need eigenvalues up to {needed}"
        )


def compose_spectrum(alphas, base: BaseSpectrum, cutoff: float, t: float = 1.0) -> ComposedSpectrum:
    """Sorted Minkowski-sum multiset {alpha_i + lambda_j / t^2} up to ``cutoff``
    on ``base`` dilated by ``t``.

    The alpha list is taken as the complete 1D spectrum up to its largest
    entry.  Completeness of the composed list below ``cutoff`` additionally
    needs the base enumerated to ``coverage_cutoff(alphas, t, cutoff)``;
    a shorter base raises ``CoverageError``.  lambda_j / t**2 is the
    division ``scale_spectrum`` performs.
    """
    arr = _check_sorted(alphas)
    _check_coverage(arr, base, t, cutoff)
    sums = np.add.outer(arr, np.asarray(base.lambdas, dtype=float) / t**2)
    rows, cols = np.nonzero(sums <= cutoff)
    values = sums[rows, cols]
    mults = np.asarray(base.multiplicities)
    entries = [
        ComposedEntry(value=float(values[k]), i=int(rows[k]) + 1, j=int(cols[k]), multiplicity=int(mults[cols[k]]))
        for k in np.lexsort((cols, rows, values))
    ]
    return ComposedSpectrum(entries=entries)


def _morse_counts(alphas, base: BaseSpectrum, ts: np.ndarray):
    """Morse-formula terms on the base dilated by each t of the ascending ``ts``, one row per t.

    Returns (alphas, m_xn, contributions, zero multiplicities).
    lambda_j / t**2 is the division ``scale_spectrum`` performs, so each row
    equals the counts on the scaled spectrum bit for bit.
    """
    arr = _check_sorted(alphas)
    m_xn = one_dim_morse(arr)
    tol_zero = _zero_tol(arr)
    _check_coverage(arr, base, float(ts[-1]), 0.0)
    # t**2 on Python floats, as scale_spectrum squares its factor
    t2 = np.array([float(t) ** 2 for t in ts])

    lambdas = np.asarray(base.lambdas)
    mults = np.asarray(base.multiplicities)
    contributions = np.zeros((t2.size, m_xn), dtype=int)
    zero_mult = np.zeros(t2.size, dtype=int)
    # blocks of about 2**16 (t, lambda) pairs keep each temporary array near 512 KiB
    step = max(1, (1 << 16) // max(1, lambdas.size))
    for lo in range(0, t2.size, step):
        rows = slice(lo, lo + step)
        scaled = lambdas[None, :] / t2[rows, None]
        positive = scaled > 0.0
        for i in range(m_xn):
            contributions[rows, i] = (positive & (scaled < -float(arr[i]))) @ mults
        for a in arr:
            zero_mult[rows] += (np.abs(a + scaled) < tol_zero) @ mults
    return arr, m_xn, contributions, zero_mult


def morse_index(alphas, base: BaseSpectrum) -> MorseReport:
    """Evaluate the Morse-index formula with multiplicity-weighted counts.

    The result is cross-validated against the negative-entry count of the
    composed multiset; away from degeneracy the two must agree exactly.
    """
    arr, m_xn, contributions, zero_mult = _morse_counts(alphas, base, np.ones(1))
    contributions = [int(c) for c in contributions[0]]
    m = m_xn + sum(contributions)
    zero_mult = int(zero_mult[0])
    degenerate = zero_mult > 0

    if not degenerate:
        composed = compose_spectrum(arr, base, cutoff=0.0)
        if composed.negative_count() != m:
            raise CylbifError(
                "internal disagreement between the Morse formula "
                f"({m}) and the composed negative count ({composed.negative_count()})"
            )
    flag = m_xn > 0 and contributions[0] > 0
    return MorseReport(m, m_xn, contributions, degenerate, zero_mult, ground_state_flag=flag)


def degeneracy_times(alphas, base: BaseSpectrum, t_max: float) -> list[BifurcationPoint]:
    """All scalings t <= t_max at which some alpha_i + lambda_j / t^2 = 0.

    ``base`` must describe the unit domain.  Events within relative
    tolerance 1e-9 of each other are grouped into one point; a group fed
    by more than one (i, j) pair is reported non-simple with a warning,
    never silently merged.
    """
    arr = _check_sorted(alphas)
    _check_coverage(arr, base, t_max, 0.0)
    neg = np.flatnonzero(arr < 0.0)

    # every (alpha_i < 0, lambda_j > 0) pair at once, ordered by (t, i, j)
    lams = np.asarray(base.lambdas, dtype=float)
    pos = np.flatnonzero(lams > 0.0)
    ts = np.sqrt(lams[pos] / -arr[neg][:, None])
    rows, cols = np.nonzero(ts <= t_max * (1.0 + T_MAX_REL_TOL))
    ts, i_idx, j_idx = ts[rows, cols], neg[rows] + 1, pos[cols]
    order = np.lexsort((j_idx, i_idx, ts))
    mults = np.asarray(base.multiplicities)[j_idx[order]]
    events = zip(ts[order].tolist(), i_idx[order].tolist(), j_idx[order].tolist(), mults.tolist())

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
    _, m_xn, contributions, zero_mult = _morse_counts(alphas, base, ts)
    return [
        MorseSample(t=float(t), m=m_xn + int(c), degenerate=bool(z > 0))
        for t, c, z in zip(ts, contributions.sum(axis=1), zero_mult)
    ]

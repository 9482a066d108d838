"""Composition of the linearized spectrum and the bifurcation scalings.

The full linearized spectrum around a one-dimensional solution is the
Minkowski sum {alpha_i + lambda_j} of the 1D linearization eigenvalues
and the base Neumann eigenvalues.  The Morse index therefore evaluates to

    m = m_xn + sum_{i <= m_xn} #{ j >= 1 : lambda_j < -alpha_i },

with lambda counted with multiplicity, and the solution is degenerate
exactly when some alpha_i + lambda_j vanishes.  Dilating the base by t
rescales lambda_j to lambda_j / t^2, so each pair (alpha_i < 0,
lambda_j > 0) produces the degeneracy scaling t = sqrt(lambda_j / -alpha_i).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .base_spectrum import BaseSpectrum
from .errors import CoverageError, CylbifError, InsufficientSpectrumError, ValidationError

__all__ = [
    "ComposedEntry",
    "ComposedSpectrum",
    "MorseReport",
    "BifurcationPoint",
    "MorseSample",
    "compose_spectrum",
    "morse_index",
    "degeneracy_times",
    "morse_vs_t",
    "ground_state_flag",
]

#: relative tolerance for grouping coincident degeneracy scalings
GROUP_REL_TOL = 1e-9
#: alpha_i + lambda_j counts as zero below this multiple of max(1, |alpha_1|)
ZERO_REL_TOL = 1e-8


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
    m: int
    m_xn: int
    contributions: list[int]
    degenerate: bool
    zero_multiplicity: int


@dataclass
class BifurcationPoint:
    """A dilation factor at which the one-dimensional solution degenerates."""

    t_bar: float
    pairs: list[tuple[int, int]]
    kernel_multiplicity: int
    simple: bool


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


def compose_spectrum(alphas, base: BaseSpectrum, cutoff: float) -> ComposedSpectrum:
    """Sorted Minkowski-sum multiset {alpha_i + lambda_j} up to ``cutoff``.

    The alpha list is taken as the complete 1D spectrum up to its largest
    entry.  Completeness of the composed list below ``cutoff`` additionally
    needs the base enumerated past cutoff - min(alpha); that is certified
    against ``base.cutoff`` and violations raise ``CoverageError``.
    """
    arr = _check_sorted(alphas)
    needed = cutoff - float(arr[0])
    if base.cutoff < needed:
        raise CoverageError(
            f"base spectrum enumerated to {base.cutoff} but sums <= {cutoff} "
            f"need eigenvalues up to {needed}"
        )
    sums = np.add.outer(arr, np.asarray(base.lambdas, dtype=float))
    rows, cols = np.nonzero(sums <= cutoff)
    values = sums[rows, cols]
    mults = np.asarray(base.multiplicities)
    entries = [
        ComposedEntry(value=float(values[k]), i=int(rows[k]) + 1, j=int(cols[k]), multiplicity=int(mults[cols[k]]))
        for k in np.lexsort((cols, rows, values))
    ]
    return ComposedSpectrum(entries=entries)


def _morse_counts(alphas, base: BaseSpectrum, t2: np.ndarray):
    """Morse-formula terms on the base dilated by sqrt(t2), one row per entry of t2.

    Returns (alphas, m_xn, contributions, zero multiplicities).
    lambda_j / t2 is the division ``scale_spectrum`` performs, so each row
    equals the counts on the scaled spectrum bit for bit.
    """
    arr = _check_sorted(alphas)
    if arr[-1] <= 0.0:
        raise InsufficientSpectrumError(
            "need a positive eigenvalue witness to certify the 1D Morse index"
        )
    m_xn = int(np.count_nonzero(arr < 0.0))
    tol_zero = ZERO_REL_TOL * max(1.0, abs(float(arr[0])))

    short = base.cutoff / t2 < -float(arr[0])
    if m_xn > 0 and np.any(short):
        raise CoverageError(
            f"base spectrum enumerated to {float(base.cutoff / t2[np.argmax(short)])} but counts "
            f"need eigenvalues up to {-float(arr[0])}"
        )

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
    return MorseReport(
        m=m,
        m_xn=m_xn,
        contributions=contributions,
        degenerate=degenerate,
        zero_multiplicity=zero_mult,
    )


def degeneracy_times(alphas, base: BaseSpectrum, t_max: float) -> list[BifurcationPoint]:
    """All scalings t <= t_max at which some alpha_i + lambda_j / t^2 = 0.

    ``base`` must describe the unit domain.  Events within relative
    tolerance 1e-9 of each other are grouped into one point; a group fed
    by more than one (i, j) pair is reported non-simple with a warning,
    never silently merged.
    """
    arr = _check_sorted(alphas)
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValidationError(f"t_max must be positive, got {t_max}")
    negatives = arr[arr < 0.0]
    if negatives.size == 0:
        return []
    needed = -float(arr[0]) * t_max**2
    if base.cutoff < needed:
        raise CoverageError(
            f"base spectrum enumerated to {base.cutoff} but scalings up to {t_max} "
            f"need eigenvalues up to {needed}"
        )

    events = []  # (t, i, j, mult)
    for i, a in enumerate(arr, start=1):
        if a >= 0.0:
            continue
        for j, (lam, mult) in enumerate(zip(base.lambdas, base.multiplicities)):
            if lam <= 0.0:
                continue
            t = math.sqrt(float(lam) / (-float(a)))
            if t <= t_max * (1.0 + 1e-12):
                events.append((t, i, j, int(mult)))
    events.sort()

    points: list[BifurcationPoint] = []
    for t, i, j, mult in events:
        if points and t - points[-1].t_bar <= GROUP_REL_TOL * points[-1].t_bar:
            points[-1].pairs.append((i, j))
            points[-1].kernel_multiplicity += mult
            points[-1].simple = False
            warnings.warn(           # noqa: B028 - caller should see the merge site
                f"distinct mode pairs coincide at t = {t:.12g}; "
                "treating as one non-simple degeneracy",
                stacklevel=2,
            )
        else:
            points.append(
                BifurcationPoint(
                    t_bar=t,
                    pairs=[(i, j)],
                    kernel_multiplicity=mult,
                    simple=(mult == 1),
                )
            )
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
    # t**2 on Python floats, as scale_spectrum squares its factor
    t2 = np.array([float(t) ** 2 for t in ts])
    _, m_xn, contributions, zero_mult = _morse_counts(alphas, base, t2)
    return [
        MorseSample(t=float(t), m=m_xn + int(c), degenerate=bool(z > 0))
        for t, c, z in zip(ts, contributions.sum(axis=1), zero_mult)
    ]


def ground_state_flag(alphas, base: BaseSpectrum) -> bool:
    """True iff lambda_1 < -alpha_1, i.e. any Morse-index-one solution of
    the problem on this base cannot be one-dimensional."""
    arr = _check_sorted(alphas)
    if arr[0] >= 0.0:
        raise ValidationError("ground-state test needs a negative leading eigenvalue")
    positive = np.asarray(base.lambdas) > 0.0
    if not np.any(positive):
        raise CoverageError("base spectrum holds no positive eigenvalue; raise the cutoff")
    lam1 = float(np.asarray(base.lambdas)[positive][0])
    return lam1 < -float(arr[0])

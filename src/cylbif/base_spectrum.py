"""Neumann eigenvalues of the base cross-section and their scalings.

Three closed-form/special-function families are supported:

* ``Interval(L)``:     lambda_j = (j pi / L)^2, j >= 0;
* ``Rectangle(a, b)``: lambda = (m pi / a)^2 + (n pi / b)^2, m, n >= 0;
* ``Disk(R)``:         lambda = (j'_{nu,k} / R)^2 over the positive zeros
  of the Bessel derivative J_nu', with angular multiplicity 2 for nu >= 1,
  plus the constant mode lambda_0 = 0.

Disk zeros are found in two stages.  A pi/4 scan of J_nu' brackets the
zeros of every nu, in chunks of x with the mode budget checked after each,
and one safeguarded Newton iteration then polishes every bracket of every
nu together.  Both take their Bessel values from one numpy kernel, Miller's
backward recurrence J_(n-1) = (2n/x) J_n - J_(n+1): started above the
orders and the point, normalised by J_0 + 2 sum_k J_2k = 1, rescaled before
it overflows, with J_nu' = (J_(nu-1) - J_(nu+1)) / 2 and J_0' = -J_1.  One
pass gives every order at every point, so the scan takes one pass per
chunk and the polish one per Newton step.  The module needs numpy alone.

Dilating the base by t divides every eigenvalue by t^2 and preserves
multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError, from_spec

__all__ = [
    "Interval",
    "Rectangle",
    "Disk",
    "BaseDomain",
    "BaseSpectrum",
    "neumann_eigenvalues",
    "scale_spectrum",
    "domain_from_dict",
]

#: relative tolerance for merging numerically equal eigenvalues; only an exact 0 merges with 0
MERGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    length: float

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise ValidationError(f"interval length must be positive, got {self.length}")


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0.0 and np.isfinite(self.b) and self.b > 0.0):
            raise ValidationError(f"rectangle sides must be positive, got {self.a} x {self.b}")


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValidationError(f"disk radius must be positive, got {self.radius}")


BaseDomain = Interval | Rectangle | Disk


@dataclass
class BaseSpectrum:
    """Distinct Neumann eigenvalues with multiplicities and mode labels.

    ``lambdas[0] == 0`` with multiplicity 1 (the constant eigenfunction).
    ``labels[j]`` lists the contributing mode indices of the j-th distinct
    value.  ``cutoff`` certifies completeness: every eigenvalue <= cutoff
    is present.
    """

    lambdas: np.ndarray
    multiplicities: np.ndarray
    labels: list[list[tuple]]
    cutoff: float


def _merge(raw: list[tuple[float, int, tuple]], cutoff: float) -> BaseSpectrum:
    raw.sort(key=lambda item: item[0])
    values: list[float] = []
    mults: list[int] = []
    labels: list[list[tuple]] = []
    for lam, mult, label in raw:
        if values and lam - values[-1] <= MERGE_REL_TOL * values[-1]:
            mults[-1] += mult
            labels[-1].append(label)
        else:
            values.append(lam)
            mults.append(mult)
            labels.append([label])
    return BaseSpectrum(
        lambdas=np.array(values),
        multiplicities=np.array(mults, dtype=int),
        labels=labels,
        cutoff=float(cutoff),
    )


#: scan points per chunk of the disk scan; the mode budget is checked after each chunk
_SCAN_CHUNK = 64
#: a column of the Bessel recurrence is rescaled by 2^-600 once it passes 2^600
_RESCALE = 2.0**600


def _bessel_j(x: np.ndarray, low: np.ndarray, count: int) -> np.ndarray:
    """Rows ``J_(low_p + r)(x_p)``, r = 0 .. count - 1, at points x_p > 0 with ascending orders low_p >= 0.

    One backward pass of J_(n-1) = (2n/x) J_n - J_(n+1) gives every order at every point (Miller 1952;
    Gautschi, SIAM Review 9, 1967; Abramowitz & Stegun 9.12).  Column p starts from J_(t+1) = 0, J_t = 1
    at t = m + 13 m^(1/3) + 12, m = x_p + 8, where J_t(x_p) is below 1e-17 of every order up to m, and is
    normalised by J_0 + 2 sum_k J_2k = 1.  So a column depends on its own point alone, and orders above
    x_p + 8 are outside the accuracy (zero from t on).  Below x_p the recurrence grows fast, so a column
    that passes 2^600 is rescaled, with what it has stored, by 2^-600.
    """
    out = np.zeros((count, x.size))
    if not x.size:
        return out
    m = x + 8.0
    start = (m + 13.0 * np.cbrt(m) + 12.0).astype(int)
    order = np.argsort(start, kind="stable")
    levels, at = np.unique(start[order], return_index=True)
    seeds = dict(zip(levels.tolist(), np.split(order, at[1:])))  # n -> the columns that start at n
    top = int(levels[-1])
    low_min, low_max = int(low[0]), int(low[-1])
    bounds = np.searchsorted(low, np.arange(top + 2)).tolist()  # the columns with low = v: bounds[v]:bounds[v + 1]
    two_over_x = 2.0 / x
    prev, cur, even_sum = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    for n in range(top, -1, -1):
        if n in seeds:
            cur[seeds[n]] = 1.0
        for r in range(max(0, n - low_max), min(count - 1, n - low_min) + 1):
            s, e = bounds[n - r], bounds[n - r + 1]
            out[r, s:e] = cur[s:e]
        if n == 0:
            break
        if n % 2 == 0:
            even_sum += cur
        prev, cur = cur, (n * two_over_x) * cur - prev
        if np.abs(cur).max() > _RESCALE:
            scale = np.where(np.abs(cur) > _RESCALE, 1.0 / _RESCALE, 1.0)
            for values in (prev, cur, even_sum, out):
                values *= scale
    out /= cur + 2.0 * even_sum
    return out


def _mcmahon_jprime_guess(nu, k: int):
    beta = (k + 0.5 * nu - 0.75) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu + 3.0) / (8.0 * beta)


def _jprime_brackets(upper: float, rotation_invariant: bool):
    """Brackets of the positive zeros of every d/dx J_nu(x) below ``upper``, one chunk of the scan at a time.

    The scan points 0.05 + i pi/4 run to the first one past ``upper``; consecutive zeros lie more than pi
    apart, so no scan step holds two.  Order nu is scanned from the last point at or below the McMahon
    first-zero guess less 2 pi, clipped below nu (the first zero always exceeds nu).  Each chunk of
    _SCAN_CHUNK steps takes every order it needs at its points from one Bessel pass, and yields
    ``(nu, lo, hi, g_lo, g_hi)``: the bracket ends in increasing order and J_nu' there, ordered by nu and
    then x.  A scan point where J_nu' is exactly zero is its own bracket, with ``hi == lo``.  Only the last
    bracket of each nu may straddle ``upper``.  ``rotation_invariant`` scans nu = 0 alone.
    """
    step = math.pi / 4.0
    xs = 0.05 + step * np.arange(int(max(upper - 0.05, 0.0) / step) + 2)
    nus = np.zeros(1, dtype=int) if rotation_invariant else np.arange(int(xs[-1]) + 1)
    start = np.maximum(0.05, np.minimum(_mcmahon_jprime_guess(nus, 1) - 2.0 * math.pi, nus))
    first = np.floor((start - 0.05) / step).astype(int)  # ascending with nu
    for a in range(0, xs.size - 1, _SCAN_CHUNK):
        b = min(a + _SCAN_CHUNK, xs.size - 1)  # the steps (i, i + 1) for a <= i < b
        rows = int(np.count_nonzero(first < b))
        points = xs[a : b + 1]
        j = _bessel_j(points, np.zeros(points.size, dtype=int), rows + 1)
        vals = np.concatenate([-j[1:2], 0.5 * (j[:-2] - j[2:])])  # J_0' = -J_1, J_nu' = (J_(nu-1) - J_(nu+1)) / 2
        exact = vals[:, :-1] == 0.0
        hit = (exact | (vals[:, :-1] * vals[:, 1:] < 0.0)) & (np.arange(a, b) >= first[:rows, None])
        nu, at = np.nonzero(hit)
        end = np.where(exact[nu, at], at, at + 1)
        yield nu, points[at], points[end], vals[nu, at], vals[nu, end]


def _polish_jprime_zeros(nu, lo, hi, g_lo, g_hi) -> np.ndarray:
    """The zero of J_nu' in each bracket, every bracket polished together; ``nu`` is ascending.

    Newton from the bracket's secant point, with J_nu'' from the Bessel ODE,
    safeguarded by bisection; one Bessel pass per iteration covers all
    brackets still open.  A bracket is done once J_nu' vanishes at its
    iterate or the Newton step is below 1e-15 relative.  That test runs
    before the safeguard: a converged step rounds onto the iterate, which
    has just become a bracket end, and the strict bracket test would throw
    it away for bisections down to the last bit.
    """
    out = lo.copy()  # a bracket with hi == lo is an exact zero
    idx = np.flatnonzero(hi > lo)
    nu, lo, hi, g_lo, g_hi = nu[idx], lo[idx], hi[idx], g_lo[idx], g_hi[idx]
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    for _ in range(60):
        if not idx.size:
            break
        # J_(nu-1), J_nu, J_(nu+1) at each iterate; J_0, J_1, J_2 for nu = 0
        j = _bessel_j(x, np.maximum(nu - 1, 0), 3)
        zeroth = nu == 0
        g = np.where(zeroth, -j[1], 0.5 * (j[0] - j[2]))
        # J'' from x^2 J'' + x J' + (x^2 - nu^2) J = 0
        gp = (nu * nu / (x * x) - 1.0) * np.where(zeroth, j[0], j[1]) - g / x
        with np.errstate(divide="ignore", invalid="ignore"):
            x_newton = x - g / gp
        done = (g == 0.0) | (np.abs(x_newton - x) <= 1e-15 * np.maximum(1.0, np.abs(x)))
        out[idx[done]] = np.where(g == 0.0, x, x_newton)[done]
        same_side = g * g_lo > 0.0
        lo = np.where(same_side, x, lo)
        hi = np.where(same_side, hi, x)
        x = np.where((lo < x_newton) & (x_newton < hi), x_newton, 0.5 * (lo + hi))
        keep = ~done
        idx, nu, lo, hi, g_lo, x = idx[keep], nu[keep], lo[keep], hi[keep], g_lo[keep], x[keep]
    out[idx] = x
    return out


def _interval_lambdas(length: float, cutoff: float, max_modes: int) -> list[float]:
    """(j pi / length)^2 for every j >= 0 whose value is <= cutoff.  The floor of
    length sqrt(cutoff) / pi only sizes the scan, one past it in case it rounded down."""
    j_max = int(math.floor(length * math.sqrt(cutoff) / math.pi)) + 1
    if j_max > max_modes:
        raise ResourceLimitError(f"interval enumeration needs {j_max} modes > budget {max_modes}")
    return [lam for lam in ((j * math.pi / length) ** 2 for j in range(j_max + 1)) if lam <= cutoff]


def neumann_eigenvalues(
    domain: BaseDomain,
    cutoff: float,
    *,
    max_modes: int = 200_000,
    rotation_invariant: bool = False,
) -> BaseSpectrum:
    """All Neumann eigenvalues of the base domain up to ``cutoff``.

    ``rotation_invariant`` restricts a Disk base to its rotation-invariant
    modes (angular index 0), which are all simple; it is ignored for the
    other variants.  Membership is decided on each stored eigenvalue, so one
    equal to ``cutoff`` is present.
    """
    if not (np.isfinite(cutoff) and cutoff > 0.0):
        raise ValidationError(f"cutoff must be positive, got {cutoff}")

    raw: list[tuple[float, int, tuple]] = []
    if isinstance(domain, Interval):
        raw = [(lam, 1, (j,)) for j, lam in enumerate(_interval_lambdas(domain.length, cutoff, max_modes))]
    elif isinstance(domain, Rectangle):
        side_a, side_b = (_interval_lambdas(side, cutoff, max_modes) for side in (domain.a, domain.b))
        if len(side_a) * len(side_b) > max_modes:
            raise ResourceLimitError(f"rectangle enumeration needs {len(side_a) * len(side_b)} modes > budget {max_modes}")
        sums = ((lam_m + lam_n, (m, n)) for m, lam_m in enumerate(side_a) for n, lam_n in enumerate(side_b))
        raw = [(lam, 1, label) for lam, label in sums if lam <= cutoff]
    elif isinstance(domain, Disk):
        r = domain.radius
        raw.append((0.0, 1, (0, 0)))
        upper = math.sqrt(cutoff) * r
        parts = []
        below = 1  # modes surely below the cutoff, checked against the budget before any polish
        for part in _jprime_brackets(upper, rotation_invariant):
            parts.append(part)
            below += int(np.count_nonzero(part[2] <= upper))
            if below > max_modes:
                raise ResourceLimitError(f"disk enumeration exceeded budget {max_modes}")
        columns = [np.concatenate(column) for column in zip(*parts)]
        order = np.argsort(columns[0], kind="stable")  # the chunks ascend in x: by nu, then x
        nus, lo, hi, g_lo, g_hi = (column[order] for column in columns)
        zeros = _polish_jprime_zeros(nus, lo, hi, g_lo, g_hi)
        ks = np.arange(nus.size) - np.searchsorted(nus, nus) + 1  # rank of each zero within its nu
        for nu, k, z in zip(nus.tolist(), ks.tolist(), zeros.tolist()):
            if (z / r) ** 2 <= cutoff:  # only the last bracket of each nu can straddle upper
                raw.append(((z / r) ** 2, 1 if nu == 0 else 2, (nu, k)))
        if len(raw) > max_modes:
            raise ResourceLimitError(f"disk enumeration exceeded budget {max_modes}")
    else:
        raise ValidationError(f"unsupported base domain {domain!r}")

    spec = _merge(raw, cutoff)
    if spec.lambdas[0] != 0.0 or spec.multiplicities[0] != 1:
        raise ValidationError("internal error: constant mode missing or not simple")
    return spec


def scale_spectrum(spec: BaseSpectrum, t: float) -> BaseSpectrum:
    """Spectrum of the base dilated by t: every eigenvalue divided by t^2."""
    if not (np.isfinite(t) and t > 0.0):
        raise ValidationError(f"scaling factor must be positive, got {t}")
    return BaseSpectrum(
        lambdas=spec.lambdas / t**2,
        multiplicities=spec.multiplicities.copy(),
        labels=[list(entry) for entry in spec.labels],
        cutoff=spec.cutoff / t**2,
    )


def domain_from_dict(data: dict) -> BaseDomain:
    """Parse the run-configuration encoding of a base domain."""
    return from_spec(data, "base", {"interval": Interval, "rectangle": Rectangle, "disk": Disk})

"""Neumann eigenvalues of the base cross-section and their scalings.

Three closed-form/special-function families are supported:

* ``Interval(L)``:     lambda_j = (j pi / L)^2, j >= 0;
* ``Rectangle(a, b)``: lambda = (m pi / a)^2 + (n pi / b)^2, m, n >= 0;
* ``Disk(R)``:         lambda = (j'_{nu,k} / R)^2 over the positive zeros
  of the Bessel derivative J_nu', with angular multiplicity 2 for nu >= 1,
  plus the constant mode lambda_0 = 0.

Disk zeros are found in two array passes: a pi/4 scan of J_nu' brackets
the zeros of one nu at a time, with the mode budget checked after each nu,
and one safeguarded Newton iteration then polishes every bracket of every
nu together.  Only these two helpers import ``scipy.special``, so interval
and rectangle bases never load it.

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


def _mcmahon_jprime_guess(nu: float, k: int) -> float:
    beta = (k + 0.5 * nu - 0.75) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu + 3.0) / (8.0 * beta)


def _jprime_brackets(nu: int, upper: float) -> tuple[np.ndarray, ...]:
    """Brackets of the positive zeros of d/dx J_nu(x) below ``upper``.

    A pi/4-spaced scan, one array call, starts from the McMahon first-zero
    guess clipped below nu (the first zero always exceeds nu); consecutive
    zeros lie more than pi apart, so no scan step holds two.  Returns
    ``(lo, hi, g_lo, g_hi)``: the bracket ends in increasing order and
    J_nu' there.  A scan point where J_nu' is exactly zero is its own
    bracket, with ``hi == lo``.  Only the last bracket may straddle ``upper``.
    """
    from scipy import special

    start = 0.05
    if nu >= 1:
        start = max(0.05, min(_mcmahon_jprime_guess(nu, 1) - 2.0 * math.pi, float(nu)))
    step = math.pi / 4.0
    xs = np.arange(start, upper + step, step)
    if xs.size < 2:
        return (np.empty(0),) * 4
    vals = special.jvp(nu, xs)
    exact = vals[:-1] == 0.0
    at = np.flatnonzero(exact | (vals[:-1] * vals[1:] < 0.0))
    hi = np.where(exact[at], at, at + 1)
    return xs[at], xs[hi], vals[at], vals[hi]


def _polish_jprime_zeros(nu, lo, hi, g_lo, g_hi) -> np.ndarray:
    """The zero of J_nu' in each bracket, every bracket polished together.

    Newton from the bracket's secant point, with J_nu'' from the Bessel ODE,
    safeguarded by bisection; two Bessel calls per iteration cover all
    brackets still open.  A bracket is done once J_nu' vanishes at its
    iterate or the Newton step is below 1e-15 relative.  That test runs
    before the safeguard: a converged step rounds onto the iterate, which
    has just become a bracket end, and the strict bracket test would throw
    it away for bisections down to the last bit.
    """
    from scipy import special

    out = lo.copy()  # a bracket with hi == lo is an exact zero
    idx = np.flatnonzero(hi > lo)
    nu, lo, hi, g_lo, g_hi = nu[idx], lo[idx], hi[idx], g_lo[idx], g_hi[idx]
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    for _ in range(60):
        if not idx.size:
            break
        g = special.jvp(nu, x)
        # J'' from x^2 J'' + x J' + (x^2 - nu^2) J = 0
        gp = (nu * nu / (x * x) - 1.0) * special.jv(nu, x) - g / x
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
    other variants.
    """
    if not (np.isfinite(cutoff) and cutoff > 0.0):
        raise ValidationError(f"cutoff must be positive, got {cutoff}")

    raw: list[tuple[float, int, tuple]] = []
    if isinstance(domain, Interval):
        j_max = int(math.floor(domain.length * math.sqrt(cutoff) / math.pi))
        if j_max + 1 > max_modes:
            raise ResourceLimitError(f"interval enumeration needs {j_max + 1} modes > budget {max_modes}")
        for j in range(j_max + 1):
            raw.append(((j * math.pi / domain.length) ** 2, 1, (j,)))
    elif isinstance(domain, Rectangle):
        m_max = int(math.floor(domain.a * math.sqrt(cutoff) / math.pi))
        n_max = int(math.floor(domain.b * math.sqrt(cutoff) / math.pi))
        if (m_max + 1) * (n_max + 1) > max_modes:
            raise ResourceLimitError(
                f"rectangle enumeration needs {(m_max + 1) * (n_max + 1)} modes > budget {max_modes}"
            )
        for m in range(m_max + 1):
            lam_m = (m * math.pi / domain.a) ** 2
            for n in range(n_max + 1):
                lam = lam_m + (n * math.pi / domain.b) ** 2
                if lam <= cutoff:
                    raw.append((lam, 1, (m, n)))
    elif isinstance(domain, Disk):
        r = domain.radius
        raw.append((0.0, 1, (0, 0)))
        upper = math.sqrt(cutoff) * r
        parts = []
        below = 1  # modes surely below the cutoff, checked against the budget before any polish
        nu = 0
        while True:
            lo, hi, g_lo, g_hi = _jprime_brackets(nu, upper)
            if not lo.size and nu >= 1:
                break  # first zeros increase with nu, nothing further fits
            parts.append((np.full(lo.size, nu), lo, hi, g_lo, g_hi))
            below += int(np.count_nonzero(hi <= upper))
            if below > max_modes:
                raise ResourceLimitError(f"disk enumeration exceeded budget {max_modes}")
            if rotation_invariant:
                break
            nu += 1
        nus, lo, hi, g_lo, g_hi = (np.concatenate(column) for column in zip(*parts))
        zeros = _polish_jprime_zeros(nus, lo, hi, g_lo, g_hi)
        ks = np.arange(nus.size) - np.searchsorted(nus, nus) + 1  # rank of each zero within its nu
        for nu, k, z in zip(nus.tolist(), ks.tolist(), zeros.tolist()):
            if z <= upper:  # only the last bracket of each nu can straddle upper
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

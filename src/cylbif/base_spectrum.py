"""Neumann eigenvalues of the base cross-section and their scalings.

Three closed-form/special-function families are supported:

* ``Interval(L)``:     lambda_j = (j pi / L)^2, j >= 0;
* ``Rectangle(a, b)``: lambda = (m pi / a)^2 + (n pi / b)^2, m, n >= 0;
* ``Disk(R)``:         lambda = (j'_{nu,k} / R)^2 over the positive zeros
  of the Bessel derivative J_nu', with angular multiplicity 2 for nu >= 1,
  plus the constant mode lambda_0 = 0.

Dilating the base by t divides every eigenvalue by t^2 and preserves
multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ResourceLimitError, ValidationError

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

#: relative tolerance for merging numerically equal eigenvalues
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
        if values and lam - values[-1] <= MERGE_REL_TOL * max(1.0, abs(values[-1])):
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


def _jprime_zeros(nu: int, upper: float) -> list[float]:
    """Positive zeros of d/dx J_nu(x) below ``upper``.

    A pi/4-spaced scan brackets each sign change of J_nu'; the scan starts
    from the McMahon first-zero guess clipped below nu (the first zero
    always exceeds nu).  Each bracket is polished by Newton with the second
    derivative from the Bessel ODE, safeguarded by bisection.
    """
    if upper <= 0.0:
        return []
    start = 0.05
    if nu >= 1:
        start = max(0.05, min(_mcmahon_jprime_guess(nu, 1) - 2.0 * math.pi, float(nu)))
    step = math.pi / 4.0
    xs = np.arange(start, upper + step, step)
    if xs.size < 2:
        return []
    vals = special.jvp(nu, xs)
    zeros = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            zeros.append(float(xs[i]))
            continue
        if vals[i] * vals[i + 1] < 0.0:
            zeros.append(_polish_jprime_zero(nu, float(xs[i]), float(xs[i + 1])))
    return [z for z in zeros if z <= upper]


def _polish_jprime_zero(nu: int, lo: float, hi: float) -> float:
    g_lo = special.jvp(nu, lo)
    x = 0.5 * (lo + hi)
    for _ in range(60):
        g = special.jvp(nu, x)
        if g == 0.0:
            return x
        if g * g_lo < 0.0:
            hi = x
        else:
            lo = x
        # J'' from x^2 J'' + x J' + (x^2 - nu^2) J = 0
        gp = (nu * nu / (x * x) - 1.0) * special.jv(nu, x) - g / x
        x_new = x - g / gp if gp != 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


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
            if lam_m > cutoff:
                continue
            for n in range(n_max + 1):
                lam = lam_m + (n * math.pi / domain.b) ** 2
                if lam <= cutoff:
                    raw.append((lam, 1, (m, n)))
    elif isinstance(domain, Disk):
        r = domain.radius
        raw.append((0.0, 1, (0, 0)))
        upper = math.sqrt(cutoff) * r
        nu = 0
        while True:
            zeros = _jprime_zeros(nu, upper)
            if not zeros and nu >= 1:
                break  # first zeros increase with nu, nothing further fits
            for k, z in enumerate(zeros, start=1):
                mult = 1 if nu == 0 else 2
                raw.append(((z / r) ** 2, mult, (nu, k)))
            if len(raw) > max_modes:
                raise ResourceLimitError(f"disk enumeration exceeded budget {max_modes}")
            if rotation_invariant:
                break
            nu += 1
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
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"base spec must be a dict with a 'type' key, got {data!r}")
    kind = data["type"]
    try:
        if kind == "interval":
            return Interval(length=float(data["length"]))
        if kind == "rectangle":
            return Rectangle(a=float(data["a"]), b=float(data["b"]))
        if kind == "disk":
            return Disk(radius=float(data["radius"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or non-numeric field for base type {kind!r}: {exc}") from exc
    raise ValidationError(f"unknown base type {kind!r}")

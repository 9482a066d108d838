"""Reaction terms f and their admissibility checks.

Two parametric families are supported, both odd with f(0) = 0:

* ``LaneEmden(p)``:    f(s) = |s|**(p-2) * s, admissible for p > 2;
* ``CubicFamily(c1, c3)``: f(s) = c1*s + c3*s**3 with c1 >= 0, c3 > 0.

Admissibility means the superlinear inequality f'(s) > f(s)/s for s != 0
and the sign condition s*f(s) > 0 for s != 0.  A ``LaneEmden`` model with
p <= 2 can be constructed (so the failure path is exercisable) but is
flagged by :func:`check_hypotheses`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "LaneEmden",
    "CubicFamily",
    "NonlinearityModel",
    "HypothesisReport",
    "eval_f",
    "eval_fprime",
    "eval_F",
    "check_hypotheses",
    "model_from_dict",
]


@dataclass(frozen=True)
class LaneEmden:
    """f(s) = |s|**(p-2) * s.  p <= 2 is constructible but inadmissible."""

    p: float

    def __post_init__(self):
        if not np.isfinite(self.p):
            raise ValidationError("LaneEmden exponent must be finite")


@dataclass(frozen=True)
class CubicFamily:
    """f(s) = c1*s + c3*s**3."""

    c1: float
    c3: float

    def __post_init__(self):
        if not (np.isfinite(self.c3) and self.c3 > 0.0):
            raise ValidationError(f"CubicFamily requires c3 > 0, got {self.c3}")
        if not (np.isfinite(self.c1) and self.c1 >= 0.0):
            raise ValidationError(f"CubicFamily requires c1 >= 0, got {self.c1}")


NonlinearityModel = LaneEmden | CubicFamily


@dataclass
class HypothesisReport:
    """Outcome of the pointwise admissibility checks on a sample set."""

    superlinear: bool
    sign: bool
    superlinear_failures: list[float] = field(default_factory=list)
    sign_failures: list[float] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.superlinear and self.sign


def _as_array(s):
    arr = np.asarray(s, dtype=float)
    return arr, arr.ndim == 0


def eval_f(model: NonlinearityModel, s):
    """Evaluate f(s).  Accepts scalars or arrays; odd in s."""
    arr, scalar = _as_array(s)
    if isinstance(model, LaneEmden):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(arr == 0.0, 0.0, np.abs(arr) ** (model.p - 2.0) * arr)
    else:
        # plain products keep f exactly odd in floating point
        out = model.c1 * arr + model.c3 * (arr * arr * arr)
    return float(out) if scalar else out


def eval_fprime(model: NonlinearityModel, s):
    """Evaluate f'(s).  Continuous at s = 0 for LaneEmden only when p > 2."""
    arr, scalar = _as_array(s)
    if isinstance(model, LaneEmden):
        p = model.p
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (p - 1.0) * np.abs(arr) ** (p - 2.0)
            at_zero = 0.0 if p > 2.0 else (p - 1.0 if p == 2.0 else np.inf)
            out = np.where(arr == 0.0, at_zero, body)
    else:
        out = model.c1 + 3.0 * model.c3 * (arr * arr)
    return float(out) if scalar else out


def eval_F(model: NonlinearityModel, s):
    """Evaluate the primitive F(s) = integral of f from 0 to s.  Even, F(0) = 0."""
    arr, scalar = _as_array(s)
    if isinstance(model, LaneEmden):
        out = np.abs(arr) ** model.p / model.p
    else:
        sq = arr * arr
        out = 0.5 * model.c1 * sq + 0.25 * model.c3 * (sq * sq)
    return float(out) if scalar else out


def check_hypotheses(model: NonlinearityModel, samples) -> HypothesisReport:
    """Check the superlinear and sign conditions at each nonzero sample.

    Raises ``ValidationError`` when the sample list is empty or contains 0,
    where neither quotient f(s)/s nor the sign condition is defined.
    """
    samples = [float(s) for s in samples]
    if not samples:
        raise ValidationError("hypothesis check requires a nonempty sample list")
    if any(s == 0.0 for s in samples):
        raise ValidationError("hypothesis samples must exclude 0")

    superlinear_failures = []
    sign_failures = []
    for s in samples:
        if not eval_fprime(model, s) > eval_f(model, s) / s:
            superlinear_failures.append(s)
        if not s * eval_f(model, s) > 0.0:
            sign_failures.append(s)
    return HypothesisReport(
        superlinear=not superlinear_failures,
        sign=not sign_failures,
        superlinear_failures=superlinear_failures,
        sign_failures=sign_failures,
    )


def default_hypothesis_samples() -> list[float]:
    """Log-spaced sample grid on [1e-3, 1e3], both signs."""
    grid = np.logspace(-3.0, 3.0, 13)
    return [float(s) for s in np.concatenate([-grid[::-1], grid])]


def model_from_dict(data: dict) -> NonlinearityModel:
    """Parse the run-configuration encoding of a reaction term."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"model spec must be a dict with a 'type' key, got {data!r}")
    kind = data["type"]
    if kind == "lane_emden":
        try:
            return LaneEmden(p=float(data["p"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("lane_emden model requires a numeric field 'p'") from exc
    if kind == "cubic":
        try:
            return CubicFamily(c1=float(data["c1"]), c3=float(data["c3"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("cubic model requires numeric fields 'c1' and 'c3'") from exc
    raise ValidationError(f"unknown model type {kind!r}")

"""Reaction terms f and their admissibility checks.

Two parametric families are supported, both odd with f(0) = 0:

* ``LaneEmden(p)``:    f(s) = |s|**(p-2) * s, admissible for p > 2;
* ``CubicFamily(c1, c3)``: f(s) = c1*s + c3*s**3 with c1 >= 0, c3 > 0.

Admissibility means the superlinear inequality f'(s) > f(s)/s for s != 0
and the sign condition s*f(s) > 0 for s != 0.  Both have closed forms, so
:func:`check_hypotheses` decides them from the parameters: a ``LaneEmden``
model is admissible exactly when p > 2, and every ``CubicFamily`` model is.
A ``LaneEmden`` model with p <= 2 can be constructed (so the failure path is
exercisable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, from_spec

__all__ = [
    "LaneEmden",
    "CubicFamily",
    "NonlinearityModel",
    "HypothesisReport",
    "eval_f",
    "eval_fprime",
    "eval_F",
    "check_hypotheses",
    "default_hypothesis_samples",
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
    """Outcome of the admissibility checks."""

    superlinear: bool
    sign: bool

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


def check_hypotheses(model: NonlinearityModel) -> HypothesisReport:
    """Decide the superlinear and sign conditions from the parameters.

    For s != 0, LaneEmden has f'(s) - f(s)/s = (p - 2)|s|^(p-2) and
    s f(s) = |s|^p, the cubic 2 c3 s^2 and c1 s^2 + c3 s^4.  So LaneEmden is
    superlinear exactly when p > 2, and the cubic, whose constructor enforces
    c1 >= 0 and c3 > 0, always is; both always satisfy the sign condition.
    """
    return HypothesisReport(superlinear=not isinstance(model, LaneEmden) or model.p > 2.0, sign=True)


def default_hypothesis_samples() -> list[float]:
    """Log-spaced sample grid on [1e-3, 1e3], both signs: the rows of check-f's table."""
    grid = np.logspace(-3.0, 3.0, 13)
    return [float(s) for s in np.concatenate([-grid[::-1], grid])]


def model_from_dict(data: dict) -> NonlinearityModel:
    """Parse the run-configuration encoding of a reaction term."""
    return from_spec(data, "model", {"lane_emden": LaneEmden, "cubic": CubicFamily})

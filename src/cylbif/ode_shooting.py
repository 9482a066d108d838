"""Shooting solver for -u'' = f(u) on (0,1) with u'(0) = u(1) = 0.

The initial-value problem u(0) = a, u'(0) = 0 is integrated with classical
fixed-step RK4; the amplitude a is then located by a geometric scan that
classifies trajectories by their interior sign-change count, followed by
bisection of the terminal value u(1; a) inside the window whose count is
exactly n-1.  Sign-changing solutions with any prescribed number of nodal
domains n >= 1 are reachable this way because the terminal value flips sign
between consecutive quarter-period counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    IntegrationOverflowError,
    NoSolutionError,
    NonConvergenceError,
    ValidationError,
)
from .nonlinearity import (
    CubicFamily,
    LaneEmden,
    NonlinearityModel,
    check_hypotheses,
    default_hypothesis_samples,
    eval_f,
)

__all__ = [
    "ShootingConfig",
    "OneDimSolution",
    "integrate_ivp",
    "find_one_dim_solution",
    "count_nodal_domains_1d",
    "residual_check",
]

#: relative threshold used when counting sign changes of a sampled function
SIGN_CHANGE_REL_TOL = 1e-8
#: refinement budget of the window narrowing and of the terminal bisection
MAX_BISECT = 200


@dataclass(frozen=True)
class ShootingConfig:
    """Discretization and search parameters for the amplitude shooting."""

    steps: int = 2000
    amplitude_bracket: tuple[float, float] = (0.05, 200.0)
    tol_amplitude: float = 1e-12
    tol_terminal: float = 1e-10

    def __post_init__(self):
        low, high = self.amplitude_bracket
        if self.steps < 100:
            raise ValidationError(f"ShootingConfig.steps must be >= 100, got {self.steps}")
        if not 0.0 < low < high:
            raise ValidationError(f"amplitude bracket must satisfy 0 < low < high, got {self.amplitude_bracket}")
        if min(self.tol_amplitude, self.tol_terminal) <= 0.0:
            raise ValidationError("shooting tolerances must be positive")


@dataclass
class OneDimSolution:
    """A sampled solution of the mixed boundary value problem on [0,1]."""

    grid: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray
    amplitude: float
    nodal_count: int
    residual: float = math.nan


def _scalar_rhs(model: NonlinearityModel):
    # plain-float closures keep the RK4 inner loop off numpy scalar overhead
    if isinstance(model, LaneEmden):
        q = model.p - 2.0

        def f(u: float) -> float:
            return 0.0 if u == 0.0 else abs(u) ** q * u

    elif isinstance(model, CubicFamily):
        c1, c3 = model.c1, model.c3

        def f(u: float) -> float:
            return c1 * u + c3 * u * u * u

    else:
        raise ValidationError(f"unsupported model {model!r}")
    return f


def integrate_ivp(model: NonlinearityModel, amplitude: float, steps: int):
    """Integrate u'' = -f(u), u(0) = amplitude, u'(0) = 0 over [0,1].

    Classical fourth-order Runge-Kutta with ``steps`` fixed substeps.
    Returns ``(u, du)`` sampled at the ``steps + 1`` uniform nodes.
    Raises ``IntegrationOverflowError`` naming the first node at which the
    state became non-finite.
    """
    if steps < 2:
        raise ValidationError(f"integrate_ivp requires steps >= 2, got {steps}")
    f = _scalar_rhs(model)
    h = 1.0 / steps
    u = float(amplitude)
    v = 0.0
    us = [u]
    vs = [v]
    for j in range(steps):
        try:
            k1u = v
            k1v = -f(u)
            k2u = v + 0.5 * h * k1v
            k2v = -f(u + 0.5 * h * k1u)
            k3u = v + 0.5 * h * k2v
            k3v = -f(u + 0.5 * h * k2u)
            k4u = v + h * k3v
            k4v = -f(u + h * k3u)
            u += h * (k1u + 2.0 * (k2u + k3u) + k4u) / 6.0
            v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        except OverflowError:
            u = math.inf
        if not (math.isfinite(u) and math.isfinite(v)):
            raise IntegrationOverflowError(
                f"non-finite state at node {j + 1} (amplitude {amplitude})", node=j + 1
            )
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def count_nodal_domains_1d(values, tol: float) -> int:
    """1 + number of strict sign changes among samples with |value| > tol."""
    if tol < 0.0:
        raise ValidationError("tolerance must be >= 0")
    v = np.asarray(values, dtype=float)
    live = v[np.abs(v) > tol]
    if live.size == 0:
        raise DegenerateInputError("all samples below tolerance; no sign information")
    signs = np.sign(live)
    return 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))


def _classify(model: NonlinearityModel, amplitude: float, steps: int):
    """Return (interior sign changes, terminal value) for one amplitude."""
    u, _ = integrate_ivp(model, amplitude, steps)
    tol = SIGN_CHANGE_REL_TOL * float(np.max(np.abs(u)))
    changes = count_nodal_domains_1d(u, tol) - 1
    return changes, float(u[-1])


def find_one_dim_solution(
    model: NonlinearityModel, n: int, config: ShootingConfig | None = None
) -> OneDimSolution:
    """Shoot for the solution with exactly ``n`` nodal domains.

    The amplitude window is scanned geometrically (factor 1.25) and each
    trajectory is classified by its interior sign-change count; the window
    boundary between counts n-1 and n is narrowed first, then the terminal
    value is bisected inside it.
    """
    if n < 1:
        raise ValidationError(f"nodal count must be >= 1, got {n}")
    config = config or ShootingConfig()
    report = check_hypotheses(model, default_hypothesis_samples())
    if not report.all_ok:
        raise ValidationError(
            "model fails admissibility: "
            f"superlinear={report.superlinear} sign={report.sign} "
            f"(first offenders {report.superlinear_failures[:2] + report.sign_failures[:2]})"
        )

    low, high = config.amplitude_bracket
    # classification is cheap at a coarser resolution; only the final
    # terminal-value bisection needs the configured step count
    scan_steps = min(config.steps, 600)

    a = low
    prev = None  # (amplitude, changes)
    bracket = None
    while a <= high * 1.0000001:
        changes, _ = _classify(model, a, scan_steps)
        if prev is not None and prev[1] <= n - 1 and changes >= n:
            bracket = (prev[0], a)
            break
        if prev is None and changes >= n:
            raise NoSolutionError(
                f"scan start {low} already has {changes} sign changes; "
                f"no amplitude window with {n - 1} remains above it"
            )
        prev = (a, changes)
        a *= 1.25
    if bracket is None:
        raise NoSolutionError(
            f"no amplitude with {n} nodal domains found in "
            f"[{low}, {high}] (largest count {prev[1] if prev else 'n/a'})"
        )

    # narrow until the bracket endpoints sit in adjacent count classes
    a_lo, a_hi = bracket
    c_lo, _ = _classify(model, a_lo, scan_steps)
    c_hi, _ = _classify(model, a_hi, scan_steps)
    iters = 0
    while not (c_lo == n - 1 and c_hi == n):
        mid = 0.5 * (a_lo + a_hi)
        c_mid, _ = _classify(model, mid, scan_steps)
        if c_mid <= n - 1:
            a_lo, c_lo = mid, c_mid
        else:
            a_hi, c_hi = mid, c_mid
        iters += 1
        if iters > MAX_BISECT:
            raise NonConvergenceError(
                f"could not isolate the count-{n - 1}/{n} amplitude window "
                f"within {MAX_BISECT} refinements"
            )

    # bisect the terminal value at full resolution
    _, t_lo = _classify(model, a_lo, config.steps)
    _, t_hi = _classify(model, a_hi, config.steps)
    if t_lo == 0.0:
        a_star = a_lo
    elif t_hi == 0.0:
        a_star = a_hi
    else:
        if math.copysign(1.0, t_lo) == math.copysign(1.0, t_hi):
            raise NonConvergenceError(
                "terminal value does not change sign across the isolated window; "
                "refine the scan resolution"
            )
        a_star = None
        for _ in range(MAX_BISECT):
            mid = 0.5 * (a_lo + a_hi)
            _, t_mid = _classify(model, mid, config.steps)
            if abs(t_mid) <= config.tol_terminal:
                a_star = mid
                break
            if math.copysign(1.0, t_mid) == math.copysign(1.0, t_lo):
                a_lo, t_lo = mid, t_mid
            else:
                a_hi, t_hi = mid, t_mid
            if a_hi - a_lo <= config.tol_amplitude * max(1.0, a_hi):
                a_star = 0.5 * (a_lo + a_hi)
                break
        if a_star is None:
            raise NonConvergenceError(
                f"terminal bisection did not converge in {MAX_BISECT} iterations",
                residual=abs(t_lo),
            )

    u, du = integrate_ivp(model, a_star, config.steps)
    tol = SIGN_CHANGE_REL_TOL * float(np.max(np.abs(u)))
    count = count_nodal_domains_1d(u, tol)
    if count != n:
        raise NonConvergenceError(
            f"converged amplitude {a_star} yields {count} nodal domains, wanted {n}"
        )
    sol = OneDimSolution(
        grid=np.linspace(0.0, 1.0, config.steps + 1),
        values=u,
        derivative_values=du,
        amplitude=a_star,
        nodal_count=count,
    )
    residual_check(sol, model)
    return sol


def residual_check(sol: OneDimSolution, model: NonlinearityModel) -> float:
    """Max interior defect of -D2 u - f(u) with second-order central D2.

    The value is stored back into ``sol.residual``.
    """
    u = sol.values
    m = u.size - 1
    if m < 4:
        raise ValidationError("residual check needs at least 5 grid nodes")
    h = sol.grid[1] - sol.grid[0]
    d2 = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
    defect = np.max(np.abs(-d2 - eval_f(model, u[1:-1]))) if m > 1 else 0.0
    sol.residual = float(defect)
    return sol.residual

"""Shooting solver for -u'' = f(u) on (0,1) with u'(0) = u(1) = 0.

The solution with n nodal domains spans 2n - 1 quarter periods of u'' = -f(u),
so its amplitude solves (2n - 1) T(a) = 1 for the time map
T(a) = int_0^a du / sqrt(2 (F(a) - F(u))), which decreases strictly because
f(s)/s increases (Chicone 1987).  That root is polished on the RK4 grid:
u(0) = a, u'(0) = 0 is integrated with classical fixed-step RK4 and the
terminal value u(1; a) bisected in a tight bracket around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    eval_F,
    eval_f,
    eval_fprime,
)

__all__ = [
    "ShootingConfig",
    "OneDimSolution",
    "integrate_ivp",
    "find_one_dim_solution",
    "count_nodal_domains_1d",
    "residual_check",
]

#: count_nodal_domains_1d ignores samples up to this multiple of max|values|
SIGN_CHANGE_REL_TOL = 1e-8
#: iteration budget of the terminal bisection
MAX_BISECT = 200


@dataclass(frozen=True)
class ShootingConfig:
    """Discretization and tolerances of the amplitude shooting."""

    steps: int = 2000
    tol_amplitude: float = 1e-12
    tol_terminal: float = 1e-10

    def __post_init__(self):
        if self.steps < 100:
            raise ValidationError(f"ShootingConfig.steps must be >= 100, got {self.steps}")
        if min(self.tol_amplitude, self.tol_terminal) <= 0.0:
            raise ValidationError("shooting tolerances must be positive")


@dataclass
class OneDimSolution:
    """A sampled solution of the mixed boundary value problem on the uniform grid of [0,1]."""

    values: np.ndarray
    derivative_values: np.ndarray
    amplitude: float
    nodal_count: int
    residual: float = math.nan

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.values))


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
            raise IntegrationOverflowError(f"non-finite state at node {j + 1} (amplitude {amplitude})")
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def count_nodal_domains_1d(values) -> int:
    """1 + number of strict sign changes among samples with |value| > SIGN_CHANGE_REL_TOL * max|values|."""
    v = np.asarray(values, dtype=float)
    live = v[np.abs(v) > SIGN_CHANGE_REL_TOL * float(np.max(np.abs(v), initial=0.0))]
    if live.size == 0:
        raise DegenerateInputError("all samples are zero; no sign information")
    signs = np.sign(live)
    return 1 + int(np.count_nonzero(signs[1:] != signs[:-1]))


def _time_map_amplitude(model: NonlinearityModel, n: int) -> float:
    """Root of (2n - 1) T(a) = 1: Gauss-Legendre quadrature of T after
    u = a cos(phi), whose integrand is bounded, and bisection in log a on a
    bracket widened by doubling from a = 1.  T(0+) = pi / (2 sqrt(f'(0))).
    """
    slope = float(eval_fprime(model, 0.0))
    bound = ((2 * n - 1) * math.pi / 2.0) ** 2
    if slope >= bound:
        raise NoSolutionError(
            f"f'(0) = {slope:.6g} >= ((2n - 1) pi/2)^2 = {bound:.6g}: T(a) < T(0+) <= 1/(2n - 1) "
            f"for every amplitude, so no solution has n = {n} nodal domains"
        )
    x, w = np.polynomial.legendre.leggauss(64)
    phi = 0.25 * math.pi * (x + 1.0)

    def below_root(a: float) -> bool:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            drop = eval_F(model, a) - eval_F(model, a * np.cos(phi))
            if not np.all(np.isfinite(drop)):
                raise NoSolutionError(
                    f"F(a) overflows at a = {a:.6g} while (2n - 1) T(a) > 1 for n = {n}: "
                    "the amplitude lies beyond the float range"
                )
            period = 0.25 * math.pi * float(np.dot(w, a * np.sin(phi) / np.sqrt(2.0 * drop)))
        return (2 * n - 1) * period > 1.0

    lo = hi = 1.0
    while below_root(hi):
        lo, hi = hi, 2.0 * hi
    while not below_root(lo):
        if lo < 1e-150:
            raise NoSolutionError(f"(2n - 1) T(a) <= 1 down to a = {lo:.3g}: f'(0) sits at the bound {bound:.6g}")
        lo, hi = 0.5 * lo, lo
    for _ in range(60):
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if below_root(mid) else (lo, mid)
    return math.sqrt(lo) * math.sqrt(hi)


def find_one_dim_solution(
    model: NonlinearityModel, n: int, config: ShootingConfig | None = None
) -> OneDimSolution:
    """Shoot for the solution with exactly ``n`` nodal domains.

    The time map gives the exact amplitude a0.  The RK4 terminal value
    u(1; a) is bracketed by a0 (1 +- delta), delta growing tenfold from 1e-9
    until it changes sign, and bisected; the nodal count and the residual of
    the result are checked.
    """
    if n < 1:
        raise ValidationError(f"nodal count must be >= 1, got {n}")
    config = config or ShootingConfig()
    if not check_hypotheses(model).all_ok:
        # only LaneEmden with p <= 2 is inadmissible
        raise ValidationError(f"model fails admissibility: LaneEmden needs p > 2, got p = {model.p}")

    shot = None  # (amplitude, (u, du)) of the last integration

    def terminal(a: float) -> float:
        nonlocal shot
        shot = (a, integrate_ivp(model, a, config.steps))
        return float(shot[1][0][-1])

    a0 = _time_map_amplitude(model, n)
    delta = 1e-9
    while True:
        a_lo, a_hi = a0 * (1.0 - delta), a0 * (1.0 + delta)
        t_lo = terminal(a_lo)
        if t_lo * terminal(a_hi) <= 0.0:
            break
        if delta >= 0.1:
            raise NonConvergenceError(
                f"u(1; a) keeps its sign on a0 (1 +- {delta:g}) around the time-map amplitude "
                f"a0 = {a0!r}; {config.steps} RK4 steps are too coarse for {n} nodal domains"
            )
        delta *= 10.0

    for _ in range(MAX_BISECT):
        a_star = 0.5 * (a_lo + a_hi)
        t_mid = terminal(a_star)
        if abs(t_mid) <= config.tol_terminal:
            break
        if (t_mid < 0.0) == (t_lo < 0.0):
            a_lo, t_lo = a_star, t_mid
        else:
            a_hi = a_star
        if a_hi - a_lo <= config.tol_amplitude * max(1.0, a_hi):
            a_star = 0.5 * (a_lo + a_hi)
            break
    else:
        raise NonConvergenceError(
            f"terminal bisection did not converge in {MAX_BISECT} iterations", residual=abs(t_lo)
        )

    # a stop on the terminal test has just shot a_star; a stop on the bracket width has not
    u, du = shot[1] if shot[0] == a_star else integrate_ivp(model, a_star, config.steps)
    count = count_nodal_domains_1d(u)
    if count != n:
        raise NonConvergenceError(
            f"converged amplitude {a_star} yields {count} nodal domains, wanted {n}"
        )
    sol = OneDimSolution(
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
    h = 1.0 / m
    d2 = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
    defect = np.max(np.abs(-d2 - eval_f(model, u[1:-1])))
    sol.residual = float(defect)
    return sol.residual

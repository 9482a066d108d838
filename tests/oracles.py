"""Independent reference routines used only by the test suite.

These deliberately avoid the code paths they are meant to check:

* the complete elliptic integral is evaluated by the arithmetic-geometric
  mean, and the Jacobi cn function through its theta-quotient with the
  nome obtained from the AGM (no ODE integration anywhere);
* Lane-Emden shooting amplitudes come from the closed-form time map, a Beta
  function (no quadrature);
* Bessel functions are summed from the defining power series in decimal
  arithmetic and their derivative zeros located by plain bisection (no
  scipy.special);
* Morse counts are brute-forced over all mode pairs;
* 2D nodal domains are counted by flood fill (no scipy.sparse.csgraph);
* tridiagonal eigenpairs come from LAPACK's stebz/stein through scipy's
  eigh_tridiagonal (not the Sturm kernel of sturm_liouville).
"""

from __future__ import annotations

import math
from collections import deque
from decimal import Decimal, localcontext

from scipy.linalg import eigh_tridiagonal


def agm(a: float, b: float) -> float:
    for _ in range(80):
        if abs(a - b) <= 1e-17 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellipk_agm(m: float) -> float:
    """Complete elliptic integral K as a function of the parameter m = k**2."""
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter must be in [0, 1), got {m}")
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))


def lane_emden_amplitude(p: float, n: int) -> float:
    """u(0) of the n-domain solution of -u'' = |u|^(p-2) u, u'(0) = u(1) = 0.

    The quarter period from amplitude a is sqrt(p/2) a^(1 - p/2) B(1/p, 1/2) / p,
    and n nodal domains take 2n - 1 quarter periods on [0, 1].
    """
    log_beta = math.lgamma(1.0 / p) + math.lgamma(0.5) - math.lgamma(1.0 / p + 0.5)
    log_scale = math.log(2 * n - 1) + 0.5 * math.log(p / 2.0) + log_beta - math.log(p)
    return math.exp(2.0 * log_scale / (p - 2.0))


def cubic_quarter_period(c1: float, c3: float, a: float) -> float:
    """Quarter period of u'' = -(c1 u + c3 u^3) from amplitude a: K(m) / sqrt(c1 + c3 a^2)
    with m = c3 a^2 / (2 (c1 + c3 a^2))."""
    s = c1 + c3 * a * a
    return ellipk_agm(0.5 * c3 * a * a / s) / math.sqrt(s)


def _theta2(v: float, q: float) -> float:
    return sum(2.0 * q ** ((n + 0.5) ** 2) * math.cos((2 * n + 1) * v) for n in range(16))


def _theta4(v: float, q: float) -> float:
    return 1.0 + sum(2.0 * (-1.0) ** n * q ** (n * n) * math.cos(2 * n * v) for n in range(1, 16))


def jacobi_cn(u: float, m: float) -> float:
    """cn(u | m) through the theta quotient; valid for any real u."""
    if m == 0.0:
        return math.cos(u)
    big_k = ellipk_agm(m)
    big_kp = ellipk_agm(1.0 - m)
    q = math.exp(-math.pi * big_kp / big_k)
    v = math.pi * u / (2.0 * big_k)
    return (_theta4(0.0, q) / _theta2(0.0, q)) * (_theta2(v, q) / _theta4(v, q))


def bessel_j(nu: int, x: float) -> float:
    """J_nu(x) from the power series, summed in 40-digit decimal arithmetic.

    The alternating series sums terms as large as I_nu(x) ~ e^x / sqrt(2 pi x)
    to a result of order 1/sqrt(x), so doubles would lose about 0.43 x digits
    (J_1(20) would be 4.5e-8 off); 40 digits keep double precision well past
    x = 20.
    """
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x < 0.0:
        raise ValueError("series oracle defined for x >= 0 only")
    with localcontext() as ctx:
        ctx.prec = 40
        half = Decimal(x) / 2
        term = half**nu / math.factorial(nu)
        total = term
        for k in range(1, 400):
            term = -term * half * half / (k * (k + nu))
            total += term
            if k > 0.5 * x and abs(term) < Decimal("1e-30") * max(1, abs(total)):
                break
        return float(total)


def bessel_jprime(nu: int, x: float) -> float:
    if nu == 0:
        return -bessel_j(1, x)
    return bessel_j(nu - 1, x) - (nu / x) * bessel_j(nu, x)


def jprime_zero(nu: int, k: int) -> float:
    """k-th positive zero of d/dx J_nu, by scan plus bisection."""
    if k < 1:
        raise ValueError("zero index must be >= 1")
    step = math.pi / 8.0
    x = 0.05 + (float(nu) if nu >= 1 else 0.0)
    found = 0
    g_prev = bessel_jprime(nu, x)
    for _ in range(4000):
        x_next = x + step
        g_next = bessel_jprime(nu, x_next)
        if g_prev == 0.0:
            found += 1
            if found == k:
                return x
        elif g_prev * g_next < 0.0:
            found += 1
            if found == k:
                lo, hi = x, x_next
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break  # the bracket is down to adjacent doubles
                    g_mid = bessel_jprime(nu, mid)
                    if g_mid == 0.0:
                        return mid
                    if g_mid * g_prev < 0.0:
                        hi = mid
                    else:
                        lo = mid
                return 0.5 * (lo + hi)
        x, g_prev = x_next, g_next
    raise RuntimeError(f"zero {k} of J'_{nu} not found in scan range")


def brute_force_negative_count(alphas, lambdas, multiplicities) -> int:
    """Negative entries of the composed multiset, counted with multiplicity."""
    count = 0
    for a in alphas:
        for lam, mult in zip(lambdas, multiplicities):
            if a + lam < 0.0:
                count += int(mult)
    return count


def flood_fill_domains(u, tol: float) -> int:
    """4-connected constant-sign components of {|u| > tol} in a 2D array, by breadth-first flood fill."""
    sign = [[(v > tol) - (v < -tol) for v in row] for row in u]
    rows, cols = len(sign), len(sign[0])
    seen, count = set(), 0
    for i in range(rows):
        for j in range(cols):
            if sign[i][j] == 0 or (i, j) in seen:
                continue
            count += 1
            seen.add((i, j))
            queue = deque([(i, j)])
            while queue:
                a, b = queue.popleft()
                for c, d in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                    if 0 <= c < rows and 0 <= d < cols and (c, d) not in seen and sign[c][d] == sign[i][j]:
                        seen.add((c, d))
                        queue.append((c, d))
    return count


def lapack_eigenpairs(diag, off, k: int):
    """The k smallest eigenvalues (ascending) and unit eigenvectors (columns)
    of the symmetric tridiagonal matrix, by LAPACK stebz + stein."""
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), lapack_driver="stebz")

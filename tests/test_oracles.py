"""Self-validation of the reference routines before they judge anything else."""

import math

import numpy as np
import scipy.special as ss

from oracles import (
    bessel_j,
    bessel_jprime,
    brute_force_negative_count,
    ellipk_agm,
    jacobi_cn,
    jprime_zero,
)

# literature values (Abramowitz & Stegun tables)
K_HALF = 1.8540746773013719
JP_1_1 = 1.8411837813406593


def test_agm_elliptic_matches_literature():
    assert abs(ellipk_agm(0.5) - K_HALF) < 1e-14
    assert abs(ellipk_agm(0.0) - math.pi / 2) < 1e-15


def test_cn_special_values():
    assert jacobi_cn(0.0, 0.5) == 1.0
    assert abs(jacobi_cn(ellipk_agm(0.5), 0.5)) < 1e-14
    assert abs(jacobi_cn(0.7, 0.0) - math.cos(0.7)) < 1e-14


def test_cn_periodicity():
    big_k = ellipk_agm(0.5)
    for u in (0.3, 1.1, 2.9):
        assert abs(jacobi_cn(u + 4 * big_k, 0.5) - jacobi_cn(u, 0.5)) < 1e-12


def test_cn_agreement_with_scipy():
    us = np.linspace(0.0, 4 * ellipk_agm(0.5), 37)
    _, cn_ref, _, _ = ss.ellipj(us, 0.5)
    worst = max(abs(jacobi_cn(float(u), 0.5) - c) for u, c in zip(us, cn_ref))
    assert worst < 1e-12


def test_bessel_series_against_scipy():
    # the alternating series loses ~x/2 digits to cancellation, hence 1e-9
    for nu in (0, 1, 5, 11):
        for x in (0.3, 1.7, 6.2, 14.9):
            assert abs(bessel_j(nu, x) - ss.jv(nu, x)) < 1e-9


def test_bessel_series_at_large_argument():
    # summed in decimal arithmetic, the series keeps double precision where
    # the disk enumeration is checked (x up to 20 at cutoff 400)
    for nu in (0, 1, 7, 13):
        for x in (15.3, 18.0, 19.9):
            assert abs(bessel_j(nu, x) - ss.jv(nu, x)) < 1e-14


def test_bessel_derivative_zero_literature():
    assert abs(jprime_zero(1, 1) - JP_1_1) < 1e-10
    # J0' = -J1, so its first positive zero is the first zero of J1
    assert abs(jprime_zero(0, 1) - ss.jn_zeros(1, 1)[0]) < 1e-10


def test_bessel_derivative_zero_is_actually_a_zero():
    for nu, k in ((0, 2), (2, 1), (3, 2)):
        z = jprime_zero(nu, k)
        assert abs(bessel_jprime(nu, z)) < 1e-12


def test_brute_force_count():
    alphas = [-5.0, 3.0]
    lambdas = [0.0, 2.0, 7.0]
    mults = [1, 2, 1]
    # negatives: -5+0, -5+2 (x2) -> 3
    assert brute_force_negative_count(alphas, lambdas, mults) == 3

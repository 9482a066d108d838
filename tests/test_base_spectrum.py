import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from cylbif import (
    Disk,
    Interval,
    Rectangle,
    ResourceLimitError,
    ValidationError,
    domain_from_dict,
    neumann_eigenvalues,
    scale_spectrum,
)
from cylbif import base_spectrum
from oracles import jprime_zero

PI2 = math.pi**2


class CountingBessel:
    """Counts the values (orders times points) of each pass of base_spectrum's Bessel kernel, those of
    the scan and those of the polish apart, by wrapping _bessel_j and _polish_jprime_zeros for one test."""

    def __init__(self, monkeypatch):
        self.scan, self.polish = [], []
        self._passes = self.scan
        kernel, polish = base_spectrum._bessel_j, base_spectrum._polish_jprime_zeros

        def counted(x, low, count):
            self._passes.append(count * x.size)
            return kernel(x, low, count)

        def polishing(*args):
            self._passes = self.polish
            return polish(*args)

        monkeypatch.setattr(base_spectrum, "_bessel_j", counted)
        monkeypatch.setattr(base_spectrum, "_polish_jprime_zeros", polishing)


def jnp_zero_labels(cutoff: float, nus) -> dict:
    """(nu, k) -> the squared k-th zero of J_nu' from scipy.special.jnp_zeros, for every zero below cutoff."""
    out = {}
    for nu in nus:
        count = 4
        while (zeros := special.jnp_zeros(nu, count))[-1] ** 2 <= cutoff:
            count *= 2
        out.update({(nu, k): z**2 for k, z in enumerate(zeros.tolist(), 1) if z**2 <= cutoff})
    return out


class TestInterval:
    def test_unit_interval(self):
        spec = neumann_eigenvalues(Interval(1.0), cutoff=100.0)
        assert spec.lambdas == pytest.approx([0.0, PI2, 4 * PI2, 9 * PI2], rel=1e-12)
        assert list(spec.multiplicities) == [1, 1, 1, 1]
        assert spec.labels[1] == [(1,)]

    def test_scaling_trivia(self):
        spec = neumann_eigenvalues(Interval(1.0), cutoff=100.0)
        doubled = scale_spectrum(spec, 2.0)
        assert doubled.lambdas[1] == pytest.approx(PI2 / 4, rel=1e-14)
        same = scale_spectrum(spec, 1.0)
        assert np.array_equal(same.lambdas, spec.lambdas)


class TestRectangle:
    def test_unit_square_degeneracy(self):
        spec = neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=20.0)
        assert spec.lambdas == pytest.approx([0.0, PI2, 2 * PI2], rel=1e-12)
        assert list(spec.multiplicities) == [1, 2, 1]
        assert sorted(spec.labels[1]) == [(0, 1), (1, 0)]

    def test_commensurate_sides_merge(self):
        # aspect ratio 2 makes (1,0) and (0,2) coincide at pi^2
        spec = neumann_eigenvalues(Rectangle(1.0, 2.0), cutoff=15.0)
        assert spec.lambdas == pytest.approx([0.0, PI2 / 4, PI2, 5 * PI2 / 4], rel=1e-12)
        assert list(spec.multiplicities) == [1, 1, 2, 1]
        assert sorted(spec.labels[2]) == [(0, 2), (1, 0)]

    def test_incommensurate_sides_stay_simple(self):
        spec = neumann_eigenvalues(Rectangle(1.0, 0.7), cutoff=45.0)
        expected = sorted([0.0, PI2, PI2 / 0.49, PI2 + PI2 / 0.49, 4 * PI2])
        assert spec.lambdas == pytest.approx(expected, rel=1e-12)
        assert list(spec.multiplicities) == [1] * 5


class TestDisk:
    def test_first_nonzero_eigenvalue(self):
        spec = neumann_eigenvalues(Disk(1.0), cutoff=5.0)
        expected = jprime_zero(1, 1) ** 2
        assert spec.lambdas[0] == 0.0
        assert spec.lambdas[1] == pytest.approx(expected, rel=1e-10)
        assert spec.multiplicities[1] == 2
        assert spec.labels[1] == [(1, 1)]
        assert spec.lambdas[1] == pytest.approx(3.3899577167, rel=1e-8)

    def test_more_zeros_against_series_oracle(self):
        spec = neumann_eigenvalues(Disk(1.0), cutoff=40.0)
        # collect expected (nu, k) eigenvalues below the cutoff from the oracle
        expected = [(0.0, 1)]
        for nu in range(0, 8):
            for k in (1, 2, 3):
                z = jprime_zero(nu, k)
                if z**2 <= 40.0:
                    expected.append((z**2, 1 if nu == 0 else 2))
        expected.sort()
        values = [v for v, _ in expected]
        mults = [m for _, m in expected]
        assert spec.lambdas == pytest.approx(values, rel=1e-9)
        assert list(spec.multiplicities) == mults

    def test_every_mode_below_400_against_series_oracle(self):
        spec = neumann_eigenvalues(Disk(1.0), cutoff=400.0)
        expected = []
        for nu in range(21):  # the first zero of J_nu' exceeds nu
            k = 1
            while (z := jprime_zero(nu, k)) ** 2 <= 400.0:
                expected.append((z**2, (nu, k)))
                k += 1
        expected.sort()
        assert len(expected) == 58
        assert spec.lambdas[1:] == pytest.approx([lam for lam, _ in expected], rel=1e-9)
        assert list(spec.multiplicities[1:]) == [1 if nu == 0 else 2 for _, (nu, _) in expected]
        assert spec.labels[1:] == [[label] for _, label in expected]

    def test_zeros_polished_together(self, monkeypatch):
        # the Bessel passes grow with neither the 96 orders nor the 1,285 zeros: the scan's 124
        # steps take one pass per chunk of 64, for every order at once, and the polish one pass per
        # Newton step over the brackets still open; a Newton step that has converged is kept, not
        # thrown away for bisections down to the last bit
        counter = CountingBessel(monkeypatch)
        spec = neumann_eigenvalues(Disk(1.0), cutoff=9901.04)
        assert len(spec.lambdas) == 1277
        assert len(counter.scan) == 2
        assert 1 <= len(counter.polish) <= 6
        (at,) = [i for i, labels in enumerate(spec.labels) if (8, 1) in labels]
        assert math.sqrt(spec.lambdas[at]) == pytest.approx(jprime_zero(8, 1), rel=1e-12)

    def test_every_mode_at_the_morse_disk_cutoff_against_scipy(self):
        # 1,217 distinct values with nu <= 93, against an independent evaluation of the zeros
        cutoff = 9429.557601467863
        spec = neumann_eigenvalues(Disk(1.0), cutoff)
        expected = sorted((lam, label) for label, lam in jnp_zero_labels(cutoff, range(100)).items())
        assert len(spec.lambdas) == 1217 and len(expected) == 1216
        assert spec.lambdas[1:] == pytest.approx([lam for lam, _ in expected], rel=1e-14, abs=0.0)
        assert list(spec.multiplicities[1:]) == [1 if nu == 0 else 2 for _, (nu, _) in expected]
        assert spec.labels[1:] == [[label] for _, label in expected]

    def test_large_zeros_against_scipy(self):
        # upper = sqrt(1e5) = 316: the last columns start near order 425, with no overflow
        # anywhere (RuntimeWarning is an error under pytest)
        cutoff = 1e5
        spec = neumann_eigenvalues(Disk(1.0), cutoff)
        got = {label: lam for lam, labels in zip(spec.lambdas[1:].tolist(), spec.labels[1:]) for label in labels}
        nus = (0, 1, 50, 150, 300)
        expected = jnp_zero_labels(cutoff, nus)
        assert {label for label in got if label[0] in nus} == set(expected)
        for label, lam in expected.items():
            assert got[label] == pytest.approx(lam, rel=1e-14, abs=0.0), label

    def test_bessel_kernel_against_scipy(self):
        # every order up to x + 8, at points from 1e-6, whose column would overflow without the
        # rescaling, to 316; and windows of three orders per point, as the polish asks for them
        x = np.array([1e-6, 1e-3, 0.05, 1.0, 7.3, 50.0, 316.0])
        orders = np.arange(330)[:, None]
        table = base_spectrum._bessel_j(x, np.zeros(x.size, dtype=int), 330)
        assert np.abs(table - special.jv(orders, x))[orders <= x + 8.0].max() < 1e-14
        low = np.array([0, 0, 1, 4, 40, 300])
        x = np.array([3.8, 0.05, 1.9, 5.3, 44.0, 305.0])
        windows = base_spectrum._bessel_j(x, low, 3)
        assert np.abs(windows - special.jv(low + np.arange(3)[:, None], x)).max() < 1e-14

    def test_rotation_invariant_restriction(self):
        spec = neumann_eigenvalues(Disk(1.0), cutoff=60.0, rotation_invariant=True)
        assert np.all(spec.multiplicities == 1)
        assert all(lab[0][0] == 0 for lab in spec.labels)
        assert spec.lambdas[1] == pytest.approx(jprime_zero(0, 1) ** 2, rel=1e-10)

    def test_scaled_disk_cross_check(self):
        # two computation paths for the dilated disk agree to 1e-12
        unit = neumann_eigenvalues(Disk(1.0), cutoff=50.0)
        for t in (0.5, 2.0, 3.7):
            direct = neumann_eigenvalues(Disk(t), cutoff=50.0 / t**2)
            scaled = scale_spectrum(unit, t)
            assert scaled.lambdas == pytest.approx(direct.lambdas, rel=1e-12)
            assert np.array_equal(scaled.multiplicities, direct.multiplicities)


class TestScalingLaw:
    @pytest.mark.parametrize(
        "domain", [Interval(1.0), Interval(2.5), Rectangle(1.0, 1.0), Rectangle(0.7, 1.9), Disk(1.0)]
    )
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.7])
    def test_scale_equals_direct(self, domain, t):
        cutoff = 60.0
        unit = neumann_eigenvalues(domain, cutoff=cutoff)
        scaled = scale_spectrum(unit, t)
        if isinstance(domain, Interval):
            direct = neumann_eigenvalues(Interval(domain.length * t), cutoff=cutoff / t**2)
        elif isinstance(domain, Rectangle):
            direct = neumann_eigenvalues(Rectangle(domain.a * t, domain.b * t), cutoff=cutoff / t**2)
        else:
            direct = neumann_eigenvalues(Disk(domain.radius * t), cutoff=cutoff / t**2)
        assert scaled.lambdas == pytest.approx(direct.lambdas, rel=1e-12, abs=1e-12)
        assert np.array_equal(scaled.multiplicities, direct.multiplicities)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_multiplicity_conserved(self, t):
        spec = neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=30.0)
        scaled = scale_spectrum(spec, t)
        assert np.array_equal(scaled.multiplicities, spec.multiplicities)
        assert int(scaled.multiplicities.sum()) == int(spec.multiplicities.sum())

    def test_nonpositive_scale_rejected(self):
        spec = neumann_eigenvalues(Interval(1.0), cutoff=10.0)
        for t in (0.0, -1.0):
            with pytest.raises(ValidationError):
                scale_spectrum(spec, t)


class TestCutoffEdge:
    """An eigenvalue equal to the cutoff is enumerated: membership is decided on the stored value."""

    @staticmethod
    def labels(spec):
        return {label for labels in spec.labels for label in labels}

    def test_interval_modes_at_the_cutoff(self):
        # the proxy floor(L sqrt(cutoff) / pi) rounded below j for 266 of the 2,394 cases j = 1..399
        assert neumann_eigenvalues(Interval(1.0), 1194.2221325318121).labels[-1] == [(11,)]  # (11 pi)^2
        for length in (0.7, 0.8, 1.0, 1.3, 2.0, 3.0):
            for j in range(1, 400):
                spec = neumann_eigenvalues(Interval(length), (j * math.pi / length) ** 2)
                assert spec.labels[-1] == [(j,)] and len(spec.lambdas) == j + 1, (length, j)

    def test_rectangle_side_modes_at_the_cutoff(self):
        for a, b in ((1.0, 0.8), (1.3, 0.7)):
            for m in range(1, 40):
                assert (m, 0) in self.labels(neumann_eigenvalues(Rectangle(a, b), (m * math.pi / a) ** 2)), (a, m)

    def test_disk_modes_at_the_cutoff(self):
        # (j'_11 / 0.7)^2 as stored; the true value lies between this and the 6.918281054432426 of scipy.special
        assert (1, 1) in self.labels(neumann_eigenvalues(Disk(0.7), 6.918281054432429))
        for radius in (0.7, 1.0, 1.3, 2.0):
            full = neumann_eigenvalues(Disk(radius), 240.0 / radius**2)
            for lam, labels in zip(full.lambdas[1:].tolist(), full.labels[1:]):
                assert set(labels) <= self.labels(neumann_eigenvalues(Disk(radius), lam)), (radius, lam)


class TestGuards:
    def test_weyl_counting_sanity(self):
        # mode counting below L tracks the Weyl main term within a factor 2
        cases = [
            (Interval(1.0), 1e4, lambda lam: math.sqrt(lam) / math.pi),
            (Rectangle(1.0, 1.0), 1e3, lambda lam: lam / (4 * math.pi)),
            (Disk(1.0), 200.0, lambda lam: math.pi * lam / (4 * math.pi)),
        ]
        for domain, cutoff, main_term in cases:
            spec = neumann_eigenvalues(domain, cutoff=cutoff)
            count = int(spec.multiplicities.sum())
            expect = main_term(cutoff)
            assert 0.5 <= count / expect <= 2.0

    def test_cutoff_validation(self):
        with pytest.raises(ValidationError):
            neumann_eigenvalues(Interval(1.0), cutoff=0.0)

    def test_resource_budget(self):
        with pytest.raises(ResourceLimitError):
            neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=1e8, max_modes=100)

    def test_disk_budget_is_checked_before_the_polish(self, monkeypatch):
        # nu = 0 alone has 318 zeros below 1000 against a budget of 100; the first chunk of the scan,
        # 65 points up to x = 50 and 52 orders, already holds more, while scanning every chunk before
        # the check would take about 6.8e5 Bessel values
        counter = CountingBessel(monkeypatch)
        with pytest.raises(ResourceLimitError):
            neumann_eigenvalues(Disk(1.0), cutoff=1e6, max_modes=100)
        assert counter.polish == []
        assert 0 < sum(counter.scan) < 1e4

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            Interval(-1.0)
        with pytest.raises(ValidationError):
            Rectangle(1.0, 0.0)
        with pytest.raises(ValidationError):
            Disk(0.0)


class TestLargeBases:
    def test_small_eigenvalues_stay_apart_from_zero(self):
        # lambda_1 = (pi / 1e5)^2 = 9.87e-10 lay within an absolute merge tolerance of 1e-9
        # below 1 and was folded into the constant mode
        spec = neumann_eigenvalues(Interval(1e5), 1.0, max_modes=400_000)
        assert spec.multiplicities[0] == 1 and len(spec.lambdas) == int(1e5 / math.pi) + 1
        assert spec.lambdas[1] == (math.pi / 1e5) ** 2
        disk = neumann_eigenvalues(Disk(6e4), 1e-8)
        assert list(disk.multiplicities[:2]) == [1, 2]
        assert disk.lambdas[1] == pytest.approx((jprime_zero(1, 1) / 6e4) ** 2, rel=1e-12)

    def test_a_disk_cutoff_below_the_first_zero_keeps_the_constant_mode(self):
        spec = neumann_eigenvalues(Disk(1.0), 0.5)
        assert spec.lambdas.tolist() == [0.0] and spec.multiplicities.tolist() == [1]


@pytest.mark.parametrize(
    "call, error, match",
    [
        # one mode is below the cutoff before the polish, two after it
        (
            lambda: neumann_eigenvalues(Disk(1.0), 5.0, max_modes=1),
            ResourceLimitError,
            "disk enumeration exceeded budget 1",
        ),
        (lambda: neumann_eigenvalues("square", 1.0), ValidationError, "unsupported base domain 'square'"),
        (lambda: domain_from_dict([1.0]), ValidationError, r"base spec must be a dict with a 'type' key, got \[1.0\]"),
        (lambda: domain_from_dict({"type": "annulus"}), ValidationError, "unknown base type 'annulus'"),
    ],
    ids=["disk-budget-after-polish", "unsupported-domain", "spec-not-a-dict", "unknown-type"],
)
def test_unreached_raises_name_the_rule(call, error, match):
    with pytest.raises(error, match=match):
        call()

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbif import (
    BaseSpectrum,
    CoverageError,
    Disk,
    InsufficientSpectrumError,
    Interval,
    Rectangle,
    SumSet,
    ValidationError,
    compose_spectrum,
    coverage_cutoff,
    degeneracy_times,
    morse_index,
    morse_vs_t,
    neumann_eigenvalues,
    scale_spectrum,
)
from cylbif.morse_bifurcation import ZERO_REL_TOL
from oracles import brute_force_negative_count

PI2 = math.pi**2


def synthetic_base(lambdas, multiplicities, cutoff):
    return BaseSpectrum(
        lambdas=np.asarray(lambdas, dtype=float),
        multiplicities=np.asarray(multiplicities, dtype=int),
        labels=[[(j,)] for j in range(len(lambdas))],
        cutoff=float(cutoff),
    )


def entries(comp):
    """The (value, i, j, multiplicity) rows of a ComposedSpectrum, as Python scalars."""
    return list(zip(comp.values.tolist(), comp.i.tolist(), comp.j.tolist(), comp.multiplicity.tolist()))


class TestCompose:
    def test_direct_sums(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=40.0)
        comp = compose_spectrum([-5.0, 3.0], base, cutoff=10.0)
        assert comp.values == pytest.approx([-5.0, 3.0, -5.0 + PI2], rel=1e-12)
        assert list(zip(comp.i, comp.j)) == [(1, 0), (2, 0), (1, 1)]

    def test_free_spectrum_is_positive(self):
        alphas = [((2 * i - 1) * math.pi / 2) ** 2 for i in range(1, 6)]
        base = neumann_eigenvalues(Interval(1.0), cutoff=80.0)
        comp = compose_spectrum(alphas, base, cutoff=50.0)
        assert np.all(comp.values > 0.0)

    def test_coverage_error_when_base_too_short(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=10.0)
        with pytest.raises(CoverageError):
            compose_spectrum([-5.0, 20.0], base, cutoff=10.0)

    def test_unsorted_alphas_rejected(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=40.0)
        with pytest.raises(ValidationError):
            compose_spectrum([3.0, -5.0], base, cutoff=1.0)

    def test_disk_base_matches_pair_list(self):
        alphas = [-40.0, -12.5, 3.0, 30.0]
        base = neumann_eigenvalues(Disk(1.0), cutoff=200.0)
        comp = compose_spectrum(alphas, base, cutoff=150.0)
        expected = sorted(
            (a + float(lam), i, j, int(mult))
            for i, a in enumerate(alphas, start=1)
            for j, (lam, mult) in enumerate(zip(base.lambdas, base.multiplicities))
            if a + float(lam) <= 150.0
        )
        assert entries(comp) == expected
        assert np.any(comp.multiplicity == 2)


class TestMorseFormula:
    def test_interval_examples(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=60.0)
        report = morse_index([-5.0, 3.0], base)
        assert report.m == 1 and report.m_xn == 1 and report.contributions == [0]
        report = morse_index([-15.0, 3.0], base)
        assert report.m == 2 and report.contributions == [1]

    def test_positive_witness_required(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=60.0)
        with pytest.raises(InsufficientSpectrumError):
            morse_index([-5.0, -1.0], base)

    def test_multiplicity_weighted_counts(self):
        base = neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=60.0)
        # lambda_1 = lambda_2 = pi^2 both count against alpha_1 = -25
        report = morse_index([-25.0, 3.0], base)
        assert report.contributions == [brute_force_negative_count([-25.0], base.lambdas[1:], base.multiplicities[1:])]
        assert report.m == 1 + report.contributions[0]

    def test_seeded_random_spectra_match_brute_force(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            alphas = np.sort(rng.uniform(-30.0, 50.0, size=k))
            alphas[-1] = abs(alphas[-1]) + 1.0
            n_lam = int(rng.integers(2, 9))
            lambdas = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 80.0, size=n_lam))])
            mults = np.concatenate([[1], rng.integers(1, 4, size=n_lam)])
            base = synthetic_base(lambdas, mults, cutoff=100.0)
            report = morse_index(alphas, base)
            assert report.m == brute_force_negative_count(alphas, lambdas, mults)

    def test_real_spectra_match_brute_force(self, cubic_alphas_n1):
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        report = morse_index(cubic_alphas_n1, base)
        full = []
        for lam, mult in zip(base.lambdas, base.multiplicities):
            full.append((lam, mult))
        assert report.m == brute_force_negative_count(
            cubic_alphas_n1, [f[0] for f in full], [f[1] for f in full]
        )
        assert report.m_xn == 1
        assert report.m >= report.m_xn

    def test_degeneracy_flagged_not_raised(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=60.0)
        report = morse_index([-PI2, 1.0], base)
        assert report.degenerate
        assert report.zero_multiplicity == 1

    def test_morse_bounded_below_by_nodal_count(self, cubic_alphas_n1):
        # m >= n for every dilation of the base
        base = neumann_eigenvalues(Interval(1.0), cutoff=400.0)
        for t in (0.6, 1.0, 1.7, 2.9):
            assert morse_index(cubic_alphas_n1, scale_spectrum(base, t)).m >= 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-60, max_value=-1), min_size=0, max_size=4),
    st.lists(st.integers(min_value=1, max_value=99), min_size=1, max_size=8),
    st.lists(st.integers(min_value=1, max_value=3), min_size=8, max_size=8),
)
def test_formula_matches_brute_force_property(neg, lam_raw, mults_raw):
    # half-integer offsets keep every sum away from an exact tie
    alphas = np.array(sorted(neg) + [100.0]) + 0.5
    lambdas = np.concatenate([[0.0], np.sort(np.unique(lam_raw)) + 0.25])
    mults = np.array([1] + list(mults_raw[: len(lambdas) - 1]))
    base = synthetic_base(lambdas, mults, cutoff=200.0)
    report = morse_index(alphas, base)
    assert report.m == brute_force_negative_count(alphas, lambdas, mults)


# negative alphas stay away from zero, where lambda / -alpha would overflow
ALPHA_LISTS = st.lists(st.one_of(st.floats(-50.0, -0.01), st.floats(0.0, 50.0)), min_size=1, max_size=5)


class TestDegeneracyTimes:
    def test_interval_arithmetic(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=5.0 * 25.0 + 1.0)
        points = degeneracy_times([-5.0, 1.0], base, t_max=5.0)
        expected = [j * math.pi / math.sqrt(5.0) for j in range(1, 4)]
        assert [p.t_bar for p in points] == pytest.approx(expected, rel=1e-12)
        assert all(p.simple and p.kernel_multiplicity == 1 for p in points)
        assert points[0].t_bar == pytest.approx(1.40496, rel=1e-5)

    def test_cubic_leading_scaling(self, cubic_alphas_n1):
        a1 = float(cubic_alphas_n1[0])
        base = neumann_eigenvalues(Interval(1.0), cutoff=-a1 * 4.0 + 1.0)
        points = degeneracy_times(cubic_alphas_n1, base, t_max=2.0)
        assert points[0].t_bar == pytest.approx(math.pi / math.sqrt(-a1), rel=1e-12)
        assert points[0].pairs == [(1, 1)]

    def test_square_base_multiplicity(self):
        base = neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=5.0 * 4.0 + 1.0)
        points = degeneracy_times([-5.0, 1.0], base, t_max=2.0)
        assert points[0].kernel_multiplicity == 2
        assert not points[0].simple

    def test_no_negative_alphas_is_empty(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        assert degeneracy_times([1.0, 2.0], base, t_max=3.0) == []

    def test_coverage_guard(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=20.0)
        with pytest.raises(CoverageError):
            degeneracy_times([-5.0, 1.0], base, t_max=5.0)

    def test_positive_witness_required(self):
        # [-30, -5] may be the first two of several negative alphas; the crossings of the rest would be missing
        base = neumann_eigenvalues(Interval(1.0), cutoff=coverage_cutoff([-30.0, -5.0], 3.0))
        with pytest.raises(InsufficientSpectrumError):
            degeneracy_times([-30.0, -5.0], base, t_max=3.0)

    def test_coincident_pairs_warn(self):
        # alphas -1 and -4 hit t = pi with lambda = pi^2 and 4 pi^2
        base = neumann_eigenvalues(Interval(1.0), cutoff=4.0 * PI2 + 5.0)
        with pytest.warns(UserWarning, match="coincide"):
            points = degeneracy_times([-4.0, -1.0, 1.0], base, t_max=math.pi + 0.1)
        merged = [p for p in points if len(p.pairs) > 1]
        assert merged and merged[0].kernel_multiplicity == 2
        assert not merged[0].simple

    @pytest.mark.parametrize(
        "domain, alphas",
        [(Disk(1.0), [-40.0, -12.5, 3.0]), (Rectangle(1.0, 1.0), [-20.0, -5.0, 2.0])],
        ids=["disk", "unit-square"],
    )
    def test_simple_is_one_pair_of_multiplicity_one(self, domain, alphas):
        # the disk has double modes (nu >= 1); on the square (m, n) and (n, m) merge, and
        # alpha_1 = 4 alpha_2 makes the pairs (1, (2m, 2n)) and (2, (m, n)) coincide
        base = neumann_eigenvalues(domain, cutoff=1.05 * -alphas[0] * 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            points = degeneracy_times(alphas, base, 3.0)
        mults = base.multiplicities.tolist()
        for p in points:
            assert p.kernel_multiplicity == sum(mults[j] for _, j in p.pairs)
            assert p.simple == (len(p.pairs) == 1 and mults[p.pairs[0][1]] == 1)
        assert {p.simple for p in points} == {True, False}
        assert any(len(p.pairs) > 1 for p in points) == isinstance(domain, Rectangle)

    @pytest.mark.parametrize(
        "domain, alphas, t_max",
        [(Disk(1.0), [-40.0, -12.5, 3.0], 3.0), (Rectangle(1.0, 0.5), [-9.0, -1.0, 2.0], 4.0)],
    )
    def test_pair_table_equals_pair_loop(self, domain, alphas, t_max):
        # the scalar double loop over (i, j) is the reference; the same IEEE
        # division and sqrt give the same bits, so the match is exact
        base = neumann_eigenvalues(domain, cutoff=1.05 * -alphas[0] * t_max**2)
        events = pair_loop(alphas, base.lambdas, t_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the rectangle case has coincident pairs
            points = degeneracy_times(alphas, base, t_max)
        assert [pair for p in points for pair in p.pairs] == [(i, j) for _, i, j in events]
        starts = np.cumsum([0] + [len(p.pairs) for p in points])[:-1]
        assert [p.t_bar for p in points] == [events[k][0] for k in starts]
        assert any(len(p.pairs) > 1 for p in points) == isinstance(domain, Rectangle)

    @settings(max_examples=60, deadline=None)
    @given(
        ALPHA_LISTS,
        st.lists(st.floats(0.0, 80.0, allow_subnormal=False), min_size=1, max_size=8),
        st.floats(0.2, 4.0),
    )
    def test_sum_set_crossings_equal_pair_loop(self, a, b, t_max):
        sums = SumSet(sorted(a), sorted(b))
        ts, i, j = sums.crossings(t_max)
        assert list(zip(ts.tolist(), i.tolist(), j.tolist())) == pair_loop(sorted(a), sorted(b), t_max)
        # the one-pair query is the same IEEE division and sqrt as the scalar loop
        assert [float(sums.crossing(ii, jj)) for ii, jj in zip(i, j)] == ts.tolist()


def pair_loop(alphas, lambdas, t_max):
    """The crossings (t, i, j) of every pair (alpha_i < 0, lambda_j > 0) up to t_max, by a scalar double loop."""
    return sorted(
        (math.sqrt(lam / -a), i, j)
        for i, a in enumerate(alphas, start=1)
        if a < 0.0
        for j, lam in enumerate(lambdas)
        if lam > 0.0 and math.sqrt(lam / -a) <= t_max * (1.0 + 1e-12)
    )


@settings(max_examples=60, deadline=None)
@given(
    ALPHA_LISTS,
    st.lists(st.tuples(st.floats(0.0, 80.0, allow_subnormal=False), st.integers(1, 3)), min_size=1, max_size=8),
    st.floats(0.2, 4.0),
)
def test_sum_set_counts_equal_its_negative_sums(a, b_mults, t):
    # the counts per negative a_i, plus the zero-valued b_j that the counts leave to m_xn, are the
    # multiplicity-weighted sums a_i + b_j / t^2 below zero
    b_mults = sorted(b_mults)
    b, mults = [lam for lam, _ in b_mults], [m for _, m in b_mults]
    sums = SumSet(sorted(a), b)
    contributions, zero_mult = sums.counts(np.array([t]), mults)
    values, rows, cols = sums.ordered(t, 0.0)
    constant = sum(m for lam, m in b_mults if lam / t**2 == 0.0)
    assert contributions.shape[1] == np.count_nonzero(np.array(a) < 0.0)
    for i in range(contributions.shape[1]):
        assert contributions[0, i] + constant == np.array(mults)[cols[(values < 0.0) & (rows == i + 1)]].sum()
    # the zero band is the multiplicity-weighted sums within its tolerance
    tol = ZERO_REL_TOL * max(1.0, abs(min(a)))
    values, _, cols = sums.ordered(t, tol)
    assert zero_mult[0] == np.array(mults)[cols[np.abs(values) < tol]].sum()


class TestMorseSweep:
    def test_step_across_first_crossing(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=5.0 * 2.25 + 1.0)
        samples = morse_vs_t([-5.0, 1.0], base, [1.0, 1.5])
        assert [s.m for s in samples] == [1, 2]

    def test_constant_below_first_crossing(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        samples = morse_vs_t([-5.0, 1.0], base, np.linspace(0.2, 1.3, 12))
        assert all(s.m == 1 for s in samples)

    def test_monotone_steps_with_multiplicity_jumps(self):
        base = neumann_eigenvalues(Rectangle(1.0, 1.0), cutoff=5.0 * 36.0 + 1.0)
        alphas = [-5.0, 1.0]
        points = degeneracy_times(alphas, base, t_max=5.5)
        ts = np.linspace(0.5, 5.5, 401)
        samples = morse_vs_t(alphas, base, ts)
        ms = np.array([s.m for s in samples])
        assert np.all(np.diff(ms) >= 0)
        # every jump occurs within one grid cell of a predicted scaling
        jump_at = np.where(np.diff(ms) > 0)[0]
        cell = ts[1] - ts[0]
        for idx in jump_at:
            nearest = min(points, key=lambda p: abs(p.t_bar - ts[idx]))
            assert abs(nearest.t_bar - ts[idx]) <= cell
            assert ms[idx + 1] - ms[idx] == nearest.kernel_multiplicity

    def test_index_grows_without_bound(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=5.0 * 420.0)
        samples = morse_vs_t([-5.0, 1.0], base, [2.0, 5.0, 10.0, 20.0])
        ms = [s.m for s in samples]
        assert ms == sorted(ms)
        assert ms[-1] >= 10

    def test_degenerate_sample_marked(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        t_exact = math.pi / math.sqrt(5.0)
        samples = morse_vs_t([-5.0, 1.0], base, [t_exact])
        assert samples[0].degenerate

    def test_grid_validation(self):
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        with pytest.raises(ValidationError):
            morse_vs_t([-5.0, 1.0], base, [2.0, 1.0])

    @pytest.mark.parametrize(
        "domain, alphas, t_max",
        [(Disk(1.0), [-40.0, -12.5, 3.0, 30.0], 3.0), (Rectangle(1.0, 1.0), [-5.0, 1.0], 4.0)],
    )
    def test_sweep_equals_per_sample_index(self, domain, alphas, t_max):
        base = neumann_eigenvalues(domain, cutoff=1.05 * -alphas[0] * t_max**2)
        crossings = [p.t_bar for p in degeneracy_times(alphas, base, t_max)]
        ts = np.unique(np.concatenate([np.linspace(0.3, t_max, 50), crossings]))
        samples = morse_vs_t(alphas, base, ts)
        assert [s.t for s in samples] == list(ts)
        flagged = 0
        for s in samples:
            scaled = scale_spectrum(base, s.t)
            report = morse_index(alphas, scaled)
            assert (s.m, s.degenerate) == (report.m, report.degenerate)
            if not s.degenerate:
                assert s.m == brute_force_negative_count(alphas, scaled.lambdas, scaled.multiplicities)
            flagged += s.degenerate
        assert flagged >= len(crossings) > 0


class TestGroundStateFlag:
    @staticmethod
    def flag(alphas, base):
        return morse_index(alphas, base).ground_state_flag

    def test_interval_examples(self):
        assert self.flag([-5.0, 1.0], neumann_eigenvalues(Interval(1.0), cutoff=50.0)) is False
        assert self.flag([-5.0, 1.0], neumann_eigenvalues(Interval(3.0), cutoff=50.0)) is True

    def test_wide_base_from_computed_spectrum(self, cubic_alphas_n1):
        a1 = float(cubic_alphas_n1[0])
        t_bar1 = math.pi / math.sqrt(-a1)
        wide = Interval(2.0 * t_bar1)
        assert self.flag(cubic_alphas_n1, neumann_eigenvalues(wide, cutoff=50.0)) is True

    def test_needs_negative_leading_alpha(self):
        # no negative alpha, no i = 1 term: the flag is False
        base = neumann_eigenvalues(Interval(1.0), cutoff=50.0)
        assert self.flag([1.0, 2.0], base) is False

    def test_covering_base_without_a_positive_eigenvalue(self):
        # lambda_1 = 100 pi^2 lies past a base enumerated to coverage_cutoff, so it exceeds -alpha_1
        alphas = [-5.0, 1.0]
        base = neumann_eigenvalues(Interval(0.1), cutoff=coverage_cutoff(alphas))
        assert base.lambdas.tolist() == [0.0]
        assert self.flag(alphas, base) is False
        with pytest.raises(CoverageError):
            self.flag(alphas, neumann_eigenvalues(Interval(0.1), cutoff=4.0))


def _dilated(domain, t):
    if isinstance(domain, Interval):
        return Interval(domain.length * t)
    if isinstance(domain, Rectangle):
        return Rectangle(domain.a * t, domain.b * t)
    return Disk(domain.radius * t)


class TestCoverageOwner:
    """A base enumerated to exactly ``coverage_cutoff`` reads what a four times wider one
    reads, and 0.999 times that cutoff is refused with the owner's value."""

    ALPHAS = [-40.0, -12.5, 3.0, 30.0]

    @staticmethod
    def agree_at_the_cutoff(domain, cutoff, query):
        exact = query(neumann_eigenvalues(domain, cutoff=cutoff))
        assert exact == query(neumann_eigenvalues(domain, cutoff=4.0 * cutoff))
        with pytest.raises(CoverageError, match=re.escape(f"up to {cutoff}")):
            query(neumann_eigenvalues(domain, cutoff=0.999 * cutoff))
        return exact

    @pytest.mark.parametrize("t_max", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("domain", [Interval(1.0), Rectangle(1.0, 0.7), Disk(1.0)])
    def test_sizing_and_checking_agree(self, domain, t_max):
        alphas, top = self.ALPHAS, self.ALPHAS[-1]
        cutoff = coverage_cutoff(alphas, t_max, top)
        composed = self.agree_at_the_cutoff(domain, cutoff, lambda base: entries(compose_spectrum(alphas, base, top, t_max)))
        assert composed and all(value <= top for value, *_ in composed)

        # morse_index reads the base at t = 1, here the domain dilated by t_max
        dilated = _dilated(domain, t_max)
        self.agree_at_the_cutoff(dilated, coverage_cutoff(alphas), lambda base: morse_index(alphas, base))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coincident pairs are not the point here
            points = self.agree_at_the_cutoff(
                domain, coverage_cutoff(alphas, t_max), lambda base: degeneracy_times(alphas, base, t_max)
            )
        assert points and points[-1].t_bar <= t_max * (1.0 + 1e-12)

        # the sweep ends on the last crossing of alpha_1, a hair early: its last sample is flagged
        # by a lambda_j = -alpha_1 t_bar^2 that lies past -alpha_1 t^2, inside the zero band
        t_bar = max(p.t_bar for p in points if any(i == 1 for i, _ in p.pairs))
        ts = np.linspace(0.2 * t_bar, t_bar * (1.0 - 1e-10), 9)
        cutoff = coverage_cutoff(alphas, ts[-1])
        samples = self.agree_at_the_cutoff(domain, cutoff, lambda base: morse_vs_t(alphas, base, ts))
        assert samples[-1].degenerate and not samples[0].degenerate

    def test_the_cutoff_is_positive_without_negative_alphas(self):
        assert 0.0 < coverage_cutoff([0.5, 3.0], t_max=3.0) < 1e-6
        assert coverage_cutoff([-5.0, 1.0], t_max=2.0, top=1.0) == pytest.approx(24.0, rel=1e-7)
        with pytest.raises(ValidationError):
            coverage_cutoff([-5.0, 1.0], t_max=0.0)


UNIT_INTERVAL = synthetic_base([0.0, PI2], [1, 1], 10.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: morse_index([], UNIT_INTERVAL), "alphas must be a nonempty 1-d sequence"),
        (lambda: morse_vs_t([-1.0, 2.0], UNIT_INTERVAL, []), "t_grid must be a nonempty 1-d sequence"),
    ],
    ids=["empty-alphas", "empty-t-grid"],
)
def test_unreached_raises_name_the_rule(call, match):
    with pytest.raises(ValidationError, match=match):
        call()

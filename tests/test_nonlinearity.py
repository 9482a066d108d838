import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbif import (
    CubicFamily,
    LaneEmden,
    ValidationError,
    check_hypotheses,
    eval_F,
    eval_f,
    eval_fprime,
    model_from_dict,
)
from cylbif.nonlinearity import default_hypothesis_samples

MODELS = [LaneEmden(p=3.0), LaneEmden(p=4.0), LaneEmden(p=2.5), CubicFamily(c1=1.0, c3=1.0), CubicFamily(c1=0.0, c3=2.0)]


class TestPointValues:
    def test_lane_emden_f(self):
        assert eval_f(LaneEmden(3.0), 2.0) == pytest.approx(4.0)
        assert eval_f(LaneEmden(3.0), 0.0) == 0.0
        assert eval_f(CubicFamily(0.0, 1.0), 2.0) == pytest.approx(8.0)

    def test_lane_emden_fprime(self):
        assert eval_fprime(LaneEmden(3.0), 2.0) == pytest.approx(4.0)
        assert eval_fprime(LaneEmden(4.0), -1.0) == pytest.approx(3.0)
        assert eval_fprime(CubicFamily(1.0, 1.0), 0.0) == pytest.approx(1.0)

    def test_primitive(self):
        assert eval_F(LaneEmden(3.0), 2.0) == pytest.approx(8.0 / 3.0)
        assert eval_F(LaneEmden(4.0), 1.0) == pytest.approx(0.25)
        for model in MODELS:
            assert eval_F(model, 0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        for model in MODELS:
            vec = eval_f(model, s)
            assert vec.shape == s.shape
            for si, vi in zip(s, vec):
                assert vi == eval_f(model, float(si))


class TestConstruction:
    def test_cubic_rejects_bad_coefficients(self):
        with pytest.raises(ValidationError):
            CubicFamily(c1=1.0, c3=0.0)
        with pytest.raises(ValidationError):
            CubicFamily(c1=-0.1, c3=1.0)

    def test_subcritical_lane_emden_is_constructible(self):
        # rejected by the hypothesis check, not by the constructor
        model = LaneEmden(p=1.5)
        report = check_hypotheses(model, [1.0])
        assert not report.superlinear
        assert report.superlinear_failures == [1.0]

    def test_serialization_round_trip(self):
        assert model_from_dict({"type": "lane_emden", "p": 3.0}) == LaneEmden(p=3.0)
        assert model_from_dict({"type": "cubic", "c1": 1.0, "c3": 2}) == CubicFamily(c1=1.0, c3=2.0)
        with pytest.raises(ValidationError):
            model_from_dict({"type": "pentic"})
        with pytest.raises(ValidationError):
            model_from_dict({"type": "lane_emden"})


class TestHypotheses:
    def test_admissible_examples(self):
        report = check_hypotheses(LaneEmden(3.0), [0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        assert report.all_ok
        report = check_hypotheses(CubicFamily(1.0, 1.0), [1.0, -1.0])
        assert report.all_ok

    def test_empty_and_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            check_hypotheses(LaneEmden(3.0), [])
        with pytest.raises(ValidationError):
            check_hypotheses(LaneEmden(3.0), [1.0, 0.0])

    def test_superlinear_inequality_on_log_grid(self):
        # f'(s) s^2 - f(s) s > 0 on the standard two-sided sample grid
        for model in MODELS:
            for s in default_hypothesis_samples():
                assert eval_fprime(model, s) * s * s - eval_f(model, s) * s > 0.0


@given(
    st.one_of(
        st.floats(min_value=2.1, max_value=6.0).map(LaneEmden),
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.1, max_value=5.0)
        ).map(lambda cc: CubicFamily(*cc)),
    ),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_odd_symmetry(model, s):
    assert eval_f(model, -s) == -eval_f(model, s)
    assert eval_F(model, -s) == eval_F(model, s)


@settings(max_examples=40)
@given(
    st.one_of(
        st.floats(min_value=2.1, max_value=6.0).map(LaneEmden),
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.1, max_value=5.0)
        ).map(lambda cc: CubicFamily(*cc)),
    )
)
def test_hypotheses_hold_for_admissible_parameters(model):
    assert check_hypotheses(model, default_hypothesis_samples()).all_ok


class TestDerivativeConsistency:
    GRID = [-1000.0, -100.0, -10.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 10.0, 100.0, 1000.0]

    def test_fd_derivative_of_f_matches_fprime(self):
        for model in MODELS:
            for s in self.GRID:
                h = 1e-5 * max(1.0, abs(s))
                fd = (eval_f(model, s + h) - eval_f(model, s - h)) / (2.0 * h)
                assert fd == pytest.approx(eval_fprime(model, s), rel=1e-6)

    def test_fd_derivative_of_primitive_matches_f(self):
        for model in MODELS:
            for s in self.GRID:
                h = 1e-5 * max(1.0, abs(s))
                fd = (eval_F(model, s + h) - eval_F(model, s - h)) / (2.0 * h)
                assert fd == pytest.approx(eval_f(model, s), rel=1e-6, abs=1e-12)

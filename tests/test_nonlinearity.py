import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        report = check_hypotheses(LaneEmden(p=1.5))
        assert not report.superlinear and not report.all_ok

    def test_serialization_round_trip(self):
        assert model_from_dict({"type": "lane_emden", "p": 3.0}) == LaneEmden(p=3.0)
        assert model_from_dict({"type": "cubic", "c1": 1.0, "c3": 2}) == CubicFamily(c1=1.0, c3=2.0)
        with pytest.raises(ValidationError):
            model_from_dict({"type": "pentic"})
        with pytest.raises(ValidationError):
            model_from_dict({"type": "lane_emden"})


class TestHypotheses:
    def test_admissible_examples(self):
        assert check_hypotheses(LaneEmden(3.0)).all_ok
        assert check_hypotheses(CubicFamily(1.0, 1.0)).all_ok

    def test_superlinear_inequality_on_log_grid(self):
        # f'(s) s^2 - f(s) s > 0 on the standard two-sided sample grid
        for model in MODELS:
            for s in default_hypothesis_samples():
                assert eval_fprime(model, s) * s * s - eval_f(model, s) * s > 0.0

    def test_closed_forms_behind_the_rule(self):
        # f'(s) - f(s)/s and s f(s) on the sample grid are the closed forms check_hypotheses decides on
        for model in MODELS:
            for s in default_hypothesis_samples():
                if isinstance(model, LaneEmden):
                    gap, sign = (model.p - 2.0) * abs(s) ** (model.p - 2.0), abs(s) ** model.p
                else:
                    gap, sign = 2.0 * model.c3 * s * s, model.c1 * s * s + model.c3 * s**4
                assert eval_fprime(model, s) - eval_f(model, s) / s == pytest.approx(gap, rel=1e-6)
                assert s * eval_f(model, s) == pytest.approx(sign, rel=1e-12)


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
        st.floats(min_value=2.0, max_value=200.0, exclude_min=True).map(LaneEmden),
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.1, max_value=5.0)
        ).map(lambda cc: CubicFamily(*cc)),
    )
)
# from p = 103.8, f(1000) overflows and from p = 110 f(1e-3) underflows; the rule samples neither
@example(LaneEmden(104.0))
@example(LaneEmden(110.0))
@example(LaneEmden(200.0))
@example(CubicFamily(1.0, 1e-12))
@example(CubicFamily(1e6, 1e-6))
def test_hypotheses_hold_for_admissible_parameters(model):
    assert check_hypotheses(model).all_ok


@pytest.mark.parametrize("p", [2.0, 1.0, -1000.0])
def test_p_at_most_two_stays_rejected_where_f_underflows(p):
    # f'(s) - f(s)/s = (p - 2)|s|^(p-2) <= 0 at every s != 0, also where f underflows
    report = check_hypotheses(LaneEmden(p))
    assert not report.superlinear and report.sign


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: LaneEmden(math.nan), "LaneEmden exponent must be finite"),
        (lambda: model_from_dict(["lane_emden", 3.0]), "model spec must be a dict with a 'type' key"),
        (lambda: model_from_dict({"type": "cubic", "c1": 1.0}), "cubic model requires numeric fields 'c1' and 'c3'"),
        (lambda: model_from_dict({"type": "cubic", "c1": "one", "c3": 1.0}), "cubic model requires numeric fields"),
    ],
    ids=["lane-emden-nan", "spec-not-a-dict", "cubic-missing-field", "cubic-non-numeric"],
)
def test_unreached_raises_name_the_rule(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


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

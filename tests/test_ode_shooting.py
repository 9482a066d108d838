import math

import numpy as np
import pytest
from scipy.integrate import quad

from cylbif import (
    CubicFamily,
    DegenerateInputError,
    IntegrationOverflowError,
    LaneEmden,
    NoSolutionError,
    NonConvergenceError,
    OneDimSolution,
    ShootingConfig,
    ValidationError,
    count_nodal_domains_1d,
    eval_F,
    find_one_dim_solution,
    integrate_ivp,
    residual_check,
)
from oracles import cubic_quarter_period, ellipk_agm, jacobi_cn, lane_emden_amplitude

K_HALF = ellipk_agm(0.5)


class TestIntegrator:
    def test_zero_amplitude_is_equilibrium(self, cubic_model):
        u, du = integrate_ivp(cubic_model, 0.0, 100)
        assert np.all(u == 0.0)
        assert np.all(du == 0.0)

    def test_cubic_trajectory_matches_elliptic_cosine(self, cubic_model):
        # u'' = -u^3 with u(0)=a, u'(0)=0 is a*cn(a x | m=1/2)
        a = 1.3
        u, _ = integrate_ivp(cubic_model, a, 10_000)
        x = np.linspace(0.0, 1.0, 10_001)
        exact = np.array([a * jacobi_cn(a * xi, 0.5) for xi in x])
        assert np.max(np.abs(u - exact)) <= 1e-8

    @pytest.mark.parametrize("model", [LaneEmden(4.0), LaneEmden(3.0), CubicFamily(1.0, 1.0)])
    def test_energy_conserved(self, model):
        a = 2.0
        u, du = integrate_ivp(model, a, 10_000)
        energy = 0.5 * du**2 + eval_F(model, u)
        e0 = eval_F(model, a)
        assert np.max(np.abs(energy - e0)) <= 1e-8 * e0

    def test_overflow_reports_node(self, cubic_model):
        with pytest.raises(IntegrationOverflowError) as err:
            integrate_ivp(cubic_model, 1e200, 100)
        assert err.value.node is not None

    def test_too_few_steps_rejected(self, cubic_model):
        with pytest.raises(ValidationError):
            integrate_ivp(cubic_model, 1.0, 1)


class TestNodalCounting:
    def test_cosine_families(self):
        x = np.linspace(0.0, 1.0, 401)
        assert count_nodal_domains_1d(np.cos(np.pi * x / 2), 1e-10) == 1
        assert count_nodal_domains_1d(np.cos(3 * np.pi * x / 2), 1e-10) == 2
        assert count_nodal_domains_1d(np.cos(5 * np.pi * x / 2), 1e-10) == 3

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            count_nodal_domains_1d(np.zeros(10), 1e-10)

    def test_tolerance_masks_noise(self):
        values = np.array([1.0, 1e-12, -1e-12, 1.0])
        assert count_nodal_domains_1d(values, 1e-8) == 1


class TestAmplitudeSearch:
    def test_cubic_amplitudes_match_elliptic_quarter_periods(self, cubic_solutions):
        for n, sol in cubic_solutions.items():
            assert abs(sol.amplitude - (2 * n - 1) * K_HALF) <= 1e-6
            assert sol.nodal_count == n

    def test_lane_emden_p3_amplitudes_match_beta_integral(self):
        # time to the first zero is a^(-1/2) * sqrt(3/2) * int_0^1 (1-s^3)^(-1/2) ds,
        # so the n-domain amplitude is (2n-1)^2 * (3/2) * I^2
        model = LaneEmden(3.0)
        integral, est = quad(lambda s: (1.0 - s**3) ** -0.5, 0.0, 1.0, points=[1.0])
        closed_form = math.gamma(1 / 3) * math.gamma(0.5) / (3 * math.gamma(5 / 6))
        assert est < 1e-8
        assert integral == pytest.approx(closed_form, rel=1e-10)
        for n in (1, 2, 3):
            sol = find_one_dim_solution(model, n)
            exact = (2 * n - 1) ** 2 * 1.5 * integral**2
            assert sol.amplitude == pytest.approx(exact, rel=1e-8)

    def test_boundary_values(self, cubic_solutions):
        for sol in cubic_solutions.values():
            assert sol.derivative_values[0] == 0.0
            assert abs(sol.values[-1]) <= 1e-8

    def test_one_critical_point_between_zeros(self, cubic_solutions):
        # u' changes sign exactly once between consecutive zeros of u
        # (the first domain's critical point sits on the boundary x = 0)
        sol = cubic_solutions[3]
        u, du = sol.values, sol.derivative_values
        zeros = list(np.where(np.sign(u[1:]) != np.sign(u[:-1]))[0])
        assert len(zeros) == 2
        bounds = [*zeros, u.size - 1]
        for left, right in zip(bounds[:-1], bounds[1:]):
            seg = du[left + 1 : right + 1]
            seg = seg[np.abs(seg) > 1e-8 * np.max(np.abs(du))]
            flips = np.count_nonzero(np.sign(seg[1:]) != np.sign(seg[:-1]))
            assert flips == 1

    def test_even_reflection_solves_the_dirichlet_problem(self, cubic_solutions):
        sol = cubic_solutions[2]
        x_ext = np.concatenate([-sol.grid[::-1], sol.grid[1:]])
        u_ext = np.concatenate([sol.values[::-1], sol.values[1:]])
        assert x_ext[0] == -1.0 and x_ext[-1] == 1.0
        assert abs(u_ext[0]) <= 1e-8 and abs(u_ext[-1]) <= 1e-8
        # evenness is exact by construction; the derivative jump at 0 vanishes
        assert sol.derivative_values[0] == 0.0

    def test_amplitude_error_decays_at_fourth_order(self, cubic_model):
        errors = []
        for steps in (200, 400, 800):
            cfg = ShootingConfig(steps=steps)
            sol = find_one_dim_solution(cubic_model, 2, cfg)
            errors.append(abs(sol.amplitude - 3 * K_HALF))
        assert errors[0] > errors[1] > errors[2]
        order = math.log2(errors[0] / errors[1])
        assert 3.0 < order < 5.0

    def test_inadmissible_model_rejected(self):
        with pytest.raises(ValidationError, match=r"LaneEmden needs p > 2, got p = 1\.5"):
            find_one_dim_solution(LaneEmden(1.5), 1)

    def test_linear_dominated_cubic_has_no_positive_solution(self):
        # with c1 > (pi/2)^2 every trajectory oscillates before x = 1
        with pytest.raises(NoSolutionError):
            find_one_dim_solution(CubicFamily(c1=10.0, c3=1.0), 1)

    @pytest.mark.parametrize("p, n", [(2.05, 1), (2.5, 2), (6.0, 3)])
    def test_lane_emden_amplitudes_match_closed_form(self, p, n):
        # amplitudes 8.5e7, 594 and 3.2: large ones need no preset search window
        sol = find_one_dim_solution(LaneEmden(p), n)
        assert sol.nodal_count == n
        assert sol.amplitude == pytest.approx(lane_emden_amplitude(p, n), rel=1e-8)

    def test_stiff_cubic_amplitude_matches_elliptic_quarter_period(self):
        # f = c3 u^3 scales the p = 4 amplitude by 1/sqrt(c3)
        sol = find_one_dim_solution(CubicFamily(c1=0.0, c3=1e4), 1)
        assert sol.amplitude == pytest.approx(K_HALF / 100.0, rel=1e-8)

    def test_linear_part_at_the_time_map_bound(self):
        # T(0+) = pi / (2 sqrt(c1)) < 1 rules out n = 1 for c1 = 3 > (pi/2)^2,
        # while three quarter periods still fit below (3 pi/2)^2
        model = CubicFamily(c1=3.0, c3=1.0)
        with pytest.raises(NoSolutionError, match=r"\(\(2n - 1\) pi/2\)\^2 = 2\.4674"):
            find_one_dim_solution(model, 1)
        sol = find_one_dim_solution(model, 2)
        assert sol.nodal_count == 2
        assert 3.0 * cubic_quarter_period(3.0, 1.0, sol.amplitude) == pytest.approx(1.0, rel=1e-8)
        # within rounding of the bound the amplitude search stops instead of halving to 0
        with pytest.raises(NoSolutionError, match="sits at the bound"):
            find_one_dim_solution(CubicFamily(c1=(math.pi / 2) ** 2 * (1.0 - 1e-15), c3=1.0), 1)

    @pytest.mark.parametrize("p, n, what", [(3.0, 20, "too coarse"), (4.0, 15, "nodal domains")])
    def test_coarse_grid_reported_as_nonconvergence(self, p, n, what):
        # 100 RK4 steps either miss the sign change of u(1; a) near the
        # time-map amplitude or land on a root with the wrong nodal count
        with pytest.raises(NonConvergenceError, match=what):
            find_one_dim_solution(LaneEmden(p), n, ShootingConfig(steps=100))


class TestResidual:
    def test_zero_solution(self, cubic_model):
        m = 100
        sol = OneDimSolution(
            grid=np.linspace(0, 1, m + 1),
            values=np.zeros(m + 1),
            derivative_values=np.zeros(m + 1),
            amplitude=0.0,
            nodal_count=1,
        )
        assert residual_check(sol, cubic_model) == 0.0

    def test_shooting_solution_residual_small(self, cubic_model, cubic_solutions):
        sol = cubic_solutions[1]
        assert residual_check(sol, cubic_model) <= 1e-4

    def test_residual_refinement_is_second_order(self, cubic_model):
        res = {}
        for m in (500, 1000, 2000):
            sol = find_one_dim_solution(cubic_model, 1, ShootingConfig(steps=m))
            res[m] = residual_check(sol, cubic_model)
        assert res[500] / res[1000] == pytest.approx(4.0, rel=0.2)
        assert res[1000] / res[2000] == pytest.approx(4.0, rel=0.2)

    def test_linear_eigenfunction_identity(self):
        # -u'' = (pi/2)^2 u for u = cos(pi x / 2); a vanishing cubic term
        # keeps the model admissible while reproducing the linear problem
        model = CubicFamily(c1=(math.pi / 2) ** 2, c3=1e-12)
        res = {}
        for m in (200, 400):
            x = np.linspace(0.0, 1.0, m + 1)
            sol = OneDimSolution(
                grid=x,
                values=np.cos(np.pi * x / 2),
                derivative_values=-np.pi / 2 * np.sin(np.pi * x / 2),
                amplitude=1.0,
                nodal_count=1,
            )
            res[m] = residual_check(sol, model)
        assert res[200] / res[400] == pytest.approx(4.0, rel=0.1)


def test_a_lane_emden_exponent_past_the_overflow_of_f_is_solved():
    # from p = 103.8, f(+-1000) overflows; the admissibility rule samples nothing
    sol = find_one_dim_solution(LaneEmden(110.0), 1)
    assert sol.nodal_count == 1 and sol.amplitude == pytest.approx(1.03804157, rel=1e-8)


def _short_solution():
    x = np.linspace(0.0, 1.0, 4)
    return OneDimSolution(grid=x, values=np.cos(x), derivative_values=-np.sin(x), amplitude=1.0, nodal_count=1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ShootingConfig(steps=99), "ShootingConfig.steps must be >= 100, got 99"),
        (lambda: ShootingConfig(tol_terminal=0.0), "shooting tolerances must be positive"),
        (lambda: integrate_ivp("quartic", 1.0, 100), "unsupported model 'quartic'"),
        (lambda: count_nodal_domains_1d([1.0, -1.0], -1.0), "tolerance must be >= 0"),
        (lambda: find_one_dim_solution(LaneEmden(4.0), 0), "nodal count must be >= 1, got 0"),
        (lambda: residual_check(_short_solution(), LaneEmden(4.0)), "residual check needs at least 5 grid nodes"),
    ],
    ids=["steps", "tolerance", "model", "nodal-tol", "nodal-count", "residual-nodes"],
)
def test_unreached_raises_name_the_rule(call, match):
    with pytest.raises(ValidationError, match=match):
        call()

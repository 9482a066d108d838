import pytest

from cylbif import (
    LaneEmden,
    extrapolated_alphas,
    find_one_dim_solution,
    linearized_spectrum,
)


@pytest.fixture(scope="session")
def cubic_model():
    """f(u) = u**3 as the LaneEmden member with p = 4."""
    return LaneEmden(p=4.0)


@pytest.fixture(scope="session")
def cubic_solutions(cubic_model):
    """Shooting solutions with n = 1, 2, 3 nodal domains."""
    return {n: find_one_dim_solution(cubic_model, n) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def cubic_spectra_n1(cubic_model, cubic_solutions):
    """Linearization spectra around the positive solution at several resolutions."""
    amplitude = cubic_solutions[1].amplitude
    return {m: linearized_spectrum(cubic_model, amplitude, m, 12) for m in (500, 1000, 2000, 4000)}


@pytest.fixture(scope="session")
def cubic_alphas_n1(cubic_model, cubic_solutions):
    """Richardson-extrapolated eigenvalues for the positive cubic solution."""
    return extrapolated_alphas(cubic_model, cubic_solutions[1].amplitude, 2000, 12)[0]

"""Numerical study of height-only solutions on bounded cylinders: Morse
indices via spectral composition, degeneracy scalings, and continuation of
the symmetry-breaking branches that appear there."""

from .errors import (
    BranchNotFoundError,
    CoverageError,
    CylbifError,
    DegenerateInputError,
    InsufficientSpectrumError,
    IntegrationOverflowError,
    InvalidKernelError,
    NoSolutionError,
    NonConvergenceError,
    ResourceLimitError,
    ValidationError,
)
from .nonlinearity import (
    CubicFamily,
    HypothesisReport,
    LaneEmden,
    NonlinearityModel,
    check_hypotheses,
    eval_F,
    eval_f,
    eval_fprime,
    model_from_dict,
    model_to_dict,
)
from .ode_shooting import (
    OneDimSolution,
    ShootingConfig,
    count_nodal_domains_1d,
    find_one_dim_solution,
    integrate_ivp,
    residual_check,
)
from .sturm_liouville import (
    SturmSpectrum,
    TridiagonalOperator,
    assemble_sl_operator,
    extrapolated_alphas,
    linearized_spectrum,
    nondegeneracy_margin,
    one_dim_morse,
    oscillation_check,
    richardson_extrapolate,
    sl_eigenpairs,
)
from .base_spectrum import (
    BaseDomain,
    BaseSpectrum,
    Disk,
    Interval,
    Rectangle,
    domain_from_dict,
    neumann_eigenvalues,
    scale_spectrum,
)
from .morse_bifurcation import (
    BifurcationPoint,
    ComposedEntry,
    ComposedSpectrum,
    MorseReport,
    MorseSample,
    compose_spectrum,
    degeneracy_times,
    ground_state_flag,
    morse_index,
    morse_vs_t,
)
from .pde_rectangle import (
    BranchContext,
    BranchPoint,
    Grid2D,
    KernelMode,
    Linearized2D,
    assemble_linearized,
    backtrack_branch,
    build_kernel_mode,
    continue_branch,
    count_nodal_domains_2d,
    embed_one_dim,
    eval_energy,
    make_branch_context,
    newton_solve,
    one_dimensionality_deviation,
    smallest_eigenvalues,
)

__version__ = "0.1.0"

"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: validation problems exit 2,
non-convergence exits 3, and genuinely missing solutions/branches exit 4.
"""


class CylbifError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CylbifError):
    """Bad input data, parameters, or configuration."""


class DegenerateInputError(ValidationError):
    """Input is identically below the resolution threshold."""


class CoverageError(ValidationError):
    """Spectra were not enumerated far enough to certify a complete answer."""


class ResourceLimitError(ValidationError):
    """Requested enumeration exceeds the configured mode budget."""


class InsufficientSpectrumError(ValidationError):
    """Too few eigenvalues were computed to decide the question."""


class NonConvergenceError(CylbifError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationOverflowError(NonConvergenceError):
    """State became non-finite during time stepping."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NoSolutionError(CylbifError):
    """No admissible solution was found in the search window."""


class BranchNotFoundError(NoSolutionError):
    """Branch switching fell back to the known solution at every attempt."""

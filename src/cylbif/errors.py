"""Exception types shared across the toolkit, and the input rules they enforce.

The CLI maps these onto process exit codes: validation problems exit 2,
non-convergence exits 3, and genuinely missing solutions/branches exit 4.
:func:`finite_number` is the one rule for a number read from a configuration,
and :func:`from_spec` the one rule for a typed ``{"type": ..., field: number}``
spec such as a model or a base.
"""

import math
from dataclasses import fields

__all__ = [
    "CylbifError",
    "ValidationError",
    "DegenerateInputError",
    "CoverageError",
    "ResourceLimitError",
    "InsufficientSpectrumError",
    "NonConvergenceError",
    "IntegrationOverflowError",
    "NoSolutionError",
    "BranchNotFoundError",
    "finite_number",
    "from_spec",
]


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
    """No admissible solution or branch exists, or its amplitude is not representable."""


class BranchNotFoundError(NoSolutionError):
    """Branch switching fell back to the known solution at every attempt, or its
    first point would lie past t_max."""


def finite_number(value, what: str, kind=float):
    """``value`` as ``kind`` if it is a finite JSON number, integral when ``kind`` is int;
    anything else, booleans included, fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return kind(value)


def from_spec(data, what: str, kinds: dict):
    """The dataclass ``kinds[data["type"]]`` built from the other keys of ``data``, which
    must be exactly its fields, each a finite number."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"{what} spec must be a dict with a 'type' key, got {data!r}")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"unknown {what} type {kind!r}")
    names = [f.name for f in fields(kinds[kind])]
    rule = f"{kind} {what} requires numeric fields " + " and ".join(map(repr, names))
    if set(data) != {"type", *names}:
        raise ValidationError(f"{rule}, got {sorted(set(data) - {'type'})}")
    try:
        values = [finite_number(data[name], f"{what}.{name}") for name in names]
    except ValidationError as exc:
        raise ValidationError(f"{rule}: {exc}") from exc
    return kinds[kind](*values)

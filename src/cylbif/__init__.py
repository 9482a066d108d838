"""Numerical study of height-only solutions on bounded cylinders: Morse
indices via spectral composition, degeneracy scalings, and continuation of
the symmetry-breaking branches that appear there.

The public names are each module's ``__all__``."""

from .errors import *  # noqa: F403
from .nonlinearity import *  # noqa: F403
from .ode_shooting import *  # noqa: F403
from .sturm_liouville import *  # noqa: F403
from .base_spectrum import *  # noqa: F403
from .morse_bifurcation import *  # noqa: F403
from .pde_rectangle import *  # noqa: F403

__version__ = "0.1.0"

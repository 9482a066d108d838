"""Numerical study of height-only solutions on bounded cylinders: Morse
indices via spectral composition, degeneracy scalings, and continuation of
the symmetry-breaking branches that appear there.

The public names are each module's ``__all__``.  ``pde_rectangle``, the only
layer that imports scipy at module level, is registered in ``sys.modules``
lazily: its body, and scipy's import, run when one of its names is first
read, so the 1D chain never pays for them."""

import importlib.util
import sys

from .errors import *  # noqa: F403
from .nonlinearity import *  # noqa: F403
from .ode_shooting import *  # noqa: F403
from .sturm_liouville import *  # noqa: F403
from .base_spectrum import *  # noqa: F403
from .morse_bifurcation import *  # noqa: F403

__version__ = "0.1.0"


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


pde_rectangle = _register_lazily("pde_rectangle")


def __getattr__(name: str):
    # PEP 562: pde_rectangle's __all__ through the package; a probe for an underscore
    # name, such as star-import's __all__, does not load it
    if not name.startswith("_") and name in pde_rectangle.__all__:
        return getattr(pde_rectangle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""hydrobench: cross-validation workbench for the hydrodynamic model hierarchy
of the linearized one-dimensional kinetic equation.

Layers, bottom up: exact eigenfunction algebra (velocity_space), the Maxwell
eigenvalue table and transport coefficients (coefficients), plane-wave
dispersion relations (dispersion), spectral field evolution of all five
models (hydro_spectral), the five-field kinetic moment reference
(moment_reference), and the secular-growth laboratory (secularity).  The
cli module drives experiments and emits CSV/SVG.
"""

from . import (
    coefficients,
    dispersion,
    hydro_spectral,
    initial_conditions,
    moment_reference,
    secularity,
    velocity_space,
)
from .coefficients import *  # noqa: F403
from .dispersion import *  # noqa: F403
from .hydro_spectral import *  # noqa: F403
from .initial_conditions import *  # noqa: F403
from .moment_reference import *  # noqa: F403
from .secularity import *  # noqa: F403
from .velocity_space import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *coefficients.__all__,
    *dispersion.__all__,
    *hydro_spectral.__all__,
    *initial_conditions.__all__,
    *moment_reference.__all__,
    *secularity.__all__,
    *velocity_space.__all__,
    "__version__",
]

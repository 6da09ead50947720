"""hydrobench: cross-validation workbench for the hydrodynamic model hierarchy
of the linearized one-dimensional kinetic equation.

Layers, bottom up: exact eigenfunction algebra (velocity_space), the Maxwell
eigenvalue table and transport coefficients (coefficients), plane-wave
dispersion relations (dispersion), spectral field evolution of all five
models (hydro_spectral), the five-field kinetic moment reference
(moment_reference), and the secular-growth laboratory (secularity).  The
cli module drives experiments and emits CSV/SVG.
"""

from .coefficients import (
    SOUND_SPEED,
    SOUND_SPEED_SQUARED,
    BurnettCoefficients,
    EigenvalueSet,
    NsCoefficients,
    eigenvalue_set,
    transport_burnett,
    transport_ns,
)
from .dispersion import (
    Branch,
    BranchCollisionError,
    DispersionTable,
    ModelId,
    branches,
    sigma_asymptotic,
    symbol_matrix,
)
from .hydro_spectral import (
    FirstOrderCorrection,
    HermitianSymmetryError,
    HydroState,
    InternalConsistencyError,
    SpectralState,
    evolve,
    first_order_correction,
    from_modes,
    h1_fluxes,
    riemann_join,
    riemann_split,
    to_modes,
)
from .initial_conditions import ICParseError, ICSpec, ICTerm, parse_initial_condition, realize
from .moment_reference import (
    HydroProjection,
    burnett_deviation_rms,
    evolve_moments,
    from_hydro,
    hydro_projection,
    reference_gaps,
    trajectory,
)
from .secularity import (
    SecularSeries,
    UnsupportedInitialCondition,
    secular_ratio_series,
)
from .velocity_space import (
    EigenfunctionId,
    Recursion,
    VelocityPolynomial,
    inner,
    moment_of,
    monomial_moment,
    psi_poly,
    recursion_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchCollisionError",
    "BurnettCoefficients",
    "DispersionTable",
    "EigenfunctionId",
    "EigenvalueSet",
    "FirstOrderCorrection",
    "HermitianSymmetryError",
    "HydroProjection",
    "HydroState",
    "ICParseError",
    "ICSpec",
    "ICTerm",
    "InternalConsistencyError",
    "ModelId",
    "NsCoefficients",
    "Recursion",
    "SOUND_SPEED",
    "SOUND_SPEED_SQUARED",
    "SecularSeries",
    "SpectralState",
    "UnsupportedInitialCondition",
    "VelocityPolynomial",
    "branches",
    "burnett_deviation_rms",
    "eigenvalue_set",
    "evolve",
    "evolve_moments",
    "first_order_correction",
    "from_hydro",
    "from_modes",
    "h1_fluxes",
    "hydro_projection",
    "inner",
    "moment_of",
    "monomial_moment",
    "parse_initial_condition",
    "psi_poly",
    "realize",
    "recursion_residual",
    "reference_gaps",
    "riemann_join",
    "riemann_split",
    "secular_ratio_series",
    "sigma_asymptotic",
    "symbol_matrix",
    "to_modes",
    "trajectory",
    "transport_burnett",
    "transport_ns",
    "__version__",
]

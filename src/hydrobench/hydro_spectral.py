"""Periodic spectral fields and exact per-mode evolution of all five models.

Fields live on the uniform grid x_j = 2*pi*j/N of the domain [0, 2*pi);
integer wavenumbers only.  The models are linear with constant coefficients,
so each Fourier mode is advanced by the exact matrix exponential of its
symbol: there is no time-stepping error, and the output cadence is purely a
sampling choice.  evolve takes a 1-D array of output times and exponentiates
the symbol stack once for all of them, for any model whose model.dimension
is the row count of the state: 3 for (u, p, s), 5 for the moments (n, u, p,
Pi, q).  States carry no time: evolve returns the modes at every elapsed
time asked for as one pair, the occupied columns and their (T, d, m)
modes, and a leading t = 0 gives the state's own modes, bit for bit
(_modal.check_times states the contract).  Real fields are one (3, N)
float array, rows u, p and s, as each row of moment_reference.trajectory
is; to_modes and from_modes go between it and a 3-row SpectralState.  The
temperature perturbation is derived, never stored: T = (2/5)(p + s), which
is T = p - n with the density n = (3p - 2s)/5 that
moment_reference.from_hydro forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _modal
from ._modal import HermitianSymmetryError
from .coefficients import SOUND_SPEED, EigenvalueSet
from .dispersion import ModelId, parity_scale, symbol_matrix
from .velocity_space import EigenfunctionId, inner, psi_poly

__all__ = [
    "FirstOrderCorrection",
    "HermitianSymmetryError",
    "InternalConsistencyError",
    "SpectralState",
    "evolve",
    "first_order_correction",
    "from_modes",
    "h1_fluxes",
    "riemann_join",
    "riemann_split",
    "to_modes",
]

#: Relative disagreement beyond this between two independent routes to one
#: result (the h1 fluxes) is a build error.
ROUTE_CONSISTENCY_TOL = 1e-10


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


def _fields(values) -> np.ndarray:
    """values as a real field state: a (3, N) float array, rows u, p and s.

    Any other shape is refused, ragged rows included, and so is a grid
    below MIN_GRID_SIZE (8).
    """
    try:
        fields = np.asarray(values, dtype=float)
    except ValueError as error:
        raise ValueError(f"fields must have shape (3, N): {error}") from None
    if fields.ndim != 2 or len(fields) != 3:
        raise ValueError(f"fields must have shape (3, N), rows u, p and s, got {fields.shape}")
    _modal.check_grid_size(fields.shape[1])
    return fields


@dataclass(frozen=True)
class SpectralState:
    """Half-spectrum coefficients of d fields on a grid of grid_size points.

    modes has shape (d, grid_size//2 + 1) in numpy rfft layout, with d = 3
    for (u, p, s) and d = 5 for (n, u, p, Pi, q), normalized so u(x) =
    sum_k modes[row, k] exp(+i k x) + c.c. over k = 1..grid_size//2 (the
    k = 0 and even-grid Nyquist terms counted once).  grid_size is stored
    because the column count cannot tell an even grid from an odd one, and
    is at least MIN_GRID_SIZE (8), as the N of (3, N) fields is.  A state
    describing real fields has real k = 0 and Nyquist modes.
    """

    modes: np.ndarray
    grid_size: int

    def __post_init__(self):
        _modal.check_grid_size(self.grid_size)
        modes = np.asarray(self.modes, dtype=complex)
        columns = self.grid_size // 2 + 1
        if modes.shape not in ((3, columns), (5, columns)):
            raise ValueError(
                f"modes must have shape (3 or 5, {columns}) for grid size "
                f"{self.grid_size}, got {modes.shape}"
            )
        object.__setattr__(self, "modes", modes)


def _require_rows(spec: SpectralState, rows: int, reader: str) -> None:
    if len(spec.modes) != rows:
        raise ValueError(f"{reader} needs a state of {rows} rows, got {len(spec.modes)}")


def to_modes(fields) -> SpectralState:
    """Discrete Fourier analysis of (3, N) fields, rows u, p and s."""
    fields = _fields(fields)
    return SpectralState(_modal.forward_modes(fields), fields.shape[1])


def from_modes(spec: SpectralState) -> np.ndarray:
    """Synthesis of (u, p, s) modes to (3, N) real fields.

    Raises on a non-finite mode and on a complex k = 0 or Nyquist mode.
    """
    _require_rows(spec, 3, "from_modes")
    return _modal.inverse_modes(spec.modes, spec.grid_size)


def evolve(
    spec: SpectralState,
    model: ModelId,
    eps: float,
    eigenvalues: EigenvalueSet,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every occupied mode by the exact exponential of its model symbol.

    times is a 1-D ascending array of nonnegative elapsed times
    (_modal.check_times), and the result is the pair (columns, values) that
    _modal.mode_propagators returns: the indices of the columns with a
    nonzero entry, and their modes at every time as one (T, d, m) array.
    The other columns stay exactly zero and are not returned, so a state
    with a few occupied wavenumbers, as an initial condition's spectrum is,
    costs those few; _modal.scatter_modes makes the dense modes, and a
    leading 0 is the start, spec.modes bit for bit.  Wrap a dense row in
    SpectralState to evolve it further.  The state must have
    d = model.dimension rows.  The modes are propagated in the real
    coordinates of the model's parity scale (dispersion.parity_scale; none
    for the diagonal Riemann-decoupled symbol), as
    _modal.mode_propagators describes: in closed form for the
    acoustic pair of Euler, Navier-Stokes and Burnett, by one real
    eigendecomposition for the moment system, and with no eig for the
    diagonal Riemann-decoupled symbol.  Spatial means (the k = 0 modes) are
    invariant for every model because all terms are x-derivatives.

    What remains of the exact-eigenbasis plan (ROADMAP item 1): the
    Riemann-decoupled symbol still receives (u, p, s) modes in place of
    (R+, R-, s), and the benchmark's tracer still keys hydro propagation to
    this function and mode_propagators by name, so neither seam can go yet.
    """
    _require_rows(spec, model.dimension, model.value)
    return _modal.mode_propagators(
        lambda k: symbol_matrix(model, k, eps, eigenvalues),
        spec.grid_size,
        times,
        spec.modes,
        parity_scale(model),
    )


def riemann_split(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Riemann invariants R+ = a0*u + p and R- = a0*u - p."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return SOUND_SPEED * u + p, SOUND_SPEED * u - p


def riemann_join(r_plus: np.ndarray, r_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse of riemann_split."""
    r_plus = np.asarray(r_plus, dtype=float)
    r_minus = np.asarray(r_minus, dtype=float)
    u = (r_plus + r_minus) / (2.0 * SOUND_SPEED)
    p = (r_plus - r_minus) / 2.0
    return u, p


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """d/dx of smooth periodic fields (d, n), or a stack of them, by mode multiplication.

    The modes are those of _modal.forward_modes and the result their
    synthesis by _modal.inverse_modes, which refuses a non-finite field.
    The Nyquist mode of an even-length grid is zeroed: its derivative is not
    representable on the grid and real output requires it.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k = _modal.wavenumbers(n).astype(float)
    if n % 2 == 0:
        k[-1] = 0.0
    return _modal.inverse_modes(1j * k * _modal.forward_modes(values), n)


def _gradients(fields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T = (2/5)(p + s) of (3, N) fields, and du/dx and dT/dx, which both flux routes take."""
    u, p, s = _fields(fields)
    temperature = 0.4 * (p + s)
    du_dx, dt_dx = spectral_derivative(np.stack([u, temperature]))
    return temperature, du_dx, dt_dx


@dataclass(frozen=True)
class FirstOrderCorrection:
    """Pointwise coefficients of the first kinetic correction.

    The correction is a_temperature * psi11 + a_velocity * psi02 with
    a_temperature = (1/lambda11) dT/dx and a_velocity = (1/lambda02) du/dx.
    Both vanish wherever the gradients do.
    """

    a_temperature: np.ndarray
    a_velocity: np.ndarray


def first_order_correction(fields, eigenvalues: EigenvalueSet) -> FirstOrderCorrection:
    """The correction of (3, N) fields, rows u, p and s."""
    _, du_dx, dt_dx = _gradients(fields)
    return _correction(du_dx, dt_dx, eigenvalues)


def _correction(
    du_dx: np.ndarray, dt_dx: np.ndarray, eigenvalues: EigenvalueSet
) -> FirstOrderCorrection:
    """The correction of given gradients; h1_fluxes feeds both of its routes from one pair."""
    return FirstOrderCorrection(
        a_temperature=dt_dx / float(eigenvalues.lambda11),
        a_velocity=du_dx / float(eigenvalues.lambda02),
    )


def h1_fluxes(fields, eigenvalues: EigenvalueSet) -> tuple[np.ndarray, np.ndarray]:
    """Viscous stress and heat flux carried by the first kinetic correction.

    fields is a (3, N) array, rows u, p and s.  Returns (stress, heat_flux)
    per unit eps:

        stress(x)    = (4/(3*lambda02)) du/dx
        heat_flux(x) = (5/(2*lambda11)) dT/dx

    Each flux is computed twice: once from the closed form above and once as
    the Gaussian inner product of the correction against psi02 and psi11,
    which routes the normalization constants 4/3 and 5/2 through the exact
    eigenfunction algebra.  The two routes must agree to ROUTE_CONSISTENCY_TOL
    or the build is internally inconsistent and an error is raised.
    """
    _, du_dx, dt_dx = _gradients(fields)
    correction = _correction(du_dx, dt_dx, eigenvalues)

    stress_closed = float(Fraction(4, 3) / eigenvalues.lambda02) * du_dx
    heat_closed = float(Fraction(5, 2) / eigenvalues.lambda11) * dt_dx

    # Bridge route: <psi, h1> with h1 = a_T psi11 + a_u psi02, evaluated with
    # the exact inner products (the cross terms vanish by parity).
    psi02 = psi_poly(EigenfunctionId.PSI02)
    psi11 = psi_poly(EigenfunctionId.PSI11)
    stress_bridge = (
        float(inner(psi02, psi02)) * correction.a_velocity
        + float(inner(psi02, psi11)) * correction.a_temperature
    )
    heat_bridge = (
        float(inner(psi11, psi11)) * correction.a_temperature
        + float(inner(psi11, psi02)) * correction.a_velocity
    )

    scale = max(1.0, float(np.max(np.abs(stress_closed))), float(np.max(np.abs(heat_closed))))
    worst = max(
        float(np.max(np.abs(stress_closed - stress_bridge))),
        float(np.max(np.abs(heat_closed - heat_bridge))),
    )
    if worst > ROUTE_CONSISTENCY_TOL * scale:
        raise InternalConsistencyError(
            f"closed-form and inner-product flux routes disagree by {worst:.3e}"
        )
    return stress_closed, heat_closed

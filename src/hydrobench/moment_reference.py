"""Closed five-field kinetic moment system used as numerical ground truth.

The state per wavenumber is (n, u, p, Pi, q): the three conserved moments
plus the stress moment Pi = <psi02, phi> and heat-flux moment q = <psi11,
phi>.  Streaming couples them through the exact eigenfunction recursions with
the higher moments m03, m12, m20 truncated to zero (Grad-style closure);
collisions act exactly diagonally with rates lambda02/eps on Pi and
lambda11/eps on q.  The system in flux form:

    dn/dt  = -du/dx
    du/dt  = -d(p + Pi)/dx
    dp/dt  = -(5/3) du/dx - (2/3) dq/dx
    dPi/dt = -(4/3) du/dx - (8/15) dq/dx + (lambda02/eps) Pi
    dq/dt  = -dPi/dx - (5/2) dT/dx + (lambda11/eps) q,    T = p - n

Its three slow eigenvalue branches converge to the Burnett-level dispersion
relation at rate O(k (eps k)^3), which is the module's central validation.
The generator is built, like every model's, by dispersion.symbol_matrix;
evolve_moments reaches every requested time from one diagonalization.
trajectory evolves a (u, p, s) state under any of the five models, and
reference_gaps is the one comparison with the moment truth that compare,
evolve and the Burnett-deviation criterion share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _modal
from .coefficients import SOUND_SPEED, EigenvalueSet
from .dispersion import ModelId, symbol_matrix
from .hydro_spectral import HydroState, SpectralState, evolve, from_modes, to_modes

__all__ = [
    "HydroProjection",
    "MomentState",
    "burnett_deviation_rms",
    "evolve_moments",
    "from_hydro",
    "hydro_projection",
    "reference_gaps",
    "trajectory",
]

MOMENT_ORDER = ("n", "u", "p", "stress", "heat_flux")


@dataclass(frozen=True)
class MomentState:
    """Half-spectrum coefficients of (n, u, p, Pi, q) on a grid of grid_size points.

    modes has shape (5, grid_size//2 + 1) in the numpy rfft layout of
    hydro_spectral.SpectralState; grid_size is stored because the column
    count cannot tell an even grid from an odd one.  A state describing real
    fields has real k = 0 and Nyquist modes.
    """

    modes: np.ndarray
    grid_size: int
    eps: float
    time: float = 0.0

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=complex)
        if modes.shape != (5, self.grid_size // 2 + 1):
            raise ValueError(
                f"modes must have shape (5, {self.grid_size // 2 + 1}) for grid size "
                f"{self.grid_size}, got {modes.shape}"
            )
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        object.__setattr__(self, "modes", modes)

    def field_modes(self, name: str) -> np.ndarray:
        return self.modes[MOMENT_ORDER.index(name)]


@dataclass(frozen=True)
class HydroProjection:
    """Hydrodynamic view of a moment state plus its kinetic residuals."""

    state: HydroState
    stress: np.ndarray
    heat_flux: np.ndarray


def from_hydro(state: HydroState, eps: float) -> MomentState:
    """Moment state with the hydro fields imposed and Pi = q = 0.

    The kinetic moments start on the equilibrium manifold; they relax toward
    their quasi-steady closures within a few collision times eps/|lambda|.
    """
    stacked = np.stack(
        [state.n, state.u, state.p, np.zeros(state.grid_size), np.zeros(state.grid_size)]
    )
    return MomentState(_modal.forward_modes(stacked), state.grid_size, eps, state.time)


def evolve_moments(state: MomentState, eigenvalues: EigenvalueSet, dt: float | np.ndarray):
    """Advance each mode by the exact exponential of the moment symbol.

    A positive step dt gives one state; a 1-D ascending array of elapsed
    times gives one state per time.  Exact propagation makes the stiffness
    knob lambda/eps harmless; the semigroup property holds to roundoff and
    the k = 0 rows of n, u, p are conserved identically.
    """
    advanced = _modal.mode_propagators(
        lambda kappa: symbol_matrix(ModelId.MOMENT_REFERENCE, kappa, state.eps, eigenvalues),
        state.grid_size,
        dt,
        state.modes,
    )
    return _modal.per_time(
        dt, advanced, lambda m, t: MomentState(m, state.grid_size, state.eps, state.time + t)
    )


def _hydro_state(state: MomentState) -> HydroState:
    """Synthesized (u, p, s) of a moment state, with s = (3/2)p - (5/2)n."""
    n, u, p = state.modes[:3]
    modes = np.stack([u, p, 1.5 * p - 2.5 * n])
    return from_modes(SpectralState(modes, state.grid_size, state.time))


def hydro_projection(state: MomentState) -> HydroProjection:
    """Project onto (u, p, s); keep Pi, q as residuals."""
    residuals = _modal.inverse_modes(state.modes[3:], state.grid_size)
    return HydroProjection(_hydro_state(state), stress=residuals[0], heat_flux=residuals[1])


def trajectory(
    initial: HydroState, model: ModelId, eps: float, eigenvalues: EigenvalueSet, times: np.ndarray
) -> Iterator[HydroState]:
    """HydroState of `initial` under `model` at each positive ascending elapsed time.

    times is a 1-D array; each state is synthesized as it is read.
    """
    if model is ModelId.MOMENT_REFERENCE:
        return map(_hydro_state, evolve_moments(from_hydro(initial, eps), eigenvalues, times))
    return map(from_modes, evolve(to_modes(initial), model, eps, eigenvalues, times))


def reference_gaps(
    initial: HydroState,
    models: Sequence[ModelId],
    eps: float,
    eigenvalues: EigenvalueSet,
    times: np.ndarray,
) -> np.ndarray:
    """Grid L2 gap over (u, p, s) of each model from the moment truth: shape (T, M).

    Both sides are synthesized, so each passes the Hermitian health check.
    The truth is synthesized once; one model trajectory is alive at a time.
    """
    truth = list(trajectory(initial, ModelId.MOMENT_REFERENCE, eps, eigenvalues, times))
    dx = 2.0 * np.pi / initial.grid_size
    gaps = np.empty((len(truth), len(models)))
    for j, model in enumerate(models):
        evolved = trajectory(initial, model, eps, eigenvalues, times)
        for i, (a, b) in enumerate(zip(evolved, truth)):
            gaps[i, j] = np.sqrt(
                dx * np.sum((a.u - b.u) ** 2 + (a.p - b.p) ** 2 + (a.s - b.s) ** 2)
            )
    return gaps


def burnett_deviation_rms(
    initial: HydroState,
    eps: float,
    eigenvalues: EigenvalueSet,
    time: float,
    period: float | None = None,
    n_samples: int = 32,
) -> float:
    """Cycle-averaged deviation between Burnett evolution and the moment truth.

    Both systems start from `initial` (the moment state with Pi = q = 0) and
    the reference_gaps of Burnett is sampled at n_samples times spanning one
    acoustic period that ends at `time`; the RMS over the window is
    returned.  Averaging over a period removes the acoustic phase of the
    O(eps) entropy component from the measurement, so the returned number
    scales cleanly at first order in eps.  The default period is that of the
    k = 1 sound wave, 2*pi/a0.
    """
    if period is None:
        period = 2.0 * np.pi / SOUND_SPEED
    if time <= period:
        raise ValueError(f"need time > one period ({period:g}), got {time}")
    sample_times = time - period + period * np.arange(1, n_samples + 1) / n_samples
    elapsed = sample_times - initial.time
    gaps = reference_gaps(initial, [ModelId.BURNETT], eps, eigenvalues, elapsed)
    return float(np.sqrt(np.mean(gaps**2)))

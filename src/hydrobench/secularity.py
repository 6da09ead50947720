"""Secular-growth laboratory for the single-time versus multiscale expansions.

The experiment runs entirely at the level of moment equations for a single
standing-wave mode, so everything is closed form or a small exact matrix
exponential.

Naive side: when the leading order is evolved by the ideal acoustic equations
alone, the first-correction wave equation is forced on resonance by the
dissipative terms and its particular solution grows linearly.  For the
standing wave of mode k the forcing is F = 2*Ds*k^2 * (d/dt leading order),
Ds the sound diffusivity, and the oscillator u'' + (a0 k)^2 u = F has
particular-solution envelope (|F|/(2*a0*k)) * t = Ds*k^2*t per unit
amplitude.  The correction becomes comparable to the leading order by times
of order 1/eps.

Multiscale side: after the uniformization conditions absorb the resonant
forcing into slow damping and dispersion of the leading order, the remaining
first-correction source couples only counter-propagating acoustic
characters, so the response stays bounded.  This is measured here with an
exact augmented propagator: the leading order evolves under the Burnett
symbol, the first correction under the damped acoustic symbol, coupled by
the post-uniformization source terms.  The 4x4 generator is diagonalized once
for the whole time series, and the final time is checked against expm.

`secular_ratio_series` is the one route to both ratios: the `secular`
command writes it out and the check registry's criterion 6 reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._modal import exp_action
from .coefficients import SOUND_SPEED, EigenvalueSet, transport_ns
from .dispersion import ModelId, symbol_matrix
from .hydro_spectral import ROUTE_CONSISTENCY_TOL, InternalConsistencyError
from .initial_conditions import ICSpec

__all__ = [
    "SecularSeries",
    "UnsupportedInitialCondition",
    "beyond_horizon",
    "secular_ratio_series",
]


class UnsupportedInitialCondition(ValueError):
    """The experiment needs a single-mode velocity standing wave of nonzero amplitude."""


@dataclass(frozen=True)
class SecularSeries:
    """Norm ratios eps*|correction|/|leading| along a time series."""

    times: np.ndarray
    naive_ratio: np.ndarray
    multiscale_ratio: np.ndarray


def _single_u_mode(ic: ICSpec) -> int:
    if len(ic.terms) != 1 or ic.terms[0].field != "u" or ic.terms[0].amplitude == 0:
        raise UnsupportedInitialCondition(
            "secularity experiments need exactly one velocity term with a nonzero "
            "amplitude, e.g. u:1:1"
        )
    return ic.terms[0].mode


def beyond_horizon(t: float, eps: float) -> bool:
    """Whether time t lies past 1/eps^2, where the uniform-error claim stops.

    A relative slack of 1e-12 lets a t written as 1/eps^2 in decimal pass.
    No division, so an eps whose square underflows has an infinite horizon.
    """
    return bool(t * eps * eps > 1.0 + 1e-12)


def _augmented_matrix(mode: int, eps: float, eigenvalues: EigenvalueSet) -> np.ndarray:
    """Generator of (leading u, p; correction u, p) for one wavenumber.

    Upper block: Burnett symbol (uniformized leading order).  Lower block:
    acoustic symbol with first-order damping, driven by the residual
    dissipative source with coefficient D = 2/(3*lambda02) - 1/(3*lambda11),
    which couples only opposite acoustic characters and therefore stays
    off resonance.
    """
    k = float(mode)
    leading = symbol_matrix(ModelId.BURNETT, k, eps, eigenvalues)[:2, :2]
    correction = symbol_matrix(ModelId.NAVIER_STOKES, k, eps, eigenvalues)[:2, :2]
    residual = float(
        Fraction(2, 3) / eigenvalues.lambda02 - Fraction(1, 3) / eigenvalues.lambda11
    )
    coupling = np.array([[residual * k * k, 0.0], [0.0, -residual * k * k]], dtype=complex)
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[:2, :2] = leading
    matrix[2:, 2:] = correction
    matrix[2:, :2] = coupling
    return matrix


def _acoustic_amplitude(u_mode: np.ndarray, p_mode: np.ndarray) -> np.ndarray:
    # Energy-based amplitude: smooth in time for a standing wave, unlike |u| alone.
    return np.sqrt((SOUND_SPEED * np.abs(u_mode)) ** 2 + np.abs(p_mode) ** 2) / SOUND_SPEED


def _multiscale_ratios(
    mode: int, eps: float, eigenvalues: EigenvalueSet, times: np.ndarray
) -> np.ndarray:
    """eps*|correction|/|leading| at every time; the last is checked against expm.

    The system is linear and the ratio homogeneous of degree 0 in the
    start, so the standing wave of unit amplitude stands for every one.
    Both blocks damp sound at the rate eps*Ds*k^2 and the generator is
    block-triangular, so that rate is taken out of its diagonal: no ratio
    changes, and both waves stay of order one where their decay would
    underflow.
    """
    k = float(mode)
    damping = eps * float(transport_ns(eigenvalues).sound_diffusivity) * k * k
    generator = _augmented_matrix(mode, eps, eigenvalues) + damping * np.eye(4)
    start = np.array([0.5, 0.0, 0.0, 0.0], dtype=complex)
    ratios = np.empty(times.size)
    for rows, block in exp_action(generator[None], start[:, None], times):
        leading = _acoustic_amplitude(block[:, 0, 0], block[:, 1, 0])
        ratios[rows] = eps * _acoustic_amplitude(block[:, 2, 0], block[:, 3, 0]) / leading
    import scipy.linalg  # deferred, so the CLI's other commands never pay for its import
    direct = scipy.linalg.expm(generator * times[-1]) @ start
    gap = float(np.max(np.abs(block[-1, :, 0] - direct)))
    if gap > ROUTE_CONSISTENCY_TOL * float(np.max(np.abs(direct))):
        raise InternalConsistencyError(
            f"augmented propagator: eigen and expm routes differ by {gap:.3e} at t = {times[-1]:g}"
        )
    return ratios


def secular_ratio_series(
    ic: ICSpec, eps: float, eigenvalues: EigenvalueSet, times
) -> SecularSeries:
    """Naive and multiscale correction ratios along an ascending time series.

    The naive ratio eps*Ds*k^2*t compares the resonant envelope against the
    undamped acoustic leading order, so it is exactly linear in t.  The
    multiscale ratio is measured from the augmented propagator.  Both ratios
    are those of the unit-amplitude wave: they do not depend on the amplitude
    or phase of the IC term.  Times beyond 1/eps^2 are outside the validity horizon
    and rejected.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be nonnegative and ascending")
    if beyond_horizon(times[-1], eps):
        raise ValueError(
            f"max(times) = {times[-1]:g} exceeds the validity horizon "
            f"1/eps^2 = {1.0 / (eps * eps):g}"
        )
    mode = _single_u_mode(ic)
    k = float(mode)
    sound_diffusivity = float(transport_ns(eigenvalues).sound_diffusivity)
    naive = eps * (sound_diffusivity * k * k * times)
    multiscale = _multiscale_ratios(mode, eps, eigenvalues, times)
    return SecularSeries(times=times, naive_ratio=naive, multiscale_ratio=multiscale)


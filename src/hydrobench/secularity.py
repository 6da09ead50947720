"""Secular-growth laboratory for the single-time versus multiscale expansions.

The experiment runs entirely at the level of moment equations for a single
standing-wave mode, so everything is closed form or a small exact matrix
exponential.

Naive side: when the leading order is evolved by the ideal acoustic equations
alone, the first-correction wave equation is forced on resonance by the
dissipative terms and its particular solution grows linearly, with envelope
(|F|/(2*a0*k)) * t for resonant forcing amplitude |F|.  The correction
becomes comparable to the leading order by times of order 1/eps.

Multiscale side: after the uniformization conditions absorb the resonant
forcing into slow damping and dispersion of the leading order, the remaining
first-correction source couples only counter-propagating acoustic
characters, so the response stays bounded.  This is measured here with an
exact augmented propagator: the leading order evolves under the Burnett
symbol, the first correction under the damped acoustic symbol, coupled by
the post-uniformization source terms.  The 4x4 generator is diagonalized once
for the whole time series, and the final time is checked against expm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._modal import exp_action
from .coefficients import SOUND_SPEED, EigenvalueSet
from .dispersion import ModelId, symbol_matrix
from .hydro_spectral import ROUTE_CONSISTENCY_TOL, InternalConsistencyError
from .initial_conditions import ICSpec

__all__ = [
    "MultiscaleBound",
    "SecularSeries",
    "UnsupportedInitialCondition",
    "multiscale_bound",
    "naive_correction_envelope",
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

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        naive = np.asarray(self.naive_ratio, dtype=float)
        multi = np.asarray(self.multiscale_ratio, dtype=float)
        if not (times.size == naive.size == multi.size):
            raise ValueError("series arrays must have equal lengths")
        if np.any(naive < 0) or np.any(multi < 0):
            raise ValueError("ratios must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "naive_ratio", naive)
        object.__setattr__(self, "multiscale_ratio", multi)


@dataclass(frozen=True)
class MultiscaleBound:
    """Supremum of the multiscale ratio over sampled times.

    beyond_validity flags a requested horizon past 1/eps^2, outside the
    claimed uniform-error window.
    """

    value: float
    beyond_validity: bool = False

    def __float__(self) -> float:
        return self.value


def _single_u_mode(ic: ICSpec) -> tuple[int, float]:
    if len(ic.terms) != 1 or ic.terms[0].field != "u" or ic.terms[0].amplitude == 0:
        raise UnsupportedInitialCondition(
            "secularity experiments need exactly one velocity term with a nonzero "
            "amplitude, e.g. u:1:1"
        )
    term = ic.terms[0]
    return term.mode, abs(term.amplitude)


def _resonant_coefficient(eigenvalues: EigenvalueSet) -> float:
    # Bracketed dissipative combination that forces the correction on resonance:
    # 4/(3*lambda02) + 2/(3*lambda11), i.e. twice the (negative) sound damping rate.
    return float(
        Fraction(4, 3) / eigenvalues.lambda02 + Fraction(2, 3) / eigenvalues.lambda11
    )


def naive_correction_envelope(
    ic: ICSpec, eps: float, eigenvalues: EigenvalueSet, t: float | np.ndarray
) -> float | np.ndarray:
    """Envelope of the resonantly forced first correction at time t.

    For the standing wave of mode k and amplitude a, the naive (single-time)
    choice leaves the forcing F = -C * k^2 * (d/dt leading order) in place,
    with C the dissipative bracket; the oscillator u'' + (a0 k)^2 u = F then
    has particular-solution envelope (|F|/(2*a0*k)) * t = (|C| k^2 a / 2) * t.
    Closed form, no time stepping; the envelope is the correction itself, per
    unit eps, so it does not depend on eps.  t may be an array of times.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    mode, amplitude = _single_u_mode(ic)
    coefficient = abs(_resonant_coefficient(eigenvalues))
    return 0.5 * coefficient * mode * mode * amplitude * np.abs(t)


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
    ic: ICSpec, eps: float, eigenvalues: EigenvalueSet, times: np.ndarray
) -> np.ndarray:
    """eps*|correction|/|leading| at every time; the last is checked against expm."""
    mode, amplitude = _single_u_mode(ic)
    generator = _augmented_matrix(mode, eps, eigenvalues)
    start = np.array([0.5 * amplitude, 0.0, 0.0, 0.0], dtype=complex)
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

    The naive ratio compares the resonant envelope against the undamped
    acoustic leading order, so it is exactly linear in t.  The multiscale
    ratio is measured from the augmented propagator.  Times beyond 1/eps^2
    are outside the validity horizon and rejected.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be nonnegative and ascending")
    horizon = 1.0 / (eps * eps)
    if times[-1] > horizon * (1.0 + 1e-12):
        raise ValueError(
            f"max(times) = {times[-1]:g} exceeds the validity horizon 1/eps^2 = {horizon:g}"
        )
    _, amplitude = _single_u_mode(ic)
    naive = eps * naive_correction_envelope(ic, eps, eigenvalues, times) / amplitude
    multiscale = _multiscale_ratios(ic, eps, eigenvalues, times)
    return SecularSeries(times=times, naive_ratio=naive, multiscale_ratio=multiscale)


def multiscale_bound(
    ic: ICSpec,
    eps: float,
    eigenvalues: EigenvalueSet,
    tmax: float,
    n_samples: int | None = None,
) -> MultiscaleBound:
    """Supremum of the multiscale ratio over sampled times in (0, tmax].

    Sampling resolves the acoustic oscillation (at least eight samples per
    period, at least 256 overall).  A horizon beyond 1/eps^2 is measured
    anyway but flagged, since the uniform-error claim stops there.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if tmax <= 0:
        raise ValueError(f"tmax must be positive, got {tmax}")
    mode, _ = _single_u_mode(ic)
    period = 2.0 * np.pi / (SOUND_SPEED * mode)
    if n_samples is None:
        n_samples = max(256, int(np.ceil(8.0 * tmax / period)))
    times = tmax * np.arange(1, n_samples + 1) / n_samples
    ratios = _multiscale_ratios(ic, eps, eigenvalues, times)
    return MultiscaleBound(
        value=float(np.max(ratios)),
        beyond_validity=bool(tmax > 1.0 / (eps * eps) * (1.0 + 1e-12)),
    )

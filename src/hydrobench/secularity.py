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
characters, so the response stays bounded.  The leading order evolves under
the Burnett symbol, the first correction under the damped acoustic symbol,
coupled by the post-uniformization source terms.  In the Riemann coordinates
a0*u +- p both symbols are diagonal and the coupling swaps the characters,
so the ratio is the closed form 2*eps*|kappa|*|sin(Omega t/2)|/Omega
(_multiscale_ratios).  The exponential of the 4x4 augmented generator, by
scipy's expm at the final time, is the second route.

`secular_ratio_series` is the one route to both ratios: the `secular`
command writes it out and the check registry's criterion 6 reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _modal
from .coefficients import SOUND_SPEED, EigenvalueSet, transport_burnett, transport_ns
from .dispersion import ModelId, symbol_matrix
from .hydro_spectral import InternalConsistencyError
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


#: Largest accepted gap between the closed-form multiscale ratio and expm's at
#: the last time, in units of u * (1 + t*omega_B) * envelope (u = 2^-53): both
#: routes round the phase omega_B*t.  With lambda02 in {-1, -1/2, -1/7, -3},
#: eps from 0.001 to 0.3, k from 1 to 40 and t up to 1/eps^2, the gap read at
#: most 2.4 on a grid of 1,120 configurations and 3.2 over 6,000 random ones.
EXPM_GAP_C = 16.0


def _augmented_matrix(mode: int, eps: float, eigenvalues: EigenvalueSet) -> np.ndarray:
    """Generator of (leading u, p; correction u, p) for one wavenumber.

    Upper block: Burnett symbol (uniformized leading order).  Lower block:
    acoustic symbol with first-order damping, driven by the residual
    dissipative source diag(kappa, -kappa), kappa = D*k^2 with
    D = 2/(3*lambda02) - 1/(3*lambda11).  It sends the leading order's
    a0*u -+ p into the correction's a0*u +- p, the opposite acoustic
    character, and therefore stays off resonance.  _multiscale_ratios
    exponentiates it once, as the second route to its closed form.
    """
    k = float(mode)
    residual = float(Fraction(2, 3) / eigenvalues.lambda02 - Fraction(1, 3) / eigenvalues.lambda11)
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[:2, :2] = symbol_matrix(ModelId.BURNETT, k, eps, eigenvalues)[:2, :2]
    matrix[2:, 2:] = symbol_matrix(ModelId.NAVIER_STOKES, k, eps, eigenvalues)[:2, :2]
    matrix[2, 0], matrix[3, 1] = residual * k * k, -residual * k * k
    return matrix


def _multiscale_ratios(
    mode: int, eps: float, eigenvalues: EigenvalueSet, times: np.ndarray
) -> np.ndarray:
    """eps*|correction|/|leading| at every time, in closed form; the last is checked by expm.

    In the Riemann coordinates R+- = a0*u +- p both blocks of
    _augmented_matrix are diagonal, since beta_p = (5/3)*beta_u: the Burnett
    block has eigenvalues d +- i*omega_B with omega_B = a0*k*(1 +
    eps^2*beta_u*k^2), the acoustic block d +- i*omega_N with omega_N =
    a0*k, and both share the damping d = -eps*Ds*k^2.  The coupling drives
    R+-_C by kappa*R-+_L, so from a correction that starts at zero

        R+-_C(t) = kappa * R-+_L(0) * (exp(lambda-+_B t) - exp(lambda+-_N t)) / (-+i*Omega)

    with Omega = omega_B + omega_N, and |R+-_C(t)| = 2*|kappa|*|sin(Omega*t/2)|/Omega
    * e^(d t) * |R-+_L(0)| while |R+-_L(t)| = e^(d t) * |R+-_L(0)|.  The
    acoustic amplitude is sqrt((|R+|^2 + |R-|^2)/2)/a0, so for every start,
    mode and eps the ratio is envelope*|sin(Omega*t/2)| with envelope
    2*eps*|kappa|/Omega.

    The second route is one expm of the generator at the last time, with
    the shared damping taken out of its diagonal: no ratio changes, and both
    waves stay of order one where their decay would underflow.
    """
    k = float(mode)
    generator = _augmented_matrix(mode, eps, eigenvalues)
    beta_u = float(transport_burnett(eigenvalues).beta_u)
    omega_b = SOUND_SPEED * k * (1.0 + eps * eps * beta_u * k * k)
    omega = omega_b + SOUND_SPEED * k
    envelope = 2.0 * eps * abs(generator[2, 0].real) / omega  # generator[2, 0] is kappa
    ratios = envelope * np.abs(np.sin(0.5 * omega * times))

    import scipy.linalg  # deferred, so the CLI's other commands never pay for its import
    t = float(times[-1])
    damping = eps * float(transport_ns(eigenvalues).sound_diffusivity) * k * k
    # A phase expm cannot hold may overflow, or lose the leading wave to 0: the
    # gap is then not finite and fails the check below, which names the route.
    with np.errstate(all="ignore"):
        state = scipy.linalg.expm((generator + damping * np.eye(4)) * t)[:, 0]  # from (1, 0, 0, 0)
        # Energy-based amplitudes hypot(a0*|u|, |p|): smooth in time for a standing wave.
        lead, corr = np.hypot(SOUND_SPEED * np.abs(state[::2]), np.abs(state[1::2]))
        direct = eps * corr / lead
        gap = abs(ratios[-1] - direct)
    bound = EXPM_GAP_C * 2.0**-53 * (1.0 + t * omega_b) * envelope
    if not gap <= bound:
        raise InternalConsistencyError(
            f"multiscale ratio: closed form and expm differ by {gap:.3e} at t = {t:g}, "
            f"above {EXPM_GAP_C:g} u (1 + t omega_B) envelope = {bound:.3e}"
        )
    return ratios


def secular_ratio_series(
    ic: ICSpec, eps: float, eigenvalues: EigenvalueSet, times
) -> SecularSeries:
    """Naive and multiscale correction ratios along a time series.

    times pass _modal.check_times: a nonempty 1-D array, ascending and
    nonnegative.  The naive ratio eps*Ds*k^2*t compares the resonant
    envelope against the undamped acoustic leading order, so it is exactly
    linear in t.  The multiscale ratio is the closed form of the augmented
    propagator.  Both ratios are those of the unit-amplitude wave: they do
    not depend on the amplitude or phase of the IC term.  Times beyond
    1/eps^2 are outside the validity horizon and rejected.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    times = _modal.check_times(times)
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


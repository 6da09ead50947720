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
The generator is built, like every model's, by dispersion.symbol_matrix,
and a moment state is a 5-row hydro_spectral.SpectralState that
hydro_spectral.evolve advances like any other, into the pair of its
occupied columns and their (T, 5, m) modes.  The density n = (3p - 2s)/5
is formed only here, by from_hydro, and mapped back only by _hydro_modes.

trajectory and reference_gaps are the package's two runs of one initial
condition, and both are a propagation followed by a reduction.  Both start
from (u, p, s) modes, never from fields, and take their modes at every
time from one seam, _propagated, the only place that picks a model's
propagation: hydro_spectral.evolve, or evolve_moments of from_hydro mapped
back to (u, p, s).  The moment start is formed from the (u, p, s) modes
themselves, so an initial condition's exact spectrum
(initial_conditions.spectrum) reaches every model with the same occupied
columns, and only those are propagated, mapped back, compared and summed.
Times follow _modal.check_times, and a leading t = 0 is the start itself,
the modes bit for bit for every model alike.  trajectory synthesizes every
row into real fields, in the package's one layout, a (3, N) array of u, p
and s per time, as hydro_spectral.from_modes returns them and
HydroProjection holds them; its t = 0 row is from_modes of the start.
reference_gaps, the one comparison with the moment truth that compare and
the Burnett-deviation criterion share, never synthesizes the truth: it
subtracts the truth's (u, p, s) modes from each model's and sums the
squares of the difference by Parseval, with no FFT, so its t = 0 row is
exact zeros.  One synthesis of every model's final-time difference is its
second route.  Callers that hold (3, N) fields pass
hydro_spectral.to_modes of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _modal
from .coefficients import SOUND_SPEED, EigenvalueSet
from .dispersion import ModelId
from .hydro_spectral import (
    InternalConsistencyError,
    SpectralState,
    _require_rows,
    evolve,
    from_modes,
)

__all__ = [
    "HydroProjection",
    "burnett_deviation_rms",
    "evolve_moments",
    "from_hydro",
    "hydro_projection",
    "reference_gaps",
    "trajectory",
]

#: Difference modes per block that reference_gaps reduces at once, over the
#: occupied columns: up to 7,281 times of an initial condition's three
#: columns make one block.
GAP_BLOCK = 1 << 16

#: Largest accepted gap between a model's final-time Parseval gap and the grid
#: L2 norm of its synthesized difference, in units of u * sum |difference
#: modes| (u = 2^-53).  Over 44 grids from N = 8 to 65,537, even and odd,
#: with u, p and s terms on modes 1, 3 and 2 of random amplitude and phase at
#: eps 0.01, 0.1 and 0.3, and 21 times to t = 10, the gap read at most 20.0
#: (N = 32,769) and 17.9 at N = 65,537; on random full-spectrum starts, at
#: most 10.3 for N up to 4,097 and 15.0 at N = 65,537.  Odd lengths with
#: large prime factors synthesize least accurately.
SYNTHESIS_GAP_C = 64.0


@dataclass(frozen=True)
class HydroProjection:
    """Hydrodynamic view of a moment state plus its kinetic residuals.

    fields is the (3, N) array of u, p and s; stress and heat_flux are the
    Pi and q rows synthesized.
    """

    fields: np.ndarray
    stress: np.ndarray
    heat_flux: np.ndarray


def from_hydro(state: SpectralState) -> SpectralState:
    """5-row moment state (n, u, p, Pi, q) of (u, p, s) modes, with Pi = q = 0.

    The density modes are n = (3p - 2s)/5, column by column, so a column the
    (u, p, s) modes leave empty stays empty.  The kinetic moments start on
    the equilibrium manifold; they relax toward their quasi-steady closures
    within a few collision times eps/|lambda|.
    """
    _require_rows(state, 3, "the moment start")
    u, p, s = state.modes
    zero = np.zeros_like(u)
    return SpectralState(np.stack([(3.0 * p - 2.0 * s) / 5.0, u, p, zero, zero]), state.grid_size)


def evolve_moments(
    state: SpectralState, eps: float, eigenvalues: EigenvalueSet, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """hydro_spectral.evolve under the moment model: (columns, (T, 5, m) values).

    Times are taken as evolve takes them, so a leading 0 gives the moment
    start itself as row 0.

    It exists only as the seam that the benchmark tracer counts moment
    propagation by: perfbench/tracer.py wraps it by name, and
    perfbench/test_tracer.py requires its count to be nonzero on the
    reference_compare workload.  It goes when the tracer counts propagation
    by row count instead.
    """
    return evolve(state, ModelId.MOMENT_REFERENCE, eps, eigenvalues, times)


def _hydro_modes(moments: np.ndarray) -> np.ndarray:
    """(u, p, s) modes of (n, u, p, Pi, q) moment modes, mapped in place.

    s = (3/2)p - (5/2)n is written over the Pi row, with the two products
    and the difference that 1.5*p - 2.5*n takes, and the view of rows 1 to 3
    is returned; the rows are the second-to-last axis, so a (T, 5, m) stack
    gives a (T, 3, m) view.  The n row is overwritten on the way, and no
    array of the view's size is allocated.
    """
    np.multiply(moments[..., 2, :], 1.5, out=moments[..., 3, :])
    moments[..., 0, :] *= 2.5
    moments[..., 3, :] -= moments[..., 0, :]
    return moments[..., 1:4, :]


def hydro_projection(state: SpectralState) -> HydroProjection:
    """Project a 5-row moment state onto (u, p, s); keep Pi, q as residuals.

    The (u, p, s) modes are mapped from a copy, so `state` is left as it is.
    """
    _require_rows(state, 5, "the moment projection")
    fields = from_modes(SpectralState(_hydro_modes(state.modes.copy()), state.grid_size))
    residuals = _modal.inverse_modes(state.modes[3:], state.grid_size)
    return HydroProjection(fields, stress=residuals[0], heat_flux=residuals[1])


def _propagated(
    initial: SpectralState, model: ModelId, eps: float, eigenvalues: EigenvalueSet, times
) -> tuple[np.ndarray, np.ndarray]:
    """The (u, p, s) modes `initial` under `model` at every time, as (columns, values).

    columns holds the columns `initial` occupies, for every model alike, and
    values their (T, 3, m) modes; every other column is exactly 0.  The one
    place a model's propagation is chosen: evolve for a hydro model, and
    evolve_moments of from_hydro(initial) for the moment model, whose values
    are mapped back in place by _hydro_modes, on the m columns only.
    `initial` must hold 3 rows, which evolve and from_hydro check.  times
    are taken as _modal.mode_propagators takes them, so a leading 0 row is
    the start; the moment model's is reset to initial.modes[:, columns],
    since s does not survive n = (3p - 2s)/5 and back bit for bit.  A
    column holding only a subnormal s can lose its n to underflow, so the
    moment start occupies fewer columns; its values are then widened to
    `initial`'s columns, the lost one exactly 0 as the dense array had it.
    """
    if model is not ModelId.MOMENT_REFERENCE:
        return evolve(initial, model, eps, eigenvalues, times)
    columns, moments = evolve_moments(from_hydro(initial), eps, eigenvalues, times)
    modes = _hydro_modes(moments)
    occupied = np.flatnonzero(np.any(initial.modes, axis=0))
    if occupied.size != columns.size:
        dense = _modal.scatter_modes(columns, modes, initial.grid_size)
        columns, modes = occupied, np.ascontiguousarray(dense[..., occupied])
    if np.asarray(times)[0] == 0.0:
        modes[0] = initial.modes[:, columns]
    return columns, modes


def trajectory(
    initial: SpectralState,
    model: ModelId,
    eps: float,
    eigenvalues: EigenvalueSet,
    times: np.ndarray,
) -> np.ndarray:
    """Real (u, p, s) of the (u, p, s) modes `initial` under `model` at each time.

    times is a 1-D array of ascending elapsed times from 0 or later, as
    _modal.check_times takes it; the result has shape (len(times), 3, N).
    Each row is from_modes of _propagated's modes at that time, so a leading
    0 gives from_modes(initial), bit for bit and for every model alike.
    Only the columns `initial` occupies are propagated.  The snapshots are
    synthesized in blocks of about _modal.EVAL_BLOCK dense modes: each
    block's values are scattered into one zeroed (block, 3, N//2 + 1)
    buffer, reused for every block, since the same columns are written each
    time, and each snapshot of a block passes the Hermitian health check at
    its own scale.  The propagated values are released on return.
    """
    n = initial.grid_size
    columns, modes = _propagated(initial, model, eps, eigenvalues, times)
    fields = np.empty((len(modes), 3, n))  # after propagation, so its peak holds no fields
    step = max(1, _modal.EVAL_BLOCK // (3 * (n // 2 + 1)))
    spectra = np.zeros((min(step, len(modes)), 3, n // 2 + 1), dtype=complex)
    for lo in range(0, len(modes), step):
        block = modes[lo : lo + step]
        dense = _modal.scatter_modes(columns, block, n, out=spectra[: len(block)])
        fields[lo : lo + step] = _modal.inverse_modes(dense, n)
    return fields


def reference_gaps(
    initial: SpectralState,
    models: Sequence[ModelId],
    eps: float,
    eigenvalues: EigenvalueSet,
    times: np.ndarray,
) -> np.ndarray:
    """Grid L2 gap over (u, p, s) of each model from the moment truth: shape (T, M).

    Every model starts from the (u, p, s) modes `initial`, which must pass
    _modal.require_real, and times are taken as trajectory takes them.  All
    the work is done on the m columns `initial` occupies, where _propagated
    returns every model's modes; the other columns are 0 for every model,
    and so is their difference.  The truth's (u, p, s) values are copied
    once and never synthesized.  For each model in turn, they are
    subtracted in place from its values, and that difference is reduced by
    Parseval (_parseval_norms) in blocks of about GAP_BLOCK modes, with no
    FFT; so one model's values are alive at a time, beside the truth's.  A
    leading 0 row is the start minus the start, exactly +0.0.  The second
    route is one synthesis of every model's final-time difference,
    scattered to dense modes (_check_final_gaps), which must agree with the
    last row within SYNTHESIS_GAP_C, or InternalConsistencyError is raised.
    This matches trajectory(model) - trajectory(truth) synthesized and
    subtracted, to roundoff.
    """
    n = initial.grid_size
    _modal.require_real(initial.modes, n)  # no difference shows a bad start
    columns, truth = _propagated(initial, ModelId.MOMENT_REFERENCE, eps, eigenvalues, times)
    truth = truth.copy()
    gaps = np.empty((len(truth), len(models)))
    finals = np.empty((len(models),) + truth.shape[1:], dtype=complex)
    step = max(1, GAP_BLOCK // max(1, truth[0].size))
    for j, model in enumerate(models):
        _, difference = _propagated(initial, model, eps, eigenvalues, times)
        difference -= truth
        finals[j] = difference[-1]
        for lo in range(0, len(difference), step):
            gaps[lo : lo + step, j] = _parseval_norms(difference[lo : lo + step], n, columns)
        del difference  # before the next model's modes are propagated
    if len(models):
        _check_final_gaps(models, np.asarray(times)[-1], gaps[-1], columns, finals, n)
    return gaps


def _parseval_norms(block: np.ndarray, n: int, columns: np.ndarray) -> np.ndarray:
    """Grid L2 norm over the rows of each spectrum of a (B, 3, m) block.

    The last axis of the C-contiguous block holds the rfft columns
    `columns` of a grid of n points; the other columns are 0 and add
    nothing.  The block must pass _modal.require_real, which checks each
    spectrum at its own scale; it is then squared in place, so no temporary
    of its size is made.  For the fields f(x) that
    irfft synthesizes on n points, sum_x f(x)^2 dx = 2 pi sum_k w_k |c_k|^2
    with dx = 2 pi / n, where w_k is 2 for a column standing for the pair
    +-k and 1 for k = 0 and the even grid's Nyquist column
    (_modal.self_conjugate).  irfft reads only the real part of those two,
    so their imaginary parts are dropped, and their squares are halved so
    that every column counts at w_k / 2 beside a factor of 4 pi.  The sum
    over a spectrum is numpy's pairwise one, so its error does not grow
    with m.
    """
    _modal.require_real(block, n, columns)
    at = _modal.self_conjugate(columns, n)
    block.imag[..., at] = 0.0
    squares = block.view(float)  # re, im, re, im, ... of each row
    np.square(squares, out=squares)
    squares[..., [2 * i for i in at]] *= 0.5
    return np.sqrt(4.0 * np.pi * np.sum(squares.reshape(len(block), -1), axis=1))


def _check_final_gaps(
    models: Sequence[ModelId],
    time: float,
    gaps: np.ndarray,
    columns: np.ndarray,
    finals: np.ndarray,
    n: int,
) -> None:
    """Check the final-time gaps against the grid L2 of one synthesis of `finals`.

    finals is the (M, 3, m) stack of every model's difference modes at the
    final time, on the rfft columns `columns`, and gaps is their Parseval
    row.  finals is scattered to dense (M, 3, n//2 + 1) modes and
    synthesized once.  Each model's two values must agree within
    SYNTHESIS_GAP_C units of u * sum |difference modes| (u = 2^-53);
    otherwise InternalConsistencyError names the first model that disagrees.
    """
    fields = _modal.inverse_modes(_modal.scatter_modes(columns, finals, n), n)
    direct = np.sqrt(2.0 * np.pi / n * np.sum(np.sum(fields**2, axis=1), axis=-1))
    bounds = SYNTHESIS_GAP_C * 2.0**-53 * np.abs(finals).sum(axis=(1, 2))
    for model, parseval, synthesized, bound in zip(models, gaps, direct, bounds):
        if not abs(parseval - synthesized) <= bound:
            raise InternalConsistencyError(
                f"{model.value} gap: Parseval gives {parseval:.17g} and synthesis "
                f"{synthesized:.17g} at t = {time:g}, more than {SYNTHESIS_GAP_C:g} u "
                f"sum|modes| = {bound:.3e} apart"
            )


def burnett_deviation_rms(
    initial: SpectralState,
    eps: float,
    eigenvalues: EigenvalueSet,
    time: float,
    n_samples: int = 32,
) -> float:
    """Cycle-averaged deviation between Burnett evolution and the moment truth.

    Both systems start from the (u, p, s) modes `initial` (the moment state
    with Pi = q = 0) and the reference_gaps of Burnett is sampled at
    n_samples times spanning one acoustic period that ends `time` after
    `initial`; the RMS over the window is returned.  Averaging over a period
    removes the acoustic phase of the O(eps) entropy component from the
    measurement, so the returned number scales cleanly at first order in
    eps.  The period is that of the k = 1 sound wave, 2*pi/a0.
    """
    period = 2.0 * np.pi / SOUND_SPEED
    if time <= period:
        raise ValueError(f"need time > one period ({period:g}), got {time}")
    elapsed = time - period + period * np.arange(1, n_samples + 1) / n_samples
    gaps = reference_gaps(initial, [ModelId.BURNETT], eps, eigenvalues, elapsed)
    return float(np.sqrt(np.mean(gaps**2)))

"""Shared per-mode machinery: DFT conventions and exact modal propagation.

Mode arrays follow the numpy FFT layout with coefficients normalized as
fft(x)/N, so a real field synthesizes as u(x) = sum_k u_hat[k] exp(+i k x).
Under the traveling-wave sign convention exp(sigma*t - i*k*x) used by the
symbol matrices, DFT index m therefore carries plane wavenumber -k_m, and the
propagator for index m is the matrix exponential of the symbol at -k_m.  The
(N, d, d) symbol stack of a run is diagonalized once and evaluated at every
requested time as V exp(Lambda t) V^-1 x.

For even N the Nyquist index has no conjugate partner; its content is the
aliased sum of the +-N/2 pair, and the exact band-limited propagator sampled
on the grid is the real part of the +N/2 propagator.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = [
    "HermitianSymmetryError",
    "MIN_GRID_SIZE",
    "exp_action",
    "forward_modes",
    "hermitian_violation",
    "inverse_modes",
    "mode_propagators",
    "per_time",
    "wavenumbers",
]

#: Smallest grid size accepted anywhere (fields, initial conditions, CLI runs).
MIN_GRID_SIZE = 8

#: Eigenvector conditioning beyond this means "defective"; fall back to expm.
DEFECT_RCOND = 1e-10

#: Entries per block of times evaluated together by exp_action.
EVAL_BLOCK = 1 << 12

#: Relative Hermitian-symmetry violation tolerated when synthesizing real fields.
HERMITIAN_TOL = 1e-9


class HermitianSymmetryError(ValueError):
    """A spectrum meant to describe real fields was not conjugate-symmetric."""


def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in numpy FFT order: 0..n/2-1, -n/2..-1."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def forward_modes(values: np.ndarray) -> np.ndarray:
    """Real samples (..., n) to normalized mode coefficients fft(x)/n."""
    values = np.asarray(values, dtype=float)
    return np.fft.fft(values, axis=-1) / values.shape[-1]


def hermitian_violation(modes: np.ndarray) -> float:
    """Worst-case |mode(-k) - conj(mode(k))|, relative to max |mode|.

    The scale is floored at the smallest normal double, since subnormal
    values carry no relative precision; an all-zero spectrum gives 0.
    """
    modes = np.asarray(modes, dtype=complex)
    n = modes.shape[-1]
    mirrored = np.conj(modes[..., (-np.arange(n)) % n])
    scale = max(float(np.max(np.abs(modes))), np.finfo(float).tiny)
    return float(np.max(np.abs(modes - mirrored))) / scale


def inverse_modes(modes: np.ndarray) -> np.ndarray:
    """Mode coefficients back to real samples; rejects non-Hermitian input."""
    modes = np.asarray(modes, dtype=complex)
    violation = hermitian_violation(modes)
    if violation > HERMITIAN_TOL:
        raise HermitianSymmetryError(
            f"spectrum is not conjugate-symmetric (violation {violation:.3e}); "
            "cannot synthesize a real field"
        )
    n = modes.shape[-1]
    return np.fft.ifft(modes * n, axis=-1).real


def exp_action(
    mats: np.ndarray, vectors: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, block): exp(mats[m] * t) @ vectors[:, m] for t in times[rows].

    The (N, d, d) stack is diagonalized once; each block of about EVAL_BLOCK
    entries is evaluated as V exp(Lambda t) V^-1 x, so a caller reducing the
    blocks never holds all (T, d, N) values.  Eigenvectors conditioned worse
    than 1/DEFECT_RCOND mark a defective matrix, evaluated by expm per time.
    """
    eigvals, eigvecs = np.linalg.eig(mats)
    with np.errstate(all="ignore"):
        conds = np.linalg.cond(eigvecs)
    coeffs = np.einsum("mij,jm->mi", np.linalg.inv(eigvecs), vectors)
    defective = np.nonzero(~np.isfinite(conds) | (conds > 1.0 / DEFECT_RCOND))[0]
    if defective.size:
        import scipy.linalg  # deferred: slow to import, and only defective symbols need it
    step = max(1, EVAL_BLOCK // eigvals.size)
    for lo in range(0, times.size, step):
        rows = slice(lo, lo + step)
        phases = np.exp(np.multiply.outer(times[rows], eigvals))
        phases *= coeffs
        block = np.einsum("mij,tmj->tim", eigvecs, phases)
        for idx in defective:
            for row, t in enumerate(times[rows]):
                block[row, :, idx] = scipy.linalg.expm(mats[idx] * t) @ vectors[:, idx]
        yield rows, block


def mode_propagators(
    symbol_stack: Callable[[np.ndarray], np.ndarray],
    n: int,
    times: float | np.ndarray,
    modes: np.ndarray,
) -> np.ndarray:
    """Field modes (d, n) carried exactly to every time, shape (T, d, n).

    times is one positive step or a 1-D ascending array of positive elapsed
    times.  symbol_stack maps the array of plane wavenumbers -k_m to the
    (n, d, d) symbol stack.  The Nyquist propagator Re(P) is applied as
    (P x + conj(P conj(x))) / 2, so it shares the single decomposition.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"times must be positive and ascending, got {times}")
    mats = symbol_stack(-wavenumbers(n).astype(float))
    if n % 2 == 0:
        mats = np.concatenate([mats, mats[n // 2, None]])
        modes = np.concatenate([modes, np.conj(modes[:, n // 2, None])], axis=1)
    out = np.empty((times.size, len(modes), n), dtype=complex)
    for rows, block in exp_action(mats, modes, times):
        if n % 2 == 0:
            block[:, :, n // 2] = 0.5 * (block[:, :, n // 2] + np.conj(block[:, :, n]))
        out[rows] = block[:, :, :n]
    return out


def per_time(dt: float | np.ndarray, advanced: np.ndarray, state: Callable):
    """state(modes, t) at each time of an array dt; the one state for a scalar step."""
    states = [state(modes, t) for modes, t in zip(advanced, np.atleast_1d(dt).tolist())]
    return states if np.ndim(dt) else states[0]

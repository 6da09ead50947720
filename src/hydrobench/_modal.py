"""Shared per-mode machinery: DFT conventions and exact modal propagation.

Every field is real, so mode arrays keep only the N//2 + 1 coefficients of
the numpy rfft layout, normalized as rfft(x)/N; the field synthesizes as
u(x) = sum_k c_k exp(+i k x) over |k| <= N//2, with c_{-k} = conj(c_k)
implied and the even-grid Nyquist term counted once.  The column count
cannot tell an even N from an odd one, so synthesis and propagation take
the grid size N alongside the modes.  Under the traveling-wave sign
convention exp(sigma*t - i*k*x) used by the symbol matrices, column
m = 0, 1, ..., N//2 carries plane wavenumber -m, and its propagator is the
matrix exponential of the symbol at -m.  The (N//2 + 1, d, d) symbol stack
of a run is diagonalized once and evaluated at every requested time as
V exp(Lambda t) V^-1 x.

The only coefficients with no conjugate partner are k = 0 and, for even N,
the Nyquist column k = N/2; both are real for a real field, and their
imaginary parts are the one non-physical content a half spectrum can hold.
The Nyquist coefficient is the aliased sum of the +-N/2 pair, and the exact
band-limited propagator sampled on the grid is the real part of the N/2
propagator, so that column is advanced as Re(P x) and stays real.
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

#: Relative imaginary part of the k = 0 and Nyquist coefficients tolerated when
#: synthesizing real fields.
HERMITIAN_TOL = 1e-9


class HermitianSymmetryError(ValueError):
    """A half spectrum meant to describe real fields had a complex k = 0 or Nyquist mode."""


def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers of the n//2 + 1 rfft columns: 0, 1, ..., n//2."""
    return np.arange(n // 2 + 1)


def forward_modes(values: np.ndarray) -> np.ndarray:
    """Real samples (..., n) to normalized half-spectrum coefficients rfft(x)/n."""
    values = np.asarray(values, dtype=float)
    return np.fft.rfft(values, axis=-1) / values.shape[-1]


def hermitian_violation(modes: np.ndarray, n: int) -> float:
    """Worst |Im| of the k = 0 and (even n) Nyquist modes, relative to max |mode|.

    Those are the coefficients a real field of n samples keeps real.  The
    scale is floored at the smallest normal double, since subnormal values
    carry no relative precision; an all-zero spectrum gives 0.
    """
    modes = np.asarray(modes, dtype=complex)
    if modes.shape[-1] != n // 2 + 1:
        raise ValueError(f"{modes.shape[-1]} mode columns do not fit grid size {n}")
    self_conjugate = modes[..., [0, n // 2] if n % 2 == 0 else [0]]
    scale = max(float(np.abs(modes).max()), np.finfo(float).tiny)
    return float(np.abs(self_conjugate.imag).max()) / scale


def inverse_modes(modes: np.ndarray, n: int) -> np.ndarray:
    """Half-spectrum coefficients back to n real samples.

    Rejects a non-finite coefficient and a complex k = 0 or Nyquist mode.
    """
    modes = np.asarray(modes, dtype=complex)
    if not np.isfinite(modes).all():
        raise FloatingPointError("non-finite spectrum; cannot synthesize a real field")
    violation = hermitian_violation(modes, n)
    if violation > HERMITIAN_TOL:
        raise HermitianSymmetryError(
            f"k = 0 or Nyquist mode is not real (violation {violation:.3e}); "
            "cannot synthesize a real field"
        )
    return np.fft.irfft(modes * n, n, axis=-1)


def exp_action(
    mats: np.ndarray, vectors: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, block): exp(mats[m] * t) @ vectors[:, m] for t in times[rows].

    The (N, d, d) stack is diagonalized once; each block of about EVAL_BLOCK
    entries is evaluated as V exp(Lambda t) V^-1 x, so a caller reducing the
    blocks never holds all (T, d, N) values.  Eigenvectors conditioned worse
    than 1/DEFECT_RCOND mark a defective matrix, evaluated by expm per time;
    the screen reads d * ||V||_1 * ||V^-1||_1 >= cond_2(V), which needs no SVD.
    """
    eigvals, eigvecs = np.linalg.eig(mats)
    inverses = np.linalg.inv(eigvecs)
    coeffs = np.einsum("mij,jm->mi", inverses, vectors)
    with np.errstate(all="ignore"):
        kappa = eigvecs.shape[-1] * np.linalg.norm(eigvecs, 1, axis=(-2, -1))
        kappa *= np.linalg.norm(inverses, 1, axis=(-2, -1))
    defective = np.nonzero(~np.isfinite(kappa) | (kappa > 1.0 / DEFECT_RCOND))[0]
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
    """Half-spectrum field modes (d, n//2 + 1) carried exactly to every time.

    Returns shape (T, d, n//2 + 1).  times is one positive step or a 1-D
    ascending array of positive elapsed times.  symbol_stack maps the array of
    plane wavenumbers -k = 0, -1, ..., -(n//2) to the (n//2 + 1, d, d) symbol
    stack.  For even n the real Nyquist coefficient is advanced as Re(P x).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"times must be positive and ascending, got {times}")
    mats = symbol_stack(-wavenumbers(n).astype(float))
    out = np.empty((times.size, len(modes), n // 2 + 1), dtype=complex)
    for rows, block in exp_action(mats, modes, times):
        out[rows] = block
    if n % 2 == 0:
        out[:, :, -1] = out[:, :, -1].real
    return out


def per_time(dt: float | np.ndarray, advanced: np.ndarray, state: Callable):
    """state(modes, t) at each time of an array dt; the one state for a scalar step."""
    states = [state(modes, t) for modes, t in zip(advanced, np.atleast_1d(dt).tolist())]
    return states if np.ndim(dt) else states[0]

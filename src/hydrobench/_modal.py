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
of a run (d = 3 for a hydro model, 5 for the moment system) is exponentiated
once for every time of a 1-D array.  Given a unitary diagonal S for which
A = S^-1 M S is real, as dispersion.parity_scale gives for every model but
the Riemann-decoupled one, the stack exponentiated is the real A, and the
modes travel as S exp(A t) S^-1 x.  exp_action takes one of three routes,
chosen from the entries of the stack:

- diagonal: a stack with no off-diagonal entry, as the Riemann-decoupled
  symbol is, is its own eigendecomposition and needs no eig at all;
- acoustic pair: a real stack [[d, a], [b, d]] (+) diag(e, ...) with
  a*b <= 0, as every Euler, Navier-Stokes and Burnett A is, has the closed
  form exp(d t) [[cos wt, a sin(wt)/w], [b sin(wt)/w, cos wt]] (+) exp(e t)
  with w = sqrt|a| sqrt|b| (Moler and Van Loan, SIAM Rev. 45, 2003), which
  needs no eig, no defect screen and no expm, and covers the Jordan block
  w = 0 as well;
- eig: any other stack, the moment system's A among them, is diagonalized
  once as V exp(Lambda t) V^-1 x, which real LAPACK does for a real A in
  about half the time of the complex M.

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
    "acoustic_frequency",
    "exp_action",
    "forward_modes",
    "hermitian_violation",
    "inverse_modes",
    "mode_propagators",
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

    Those are the coefficients a real field of n samples keeps real.  modes
    is one (d, n//2 + 1) spectrum or a stack of them: each spectrum of the
    last two axes is measured against its own maximum, and the worst of
    them is returned, so a small spectrum is judged at its own scale beside
    a large one.  The scale is floored at the smallest normal double, since
    subnormal values carry no relative precision; an all-zero spectrum
    gives 0.
    """
    modes = np.asarray(modes, dtype=complex)
    if modes.shape[-1] != n // 2 + 1:
        raise ValueError(f"{modes.shape[-1]} mode columns do not fit grid size {n}")
    self_conjugate = modes[..., [0, n // 2] if n % 2 == 0 else [0]]
    scale = np.maximum(np.abs(modes).max(axis=(-2, -1)), np.finfo(float).tiny)
    return float((np.abs(self_conjugate.imag).max(axis=(-2, -1)) / scale).max())


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


def acoustic_frequency(mats: np.ndarray) -> np.ndarray | None:
    """w = sqrt|a| * sqrt|b| per matrix of an acoustic-pair stack, else None.

    An acoustic-pair stack is real, (N, d, d) with d >= 2, and each matrix is
    [[d, a], [b, d]] (+) diag(e, ...): every off-diagonal entry outside
    (0, 1) and (1, 0) is exactly zero, the (0, 0) and (1, 1) entries are
    bitwise equal (a nan never is), and no matrix has a and b nonzero with
    the same sign.  The sign is read by signbit, not from a*b, which could
    overflow or underflow.  The eigenvalues are then d +- i w and the
    diagonal beyond the pair, and the pair's exponential is a rotation
    scaled by exp(d t).  w is formed from the square roots so that it stays
    nonzero wherever a and b are, down to subnormal entries.
    """
    size = mats.shape[-1]
    if mats.dtype.kind != "f" or size < 2:
        return None
    outside = ~np.eye(size, dtype=bool)
    outside[0, 1] = outside[1, 0] = False
    if mats[..., outside].any():
        return None
    first, second = mats[..., 0, 0], mats[..., 1, 1]
    if not np.all((first == second) & (np.signbit(first) == np.signbit(second))):
        return None
    a, b = mats[..., 0, 1], mats[..., 1, 0]
    if ((a != 0) & (b != 0) & (np.signbit(a) == np.signbit(b))).any():
        return None
    return np.sqrt(np.abs(a)) * np.sqrt(np.abs(b))


def _acoustic_action(
    mats: np.ndarray, omega: np.ndarray, vectors: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """exp_action of an acoustic-pair stack (acoustic_frequency), in closed form.

    Rows 0 and 1 are recombined with exp(d t) C and exp(d t) Sn, where
    C = cos(theta), Sn = t sin(theta)/theta and theta = w t, as
    exp(d t) [[C, a Sn], [b Sn, C]]; every other row is multiplied by its
    exp(e t).  Where theta = 0, Sn = t with no 0/0: the k = 0 column
    (d = a = b = 0) is then the identity, and the Jordan block (w = 0) is
    exp(d t) [[1, a t], [0, 1]].
    """
    rates = np.diagonal(mats, axis1=-2, axis2=-1).T[np.r_[0, 2 : mats.shape[-1]]]
    a, b = mats[:, 0, 1], mats[:, 1, 0]
    step = max(1, EVAL_BLOCK // vectors.size)
    for lo in range(0, times.size, step):
        rows = slice(lo, lo + step)
        t = times[rows, None]
        theta = t * omega
        flat = theta == 0
        sine = np.sin(theta)
        sine /= np.where(flat, 1.0, theta)
        sine[flat] = 1.0
        growth = np.exp(np.multiply.outer(times[rows], rates))
        cos = np.cos(theta) * growth[:, 0]
        sine *= t * growth[:, 0]
        block = np.empty((theta.shape[0],) + vectors.shape, dtype=complex)
        np.multiply(growth[:, 1:], vectors[2:], out=block[:, 2:])
        np.multiply(cos, vectors[0], out=block[:, 0])
        block[:, 0] += (a * sine) * vectors[1]
        np.multiply(cos, vectors[1], out=block[:, 1])
        block[:, 1] += (b * sine) * vectors[0]
        yield rows, block


def exp_action(
    mats: np.ndarray, vectors: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, block): exp(mats[m] * t) @ vectors[:, m] for t in times[rows].

    Each block holds about EVAL_BLOCK entries, so a caller reducing the
    blocks never holds all (T, d, N) values.  The route is read from the
    (N, d, d) stack, real or complex, as the module header lists:

    - a stack with no nonzero off-diagonal entry is its own
      eigendecomposition, with V = V^-1 = I, no eig call and nothing to
      screen; LAPACK's eigenvectors of a diagonal matrix are that I, so the
      bits are the eig route's;
    - an acoustic-pair stack (acoustic_frequency) takes the closed form of
      _acoustic_action, with no eig, screen or expm;
    - any other stack is diagonalized once and each block evaluated as
      V exp(Lambda t) V^-1 x.  Eigenvectors conditioned worse than
      1/DEFECT_RCOND mark a defective matrix, evaluated by expm per time;
      the screen reads d * ||V||_1 * ||V^-1||_1 >= cond_2(V), which needs
      no SVD.
    """
    d = mats.shape[-1]
    defective = np.empty(0, dtype=np.intp)
    if not mats[..., ~np.eye(d, dtype=bool)].any():
        eigvals = np.diagonal(mats, axis1=-2, axis2=-1).astype(complex)
        eigvecs = inverses = np.broadcast_to(np.eye(d, dtype=complex), mats.shape)
    else:
        omega = acoustic_frequency(mats)
        if omega is not None:
            yield from _acoustic_action(mats, omega, vectors, times)
            return
        eigvals, eigvecs = np.linalg.eig(mats)
        # numpy returns real arrays for a real stack whose eigenvalues are all real.
        eigvals = eigvals.astype(complex, copy=False)
        eigvecs = eigvecs.astype(complex, copy=False)
        inverses = np.linalg.inv(eigvecs)
        with np.errstate(all="ignore"):
            kappa = d * np.linalg.norm(eigvecs, 1, axis=(-2, -1))
            kappa *= np.linalg.norm(inverses, 1, axis=(-2, -1))
        defective = np.nonzero(~np.isfinite(kappa) | (kappa > 1.0 / DEFECT_RCOND))[0]
        if defective.size:
            import scipy.linalg  # deferred: slow to import, and only defective symbols need it
    coeffs = np.einsum("mij,jm->mi", inverses, vectors)
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
    times: np.ndarray,
    modes: np.ndarray,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """Half-spectrum field modes (d, n//2 + 1) carried exactly to every time.

    Returns shape (T, d, n//2 + 1).  times is a 1-D ascending array of
    positive elapsed times; a scalar is refused.  symbol_stack maps the array
    of plane wavenumbers -k = 0, -1, ..., -(n//2) to the (n//2 + 1, d, d)
    symbol stack M.  scale, if given, is the diagonal of a unitary diagonal
    S for which A = S^-1 M S is real (dispersion.parity_scale): the modes are
    then propagated as S exp(A t) S^-1 x with the real stack A, and a nonzero
    imaginary part of A raises ValueError.  For even n the real Nyquist
    coefficient is advanced as Re(P x), with P in the original coordinates.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise ValueError(f"times must be a 1-D array of positive ascending times, got {times}")
    mats = symbol_stack(-wavenumbers(n).astype(float))
    if scale is not None:
        mats = mats * np.outer(scale.conj(), scale)
        if mats.imag.any():
            raise ValueError("the scaled symbol stack S^-1 M S is not real")
        mats = mats.real
        modes = modes * scale.conj()[:, None]
    out = np.empty((times.size, len(modes), n // 2 + 1), dtype=complex)
    for rows, block in exp_action(mats, modes, times):
        out[rows] = block
    if scale is not None:
        out *= scale[:, None]
    if n % 2 == 0:
        out[:, :, -1] = out[:, :, -1].real
    return out

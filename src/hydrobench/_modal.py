"""Shared per-mode machinery: DFT conventions and the numerics of a symbol stack.

A model is one constant-coefficient symbol per wavenumber; this module
holds everything done to a stack of them: its real coordinates, its
eigenvalues (the dispersion branches) and its exact exponential.

Every field is real, so mode arrays keep only the N//2 + 1 coefficients of
the numpy rfft layout, normalized as rfft(x)/N; the field synthesizes as
u(x) = sum_k c_k exp(+i k x) over |k| <= N//2, with c_{-k} = conj(c_k)
implied and the even-grid Nyquist term counted once.  The column count
cannot tell an even N from an odd one, so synthesis and propagation take
the grid size N alongside the modes.  Under the traveling-wave sign
convention exp(sigma*t - i*k*x) used by the symbol matrices, column
m = 0, 1, ..., N//2 carries plane wavenumber -m, and its propagator is the
matrix exponential of the symbol at -m.  Only the columns a spectrum
occupies are propagated, since exp(M t) 0 = 0: the (m, d, d) symbol stack
of a run's m occupied columns (d = 3 for a hydro model, 5 for the moment
system) is built at those wavenumbers and exponentiated once for every time
of a 1-D array, and mode_propagators returns the pair (columns, values) of
their indices and their (T, d, m) modes.  Every time series of the package
follows one contract, check_times: nonempty, ascending and nonnegative.  A
leading t = 0 is the start itself, since exp(M 0) = I: mode_propagators
returns its row as the input modes, bit for bit, and exponentiates for the
later times.  An initial condition's exact spectrum occupies only the modes
its terms name, so a run builds, exponentiates, checks and sums a few
columns whatever N is; the empty columns stay exactly 0 and are written
only by scatter_modes, for synthesis.  A spectrum with every column
occupied takes the same path, indexed by the same column array.
Given a unitary diagonal S for which A = S^-1 M S is real, as
dispersion.parity_scale gives for every model but the Riemann-decoupled
one, real_coordinates forms A and refuses it unless it is exactly real;
the stack exponentiated is then the real A, and the modes travel as
S exp(A t) S^-1 x.  The same real A is the stack whose eigenvalues are the
dispersion branches, so both are read here, on one of three routes chosen
from the entries of the stack (exp_action for the exponential, eigenvalues
for the spectrum):

- diagonal: a stack with no nonzero off-diagonal entry, as the
  Riemann-decoupled symbol is, is its own eigendecomposition and needs no
  eig at all;
- acoustic pair: a real stack [[d, a], [b, d]] (+) diag(e, ...) with
  a*b <= 0, as every Euler, Navier-Stokes and Burnett A is, has the closed
  form exp(d t) [[cos wt, a sin(wt)/w], [b sin(wt)/w, cos wt]] (+) exp(e t)
  with w = sqrt|a| sqrt|b| (Moler and Van Loan, SIAM Rev. 45, 2003), which
  needs no eig, no defect screen and no expm, and covers the Jordan block
  w = 0 as well; its eigenvalues are d +- i w and e;
- eig: any other stack, the moment system's A among them, is diagonalized
  once as V exp(Lambda t) V^-1 x, which real LAPACK does for a real A in
  about half the time of the complex M; its eigenvalues alone take one
  eigvals call.

The only coefficients with no conjugate partner are k = 0 and, for even N,
the Nyquist column k = N/2 (self_conjugate finds them among any columns);
both are real for a real field, and their imaginary parts are the one
non-physical content a half spectrum can hold.
The Nyquist coefficient is the aliased sum of the +-N/2 pair, and the exact
band-limited propagator sampled on the grid is the real part of the N/2
propagator, so that column is advanced as Re(P x) and stays real; a start
row is returned as given.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = [
    "HermitianSymmetryError",
    "MIN_GRID_SIZE",
    "acoustic_frequency",
    "check_grid_size",
    "check_times",
    "eigenvalues",
    "exp_action",
    "forward_modes",
    "hermitian_violation",
    "inverse_modes",
    "mode_propagators",
    "real_coordinates",
    "require_real",
    "scatter_modes",
    "self_conjugate",
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


def check_grid_size(n: int) -> None:
    """Refuse a grid below MIN_GRID_SIZE, in the words every entry point uses."""
    if n < MIN_GRID_SIZE:
        raise ValueError(f"grid size must be at least {MIN_GRID_SIZE}, got {n}")


def check_times(times) -> np.ndarray:
    """times as a 1-D float array: nonempty, finite, strictly ascending and
    nonnegative.

    Anything else raises ValueError, a scalar, a 2-D array, a repeated time,
    a NaN and an infinity included.  This is the package's one time
    contract: mode_propagators and secularity.secular_ratio_series take
    their times through it.
    """
    times = np.asarray(times, dtype=float)
    ok = times.ndim == 1 and times.size and 0 <= times[0] and times[-1] < np.inf
    if not (ok and np.all(np.diff(times) > 0)):
        raise ValueError(
            f"times must be a nonempty 1-D array, ascending from t >= 0 and finite, got {times}"
        )
    return times


def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers of the n//2 + 1 rfft columns: 0, 1, ..., n//2."""
    return np.arange(n // 2 + 1)


def forward_modes(values: np.ndarray) -> np.ndarray:
    """Real samples (..., n) to normalized half-spectrum coefficients rfft(x)/n.

    Rejects a non-finite sample with FloatingPointError before any transform,
    as inverse_modes rejects a non-finite coefficient, so analysis and
    synthesis refuse the same way and raise no numpy warning.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite field; cannot analyse it into modes")
    return np.fft.rfft(values, axis=-1) / values.shape[-1]


def self_conjugate(columns: np.ndarray, n: int) -> list[int]:
    """Positions in `columns` of the k = 0 and (even n) Nyquist columns.

    columns holds ascending rfft column indices of a grid of n points, as
    mode_propagators returns them, so only its first and last positions can
    hold one.  Those two are the coefficients with no conjugate partner,
    which a real field keeps real.
    """
    ends = (0, len(columns) - 1)[: len(columns)]
    return [i for i in ends if columns[i] == 0 or 2 * columns[i] == n]


def hermitian_violation(modes: np.ndarray, n: int, columns: np.ndarray | None = None) -> float:
    """Worst |Im| of the k = 0 and (even n) Nyquist modes, relative to max |mode|.

    Those are the coefficients a real field of n samples keeps real.  modes
    is one (d, m) spectrum or a stack of them, or one 1-D row of m
    coefficients, which is measured as a one-row spectrum; its last axis
    holds the rfft columns `columns` of a grid of n points, all n//2 + 1 of
    them by default, so the occupied columns of mode_propagators are
    measured where they are.  Each spectrum of the last two axes is measured
    against its own maximum, and the worst of them is returned, so a small
    spectrum is judged at its own scale beside a large one; the empty
    columns, exactly 0, change neither.  The scale is floored at the
    smallest normal double, since subnormal values carry no relative
    precision; an all-zero spectrum, or one without either column, gives 0.
    """
    modes = np.asarray(modes, dtype=complex)
    columns = wavenumbers(n) if columns is None else np.asarray(columns)
    if modes.ndim == 0 or modes.shape[-1] != columns.size:
        raise ValueError(f"modes of shape {modes.shape} do not fit grid size {n}")
    if modes.ndim == 1:
        modes = modes[None]
    at = self_conjugate(columns, n)
    if not at:
        return 0.0
    scale = np.maximum(np.abs(modes).max(axis=(-2, -1)), np.finfo(float).tiny)
    return float((np.abs(modes[..., at].imag).max(axis=(-2, -1)) / scale).max())


def require_real(modes: np.ndarray, n: int, columns: np.ndarray | None = None) -> None:
    """Refuse modes that describe no real field of n samples.

    A non-finite coefficient raises FloatingPointError, and a k = 0 or
    Nyquist mode whose hermitian_violation exceeds HERMITIAN_TOL raises
    HermitianSymmetryError.  modes and columns are as hermitian_violation
    takes them.
    """
    modes = np.asarray(modes, dtype=complex)
    if not np.isfinite(modes).all():
        raise FloatingPointError("non-finite spectrum; cannot synthesize a real field")
    violation = hermitian_violation(modes, n, columns)
    if violation > HERMITIAN_TOL:
        raise HermitianSymmetryError(
            f"k = 0 or Nyquist mode is not real (violation {violation:.3e}); "
            "cannot synthesize a real field"
        )


def scatter_modes(
    columns: np.ndarray, values: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Dense (..., n//2 + 1) modes of the values (..., m) of the rfft columns `columns`.

    The pair is what mode_propagators returns; every other column is 0.
    out, if given, is a complex array of the dense shape whose other columns
    are already 0: only `columns` are written, and out is returned.
    """
    if out is None:
        out = np.zeros(values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    out[..., columns] = values
    return out


def inverse_modes(modes: np.ndarray, n: int) -> np.ndarray:
    """Half-spectrum coefficients (..., n//2 + 1) back to real samples (..., n).

    modes is one 1-D row, one (d, n//2 + 1) spectrum or a stack of them; a
    row synthesizes to the n samples that the same row of a 2-D call gives,
    bit for bit.  Rejects what require_real rejects.
    """
    modes = np.asarray(modes, dtype=complex)
    require_real(modes, n)
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


def real_coordinates(mats: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """S^-1 M S for an (N, d, d) stack M, with S = diag(scale); M itself for None.

    scale is the diagonal of a unitary diagonal S, as dispersion.parity_scale
    gives it: each entry of M is multiplied by 1, i or -i, so the product is
    exact.  A nonzero imaginary part of the result raises ValueError, since
    a real A is what the real routes of exp_action and eigenvalues assume.
    """
    if scale is None:
        return mats
    mats = mats * np.outer(scale.conj(), scale)
    if mats.imag.any():
        raise ValueError("the scaled symbol stack S^-1 M S is not real")
    return mats.real


def _is_diagonal(mats: np.ndarray) -> bool:
    """Whether no matrix of the (N, d, d) stack has a nonzero off-diagonal entry."""
    return not mats[..., ~np.eye(mats.shape[-1], dtype=bool)].any()


def eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of every matrix of an (N, d, d) stack, shape (N, d), complex.

    The route is exp_action's: the diagonal of a diagonal stack, in its
    order and with no eigvals call; d + i w, d - i w and the rest of the
    diagonal for an acoustic pair (acoustic_frequency), an exact conjugate
    pair and reals; one batched eigvals call for any other stack.
    """
    values = np.diagonal(mats, axis1=-2, axis2=-1).astype(complex)
    if _is_diagonal(mats):
        return values
    omega = acoustic_frequency(mats)
    if omega is None:
        return np.linalg.eigvals(mats).astype(complex, copy=False)
    values.imag[:, 0], values.imag[:, 1] = omega, -omega
    return values


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

    Each block holds about EVAL_BLOCK entries.  The route is read from the
    (N, d, d) stack, real or complex, as the module header lists, and as
    eigenvalues reads it:

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
    if _is_diagonal(mats):
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
) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum field modes (d, n//2 + 1) carried exactly to every time.

    Returns (columns, values): columns holds the ascending indices of the
    occupied columns of `modes`, those with a nonzero entry, and values the
    C-contiguous (T, d, m) complex array of their modes at each time, for
    the m = len(columns) occupied columns.  Every other column is exactly 0
    at every time, as exp(M t) 0 is, and is not returned; scatter_modes
    makes the dense (T, d, n//2 + 1) array of the pair.  times passes
    check_times: a 1-D ascending array of nonnegative elapsed times.  A
    leading 0 is the start itself, exp(M 0) = I: row 0 is the occupied
    columns of `modes`, bit for bit, with no arithmetic, and exp_action
    evaluates the later times, each block written in place into values.
    The occupied columns are propagated on one path whatever their count:
    symbol_stack maps the array of their plane wavenumbers -k to the symbol
    stack M at those k.  An all-zero spectrum gives no columns and a
    (T, d, 0) values array, and still builds its empty stack, so the symbol
    checks its arguments.  Each occupied column gets the bits the whole
    stack's propagation gives it.  scale, if given, is the diagonal of a
    unitary diagonal S for which A = S^-1 M S is real
    (dispersion.parity_scale): the modes are then propagated as
    S exp(A t) S^-1 x with the real stack A of real_coordinates, which
    refuses a nonzero imaginary part, and S is applied to each block of
    exp_action as it is written.  For even n an occupied Nyquist column of
    each propagated row is advanced as Re(P x), with P in the original
    coordinates; the start keeps its own.
    """
    times = check_times(times)
    columns = np.flatnonzero(np.any(modes, axis=0))
    mats = real_coordinates(symbol_stack(-wavenumbers(n)[columns].astype(float)), scale)
    vectors = modes[:, columns]
    values = np.empty((times.size, len(modes), columns.size), dtype=complex)
    start = int(times[0] == 0.0)
    values[:start] = vectors
    later = values[start:]
    if not columns.size:  # exp_action sizes its blocks by the column count
        return columns, values
    if scale is not None:
        vectors = vectors * scale.conj()[:, None]
    for rows, block in exp_action(mats, vectors, times[start:]):
        if scale is None:
            later[rows] = block
        else:
            np.multiply(block, scale[:, None], out=later[rows])
    if 2 * columns[-1] == n:
        later[:, :, -1] = later[:, :, -1].real
    return columns, values

"""Independent reference results for the workloads, and the accuracy gate.

Nothing here imports hydrobench.  The symbols are written out from the
paper's constants for a Maxwell gas with lambda02 = -1 (so mu = 1):
a0^2 = 5/3, sound diffusivity 7/6, entropy diffusivity 3/2, Burnett
coefficients 19/120 and 19/72, and the flux-form moment equations.  Field
modes follow f(x) = sum_k f_k exp(+ikx), so d/dx -> +ik, and the reference is
propagated by one ``scipy.linalg.expm`` per mode and output time.

Each check returns ``Check(ref_err, ok, detail)``.  ``ref_err`` is the
largest relative deviation of the command's output from the reference; the
output passes when the table has the expected shape and ``ref_err`` stays
below ``REF_GATE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import IC_MODES, Inputs, Workload

A0_SQ = 5.0 / 3.0
A0 = math.sqrt(A0_SQ)
LAMBDA02 = -1.0
LAMBDA11 = -2.0 / 3.0
D_SOUND = 7.0 / 6.0
D_ENTROPY = 3.0 / 2.0
BETA_U = 19.0 / 120.0
BETA_P = 19.0 / 72.0
#: Naive secular slope |4/(3 lambda02) + 2/(3 lambda11)| / 2 per unit k^2.
NAIVE_SLOPE = 7.0 / 6.0
#: Post-uniformization coupling 2/(3 lambda02) - 1/(3 lambda11).
RESIDUAL = -1.0 / 6.0

#: Largest accepted relative deviation from the reference.
REF_GATE = 1e-9
#: Moment slow branches must match Burnett within this multiple of k (eps k)^3;
#: the small-k constant is about 4.7 for the entropy branch and 2.0 for sound.
MOMENT_BOUND = 10.0


@dataclass(frozen=True)
class Check:
    ref_err: float
    ok: bool
    detail: str


def hydro_generator(model: str, k: float, eps: float) -> np.ndarray:
    """Generator of the (u, p, s) modes at wavenumber k for one hydro model."""
    ik = 1j * k
    sound = eps * D_SOUND * k * k
    entropy = eps * D_ENTROPY * k * k
    dispersive = eps * eps * k * k
    if model == "euler":
        return np.array([[0, -ik, 0], [-A0_SQ * ik, 0, 0], [0, 0, 0]], dtype=complex)
    if model == "navier_stokes":
        return np.array(
            [[-sound, -ik, 0], [-A0_SQ * ik, -sound, 0], [0, 0, -entropy]], dtype=complex
        )
    if model == "burnett":
        return np.array(
            [
                [-sound, -ik * (1 + BETA_U * dispersive), 0],
                [-ik * (A0_SQ + BETA_P * dispersive), -sound, 0],
                [0, 0, -entropy],
            ],
            dtype=complex,
        )
    if model == "riemann_decoupled":
        # Diagonal generator of (R+, R-, s); compare feeds it the (u, p, s) modes as they are.
        wave = 1j * A0 * k * (1 + BETA_U * dispersive)
        return np.diag([-wave - sound, wave - sound, -entropy])
    raise ValueError(model)


def moment_generator(k: float, eps: float) -> np.ndarray:
    """Flux-form moment equations for (n, u, p, Pi, q), T = p - n."""
    ik = 1j * k
    return np.array(
        [
            [0, -ik, 0, 0, 0],
            [0, 0, -ik, -ik, 0],
            [0, -A0_SQ * ik, 0, 0, -2 / 3 * ik],
            [0, -4 / 3 * ik, 0, LAMBDA02 / eps, -8 / 15 * ik],
            [5 / 2 * ik, 0, -5 / 2 * ik, -ik, LAMBDA11 / eps],
        ],
        dtype=complex,
    )


def ic_modes(inp: Inputs) -> dict[int, np.ndarray]:
    """Coefficient of exp(+ikx), k > 0, of each (u, p, s) field per excited k."""
    modes: dict[int, np.ndarray] = {}
    for index, field in enumerate(("u", "p", "s")):
        amplitude, phase = inp.ic[field]
        k = IC_MODES[field]
        vector = modes.setdefault(k, np.zeros(3, dtype=complex))
        vector[index] += amplitude * np.exp(1j * phase) / 2j
    return modes


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(cells: list[list[str]], index: int) -> np.ndarray:
    return np.array([float(row[index]) for row in cells])


def _fail(detail: str) -> Check:
    return Check(math.inf, False, detail)


def _gate(ref_err: float, detail: str, ok: bool = True) -> Check:
    ok = ok and ref_err <= REF_GATE
    return Check(ref_err, ok, f"{detail}; ref_err {ref_err:.3g} (gate {REF_GATE:g})")


def _times(w: Workload) -> np.ndarray:
    return w.dt_out * np.arange(int(round(w.tmax / w.dt_out)) + 1)


def check_evolve(w: Workload, inp: Inputs, csv: Path) -> Check:
    header, cells = _read(csv)
    n, times = w.grid_size, _times(w)
    if header != ["t", "x", "u", "p", "s"] or len(cells) != n * times.size:
        return _fail(f"expected {n * times.size} rows of t,x,u,p,s, got {len(cells)}")
    final = cells[-n:]
    t_out, x_out = _column(final, 0), _column(final, 1)
    x = 2 * np.pi * np.arange(n) / n
    if not (np.all(t_out == t_out[0]) and abs(t_out[0] - w.tmax) <= 1e-12 * w.tmax):
        return _fail(f"final block is not at t = {w.tmax}")
    if np.max(np.abs(x_out - x)) > 1e-12:
        return _fail("x column is not the uniform grid")
    ref = np.zeros((3, n))
    for k, vector in ic_modes(inp).items():
        final_modes = scipy.linalg.expm(hydro_generator(w.models[0], k, w.eps) * w.tmax) @ vector
        ref += 2 * np.real(np.outer(final_modes, np.exp(1j * k * x)))
    out = np.stack([_column(final, 2), _column(final, 3), _column(final, 4)])
    err = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
    return _gate(err, f"final snapshot at t = {w.tmax:g} against per-mode expm")


def _gap(diff_modes: dict[int, np.ndarray]) -> float:
    # Parseval for real fields: dx * sum_j |f_j|^2 = 2*pi * 2 * sum_{k>0} |f_k|^2.
    return math.sqrt(4 * math.pi * sum(float(np.sum(np.abs(v) ** 2)) for v in diff_modes.values()))


def check_compare(w: Workload, inp: Inputs, csv: Path) -> Check:
    header, cells = _read(csv)
    models = ["euler", "navier_stokes", "burnett", "riemann_decoupled"]
    times = _times(w)
    if header != ["t"] + [f"l2_error_{m}" for m in models] or len(cells) != times.size:
        return _fail(f"expected {times.size} rows of t and four l2_error columns")
    t_out = _column(cells, 0)
    if np.max(np.abs(t_out - times)) > 1e-12 * w.tmax:
        return _fail("t column does not match the output times")
    modes = ic_modes(inp)
    moments0 = {}
    for k, (u, p, s) in modes.items():
        moments0[k] = np.array([(3 * p - 2 * s) / 5, u, p, 0, 0], dtype=complex)
    err = max(abs(float(cells[0][j])) for j in range(1, 5))
    for row, t in zip(cells[1:], times[1:]):
        reference = {}
        for k, m0 in moments0.items():
            n_, u, p, _, _ = scipy.linalg.expm(moment_generator(k, w.eps) * t) @ m0
            reference[k] = np.array([u, p, 1.5 * p - 2.5 * n_])
        for j, model in enumerate(models, start=1):
            diff = {
                k: scipy.linalg.expm(hydro_generator(model, k, w.eps) * t) @ v - reference[k]
                for k, v in modes.items()
            }
            gap = _gap(diff)
            err = max(err, abs(float(row[j]) - gap) / gap)
    return _gate(err, f"L2 gaps of {len(models)} models at {times.size - 1} times against expm")


def _closed_form(model: str, k: np.ndarray, eps: float) -> dict[str, np.ndarray]:
    """Exact sigma(k) under exp(sigma t - ikx) for the 3x3 models."""
    zero = np.zeros_like(k, dtype=complex)
    if model == "euler":
        wave, sound, entropy = A0 * k, zero, zero
    else:
        stretch = 1.0 if model == "navier_stokes" else 1 + BETA_U * (eps * k) ** 2
        wave = A0 * k * stretch
        sound = -eps * D_SOUND * k * k
        entropy = -eps * D_ENTROPY * k * k + zero
    return {"entropy": entropy, "sound_plus": sound + 1j * wave, "sound_minus": sound - 1j * wave}


def check_dispersion(w: Workload, inp: Inputs, csv: Path) -> Check:
    header, cells = _read(csv)
    hydro = ("burnett", "euler", "navier_stokes", "riemann_decoupled")
    expected_rows = w.samples * (3 * len(hydro) + 5)
    if header != ["model", "k", "branch", "re_sigma", "im_sigma"] or len(cells) != expected_rows:
        return _fail(f"expected {expected_rows} rows of model,k,branch,re_sigma,im_sigma")
    grid = np.linspace(inp.kmin, w.kmax, w.samples)
    table: dict[tuple[str, str], list[complex]] = {}
    ks: dict[tuple[str, str], list[float]] = {}
    for model, k, branch, re, im in cells:
        table.setdefault((model, branch), []).append(complex(float(re), float(im)))
        ks.setdefault((model, branch), []).append(float(k))
    for key, values in ks.items():
        if len(values) != w.samples or np.max(np.abs(np.array(values) - grid)) > 1e-12:
            return _fail(f"k column of {key} is not linspace(kmin, kmax, samples)")
    err = 0.0
    for model in hydro:
        for branch, sigma in _closed_form(model, grid, w.eps).items():
            out = np.array(table[(model, branch)])
            err = max(err, float(np.max(np.abs(out - sigma) / (A0 * grid))))
    # Moment slow branches against the Burnett closed form at the lowest k.
    k0 = grid[:1]
    bound = MOMENT_BOUND * float(k0[0] * (w.eps * k0[0]) ** 3)
    burnett = _closed_form("burnett", k0, w.eps)
    moment_gap = max(
        abs(table[("moment_reference", branch)][0] - complex(burnett[branch][0]))
        for branch in burnett
    )
    detail = (
        f"closed-form branches of {len(hydro)} models; moment slow-branch gap at k = "
        f"{k0[0]:.6g} is {moment_gap:.3g} (bound {bound:.3g})"
    )
    return _gate(err, detail, ok=moment_gap <= bound)


def _amplitude(u: complex, p: complex) -> float:
    return math.sqrt((A0 * abs(u)) ** 2 + abs(p) ** 2) / A0


def check_secular(w: Workload, inp: Inputs, csv: Path) -> Check:
    header, cells = _read(csv)
    times = _times(w)[1:]
    if header != ["t", "naive_ratio", "multiscale_ratio"] or len(cells) != times.size:
        return _fail(f"expected {times.size} rows of t,naive_ratio,multiscale_ratio")
    t_out, naive = _column(cells, 0), _column(cells, 1)
    if np.max(np.abs(t_out - times)) > 1e-12 * w.tmax:
        return _fail("t column does not match the output times")
    k = IC_MODES["u"]
    naive_ref = w.eps * NAIVE_SLOPE * k * k * times
    err = float(np.max(np.abs(naive - naive_ref) / naive_ref))
    # Leading (u, p) under Burnett, correction (u, p) under NS, coupled by RESIDUAL*k^2.
    generator = np.zeros((4, 4), dtype=complex)
    generator[:2, :2] = hydro_generator("burnett", k, w.eps)[:2, :2]
    generator[2:, 2:] = hydro_generator("navier_stokes", k, w.eps)[:2, :2]
    generator[2, 0], generator[3, 1] = RESIDUAL * k * k, -RESIDUAL * k * k
    start = np.array([0.5 * inp.ic["u"][0], 0, 0, 0], dtype=complex)
    lead_u, lead_p, corr_u, corr_p = scipy.linalg.expm(generator * w.tmax) @ start
    ratio = w.eps * _amplitude(corr_u, corr_p) / _amplitude(lead_u, lead_p)
    err = max(err, abs(float(cells[-1][2]) - ratio) / ratio)
    return _gate(err, "naive ratio eps*(7/6)*t and final multiscale ratio against one expm")


CHECKS = {
    "evolve": check_evolve,
    "compare": check_compare,
    "dispersion": check_dispersion,
    "secular": check_secular,
}


def check(w: Workload, inp: Inputs, csv: Path) -> Check:
    """Compare one invocation's CSV against the workload's reference."""
    try:
        return CHECKS[w.command](w, inp, csv)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _fail(f"unreadable output: {exc!r}")

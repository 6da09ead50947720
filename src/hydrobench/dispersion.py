"""Plane-wave dispersion relations and per-wavenumber symbol matrices.

Convention used throughout: plane waves are R * exp(sigma*t - i*k*x), so the
substitutions are d/dx -> -ik, d2/dx2 -> -k^2, d3/dx3 -> +i*k^3.  symbol_matrix
builds all five model symbols: M generates d/dt(modes) = M(modes) for the
per-wavenumber mode vector, ordered (u, p, s) for the hydrodynamic models,
(R+, R-, s) for the Riemann-decoupled form, and (n, u, p, Pi, q) for the
kinetic moment reference (its equations are in moment_reference).

Branches of the growth rate sigma(k) are named by rank, from one symbol stack
for the whole grid; eigvals runs for the moment system only, once per grid.
u and q are odd under x -> -x and n, p, s and Pi even: every off-diagonal
entry of the Euler, Navier-Stokes, Burnett and moment symbols couples an odd
row to an even one and is pure imaginary, and every diagonal entry is real.
So with S = diag(i on the odd rows), S^-1 M S is a real matrix with the
eigenvalues of M, each either exactly real or one of an exact conjugate
pair.  For Euler, Navier-Stokes and Burnett that real matrix is an acoustic
pair, [[d, a, 0], [b, d, 0], [0, 0, e]] with a*b <= 0
(_modal.acoustic_frequency), whose eigenvalues d +- i w, w = sqrt|a| sqrt|b|,
and e need no LAPACK; real LAPACK takes the moment system's.  One parity
table, _ODD_ROWS, read through parity_scale, serves both users of that fact:
the branches here, and hydro_spectral.evolve, which propagates in the real
coordinates S^-1 x.
Branches are continuous in k, and two real ones
cannot change order without meeting, so while the number of real
eigenvalues stays that of the model (one for a hydrodynamic model, three for
the moment reference) rank alone names them: the largest real one is the
entropy branch, Im > 0 is sound_plus and Im < 0 is sound_minus, and the
moment reference's next two reals are kinetic_heat and then kinetic_stress,
because lambda11 = (2/3)*lambda02 > lambda02.  Where that count changes, two
branches have merged, and BranchCollisionError names the k.  The
Riemann-decoupled symbol is diagonal by construction, so its diagonal is its
spectrum with no eigvals: its s entry is real and its R+ and R- entries have
Im > 0 and Im < 0, so the same rank names them sound_plus, sound_minus and
entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ._modal import acoustic_frequency
from .coefficients import (
    SOUND_SPEED,
    EigenvalueSet,
    transport_burnett,
    transport_ns,
)

__all__ = [
    "Branch",
    "BranchCollisionError",
    "DispersionTable",
    "ModelId",
    "branches",
    "parity_scale",
    "sigma_asymptotic",
    "symbol_matrix",
]

class ModelId(Enum):
    """The five closures whose per-mode symbols this module can build."""

    EULER = "euler"
    NAVIER_STOKES = "navier_stokes"
    BURNETT = "burnett"
    RIEMANN_DECOUPLED = "riemann_decoupled"
    MOMENT_REFERENCE = "moment_reference"

    @property
    def dimension(self) -> int:
        return 5 if self is ModelId.MOMENT_REFERENCE else 3


class Branch(Enum):
    """Persistent labels for sigma(k) branches; a d-field model has the first d, in order."""

    ENTROPY = "entropy"
    SOUND_PLUS = "sound_plus"
    SOUND_MINUS = "sound_minus"
    KINETIC_STRESS = "kinetic_stress"
    KINETIC_HEAT = "kinetic_heat"


class BranchCollisionError(RuntimeError):
    """The number of real eigenvalues differs from the model's at a grid point.

    Two branches have merged there (or the first point already lies past a
    merge), so rank no longer names them.
    """


@dataclass(frozen=True)
class DispersionTable:
    """Matched sigma(k) branches for one model.

    sigma has shape (len(k_grid), len(labels)); column j follows labels[j]
    continuously across the grid.
    """

    model: ModelId
    k_grid: np.ndarray
    labels: tuple[Branch, ...]
    sigma: np.ndarray

    def branch(self, label: Branch) -> np.ndarray:
        return self.sigma[:, self.labels.index(label)]


def sigma_asymptotic(
    k: float, eps: float, eigenvalues: EigenvalueSet, branch: Branch
) -> complex:
    """Closed-form growth rate of the Burnett-level dispersion relation.

    Entropy branch: sigma = eps*k^2/lambda11 (real, negative).
    Sound branches: sigma = +-i*a0*k*(1 + k^2*eps^2*beta_u) - eps*k^2*Ds
    with Ds the positive sound diffusivity.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if branch is Branch.ENTROPY:
        return complex(eps * k * k / float(eigenvalues.lambda11))
    if branch in (Branch.SOUND_PLUS, Branch.SOUND_MINUS):
        sign = 1.0 if branch is Branch.SOUND_PLUS else -1.0
        damping = -eps * k * k * float(transport_ns(eigenvalues).sound_diffusivity)
        beta_u = float(transport_burnett(eigenvalues).beta_u)
        return sign * 1j * SOUND_SPEED * k * (1.0 + k * k * eps * eps * beta_u) + damping
    raise ValueError(f"no asymptotic form for branch {branch!r}")


def symbol_matrix(model: ModelId, k: float | np.ndarray, eps: float, eigenvalues: EigenvalueSet):
    """Generator M with d/dt(mode vector) = M(mode vector), at wavenumber k.

    The result has shape np.shape(k) + (d, d) with d = model.dimension: one
    matrix for a scalar k, the (N, d, d) stack for N wavenumbers.  eps is
    ignored for the Euler model (its symbol has no eps dependence) and must be
    positive for the moment reference, whose collision terms carry 1/eps.
    Mode ordering is documented in the module header.
    """
    if model is ModelId.MOMENT_REFERENCE:
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be positive and finite, got {eps}")
    elif not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    k = np.asarray(k, dtype=float)
    ik = 1j * k
    matrix = np.zeros(k.shape + (model.dimension, model.dimension), dtype=complex)
    if model is ModelId.MOMENT_REFERENCE:
        matrix[..., 0, 1] = ik
        matrix[..., 1, 2] = ik
        matrix[..., 1, 3] = ik
        matrix[..., 2, 1] = (5.0 / 3.0) * ik
        matrix[..., 2, 4] = (2.0 / 3.0) * ik
        matrix[..., 3, 1] = (4.0 / 3.0) * ik
        matrix[..., 3, 4] = (8.0 / 15.0) * ik
        matrix[..., 3, 3] = float(eigenvalues.lambda02) / eps
        matrix[..., 4, 3] = ik
        matrix[..., 4, 2] = (5.0 / 2.0) * ik
        matrix[..., 4, 0] = -(5.0 / 2.0) * ik
        matrix[..., 4, 4] = float(eigenvalues.lambda11) / eps
        return matrix
    if model in (ModelId.EULER, ModelId.NAVIER_STOKES):
        matrix[..., 0, 1] = ik
        matrix[..., 1, 0] = (5.0 / 3.0) * ik
        if model is ModelId.EULER:
            return matrix

    ns = transport_ns(eigenvalues)
    damp_sound = -eps * float(ns.sound_diffusivity) * k * k
    matrix[..., 2, 2] = -eps * float(ns.entropy_diffusivity) * k * k
    if model is ModelId.RIEMANN_DECOUPLED:
        # Diagonal by construction: (R+, R-, s).
        beta_u = float(transport_burnett(eigenvalues).beta_u)
        dispersive = 1j * SOUND_SPEED * k * (1.0 + eps * eps * beta_u * k * k)
        matrix[..., 0, 0] = dispersive + damp_sound
        matrix[..., 1, 1] = -dispersive + damp_sound
        return matrix
    if model is ModelId.BURNETT:
        burnett = transport_burnett(eigenvalues)
        matrix[..., 0, 1] = ik * (1.0 + eps * eps * float(burnett.beta_u) * k * k)
        matrix[..., 1, 0] = ik * (5.0 / 3.0 + eps * eps * float(burnett.beta_p) * k * k)
    matrix[..., 0, 0] = matrix[..., 1, 1] = damp_sound
    return matrix


#: Rows of each symbol that hold a field odd under x -> -x: u, and q for the
#: moment reference.  The Riemann-decoupled rows (R+, R-, s) have no parity.
_ODD_ROWS = {
    ModelId.EULER: [0],
    ModelId.NAVIER_STOKES: [0],
    ModelId.BURNETT: [0],
    ModelId.MOMENT_REFERENCE: [1, 4],
}


def parity_scale(model: ModelId) -> np.ndarray | None:
    """Diagonal of S: 1 on each row, i on the model's _ODD_ROWS; None for riemann.

    S^-1 M S is real for the model's symbol M (module header), so branches
    take real eigenvalues of it and hydro_spectral.evolve propagates in its
    real coordinates.  The Riemann-decoupled symbol has no parity rows, and
    none is needed: it is diagonal.
    """
    if model not in _ODD_ROWS:
        return None
    scale = np.ones(model.dimension, dtype=complex)
    scale[_ODD_ROWS[model]] = 1j
    return scale


def _parity_scaled(model: ModelId, matrix: np.ndarray) -> np.ndarray:
    """S^-1 M S for a symbol stack M, with S = diag(parity_scale(model)).

    Each entry is M's times 1, i or -i, so the product is exact, and by the
    parity structure of the module header its imaginary part is exactly zero.
    """
    scale = parity_scale(model)
    return matrix * np.outer(scale.conj(), scale)


def _eigenvalues(
    model: ModelId, grid: np.ndarray, eps: float, eigenvalues: EigenvalueSet
) -> np.ndarray:
    """Raw eigenvalues of the model symbol at every grid point, shape (len(grid), d).

    The diagonal of the Riemann-decoupled symbol, in its (R+, R-, s) order.
    The parity-scaled Euler, Navier-Stokes and Burnett stacks are acoustic
    pairs (_modal.acoustic_frequency), whose eigenvalues are d + i w, d - i w
    and e in closed form, an exact conjugate pair and a real.  The moment
    system takes one batched real eigvals call on its parity-scaled stack.
    """
    matrix = symbol_matrix(model, grid, eps, eigenvalues)
    if parity_scale(model) is None:
        return np.diagonal(matrix, axis1=1, axis2=2)
    scaled = _parity_scaled(model, matrix).real
    omega = acoustic_frequency(scaled)
    if omega is None:
        return np.linalg.eigvals(scaled).astype(complex, copy=False)
    values = np.diagonal(scaled, axis1=1, axis2=2).astype(complex)
    values.imag[:, 0] = omega
    values.imag[:, 1] = -omega
    return values


#: Labels of a model's real eigenvalues, from the largest down.
_REAL_BY_RANK = (Branch.ENTROPY, Branch.KINETIC_HEAT, Branch.KINETIC_STRESS)


def branches(
    model: ModelId,
    k_grid: Sequence[float],
    eps: float,
    eigenvalues: EigenvalueSet,
) -> DispersionTable:
    """Numerical sigma(k) branches of a model symbol, labelled at every grid point.

    The grid must be finite, ascending and strictly positive.  The labels
    come from rank, as the module header describes: the raw eigenvalues at
    each point are sorted on one key, Im > 0 first, then the reals from the
    largest down, then Im < 0.  The Riemann-decoupled diagonal has a real s
    entry and R+ and R- entries with Im > 0 and Im < 0, so the same key names
    it.  The first grid point whose count of real eigenvalues differs from
    the model's (one for a hydrodynamic model, three for the moment
    reference) raises BranchCollisionError at its k, the first point itself
    included.  The moment reference meets that at its real exceptional point
    near eps*k ~ 0.3*|lambda02|, where the entropy and kinetic-heat branches
    merge into a conjugate pair.
    """
    grid = np.asarray(k_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("k_grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("k_grid must be finite")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("k_grid must be strictly positive and ascending")

    values = _eigenvalues(model, grid, eps, eigenvalues)
    real = values.imag == 0
    count = model.dimension - 2
    wrong = np.count_nonzero(real, axis=1) != count
    if wrong.any():
        at = int(wrong.argmax())
        raise BranchCollisionError(
            f"ambiguous branch match at k = {grid[at]:g}: real eigenvalue count "
            f"{np.count_nonzero(real[at])}, not {count}; refine the k grid "
            "(a collision that persists under refinement is a genuine eigenvalue "
            "merge, past which these labels stop being meaningful)"
        )
    ranked = (Branch.SOUND_PLUS, *_REAL_BY_RANK[:count], Branch.SOUND_MINUS)
    labels = tuple(Branch)[: model.dimension]
    order = np.lexsort((-values.real, -np.sign(values.imag)))
    columns = order[:, [ranked.index(label) for label in labels]]
    sigma = np.take_along_axis(values, columns, axis=1)
    return DispersionTable(model=model, k_grid=grid, labels=labels, sigma=sigma)

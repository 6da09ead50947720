"""Plane-wave dispersion relations and per-wavenumber symbol matrices.

Convention used throughout: plane waves are R * exp(sigma*t - i*k*x), so the
substitutions are d/dx -> -ik, d2/dx2 -> -k^2, d3/dx3 -> +i*k^3.  symbol_matrix
builds all five model symbols: M generates d/dt(modes) = M(modes) for the
per-wavenumber mode vector, ordered (u, p, s) for the hydrodynamic models,
(R+, R-, s) for the Riemann-decoupled form, and (n, u, p, Pi, q) for the
kinetic moment reference (its equations are in moment_reference).

Branches of the growth rate sigma(k) are tracked across a k grid by
nearest-neighbor continuation in the complex plane, seeded at the first grid
point from the analytic small-k limits.  The eigenvalues of the whole grid
come from one symbol stack and one batched eigvals call, on a real stack
where parity allows: u and q are odd under x -> -x and n, p, s and Pi even,
every off-diagonal entry of the Euler, Navier-Stokes, Burnett and moment
symbols couples an odd row to an even one and is pure imaginary, and every
diagonal entry is real.  So with S = diag(i on the odd rows), S^-1 M S is a
real matrix with the eigenvalues of M, and real LAPACK gives them in half
the time of the complex route.  The Riemann-decoupled symbol is a complex
diagonal that mixes parities, so it keeps the complex route.  The greedy match
between neighbouring grid points reads only their eigenvalues, so it runs
for every step at once on one distance tensor: d rounds, each taking per
step the free pair of least distance (lowest previous raw index, then lowest
current one, on an exact tie).  A step is ambiguous, and BranchCollisionError
names its k, when a pair tied for that least distance has a second free
candidate within MATCH_AMBIGUITY_TOL, or two tied pairs want one candidate.
The labels then follow by composing the per-step index maps from the seeded
first point, in log2(K) rounds of a Hillis-Steele prefix scan over the K
grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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
    "sigma_asymptotic",
    "symbol_matrix",
]

#: Two candidate matches closer than this are treated as a genuine collision.
MATCH_AMBIGUITY_TOL = 1e-12


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
    """Two eigenvalue candidates were indistinguishable during matching."""


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


def _parity_scaled(model: ModelId, matrix: np.ndarray) -> np.ndarray:
    """S^-1 M S for a symbol stack M, with S = diag(i on the model's _ODD_ROWS).

    Each entry is M's times 1, i or -i, so the product is exact, and by the
    parity structure of the module header its imaginary part is exactly zero.
    """
    scale = np.ones(model.dimension, dtype=complex)
    scale[_ODD_ROWS[model]] = 1j
    return matrix * np.outer(scale.conj(), scale)


def _eigenvalues(
    model: ModelId, grid: np.ndarray, eps: float, eigenvalues: EigenvalueSet
) -> np.ndarray:
    """Raw eigenvalues of the model symbol at every grid point, shape (len(grid), d).

    One batched eigvals call: on the real parity-scaled stack when the model
    has a parity, on the complex symbol stack otherwise.
    """
    matrix = symbol_matrix(model, grid, eps, eigenvalues)
    if model in _ODD_ROWS:
        matrix = _parity_scaled(model, matrix).real
    return np.linalg.eigvals(matrix).astype(complex, copy=False)


def _seed_values(
    model: ModelId, k: float, eps: float, eigenvalues: EigenvalueSet
) -> dict[Branch, complex]:
    """Analytic small-k limits used to name the branches at the first grid point."""
    if model is ModelId.EULER:
        return {
            Branch.ENTROPY: 0j,
            Branch.SOUND_PLUS: 1j * SOUND_SPEED * k,
            Branch.SOUND_MINUS: -1j * SOUND_SPEED * k,
        }
    seeds = {
        Branch.ENTROPY: sigma_asymptotic(k, eps, eigenvalues, Branch.ENTROPY),
        Branch.SOUND_PLUS: sigma_asymptotic(k, eps, eigenvalues, Branch.SOUND_PLUS),
        Branch.SOUND_MINUS: sigma_asymptotic(k, eps, eigenvalues, Branch.SOUND_MINUS),
    }
    if model is ModelId.MOMENT_REFERENCE:
        seeds[Branch.KINETIC_STRESS] = complex(float(eigenvalues.lambda02) / eps)
        seeds[Branch.KINETIC_HEAT] = complex(float(eigenvalues.lambda11) / eps)
    return seeds


def _assign_seeded(seeds: Sequence[complex], values: np.ndarray) -> list[int]:
    """Raw eigenvalue index for each seed, in seed order; ties broken by Im sign, then Re."""
    remaining = list(range(len(values)))
    assigned: list[int] = []
    for seed in seeds:
        dists = [(abs(values[i] - seed), i) for i in remaining]
        dists.sort(key=lambda item: item[0])
        best = dists[0][1]
        if len(dists) > 1 and abs(dists[1][0] - dists[0][0]) <= MATCH_AMBIGUITY_TOL:
            tied = [i for d, i in dists if abs(d - dists[0][0]) <= MATCH_AMBIGUITY_TOL]
            tied.sort(
                key=lambda i: (
                    np.sign(values[i].imag) != np.sign(seed.imag),
                    abs(values[i].real - seed.real),
                )
            )
            best = tied[0]
        assigned.append(best)
        remaining.remove(best)
    return assigned


def _step_maps(values: np.ndarray, k_grid: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor continuation of every grid step at once.

    values[s] holds the raw eigenvalues at k_grid[s].  Row s of the result
    maps each raw index at step s to the raw index it continues to at step
    s + 1.  The tie and ambiguity rules are those of the module header; the
    first ambiguous step raises BranchCollisionError at its k.
    """
    steps, d = values.shape[0] - 1, values.shape[1]
    dist = np.abs(values[1:, None, :] - values[:-1, :, None])  # (step, previous, current)
    maps = np.empty((steps, d), dtype=np.intp)
    ambiguous = np.zeros(steps, dtype=bool)
    pairs = dist.reshape(steps, d * d)  # a view: masking dist masks pairs
    at = np.arange(steps)
    for _ in range(d):
        flat = pairs.argmin(axis=1)
        best = pairs[at, flat][:, None]
        nearest = np.partition(dist, 1, axis=2)
        tied_rows = nearest[:, :, 0] == best
        ambiguous |= np.any(tied_rows & (nearest[:, :, 1] - best <= MATCH_AMBIGUITY_TOL), axis=1)
        ambiguous |= np.any(np.count_nonzero(dist == best[:, :, None], axis=1) > 1, axis=1)
        previous, current = np.divmod(flat, d)
        maps[at, previous] = current
        dist[at, previous, :] = np.inf
        dist[at, :, current] = np.inf
    if ambiguous.any():
        k = float(k_grid[int(ambiguous.argmax()) + 1])
        raise BranchCollisionError(
            f"ambiguous branch match at k = {k:g}: two eigenvalue candidates "
            f"are equidistant within {MATCH_AMBIGUITY_TOL:g}; refine the k grid "
            "(a collision that persists under refinement is a genuine eigenvalue "
            "merge, past which these labels stop being meaningful)"
        )
    return maps


def _compose_maps(maps: np.ndarray, seeded: Sequence[int]) -> np.ndarray:
    """Raw index of each seeded index at every grid point, one row per point.

    maps[s] takes each raw index at point s to its continuation at point
    s + 1.  Row s of prefix becomes the map from raw indices at the first
    point to their continuations at point s: it starts as the identity, then
    as maps[s - 1], and an inclusive Hillis-Steele scan composes each row
    with all the rows before it in ceil(log2(K)) rounds for K points.
    """
    prefix = np.concatenate([np.arange(maps.shape[1])[None, :], maps])
    shift = 1
    while shift < len(prefix):
        prefix[shift:] = np.take_along_axis(prefix[shift:], prefix[:-shift], axis=1)
        shift *= 2
    return prefix[:, seeded]


def branches(
    model: ModelId,
    k_grid: Sequence[float],
    eps: float,
    eigenvalues: EigenvalueSet,
) -> DispersionTable:
    """Numerical sigma(k) branches of a model symbol, matched across the grid.

    The grid must be finite, ascending and strictly positive.  The first
    point is labelled from the analytic seeds.  The raw eigenvalues come from
    one batched eigvals call, on the real parity-scaled stack S^-1 M S for
    every model but the Riemann-decoupled one (see the module header).  One
    batched greedy match over all grid steps gives each step's raw-index map
    (least distance first; exact ties go to the lowest previous, then
    current, index), and the labels follow from the seeded indices through a
    prefix scan of those maps: log2(K) rounds of composition for K points,
    not K - 1 sequential steps.  A step where a tied pair has a second
    candidate within MATCH_AMBIGUITY_TOL, or where two tied pairs want one
    candidate, raises BranchCollisionError at its k.

    For the moment reference the first point should satisfy
    k0 <= 0.1*|lambda02|/eps so the kinetic and hydrodynamic branches start
    well separated; that system also has a real exceptional point near
    eps*k ~ 0.3*|lambda02| where the entropy and kinetic-heat branches merge
    into a conjugate pair, and continuation past it raises
    BranchCollisionError by construction.
    """
    grid = np.asarray(k_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("k_grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("k_grid must be finite")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("k_grid must be strictly positive and ascending")

    labels = tuple(Branch)[: model.dimension]
    values = _eigenvalues(model, grid, eps, eigenvalues)
    seeds = _seed_values(model, float(grid[0]), eps, eigenvalues)
    seeded = _assign_seeded([seeds[label] for label in labels], values[0])
    perm = _compose_maps(_step_maps(values, grid), seeded)
    sigma = np.take_along_axis(values, perm, axis=1)
    return DispersionTable(model=model, k_grid=grid, labels=labels, sigma=sigma)

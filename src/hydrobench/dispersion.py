"""Plane-wave dispersion relations and per-wavenumber symbol matrices.

Convention used throughout: plane waves are R * exp(sigma*t - i*k*x), so the
substitutions are d/dx -> -ik, d2/dx2 -> -k^2, d3/dx3 -> +i*k^3.  Every model
symbol M below generates d/dt(modes) = M(modes) for the per-wavenumber mode
vector, ordered (u, p, s) for the hydrodynamic models, (R+, R-, s) for the
Riemann-decoupled form, and (n, u, p, Pi, q) for the kinetic moment reference.

Branches of the growth rate sigma(k) are tracked across a k grid by
nearest-neighbor continuation in the complex plane, seeded at the first grid
point from the analytic small-k limits; the eigenvalues of the whole grid
come from one symbol stack and one batched eigvals call.  The greedy match
between neighbouring grid points reads only their eigenvalues, so it runs
for every step at once on one distance tensor: d rounds, each taking per
step the free pair of least distance (lowest previous raw index, then lowest
current one, on an exact tie).  A step is ambiguous, and BranchCollisionError
names its k, when a pair tied for that least distance has a second free
candidate within MATCH_AMBIGUITY_TOL, or two tied pairs want one candidate.
The labels then follow by composing the per-step index maps from the seeded
first point.
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
    """Persistent labels for sigma(k) branches."""

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

    A scalar k gives one (d, d) matrix, a 1-D array of N wavenumbers the
    (N, d, d) stack.  eps is ignored for the Euler model (its symbol has no
    eps dependence) and must be positive for the moment reference, whose
    collision terms carry 1/eps.  Mode ordering is documented in the module
    header.
    """
    if model is ModelId.MOMENT_REFERENCE:
        from . import moment_reference

        return moment_reference.moment_symbol(k, eps, eigenvalues)

    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    scalar = np.ndim(k) == 0
    k = np.atleast_1d(np.asarray(k, dtype=float))
    ik = 1j * k
    matrix = np.zeros((k.size, 3, 3), dtype=complex)
    if model is ModelId.EULER:
        matrix[:, 0, 1] = ik
        matrix[:, 1, 0] = (5.0 / 3.0) * ik
        return matrix[0] if scalar else matrix

    ns = transport_ns(eigenvalues)
    damp_sound = -eps * float(ns.sound_diffusivity) * k * k
    matrix[:, 2, 2] = -eps * float(ns.entropy_diffusivity) * k * k
    if model is ModelId.NAVIER_STOKES:
        matrix[:, 0, 1] = ik
        matrix[:, 1, 0] = (5.0 / 3.0) * ik
        matrix[:, 0, 0] = matrix[:, 1, 1] = damp_sound
    elif model is ModelId.BURNETT:
        burnett = transport_burnett(eigenvalues)
        matrix[:, 0, 1] = ik * (1.0 + eps * eps * float(burnett.beta_u) * k * k)
        matrix[:, 1, 0] = ik * (5.0 / 3.0 + eps * eps * float(burnett.beta_p) * k * k)
        matrix[:, 0, 0] = matrix[:, 1, 1] = damp_sound
    elif model is ModelId.RIEMANN_DECOUPLED:
        # Diagonal by construction: (R+, R-, s).
        beta_u = float(transport_burnett(eigenvalues).beta_u)
        dispersive = 1j * SOUND_SPEED * k * (1.0 + eps * eps * beta_u * k * k)
        matrix[:, 0, 0] = dispersive + damp_sound
        matrix[:, 1, 1] = -dispersive + damp_sound
    else:
        raise ValueError(f"unknown model {model!r}")
    return matrix[0] if scalar else matrix


def _branch_labels(model: ModelId) -> tuple[Branch, ...]:
    if model is ModelId.MOMENT_REFERENCE:
        return (
            Branch.ENTROPY,
            Branch.SOUND_PLUS,
            Branch.SOUND_MINUS,
            Branch.KINETIC_STRESS,
            Branch.KINETIC_HEAT,
        )
    return (Branch.ENTROPY, Branch.SOUND_PLUS, Branch.SOUND_MINUS)


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


def branches(
    model: ModelId,
    k_grid: Sequence[float],
    eps: float,
    eigenvalues: EigenvalueSet,
) -> DispersionTable:
    """Numerical sigma(k) branches of a model symbol, matched across the grid.

    The grid must be finite, ascending and strictly positive.  The first
    point is labelled from the analytic seeds.  One batched greedy match over
    all grid steps gives each step's raw-index map (least distance first;
    exact ties go to the lowest previous, then current, index), and the
    labels follow by composing those maps from the seeded indices.  A step
    where a tied pair has a second candidate within MATCH_AMBIGUITY_TOL, or
    where two tied pairs want one candidate, raises BranchCollisionError at
    its k.

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

    labels = _branch_labels(model)
    values = np.linalg.eigvals(symbol_matrix(model, grid, eps, eigenvalues))
    seeds = _seed_values(model, float(grid[0]), eps, eigenvalues)
    perm = np.empty(values.shape, dtype=np.intp)
    perm[0] = _assign_seeded([seeds[label] for label in labels], values[0])
    for s, step in enumerate(_step_maps(values, grid)):
        perm[s + 1] = step[perm[s]]
    sigma = np.take_along_axis(values, perm, axis=1)
    return DispersionTable(model=model, k_grid=grid, labels=labels, sigma=sigma)

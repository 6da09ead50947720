"""Initial-condition grammar and its exact spectrum on a grid.

Textual form: term ("," term)* with term = field ":" mode ":" amplitude
[":" phase].  Fields are u, p, or s; modes are positive integers, and a grid
resolves only those below half its size; amplitudes and phases are finite
numbers, phases in radians and zero by default.  Each term contributes
amplitude * sin(mode * x + phase) to its field, and spectrum gives the
sum's exact half spectrum, which is nonzero only in the columns the terms
name.  Fields on a grid are hydro_spectral.from_modes of that spectrum, a
(3, N) array with rows u, p and s, as every run's t = 0 row is
(moment_reference.trajectory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._modal import check_grid_size
from .hydro_spectral import SpectralState

__all__ = [
    "ICParseError",
    "ICSpec",
    "ICTerm",
    "check_modes",
    "parse_initial_condition",
    "spectrum",
]

FIELDS = ("u", "p", "s")


class ICParseError(ValueError):
    """Initial-condition text that does not match the grammar.

    Carries the character offset of the offending token in `position`.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class ICTerm:
    field: str
    mode: int
    amplitude: float
    phase: float = 0.0


@dataclass(frozen=True)
class ICSpec:
    terms: tuple[ICTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("initial condition needs at least one term")


def parse_initial_condition(text: str) -> ICSpec:
    """Parse the term grammar; whitespace is ignored everywhere.

    Modes are checked against a grid only when one is chosen, by `spectrum`.
    """
    if not text or not text.strip():
        raise ICParseError("empty initial-condition string", 0)
    terms: list[ICTerm] = []
    offset = 0
    for chunk in text.split(","):
        position = offset
        offset += len(chunk) + 1
        piece = chunk.strip()
        if not piece:
            raise ICParseError("empty term", position)
        parts = [part.strip() for part in piece.split(":")]
        if len(parts) not in (3, 4):
            raise ICParseError(
                f"term '{piece}' must be field:mode:amplitude[:phase]", position
            )
        field = parts[0]
        if field not in FIELDS:
            raise ICParseError(f"unknown field '{field}'", position)
        try:
            mode = int(parts[1])
        except ValueError:
            raise ICParseError(f"mode '{parts[1]}' is not an integer", position) from None
        if mode < 1:
            raise ICParseError(f"mode must be positive, got {mode}", position)
        amplitude = _finite(parts[2], "amplitude", position)
        phase = _finite(parts[3], "phase", position) if len(parts) == 4 else 0.0
        terms.append(ICTerm(field=field, mode=mode, amplitude=amplitude, phase=phase))
    return ICSpec(terms=tuple(terms))


def _finite(text: str, name: str, position: int) -> float:
    """The number a term's amplitude or phase spells; nan and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise ICParseError(f"{name} '{text}' is not a number", position) from None
    if not math.isfinite(value):
        raise ICParseError(f"{name} must be finite, got '{text}'", position)
    return value


def check_modes(spec: ICSpec, grid_size: int) -> None:
    """Refuse a term whose mode is at or above half the grid size."""
    for term in spec.terms:
        if term.mode >= grid_size // 2:
            raise ValueError(f"mode {term.mode} is not resolvable on a grid of size {grid_size}")


def spectrum(spec: ICSpec, grid_size: int) -> SpectralState:
    """Exact (u, p, s) half spectrum of the initial condition on a grid of grid_size points.

    The modes are in the normalized rfft(x)/N layout of
    _modal.forward_modes, shape (3, grid_size//2 + 1).  Since
    a sin(m x + phi) = a e^{i phi}/(2i) e^{i m x} + c.c., a term puts
    a e^{i phi}/(2i) = (a/2)(sin phi - i cos phi) in its field's row and
    column m, and repeated (field, mode) terms add.  Every other column is
    exactly zero.  A grid below MIN_GRID_SIZE is refused (check_grid_size),
    and so is a mode at or above half the grid size (check_modes).
    """
    check_grid_size(grid_size)
    check_modes(spec, grid_size)
    modes = np.zeros((len(FIELDS), grid_size // 2 + 1), dtype=complex)
    for term in spec.terms:
        half = 0.5 * term.amplitude
        modes[FIELDS.index(term.field), term.mode] += complex(
            half * math.sin(term.phase), -half * math.cos(term.phase)
        )
    return SpectralState(modes, grid_size)

"""Initial-condition grammar and grid realization.

Textual form: term ("," term)* with term = field ":" mode ":" amplitude
[":" phase].  Fields are u, p, or s; modes are positive integers below half
the grid size; amplitudes and phases are finite numbers, phases in radians
and zero by default.  Each term contributes amplitude * sin(mode * x + phase)
to its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._modal import MIN_GRID_SIZE

__all__ = ["ICParseError", "ICSpec", "ICTerm", "parse_initial_condition", "realize"]

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


def parse_initial_condition(text: str, grid_size: int | None = None) -> ICSpec:
    """Parse the term grammar; whitespace is ignored everywhere.

    When grid_size is given, modes at or above grid_size/2 are rejected here;
    otherwise that check happens at realization time.
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
        if grid_size is not None and mode >= grid_size // 2:
            raise ICParseError(
                f"mode {mode} is not resolvable on a grid of size {grid_size}", position
            )
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


def realize(spec: ICSpec, grid_size: int) -> dict[str, np.ndarray]:
    """Sample the initial condition on the grid x_j = 2*pi*j/grid_size."""
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid size must be at least {MIN_GRID_SIZE}, got {grid_size}")
    x = 2.0 * np.pi * np.arange(grid_size) / grid_size
    fields = {name: np.zeros(grid_size) for name in FIELDS}
    for term in spec.terms:
        if term.mode >= grid_size // 2:
            raise ValueError(
                f"mode {term.mode} is not resolvable on a grid of size {grid_size}"
            )
        fields[term.field] += term.amplitude * np.sin(term.mode * x + term.phase)
    return fields

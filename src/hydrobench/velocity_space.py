"""Exact algebra of the collision-operator eigenfunctions.

For Maxwell molecules the linearized collision operator acts diagonally on a
small family of polynomials in the axial velocity c_x and the speed squared
c^2.  This module represents those polynomials with exact rational
coefficients and evaluates Gaussian velocity averages analytically through
the Wick (double-factorial) rule for the unit isotropic Maxwellian weight.

Floats never enter: every inner product and recursion identity below is an
exact statement about rationals.  Floating-point quadrature belongs in the
test suite as an independent cross-check, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

Exponents = tuple[int, int]
Scalar = Union[int, Fraction]

__all__ = [
    "EigenfunctionId",
    "Recursion",
    "VelocityPolynomial",
    "inner",
    "moment_of",
    "monomial_moment",
    "psi_poly",
    "recursion_residual",
]


class EigenfunctionId(Enum):
    """Labels for the stored eigenfunctions and collision invariants.

    PSI01 is kept in the printed form c^2 - 3/2 even though the energy
    invariant appears elsewhere as c^2/2; both are available as separate ids.
    """

    PSI01 = "psi01"
    PSI02 = "psi02"
    PSI11 = "psi11"
    PSI03 = "psi03"
    PSI20 = "psi20"
    PSI12 = "psi12"
    ONE = "one"
    CX = "cx"
    CSQ_HALF = "csq_half"


class Recursion(Enum):
    """The two streaming recursions satisfied by the eigenfunctions."""

    STRESS = "stress"
    HEAT = "heat"


@dataclass(frozen=True, eq=False)
class VelocityPolynomial:
    """Polynomial in the two commuting symbols c_x and c^2.

    Terms map an exponent pair (a, b), meaning c_x**a * (c^2)**b, to an exact
    rational coefficient.  Zero coefficients are never stored, so the zero
    polynomial has an empty term map.  Instances are immutable and safe to
    share between threads.
    """

    terms: Mapping[Exponents, Fraction]

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        cleaned: dict[Exponents, Fraction] = {}
        for (a, b), coeff in (terms or {}).items():
            if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
                raise ValueError(f"exponents must be nonnegative integers, got ({a}, {b})")
            value = Fraction(coeff)
            if value:
                cleaned[(a, b)] = value
        object.__setattr__(self, "terms", MappingProxyType(cleaned))

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Scalar = 1) -> "VelocityPolynomial":
        return cls({(a, b): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VelocityPolynomial):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "VelocityPolynomial") -> "VelocityPolynomial":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, Fraction(0)) + coeff
        return VelocityPolynomial(merged)

    def __neg__(self) -> "VelocityPolynomial":
        return VelocityPolynomial({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other: "VelocityPolynomial") -> "VelocityPolynomial":
        return self + (-other)

    def __mul__(self, other: "VelocityPolynomial | Scalar") -> "VelocityPolynomial":
        if isinstance(other, VelocityPolynomial):
            product: dict[Exponents, Fraction] = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    product[key] = product.get(key, Fraction(0)) + c1 * c2
            return VelocityPolynomial(product)
        return VelocityPolynomial(
            {key: coeff * Fraction(other) for key, coeff in self.terms.items()}
        )

    __rmul__ = __mul__

    def evaluate(self, cx: float, csq: float) -> float:
        """Evaluate at a velocity sample with c_x = cx and c^2 = csq."""
        return float(sum(float(c) * cx**a * csq**b for (a, b), c in self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "VelocityPolynomial(0)"
        parts = []
        for (a, b), coeff in sorted(self.terms.items()):
            piece = str(coeff)
            if a:
                piece += f"*cx^{a}" if a > 1 else "*cx"
            if b:
                piece += f"*c2^{b}" if b > 1 else "*c2"
            parts.append(piece)
        return "VelocityPolynomial(" + " + ".join(parts) + ")"


def _even_gaussian_moment(n: int) -> int:
    # E[x^n] for a standard 1-D Gaussian and even n: (n-1)!! as an exact integer.
    if n == 0:
        return 1
    return math.prod(range(n - 1, 0, -2))


def monomial_moment(a: int, b: int) -> Fraction:
    """Exact Maxwellian average E[c_x**a * (c^2)**b].

    The weight is the unit isotropic 3-D Gaussian, so the average factors over
    independent axes.  (c^2)**b is expanded multinomially and each axis
    contributes a double-factorial moment.  Odd a gives zero by symmetry.
    Python integers are unbounded, so no overflow is possible for any input.
    """
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
        raise ValueError(f"exponents must be nonnegative integers, got ({a}, {b})")
    if a % 2:
        return Fraction(0)
    total = 0
    for i in range(b + 1):
        for j in range(b - i + 1):
            k = b - i - j
            weight = math.factorial(b) // (
                math.factorial(i) * math.factorial(j) * math.factorial(k)
            )
            total += (
                weight
                * _even_gaussian_moment(a + 2 * i)
                * _even_gaussian_moment(2 * j)
                * _even_gaussian_moment(2 * k)
            )
    return Fraction(total)


def moment_of(poly: VelocityPolynomial) -> Fraction:
    """Maxwellian average of a polynomial, term by term."""
    return sum(
        (coeff * monomial_moment(a, b) for (a, b), coeff in poly.terms.items()),
        Fraction(0),
    )


def inner(p: VelocityPolynomial, q: VelocityPolynomial) -> Fraction:
    """Maxwellian-weighted inner product of two polynomials, exactly."""
    return moment_of(p * q)


_HALF = Fraction(1, 2)

_PSI: dict[EigenfunctionId, VelocityPolynomial] = {
    EigenfunctionId.ONE: VelocityPolynomial({(0, 0): 1}),
    EigenfunctionId.CX: VelocityPolynomial({(1, 0): 1}),
    EigenfunctionId.CSQ_HALF: VelocityPolynomial({(0, 1): _HALF}),
    EigenfunctionId.PSI01: VelocityPolynomial({(0, 1): 1, (0, 0): Fraction(-3, 2)}),
    EigenfunctionId.PSI02: VelocityPolynomial({(2, 0): 1, (0, 1): Fraction(-1, 3)}),
    EigenfunctionId.PSI11: VelocityPolynomial({(1, 1): _HALF, (1, 0): Fraction(-5, 2)}),
    EigenfunctionId.PSI03: VelocityPolynomial({(3, 0): 1, (1, 1): Fraction(-3, 5)}),
    EigenfunctionId.PSI20: VelocityPolynomial(
        {(0, 0): Fraction(15, 4), (0, 1): Fraction(-5, 2), (0, 2): Fraction(1, 4)}
    ),
    # (cx^2 - c^2/3)(c^2/2 - 7/2), expanded
    EigenfunctionId.PSI12: VelocityPolynomial(
        {
            (2, 1): _HALF,
            (2, 0): Fraction(-7, 2),
            (0, 2): Fraction(-1, 6),
            (0, 1): Fraction(7, 6),
        }
    ),
}


def psi_poly(eigenfunction: EigenfunctionId) -> VelocityPolynomial:
    """The exact polynomial behind an eigenfunction id."""
    return _PSI[eigenfunction]


def recursion_residual(which: Recursion) -> VelocityPolynomial:
    """Residual of a streaming recursion, computed exactly.

    STRESS:  cx*psi02 - (psi03 + (8/15) psi11 + (4/3) cx)
    HEAT:    cx*psi11 - (psi12 + psi02 + (2/3) psi20 + (5/3)(c^2/2 - 3/2))

    Both residuals are the identically zero polynomial; returning the residual
    rather than a boolean lets callers see any discrepancy term by term.
    """
    cx = psi_poly(EigenfunctionId.CX)
    if which is Recursion.STRESS:
        lhs = cx * psi_poly(EigenfunctionId.PSI02)
        rhs = (
            psi_poly(EigenfunctionId.PSI03)
            + Fraction(8, 15) * psi_poly(EigenfunctionId.PSI11)
            + Fraction(4, 3) * cx
        )
        return lhs - rhs
    if which is Recursion.HEAT:
        lhs = cx * psi_poly(EigenfunctionId.PSI11)
        shifted_energy = VelocityPolynomial({(0, 1): _HALF, (0, 0): Fraction(-3, 2)})
        rhs = (
            psi_poly(EigenfunctionId.PSI12)
            + psi_poly(EigenfunctionId.PSI02)
            + Fraction(2, 3) * psi_poly(EigenfunctionId.PSI20)
            + Fraction(5, 3) * shifted_energy
        )
        return lhs - rhs
    raise ValueError(f"unknown recursion {which!r}")

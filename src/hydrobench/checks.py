"""The check registry: every acceptance criterion and invariant, computed once.

A check returns its Measurements, each a measured value against its bound; a
check passes when every measurement holds, and a check that raises has
failed.  The first PAPER_CRITERIA entries are the paper's acceptance criteria
1-8, the rest are supporting invariants.  `hydrobench selftest` prints the
registry and tests/test_acceptance.py asserts it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _modal, hydro_spectral, moment_reference, secularity, velocity_space
from .coefficients import SOUND_SPEED, eigenvalue_set, transport_burnett, transport_ns
from .dispersion import Branch, ModelId, branches, sigma_asymptotic, symbol_matrix
from .initial_conditions import parse_initial_condition, realize
from .velocity_space import EigenfunctionId, Recursion

__all__ = ["PAPER_CRITERIA", "REGISTRY", "Check", "Measurement"]

#: The first this-many registry entries are the paper's acceptance criteria.
PAPER_CRITERIA = 8

EV = eigenvalue_set(-1)

_RELATIONS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda value, bound: bound[0] <= value <= bound[1],
}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(map(_fmt, value)) + "]"
    return format(value, ".4g") if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Measurement:
    """A measured quantity and the bound it must meet; "in" takes (lo, hi)."""

    quantity: str
    value: object
    relation: str
    bound: object

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    def __str__(self) -> str:
        relation = self.relation if self.passed else f"violates {self.relation}"
        return f"{self.quantity} {_fmt(self.value)} {relation} {_fmt(self.bound)}"


@dataclass(frozen=True)
class Check:
    number: int
    name: str
    description: str
    measure: Callable[[], list[Measurement]]


REGISTRY: list[Check] = []


def _check(description: str):
    def register(measure: Callable[[], list[Measurement]]):
        REGISTRY.append(Check(len(REGISTRY) + 1, measure.__name__, description, measure))
        return measure

    return register


def _state(ic_text: str, n: int) -> hydro_spectral.HydroState:
    return hydro_spectral.HydroState(**realize(parse_initial_condition(ic_text), n))


def _energy(spec: hydro_spectral.SpectralState) -> float:
    state = hydro_spectral.from_modes(spec)
    dx = 2.0 * np.pi / state.grid_size
    return float(dx * np.sum((5.0 / 3.0) * state.u**2 + state.p**2))


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# The paper's acceptance criteria ----------------------------------------------


@_check("eigenfunction algebra exact")
def eigenfunction_algebra() -> list[Measurement]:
    norms = {
        EigenfunctionId.PSI02: Fraction(4, 3),
        EigenfunctionId.PSI11: Fraction(5, 2),
        EigenfunctionId.PSI12: Fraction(14, 3),
        EigenfunctionId.PSI20: Fraction(15, 2),
        EigenfunctionId.PSI03: Fraction(12, 5),
    }
    found = []
    for eid, value in norms.items():
        poly = velocity_space.psi_poly(eid)
        found.append(Measurement(f"|{eid.value}|^2", velocity_space.inner(poly, poly), "==", value))
    for which in Recursion:
        residual = velocity_space.recursion_residual(which)
        terms = len(residual.terms)
        found.append(Measurement(f"{which.value} recursion residual terms", terms, "==", 0))
    return found


@_check("coefficient identities exact")
def coefficient_identities() -> list[Measurement]:
    ns, burnett = transport_ns(EV), transport_burnett(EV)
    return [
        Measurement("NS sound diffusivity", ns.sound_diffusivity, "==", Fraction(7, 6)),
        Measurement("NS entropy diffusivity", ns.entropy_diffusivity, "==", Fraction(3, 2)),
        Measurement("beta_u", burnett.beta_u, "==", Fraction(19, 120)),
        Measurement("beta_p", burnett.beta_p, "==", Fraction(19, 72)),
        Measurement("(5/3) beta_u", Fraction(5, 3) * burnett.beta_u, "==", burnett.beta_p),
    ]


@_check("Burnett/Riemann dispersion exact")
def dispersion_exactness() -> list[Measurement]:
    worst, ks = 0.0, (0.5, 1.0, 2.0, 4.0, 8.0)
    models = (ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED)
    for model, eps in itertools.product(models, (0.05, 0.1, 0.2)):
        for k, eig in zip(ks, np.linalg.eigvals(symbol_matrix(model, np.array(ks), eps, EV))):
            for branch in (Branch.SOUND_PLUS, Branch.SOUND_MINUS, Branch.ENTROPY):
                target = sigma_asymptotic(k, eps, EV, branch)
                worst = max(worst, float(np.min(np.abs(eig - target))))
    return [Measurement("worst eigenvalue gap", worst, "<=", 1e-12)]


@_check("moment-reference convergence to closed-form dispersion")
def moment_reference_convergence() -> list[Measurement]:
    errors: dict[Branch, list[float]] = {Branch.SOUND_PLUS: [], Branch.ENTROPY: []}
    for eps in (0.1, 0.05, 0.025, 0.0125):
        table = branches(ModelId.MOMENT_REFERENCE, [1.0], eps, EV)
        for branch, errs in errors.items():
            errs.append(abs(table.branch(branch)[0] - sigma_asymptotic(1.0, eps, EV, branch)))
    # Each halving of eps divides the error by 2**order.
    sound, entropy = ([a / b for a, b in zip(e, e[1:])] for e in errors.values())
    return [
        Measurement("min sound error ratio", min(sound), ">=", 6.5),
        Measurement("max sound error ratio", max(sound), "<=", 9.5),
        Measurement("min sound order", float(np.log2(min(sound))), ">=", 2.7),
        Measurement("min entropy order", float(np.log2(min(entropy))), ">=", 1.8),
    ]


@_check("first-order uniform accuracy at t = 1/eps")
def uniform_error_scaling() -> list[Measurement]:
    state = _state("u:1:1", 64)
    coarse = moment_reference.burnett_deviation_rms(state, 0.1, EV, time=1.0 / 0.1)
    fine = moment_reference.burnett_deviation_rms(state, 0.05, EV, time=1.0 / 0.05)
    return [Measurement("L2-deviation ratio eps 0.1/0.05", coarse / fine, "in", (1.5, 2.5))]


@_check("secular growth vs multiscale boundedness")
def secularity_demonstration() -> list[Measurement]:
    ic, eps = parse_initial_condition("u:1:1"), 0.05
    times = np.linspace(10.0, 100.0, 91)
    naive = secularity.secular_ratio_series(ic, eps, EV, times).naive_ratio
    coeffs, residuals, *_ = np.polyfit(times, naive, 1, full=True)
    ss_tot = float(np.sum((naive - naive.mean()) ** 2))
    r_squared = 1.0 - (float(residuals[0]) if residuals.size else 0.0) / ss_tot

    def crossing(eps_value: float) -> float:
        # First time the naive ratio reaches 0.5, interpolated on the series.
        grid_t = np.linspace(1.0, 1.0 / eps_value**2, 4000)
        ratio = secularity.secular_ratio_series(ic, eps_value, EV, grid_t).naive_ratio
        i = int(np.nonzero(ratio >= 0.5)[0][0])
        t0, t1 = grid_t[i - 1], grid_t[i]
        r0, r1 = ratio[i - 1], ratio[i]
        return float(t0 + (0.5 - r0) * (t1 - t0) / (r1 - r0))

    def bound(tmax: float) -> float:
        # Largest multiscale ratio in (0, tmax], at least eight samples per acoustic period.
        n = max(256, int(np.ceil(8.0 * tmax / (2.0 * np.pi / SOUND_SPEED))))
        times = tmax * np.arange(1, n + 1) / n
        return float(np.max(secularity.secular_ratio_series(ic, eps, EV, times).multiscale_ratio))

    horizon = 1.0 / eps**2
    beyond = secularity.beyond_horizon(horizon, eps)
    factor = crossing(eps / 2.0) / crossing(eps)
    return [
        Measurement("naive slope", float(coeffs[0]), ">", 0.0),
        Measurement("naive R^2", r_squared, ">=", 0.99),
        Measurement("crossing factor eps/2 : eps", factor, "in", (1.6, 2.4)),
        Measurement("multiscale bound to 1/eps^2", bound(horizon), "<=", 2.0 * bound(10.0)),
        Measurement("1/eps^2 beyond validity", beyond, "==", False),
    ]


@_check("solver hygiene")
def solver_hygiene() -> list[Measurement]:
    evolve = hydro_spectral.evolve
    state = _state("u:1:1,p:2:0.5:0.3,s:3:0.25", 16)
    spec = hydro_spectral.to_modes(state)
    back = hydro_spectral.from_modes(spec)
    round_trip = max(_max_gap(getattr(back, f), getattr(state, f)) for f in "ups")

    (one,) = evolve(spec, ModelId.BURNETT, 0.1, EV, [1.9])
    (half,) = evolve(spec, ModelId.BURNETT, 0.1, EV, [1.2])
    (two,) = evolve(half, ModelId.BURNETT, 0.1, EV, [0.7])

    cur, e0, drift = spec, _energy(spec), 0.0
    for _ in range(1000):
        (cur,) = evolve(cur, ModelId.EULER, 0.0, EV, [0.05])
        drift = max(drift, abs(_energy(cur) - e0) / e0)
    s_drift = _max_gap(hydro_spectral.from_modes(cur).s, state.s)

    offset = hydro_spectral.HydroState(u=state.u + 0.5, p=state.p - 0.25, s=state.s + 1.0)
    starts = {3: hydro_spectral.to_modes(offset), 5: moment_reference.from_hydro(offset)}
    mean_drift = 0.0
    for model in ModelId:  # the conserved rows: (u, p, s), or (n, u, p) of the moments
        start = starts[model.dimension]
        (moved,) = evolve(start, model, 0.1, EV, [2.0])
        mean_drift = max(mean_drift, _max_gap(moved.modes[:3, 0], start.modes[:3, 0]))

    growth = -np.inf
    for model in (ModelId.NAVIER_STOKES, ModelId.BURNETT):
        cur, previous = spec, _energy(spec)
        for _ in range(100):
            (cur,) = evolve(cur, model, 0.1, EV, [0.1])
            now = _energy(cur)
            growth, previous = max(growth, (now - previous) / previous), now
    return [
        Measurement("spectral round trip", round_trip, "<=", 1e-12),
        Measurement("semigroup gap 1.9 = 1.2 + 0.7", _max_gap(one.modes, two.modes), "<=", 1e-11),
        Measurement("Euler energy drift, 1000 steps", drift, "<=", 1e-10),
        Measurement("Euler s drift, 1000 steps", s_drift, "<=", 1e-10),
        Measurement("k = 0 mean drift, all models", mean_drift, "==", 0.0),
        Measurement("NS/Burnett energy growth per step, 100 steps", float(growth), "<=", 1e-12),
    ]


@_check("first-correction flux bridge")
def h1_flux_bridge() -> list[Measurement]:
    # The two routes inside h1_fluxes agree to 1e-10 or it raises.
    n = 64
    x = 2.0 * np.pi * np.arange(n) / n
    state_u = hydro_spectral.HydroState(u=np.sin(x), p=np.zeros(n), s=np.zeros(n))
    stress, heat = hydro_spectral.h1_fluxes(state_u, EV, 0.1)
    # T = sin x needs p + s = (5/2) sin x.
    state_t = hydro_spectral.HydroState(u=np.zeros(n), p=2.5 * np.sin(x), s=np.zeros(n))
    _, heat_t = hydro_spectral.h1_fluxes(state_t, EV, 0.1)
    stress_gap = _max_gap(stress, (-4.0 / 3.0) * np.cos(x))
    temperature_gap = _max_gap(state_t.temperature, np.sin(x))
    heat_gap = _max_gap(heat_t, (-15.0 / 4.0) * np.cos(x))
    return [
        Measurement("stress gap to -(4/3) cos x", stress_gap, "<=", 1e-10),
        Measurement("heat flux of u-only state", float(np.max(np.abs(heat))), "<=", 1e-10),
        Measurement("temperature gap to sin x", temperature_gap, "<=", 1e-12),
        Measurement("heat gap to -(15/4) cos x", heat_gap, "<=", 1e-10),
    ]


# Supporting invariants --------------------------------------------------------

# (k, l) labels; two eigenfunctions that differ in both labels are orthogonal.
_LABELS = {
    EigenfunctionId.ONE: (0, 0),
    EigenfunctionId.CX: (1, 0),
    EigenfunctionId.CSQ_HALF: (0, 1),
    EigenfunctionId.PSI02: (0, 2),
    EigenfunctionId.PSI11: (1, 1),
    EigenfunctionId.PSI03: (0, 3),
    EigenfunctionId.PSI20: (2, 0),
    EigenfunctionId.PSI12: (1, 2),
}


@_check("eigenfunction orthogonality")
def orthogonality() -> list[Measurement]:
    psi = velocity_space.psi_poly
    worst = max(
        abs(velocity_space.inner(psi(a), psi(b)))
        for a, b in itertools.combinations(_LABELS, 2)
        if _LABELS[a][0] != _LABELS[b][0] and _LABELS[a][1] != _LABELS[b][1]
    )
    return [Measurement("max |<a,b>| over declared pairs", worst, "==", 0)]


@_check("inner product bilinearity")
def bilinearity() -> list[Measurement]:
    inner, rng = velocity_space.inner, np.random.default_rng(7)

    def poly() -> velocity_space.VelocityPolynomial:
        return velocity_space.VelocityPolynomial(
            {
                (int(rng.integers(0, 3)), int(rng.integers(0, 3))): Fraction(
                    int(rng.integers(-5, 6)), int(rng.integers(1, 5))
                )
                for _ in range(3)
            }
        )

    symmetry = linearity = Fraction(0)
    for _ in range(10):
        p, q, r = poly(), poly(), poly()
        c = Fraction(int(rng.integers(-4, 5)), 3)
        symmetry = max(symmetry, abs(inner(p, q) - inner(q, p)))
        linearity = max(linearity, abs(inner(p, c * q + r) - c * inner(p, q) - inner(p, r)))
    return [
        Measurement("symmetry defect", symmetry, "==", 0),
        Measurement("linearity defect", linearity, "==", 0),
    ]


@_check("coefficient scale covariance")
def scale_covariance() -> list[Measurement]:
    scaled = eigenvalue_set(-3)
    ns0, ns1 = transport_ns(EV), transport_ns(scaled)
    b0, b1 = transport_burnett(EV), transport_burnett(scaled)
    # Diffusivities scale as 1/c and Burnett coefficients as 1/c^2 when the
    # eigenvalues scale by c = 3.
    return [
        Measurement("NS sound ratio", ns0.sound_diffusivity / ns1.sound_diffusivity, "==", 3),
        Measurement("NS entropy ratio", ns0.entropy_diffusivity / ns1.entropy_diffusivity, "==", 3),
        Measurement("beta_u ratio", b0.beta_u / b1.beta_u, "==", 9),
        Measurement("beta_p ratio", b0.beta_p / b1.beta_p, "==", 9),
    ]


@_check("spectral stability")
def spectral_stability() -> list[Measurement]:
    worst, euler = -np.inf, 0.0
    for model, eps in itertools.product(ModelId, (0.02, 0.1, 0.3)):
        eig = np.linalg.eigvals(symbol_matrix(model, np.linspace(0.05, 12.0, 40), eps, EV))
        worst = max(worst, float(eig.real.max()))
        if model is ModelId.EULER:
            euler = max(euler, float(np.max(np.abs(eig.real))))
    return [
        Measurement("max Re sigma", worst, "<=", 1e-10),
        Measurement("max |Re sigma|, Euler", euler, "<=", 1e-12),
    ]


@_check("conjugate sound symmetry")
def conjugate_symmetry() -> list[Measurement]:
    worst = 0.0
    for k, eps in itertools.product((0.3, 1.0, 3.0), (0.05, 0.15)):
        plus = sigma_asymptotic(k, eps, EV, Branch.SOUND_PLUS)
        minus = sigma_asymptotic(k, eps, EV, Branch.SOUND_MINUS)
        worst = max(worst, abs(plus - np.conj(minus)))
    return [Measurement("|sigma+ - conj(sigma-)|", worst, "==", 0.0)]


@_check("moment NS closure")
def ns_closure() -> list[Measurement]:
    k, eps = 1.3, 0.07
    m = symbol_matrix(ModelId.MOMENT_REFERENCE, k, eps, EV)
    # Quasi-steady stress Pi = (4 eps/(3 lambda02)) (-ik) u and heat flux
    # q = (5 eps/(2 lambda11)) (-ik) (p - n).
    stress = 4.0 * eps / (3.0 * float(EV.lambda02)) * (-1j * k)
    heat = 5.0 * eps / (2.0 * float(EV.lambda11)) * (-1j * k)
    return [
        Measurement("stress gain gap", abs(-m[3, 1] / m[3, 3] - stress), "<", 1e-14),
        Measurement("heat gain gap (p)", abs(-m[4, 2] / m[4, 4] - heat), "<", 1e-14),
        Measurement("heat gain gap (n)", abs(-m[4, 0] / m[4, 4] + heat), "<", 1e-14),
    ]


@_check("Riemann decoupling equivalence")
def riemann_decoupling() -> list[Measurement]:
    n, eps, t = 32, 0.1, 3.0
    state = _state("u:1:1,p:2:0.4", n)
    ((u, p, _),) = moment_reference.trajectory(state, ModelId.BURNETT, eps, EV, [t])
    rp_after, rm_after = hydro_spectral.riemann_split(u, p)
    rp0, rm0 = hydro_spectral.riemann_split(state.u, state.p)
    riemann_state = hydro_spectral.HydroState(u=rp0, p=rm0, s=np.zeros(n))
    ((rp, rm, _),) = moment_reference.trajectory(
        riemann_state, ModelId.RIEMANN_DECOUPLED, eps, EV, [t]
    )
    gap = max(_max_gap(rp, rp_after), _max_gap(rm, rm_after))
    return [Measurement("gap to split Burnett", gap, "<=", 1e-10)]


@_check("moment hygiene")
def moment_hygiene() -> list[Measurement]:
    n = 16
    moments = moment_reference.from_hydro(_state("u:1:1,p:2:0.3", n))
    (evolved,) = hydro_spectral.evolve(moments, ModelId.MOMENT_REFERENCE, 0.1, EV, [2.5])
    projection = moment_reference.hydro_projection(evolved)
    herm = max(
        _modal.hermitian_violation(evolved.modes, n),
        _modal.hermitian_violation(hydro_spectral.to_modes(projection.state).modes, n),
    )
    drift = _max_gap(evolved.modes[:3, 0], moments.modes[:3, 0])
    return [
        Measurement("k = 0 n, u, p drift", drift, "<=", 1e-14),
        Measurement("projection grid size", projection.state.grid_size, "==", n),
        Measurement("hermitian violation", herm, "<=", 1e-9),
    ]


@_check("closed-form propagation")
def closed_form_propagation() -> list[Measurement]:
    # evolve takes the acoustic pair's closed form for every hydro model;
    # scipy's scaling-and-squaring expm of the symbol is the second route.
    # Both round the phase |lambda| t, so the gap is stated in units of
    # u * (1 + t |lambda|) * ||expm(M t)||_2 * ||x||_2: random starts drawn
    # with seeds 1-8 read at most 2.06, and this one 1.90.  The k = 0 column
    # is the identity on both routes.
    import scipy.linalg  # deferred: slow to import, and only this check needs it

    n, eps, unit_roundoff = 41, 0.01, 2.0**-53
    spec = hydro_spectral.SpectralState(
        _modal.forward_modes(np.random.default_rng(17).normal(size=(3, n))), n
    )
    times = np.array([0.7, 3.0, 50.0])
    columns = np.array([0, 1, 5, 20])
    worst = k0_gap = phase = 0.0
    for model in (ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT):
        moved = hydro_spectral.evolve(spec, model, eps, EV, times)
        mats = symbol_matrix(model, -columns.astype(float), eps, EV)
        for state, t in zip(moved, times):
            for column, matrix in zip(columns, mats):
                propagator = scipy.linalg.expm(matrix * t)
                start = spec.modes[:, column]
                gap = float(np.linalg.norm(state.modes[:, column] - propagator @ start))
                if column == 0:
                    k0_gap = max(k0_gap, gap)
                    continue
                rate_t = t * float(np.abs(np.linalg.eigvals(matrix)).max())
                phase = max(phase, rate_t)
                unit = unit_roundoff * (1.0 + rate_t) * np.linalg.norm(propagator, 2)
                worst = max(worst, gap / (unit * float(np.linalg.norm(start))))
    return [
        Measurement("k = 0 gap to expm", k0_gap, "==", 0.0),
        Measurement("largest |lambda| t", phase, ">=", 1e3),
        Measurement("worst gap to expm, units of u (1 + t|lambda|) |P| |x|", worst, "<=", 8.0),
    ]

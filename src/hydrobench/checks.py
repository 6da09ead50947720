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
from .initial_conditions import parse_initial_condition, spectrum
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


def _spectrum(ic_text: str, n: int) -> hydro_spectral.SpectralState:
    """The IC's exact half spectrum, the start evolve and compare propagate."""
    return spectrum(parse_initial_condition(ic_text), n)


def _energy(spec: hydro_spectral.SpectralState) -> float:
    u, p, _ = hydro_spectral.from_modes(spec)
    dx = 2.0 * np.pi / spec.grid_size
    return float(dx * np.sum((5.0 / 3.0) * u**2 + p**2))


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _roundoff_gap(got: np.ndarray, want: np.ndarray) -> float:
    """_max_gap in units of u (2**-53) times the largest |value| of the two runs."""
    return _max_gap(got, want) / (2.0**-53 * float(max(np.abs(got).max(), np.abs(want).max())))


#: The runs of the grid relations, checks 18 and 19: IC terms (field, mode,
#: amplitude, phase) at eps = 0.1, from t = 0 to 3 every 0.5.
_RELATION_TERMS = [("u", 1, 1.0, 0.3), ("p", 3, 0.5, 0.2), ("s", 2, 0.25, 0.1)]
_RELATION_TIMES = 0.5 * np.arange(7)


def _relation_start(terms, n: int) -> hydro_spectral.SpectralState:
    return _spectrum(",".join(f"{f}:{m}:{a!r}:{phase!r}" for f, m, a, phase in terms), n)


def _run(terms, n: int, model: ModelId) -> np.ndarray:
    """The trajectory of the IC terms' exact spectrum on n points, as evolve writes it."""
    return moment_reference.trajectory(_relation_start(terms, n), model, 0.1, EV, _RELATION_TIMES)


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
    start = _spectrum("u:1:1", 64)
    coarse = moment_reference.burnett_deviation_rms(start, 0.1, EV, time=1.0 / 0.1)
    fine = moment_reference.burnett_deviation_rms(start, 0.05, EV, time=1.0 / 0.05)
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
    def evolve(state, model, eps, times):  # dense modes, as the energies below take them
        pair = hydro_spectral.evolve(state, model, eps, EV, times)
        return _modal.scatter_modes(*pair, state.grid_size)
    fields = hydro_spectral.from_modes(_spectrum("u:1:1,p:2:0.5:0.3,s:3:0.25", 16))
    spec = hydro_spectral.to_modes(fields)
    round_trip = _max_gap(hydro_spectral.from_modes(spec), fields)

    def steps(model, eps, dt, count):  # each evolve from the last one's row; energy after each
        cur, energy = spec, [_energy(spec)]
        for _ in range(count):
            cur = hydro_spectral.SpectralState(evolve(cur, model, eps, [dt])[0], 16)
            energy.append(_energy(cur))
        return cur, np.array(energy)

    (one,) = evolve(spec, ModelId.BURNETT, 0.1, [1.9])
    (half,) = evolve(spec, ModelId.BURNETT, 0.1, [1.2])
    (two,) = evolve(hydro_spectral.SpectralState(half, 16), ModelId.BURNETT, 0.1, [0.7])

    cur, energy = steps(ModelId.EULER, 0.0, 0.05, 1000)
    drift = float(np.max(np.abs(energy - energy[0]) / energy[0]))
    s_drift = _max_gap(hydro_spectral.from_modes(cur)[2], fields[2])

    offset_modes = hydro_spectral.to_modes(fields + [[0.5], [-0.25], [1.0]])
    starts = {3: offset_modes, 5: moment_reference.from_hydro(offset_modes)}
    mean_drift = 0.0
    for model in ModelId:  # the conserved rows: (u, p, s), or (n, u, p) of the moments
        start = starts[model.dimension]
        (moved,) = evolve(start, model, 0.1, [2.0])
        mean_drift = max(mean_drift, _max_gap(moved[:3, 0], start.modes[:3, 0]))

    growth = -np.inf
    for model in (ModelId.NAVIER_STOKES, ModelId.BURNETT):
        energy = steps(model, 0.1, 0.1, 100)[1]
        growth = max(growth, float(np.max(np.diff(energy) / energy[:-1])))
    return [
        Measurement("spectral round trip", round_trip, "<=", 1e-12),
        Measurement("semigroup gap 1.9 = 1.2 + 0.7", _max_gap(one, two), "<=", 1e-11),
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
    stress, heat = hydro_spectral.h1_fluxes([np.sin(x), 0 * x, 0 * x], EV)
    # T = sin x needs p + s = (5/2) sin x.
    fields_t = [0 * x, 2.5 * np.sin(x), 0 * x]
    _, heat_t = hydro_spectral.h1_fluxes(fields_t, EV)
    stress_gap = _max_gap(stress, (-4.0 / 3.0) * np.cos(x))
    temperature_gap = _max_gap(hydro_spectral._gradients(fields_t)[0], np.sin(x))
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
    start = _spectrum("u:1:1,p:2:0.4", n)
    ((u, p, _),) = moment_reference.trajectory(start, ModelId.BURNETT, eps, EV, [t])
    rp_after, rm_after = hydro_spectral.riemann_split(u, p)
    rp0, rm0 = hydro_spectral.riemann_split(*hydro_spectral.from_modes(start)[:2])
    ((rp, rm, _),) = moment_reference.trajectory(
        hydro_spectral.to_modes([rp0, rm0, np.zeros(n)]), ModelId.RIEMANN_DECOUPLED, eps, EV, [t]
    )
    gap = max(_max_gap(rp, rp_after), _max_gap(rm, rm_after))
    return [Measurement("gap to split Burnett", gap, "<=", 1e-10)]


@_check("moment hygiene")
def moment_hygiene() -> list[Measurement]:
    n = 16
    moments = moment_reference.from_hydro(_spectrum("u:1:1,p:2:0.3", n))
    moved = hydro_spectral.evolve(moments, ModelId.MOMENT_REFERENCE, 0.1, EV, [2.5])
    (evolved,) = _modal.scatter_modes(*moved, n)
    projection = moment_reference.hydro_projection(hydro_spectral.SpectralState(evolved, n))
    herm = max(
        _modal.hermitian_violation(evolved, n),
        _modal.hermitian_violation(hydro_spectral.to_modes(projection.fields).modes, n),
    )
    drift = _max_gap(evolved[:3, 0], moments.modes[:3, 0])
    return [
        Measurement("k = 0 n, u, p drift", drift, "<=", 1e-14),
        Measurement("projection grid size", projection.fields.shape[1], "==", n),
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
        moved = _modal.scatter_modes(*hydro_spectral.evolve(spec, model, eps, EV, times), n)
        mats = symbol_matrix(model, -columns.astype(float), eps, EV)
        for modes, t in zip(moved, times):
            for column, matrix in zip(columns, mats):
                propagator = scipy.linalg.expm(matrix * t)
                start = spec.modes[:, column]
                gap = float(np.linalg.norm(modes[:, column] - propagator @ start))
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


@_check("translation and mirror relations (riemann's mirror excluded until ROADMAP item 1)")
def metamorphic_relations() -> list[Measurement]:
    # Every model is linear, translation-invariant and mirror-symmetric, and
    # the IC grammar states each transform exactly: adding mode * 2 pi j / N
    # to each phase rolls a run j cells left, and negating each phase and
    # the p and s amplitudes mirrors it, x_j -> x_(-j mod N) with u negated.
    # A run is the trajectory of the IC's exact spectrum from t = 0, as
    # evolve writes it.  A gap is in units of u * the largest |value| of the
    # two runs.
    # Over the models this configuration reads at most 3.7 (translation)
    # and 4.5 (mirror); 2,000 random ones per model, drawn as
    # tests/test_cli.py draws its metamorphic runs, read at most 612 and 21.6,
    # the largest from IC terms that nearly cancel, which is why those tests
    # bound the gaps in units of u * sum|amp| instead.  This configuration's
    # terms do not cancel.  riemann's mirror reads 1.5e16: evolve feeds
    # (u, p, s) modes to its (R+, R-, s) symbol.
    n, shift, bound, terms = 64, 5, 64.0, _RELATION_TERMS
    moved = [(f, m, a, phase + m * 2.0 * np.pi * shift / n) for f, m, a, phase in terms]
    mirrored = [(f, m, a if f == "u" else -a, -phase) for f, m, a, phase in terms]
    found = []
    for model in ModelId:
        once = _run(terms, n, model)
        relations = {"translation": (moved, np.roll(once, -shift, axis=-1))}
        if model is not ModelId.RIEMANN_DECOUPLED:
            mirror = np.roll(once[..., ::-1], 1, axis=-1) * np.array([-1.0, 1.0, 1.0])[:, None]
            relations["mirror"] = (mirrored, mirror)
        for relation, (ic_terms, want) in relations.items():
            quantity = f"{model.value} {relation} gap, units of u max|value|"
            gap = _roundoff_gap(_run(ic_terms, n, model), want)
            found.append(Measurement(quantity, gap, "<=", bound))
    return found


@_check("grid refinement: runs on N and on 3N agree")
def grid_refinement() -> list[Measurement]:
    # Each model is exact per mode, and the IC's modes lie below N/2, so runs
    # on N and on q*N carry the same band-limited fields and agree at the
    # shared points x = 2 pi j / N, t = 0 included.  The square of a gap has
    # modes below N, so its grid L2 norm is its integral on either grid and
    # compare's gaps do not depend on N.  evolve's gaps are in units of
    # u * the largest |value| of the two runs, compare's in u * sum|amp|
    # (1.75 here), since a gap can be O(eps) of the fields whose roundoff it
    # carries.  q = 3, since evolve's gaps read exactly 0 at q = 2 on these
    # grids.  Over the models this configuration reads at most 3.7 and 4.6;
    # the random runs of tests/test_cli.py's TestGridRefinement read at most
    # 5.8 and 10.9, and the bounds are its REFINEMENT_C.
    terms, q = _RELATION_TERMS, 3
    amplitude = sum(abs(a) for _, _, a, _ in terms)
    hydro = [model for model in ModelId if model is not ModelId.MOMENT_REFERENCE]
    found = []
    for n in (16, 21):
        worst = max(
            _roundoff_gap(_run(terms, q * n, model)[..., ::q], _run(terms, n, model))
            for model in ModelId
        )
        starts = [_relation_start(terms, size) for size in (n, q * n)]
        gaps = [moment_reference.reference_gaps(s, hydro, 0.1, EV, _RELATION_TIMES) for s in starts]
        compare = _max_gap(*gaps) / (2.0**-53 * amplitude)
        found += [
            Measurement(f"evolve gap N = {n} : {q * n}, units of u max|value|", worst, "<=", 16.0),
            Measurement(f"compare gap N = {n} : {q * n}, units of u sum|amp|", compare, "<=", 32.0),
        ]
    return found

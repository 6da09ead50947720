"""Built-in invariant suite behind the `selftest` CLI command.

Each check is small, deterministic, and mirrors an invariant that the test
suite also covers; the CLI variant exists so an installed build can vouch for
itself without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _modal, hydro_spectral, moment_reference, secularity, velocity_space
from .coefficients import eigenvalue_set, transport_burnett, transport_ns
from .dispersion import Branch, ModelId, branches, sigma_asymptotic, symbol_matrix
from .initial_conditions import parse_initial_condition, realize
from .velocity_space import EigenfunctionId, Recursion

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_normalizations() -> CheckResult:
    expected = {
        EigenfunctionId.PSI02: Fraction(4, 3),
        EigenfunctionId.PSI11: Fraction(5, 2),
        EigenfunctionId.PSI12: Fraction(14, 3),
        EigenfunctionId.PSI20: Fraction(15, 2),
        EigenfunctionId.PSI03: Fraction(12, 5),
    }
    for eid, value in expected.items():
        poly = velocity_space.psi_poly(eid)
        got = velocity_space.inner(poly, poly)
        if got != value:
            return CheckResult("eigenfunction normalizations", False, f"{eid}: {got} != {value}")
    return CheckResult("eigenfunction normalizations", True, "4/3, 5/2, 14/3, 15/2, 12/5 exact")


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


def _check_orthogonality() -> CheckResult:
    ids = list(_LABELS)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            (ka, la), (kb, lb) = _LABELS[a], _LABELS[b]
            if ka == kb or la == lb:
                continue
            value = velocity_space.inner(velocity_space.psi_poly(a), velocity_space.psi_poly(b))
            if value != 0:
                return CheckResult("eigenfunction orthogonality", False, f"<{a},{b}> = {value}")
    return CheckResult("eigenfunction orthogonality", True, "all declared pairs vanish exactly")


def _check_recursions() -> CheckResult:
    for which in (Recursion.STRESS, Recursion.HEAT):
        if not velocity_space.recursion_residual(which).is_zero:
            return CheckResult("streaming recursions", False, f"{which} residual nonzero")
    return CheckResult("streaming recursions", True, "both residuals identically zero")


def _check_inner_bilinear() -> CheckResult:
    rng = np.random.default_rng(7)
    for _ in range(10):
        polys = []
        for _ in range(3):
            terms = {
                (int(rng.integers(0, 3)), int(rng.integers(0, 3))): Fraction(
                    int(rng.integers(-5, 6)), int(rng.integers(1, 5))
                )
                for _ in range(3)
            }
            polys.append(velocity_space.VelocityPolynomial(terms))
        p, q, r = polys
        c = Fraction(int(rng.integers(-4, 5)), 3)
        sym = velocity_space.inner(p, q) == velocity_space.inner(q, p)
        lin = velocity_space.inner(p, c * q + r) == c * velocity_space.inner(
            p, q
        ) + velocity_space.inner(p, r)
        if not (sym and lin):
            return CheckResult("inner product bilinearity", False, "random spot check failed")
    return CheckResult("inner product bilinearity", True, "symmetric and bilinear on samples")


def _check_transport() -> CheckResult:
    ev = eigenvalue_set(-1)
    ns = transport_ns(ev)
    burnett = transport_burnett(ev)
    ok = (
        ns.sound_diffusivity == Fraction(7, 6)
        and ns.entropy_diffusivity == Fraction(3, 2)
        and burnett.beta_u == Fraction(19, 120)
        and burnett.beta_p == Fraction(19, 72)
        and Fraction(5, 3) * burnett.beta_u == burnett.beta_p
    )
    return CheckResult("transport coefficients", ok, "7/6, 3/2, 19/120, 19/72 at mu = 1")


def _check_scale_covariance() -> CheckResult:
    base = eigenvalue_set(-1)
    scaled = eigenvalue_set(-3)
    ns0, ns1 = transport_ns(base), transport_ns(scaled)
    b0, b1 = transport_burnett(base), transport_burnett(scaled)
    ok = (
        ns1.sound_diffusivity * 3 == ns0.sound_diffusivity
        and ns1.entropy_diffusivity * 3 == ns0.entropy_diffusivity
        and b1.beta_u * 9 == b0.beta_u
        and b1.beta_p * 9 == b0.beta_p
    )
    return CheckResult("coefficient scale covariance", ok, "1/c and 1/c^2 scaling exact")


def _check_dispersion_exactness() -> CheckResult:
    ev = eigenvalue_set(-1)
    worst = 0.0
    for model in (ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED):
        for k in (0.5, 1.0, 2.0, 4.0, 8.0):
            for eps in (0.05, 0.1, 0.2):
                eig = np.linalg.eigvals(symbol_matrix(model, k, eps, ev))
                for branch in (Branch.SOUND_PLUS, Branch.SOUND_MINUS, Branch.ENTROPY):
                    target = sigma_asymptotic(k, eps, ev, branch)
                    worst = max(worst, float(np.min(np.abs(eig - target))))
    return CheckResult(
        "dispersion exactness", worst <= 1e-12, f"worst eigenvalue mismatch {worst:.2e}"
    )


def _check_dispersion_stability() -> CheckResult:
    ev = eigenvalue_set(-1)
    worst = -np.inf
    euler_re = 0.0
    for model in ModelId:
        for k in np.linspace(0.05, 12.0, 40):
            for eps in (0.02, 0.1, 0.3):
                eig = np.linalg.eigvals(symbol_matrix(model, float(k), eps, ev))
                worst = max(worst, float(eig.real.max()))
                if model is ModelId.EULER:
                    euler_re = max(euler_re, float(np.max(np.abs(eig.real))))
    ok = worst <= 1e-10 and euler_re <= 1e-12
    return CheckResult(
        "spectral stability",
        ok,
        f"max Re sigma = {worst:.2e}, Euler branches imaginary to {euler_re:.2e}",
    )


def _check_conjugate_symmetry() -> CheckResult:
    ev = eigenvalue_set(-1)
    worst = 0.0
    for k in (0.3, 1.0, 3.0):
        for eps in (0.05, 0.15):
            plus = sigma_asymptotic(k, eps, ev, Branch.SOUND_PLUS)
            minus = sigma_asymptotic(k, eps, ev, Branch.SOUND_MINUS)
            worst = max(worst, abs(plus - np.conj(minus)))
    return CheckResult("conjugate sound symmetry", worst == 0.0, f"deviation {worst:.2e}")


def _check_moment_convergence() -> CheckResult:
    ev = eigenvalue_set(-1)
    eps_values = [0.1, 0.05, 0.025, 0.0125]
    sound_err, entropy_err = [], []
    for eps in eps_values:
        table = branches(ModelId.MOMENT_REFERENCE, [1.0], eps, ev)
        sound = table.branch(Branch.SOUND_PLUS)[0]
        entropy = table.branch(Branch.ENTROPY)[0]
        sound_err.append(abs(sound - sigma_asymptotic(1.0, eps, ev, Branch.SOUND_PLUS)))
        entropy_err.append(abs(entropy - sigma_asymptotic(1.0, eps, ev, Branch.ENTROPY)))
    sound_ratios = [a / b for a, b in zip(sound_err, sound_err[1:])]
    entropy_ratios = [a / b for a, b in zip(entropy_err, entropy_err[1:])]
    ok = all(6.5 <= r <= 9.5 for r in sound_ratios) and all(
        r >= 2.0**1.8 for r in entropy_ratios
    )
    return CheckResult(
        "moment-system convergence",
        ok,
        f"sound ratios {['%.2f' % r for r in sound_ratios]}, "
        f"entropy ratios {['%.2f' % r for r in entropy_ratios]}",
    )


def _check_ns_closure() -> CheckResult:
    ev = eigenvalue_set(-1)
    k, eps = 1.3, 0.07
    m = moment_reference.moment_symbol(k, eps, ev)
    ik = 1j * k
    # Quasi-steady stress: Pi = (4 eps/(3 lambda02)) * (-ik) u.
    stress_gain = -m[3, 1] / m[3, 3]
    stress_target = 4.0 * eps / (3.0 * float(ev.lambda02)) * (-ik)
    # Quasi-steady heat flux: q = (5 eps/(2 lambda11)) * (-ik) (p - n).
    heat_gain_p = -m[4, 2] / m[4, 4]
    heat_gain_n = -m[4, 0] / m[4, 4]
    heat_target = 5.0 * eps / (2.0 * float(ev.lambda11)) * (-ik)
    ok = (
        abs(stress_gain - stress_target) < 1e-14
        and abs(heat_gain_p - heat_target) < 1e-14
        and abs(heat_gain_n + heat_target) < 1e-14
    )
    return CheckResult("moment NS closure", ok, "quasi-steady gains match 4/(3*l02), 5/(2*l11)")


def _etot(spec: hydro_spectral.SpectralState) -> float:
    state = hydro_spectral.from_modes(spec)
    dx = 2.0 * np.pi / state.grid_size
    return float(dx * np.sum((5.0 / 3.0) * state.u**2 + state.p**2))


def _check_solver_hygiene() -> CheckResult:
    ev = eigenvalue_set(-1)
    n = 16
    fields = realize(parse_initial_condition("u:1:1,p:2:0.5:0.3,s:3:0.25"), n)
    state = hydro_spectral.HydroState(u=fields["u"], p=fields["p"], s=fields["s"])
    spec = hydro_spectral.to_modes(state)

    back = hydro_spectral.from_modes(spec)
    rt = max(
        float(np.max(np.abs(back.u - state.u))),
        float(np.max(np.abs(back.p - state.p))),
        float(np.max(np.abs(back.s - state.s))),
    )
    if rt > 1e-12:
        return CheckResult("solver hygiene", False, f"round trip {rt:.2e}")

    one = hydro_spectral.evolve(spec, ModelId.BURNETT, 0.1, ev, 0.7)
    two = hydro_spectral.evolve(
        hydro_spectral.evolve(spec, ModelId.BURNETT, 0.1, ev, 0.3), ModelId.BURNETT, 0.1, ev, 0.4
    )
    semi = float(np.max(np.abs(one.modes - two.modes)))
    if semi > 1e-11:
        return CheckResult("solver hygiene", False, f"semigroup {semi:.2e}")

    # Euler energy conservation and adiabatic invariance of s.
    cur = spec
    e0 = _etot(cur)
    worst = 0.0
    for _ in range(200):
        cur = hydro_spectral.evolve(cur, ModelId.EULER, 0.0, ev, 0.05)
        worst = max(worst, abs(_etot(cur) - e0) / e0)
    if worst > 1e-10:
        return CheckResult("solver hygiene", False, f"Euler energy drift {worst:.2e}")
    s_drift = float(np.max(np.abs(hydro_spectral.from_modes(cur).s - state.s)))
    if s_drift > 1e-10:
        return CheckResult("solver hygiene", False, f"Euler moved s by {s_drift:.2e}")

    # Dissipation monotone for the damped models.
    for model in (ModelId.NAVIER_STOKES, ModelId.BURNETT):
        cur = spec
        previous = _etot(cur)
        for _ in range(50):
            cur = hydro_spectral.evolve(cur, model, 0.1, ev, 0.1)
            now = _etot(cur)
            if now > previous * (1.0 + 1e-12):
                return CheckResult("solver hygiene", False, f"{model} energy grew")
            previous = now
    return CheckResult("solver hygiene", True, "round trip, semigroup, energy, dissipation")


def _check_decoupling() -> CheckResult:
    ev = eigenvalue_set(-1)
    n = 32
    fields = realize(parse_initial_condition("u:1:1,p:2:0.4"), n)
    state = hydro_spectral.HydroState(u=fields["u"], p=fields["p"], s=fields["s"])
    eps, t = 0.1, 3.0

    evolved = hydro_spectral.from_modes(
        hydro_spectral.evolve(hydro_spectral.to_modes(state), ModelId.BURNETT, eps, ev, t)
    )
    rp_after, rm_after = hydro_spectral.riemann_split(evolved.u, evolved.p)

    rp0, rm0 = hydro_spectral.riemann_split(state.u, state.p)
    riemann_state = hydro_spectral.HydroState(u=rp0, p=rm0, s=np.zeros(n))
    riemann_evolved = hydro_spectral.from_modes(
        hydro_spectral.evolve(
            hydro_spectral.to_modes(riemann_state), ModelId.RIEMANN_DECOUPLED, eps, ev, t
        )
    )
    worst = max(
        float(np.max(np.abs(riemann_evolved.u - rp_after))),
        float(np.max(np.abs(riemann_evolved.p - rm_after))),
    )
    return CheckResult("Riemann decoupling equivalence", worst <= 1e-10, f"gap {worst:.2e}")


def _check_h1_bridge() -> CheckResult:
    ev = eigenvalue_set(-1)
    n = 64
    x = 2.0 * np.pi * np.arange(n) / n
    state = hydro_spectral.HydroState(u=np.sin(x), p=np.zeros(n), s=np.zeros(n))
    stress, _ = hydro_spectral.h1_fluxes(state, ev, 0.1)
    worst = float(np.max(np.abs(stress - (-4.0 / 3.0) * np.cos(x))))
    # T = sin x needs p + s = (5/2) sin x.
    state2 = hydro_spectral.HydroState(u=np.zeros(n), p=2.5 * np.sin(x), s=np.zeros(n))
    _, heat = hydro_spectral.h1_fluxes(state2, ev, 0.1)
    worst = max(worst, float(np.max(np.abs(heat - (-15.0 / 4.0) * np.cos(x)))))
    return CheckResult("first-correction flux bridge", worst <= 1e-10, f"gap {worst:.2e}")


def _check_moment_hygiene() -> CheckResult:
    ev = eigenvalue_set(-1)
    n = 16
    fields = realize(parse_initial_condition("u:1:1,p:2:0.3"), n)
    state = hydro_spectral.HydroState(u=fields["u"], p=fields["p"], s=fields["s"])
    moments = moment_reference.from_hydro(state, eps=0.1)
    evolved = moment_reference.evolve_moments(moments, ev, 2.5)
    means = np.abs(evolved.modes[:3, 0] - moments.modes[:3, 0])
    if float(np.max(means)) > 1e-14:
        return CheckResult("moment hygiene", False, "k = 0 conserved rows moved")
    projection = moment_reference.hydro_projection(evolved)
    if projection.state.grid_size != n:
        return CheckResult("moment hygiene", False, "projection grid mismatch")
    herm = max(
        _modal.hermitian_violation(evolved.modes),
        _modal.hermitian_violation(hydro_spectral.to_modes(projection.state).modes),
    )
    return CheckResult("moment hygiene", herm <= 1e-9, f"hermitian violation {herm:.2e}")


def _check_uniform_error() -> CheckResult:
    ev = eigenvalue_set(-1)
    fields = realize(parse_initial_condition("u:1:1"), 64)
    state = hydro_spectral.HydroState(u=fields["u"], p=fields["p"], s=fields["s"])
    coarse = moment_reference.burnett_deviation_rms(state, 0.1, ev, time=10.0)
    fine = moment_reference.burnett_deviation_rms(state, 0.05, ev, time=20.0)
    ratio = coarse / fine
    return CheckResult(
        "uniform-error scaling", 1.5 <= ratio <= 2.5, f"deviation ratio {ratio:.3f}"
    )


def _check_secularity() -> CheckResult:
    ev = eigenvalue_set(-1)
    ic = parse_initial_condition("u:1:1")
    eps = 0.05
    times = np.linspace(10.0, 100.0, 91)
    series = secularity.secular_ratio_series(ic, eps, ev, times)
    fit, residuals, *_ = np.polyfit(times, series.naive_ratio, 1, full=True)
    ss_tot = float(np.sum((series.naive_ratio - series.naive_ratio.mean()) ** 2))
    r_squared = 1.0 - (float(residuals[0]) if residuals.size else 0.0) / ss_tot
    if fit[0] <= 0 or r_squared < 0.99:
        return CheckResult("secular growth", False, f"slope {fit[0]:.2e}, R^2 {r_squared:.4f}")

    bound = secularity.multiscale_bound(ic, eps, ev, tmax=1.0 / eps**2)
    early = secularity.multiscale_bound(ic, eps, ev, tmax=10.0)
    if bound.value > 2.0 * early.value:
        return CheckResult(
            "secular growth", False, f"multiscale ratio grew {bound.value / early.value:.2f}x"
        )

    def crossing(eps_value: float) -> float:
        slope = eps_value * abs(
            float(
                Fraction(4, 3) / ev.lambda02 + Fraction(2, 3) / ev.lambda11
            )
        ) / 2.0
        return 0.5 / slope

    factor = crossing(eps / 2) / crossing(eps)
    ok = 1.6 <= factor <= 2.4
    return CheckResult(
        "secular growth",
        ok,
        f"naive slope {fit[0]:.3e}, bound ratio {bound.value / early.value:.3f}, "
        f"crossing factor {factor:.2f}",
    )


_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    _check_normalizations,
    _check_orthogonality,
    _check_recursions,
    _check_inner_bilinear,
    _check_transport,
    _check_scale_covariance,
    _check_dispersion_exactness,
    _check_dispersion_stability,
    _check_conjugate_symmetry,
    _check_moment_convergence,
    _check_ns_closure,
    _check_solver_hygiene,
    _check_decoupling,
    _check_h1_bridge,
    _check_moment_hygiene,
    _check_uniform_error,
    _check_secularity,
)


def run_selftest() -> list[CheckResult]:
    """Run every invariant check; never raises, failures are reported."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return results

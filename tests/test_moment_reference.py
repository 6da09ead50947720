"""Five-field kinetic moment system: symbol, evolution, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydrobench._modal import MIN_GRID_SIZE, hermitian_violation, wavenumbers
from hydrobench.coefficients import eigenvalue_set
from hydrobench.dispersion import Branch, ModelId, branches, sigma_asymptotic, symbol_matrix
from hydrobench.hydro_spectral import HydroState, evolve, from_modes, to_modes
from hydrobench.moment_reference import (
    MomentState,
    burnett_deviation_rms,
    evolve_moments,
    from_hydro,
    hydro_projection,
    reference_gaps,
    trajectory,
)

EV = eigenvalue_set(-1)
HYDRO_MODELS = [model for model in ModelId if model is not ModelId.MOMENT_REFERENCE]


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


class TestMomentSymbol:
    def test_zero_k_pure_relaxation(self):
        eps = 0.25
        m = symbol_matrix(ModelId.MOMENT_REFERENCE, 0.0, eps, EV)
        expected = np.diag([0.0, 0.0, 0.0, -1.0 / eps, (-2.0 / 3.0) / eps])
        assert np.allclose(m, expected, atol=0)

    def test_velocity_row_entries(self):
        m = symbol_matrix(ModelId.MOMENT_REFERENCE, 1.0, 1.0, EV)
        assert m[1, 2] == 1j
        assert m[1, 3] == 1j
        assert m[1, 0] == 0
        assert m[1, 4] == 0

    def test_quasi_steady_closures(self):
        # Eliminating the fast rows reproduces the first-order flux laws:
        # stress gain 4*eps/(3*lambda02) * d/dx and heat gain
        # 5*eps/(2*lambda11) * d/dx acting on (p - n).
        k, eps = 1.3, 0.07
        m = symbol_matrix(ModelId.MOMENT_REFERENCE, k, eps, EV)
        d_dx = -1j * k
        stress_gain = -m[3, 1] / m[3, 3]
        assert stress_gain == pytest.approx(4.0 * eps / 3.0 / (-1.0) * d_dx)
        heat_gain_p = -m[4, 2] / m[4, 4]
        heat_gain_n = -m[4, 0] / m[4, 4]
        expected = 5.0 * eps / 2.0 / (-2.0 / 3.0) * d_dx
        assert heat_gain_p == pytest.approx(expected)
        assert heat_gain_n == pytest.approx(-expected)

    def test_conduction_coefficient_route(self):
        # Energy-row flux through the quasi-steady q gives (5/(3*lambda11)) eps T_xx.
        k, eps = 0.9, 0.1
        m = symbol_matrix(ModelId.MOMENT_REFERENCE, k, eps, EV)
        gain = m[2, 4] * (-m[4, 2] / m[4, 4])  # dp/dt contribution per p mode
        expected = (2.0 / 3.0) * (1j * k) * (5.0 * eps / 2.0 / (-2.0 / 3.0)) * (-1j * k)
        assert gain == pytest.approx(expected)
        assert expected.real == pytest.approx(-(5.0 / (3.0 * (2.0 / 3.0))) * eps * k * k)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            symbol_matrix(ModelId.MOMENT_REFERENCE, 1.0, 0.0, EV)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            symbol_matrix(ModelId.MOMENT_REFERENCE, 1.0, eps, EV)

    def test_spectral_stability_grid(self):
        worst = -np.inf
        for k in np.linspace(0.0, 15.0, 61):
            for eps in (0.02, 0.1, 0.4, 1.0):
                eig = np.linalg.eigvals(symbol_matrix(ModelId.MOMENT_REFERENCE, float(k), eps, EV))
                worst = max(worst, float(eig.real.max()))
        assert worst <= 1e-10


class TestEvolveMoments:
    def test_zero_k_stress_relaxation(self):
        n = 8
        eps = 0.2
        state = HydroState(u=np.zeros(n), p=np.zeros(n), s=np.zeros(n))
        moments = from_hydro(state, eps)
        modes = moments.modes.copy()
        modes[3, 0] = 0.7  # uniform stress moment
        moments = type(moments)(modes, n, eps)
        t = 0.42
        out = evolve_moments(moments, EV, t)
        assert out.modes[3, 0] == pytest.approx(0.7 * np.exp(-t / eps), rel=1e-12)

    def test_conserved_means(self):
        n = 16
        x = grid(n)
        state = HydroState(u=0.3 + np.sin(x), p=np.full(n, 0.2), s=np.full(n, -0.1))
        moments = from_hydro(state, 0.1)
        out = evolve_moments(moments, EV, 3.0)
        assert np.array_equal(out.modes[:3, 0], moments.modes[:3, 0])

    def test_semigroup(self):
        n = 16
        state = HydroState(u=np.sin(grid(n)), p=np.zeros(n), s=np.zeros(n))
        moments = from_hydro(state, 0.1)
        one = evolve_moments(moments, EV, 1.1)
        two = evolve_moments(evolve_moments(moments, EV, 0.6), EV, 0.5)
        assert np.max(np.abs(one.modes - two.modes)) <= 1e-11

    def test_hermitian_preserved(self):
        from hydrobench._modal import hermitian_violation

        n = 16
        x = grid(n)
        state = HydroState(u=np.sin(x) + 0.2 * np.sin(5 * x), p=np.cos(2 * x), s=0 * x)
        out = evolve_moments(from_hydro(state, 0.05), EV, 2.3)
        assert hermitian_violation(out.modes, n) <= 1e-12

    def test_relaxation_toward_ns_closure(self):
        # After the kinetic transient the stress moment tracks its quasi-steady
        # closure; the residual shrinks with eps.
        n = 32
        x = grid(n)
        state = HydroState(u=np.sin(x), p=np.zeros(n), s=np.zeros(n))
        residuals = []
        for eps in (0.1, 0.05):
            out = evolve_moments(from_hydro(state, eps), EV, 3.0)
            projection = hydro_projection(out)
            du_dx = np.fft.ifft(
                1j * np.fft.fftfreq(n, d=1.0 / n) * np.fft.fft(projection.state.u)
            ).real
            closure = 4.0 * eps / (3.0 * -1.0) * du_dx
            residuals.append(float(np.max(np.abs(projection.stress - closure))))
        assert residuals[1] < residuals[0]

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
    def test_state_eps_validation(self, eps):
        with pytest.raises(ValueError, match="eps"):
            MomentState(np.zeros((5, 5), dtype=complex), 8, eps)

    def test_state_shape_must_fit_grid_size(self):
        # Nine columns describe a grid of 16 or 17 points, never 15.
        with pytest.raises(ValueError, match="grid size"):
            MomentState(np.zeros((5, 9), dtype=complex), 15, 0.1)

    def test_dt_validation(self):
        state = HydroState(u=np.zeros(8), p=np.zeros(8), s=np.zeros(8))
        with pytest.raises(ValueError):
            evolve_moments(from_hydro(state, 0.1), EV, 0.0)


@st.composite
def moment_states(draw):
    """Moment state from small random real (u, p, s) fields at a random eps."""
    n = draw(st.integers(MIN_GRID_SIZE, 32))
    values = draw(arrays(np.float64, (3, n), elements=st.floats(-1.0, 1.0)))
    eps = draw(st.floats(0.01, 1.0))
    return from_hydro(HydroState(u=values[0], p=values[1], s=values[2]), eps)


class TestEvolveMomentsProperties:
    @settings(max_examples=40, deadline=None)
    @given(moments=moment_states(), t1=st.floats(0.01, 5.0), t2=st.floats(0.01, 5.0))
    def test_semigroup(self, moments, t1, t2):
        direct = evolve_moments(moments, EV, t1 + t2)
        composed = evolve_moments(evolve_moments(moments, EV, t1), EV, t2)
        # The Nyquist mode of an even grid takes the real part of its
        # propagator at every time, which does not compose; skip it.
        others = 2 * wavenumbers(moments.grid_size) != moments.grid_size
        gap = np.max(np.abs(direct.modes - composed.modes)[:, others])
        assert gap <= 1e-11 * max(float(np.max(np.abs(moments.modes))), np.finfo(float).tiny)

    @settings(max_examples=40, deadline=None)
    @given(moments=moment_states(), t=st.floats(0.01, 10.0))
    def test_hermitian_preserved(self, moments, t):
        out = evolve_moments(moments, EV, t)
        assert hermitian_violation(out.modes, out.grid_size) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(moments=moment_states(), t=st.floats(0.01, 10.0))
    def test_conserved_rows_exact_at_zero_k(self, moments, t):
        out = evolve_moments(moments, EV, t)
        assert np.array_equal(out.modes[:3, 0], moments.modes[:3, 0])


class TestHydroProjection:
    def test_entropy_relation(self):
        n = 8
        state = HydroState(u=np.zeros(n), p=np.zeros(n), s=np.zeros(n))
        moments = from_hydro(state, 0.1)
        modes = moments.modes.copy()
        modes[0, 0] = 1.0  # uniform n
        modes[2, 0] = 1.0  # uniform p
        projection = hydro_projection(type(moments)(modes, n, eps=0.1))
        assert projection.state.s == pytest.approx(np.full(n, -1.0))
        assert projection.state.temperature == pytest.approx(np.zeros(n), abs=1e-15)

    def test_zero_fields(self):
        n = 8
        state = HydroState(u=np.zeros(n), p=np.zeros(n), s=np.zeros(n))
        projection = hydro_projection(from_hydro(state, 0.1))
        assert np.all(projection.state.s == 0)
        assert np.all(projection.stress == 0)
        assert np.all(projection.heat_flux == 0)

    def test_round_trips_hydro_fields(self):
        n = 16
        x = grid(n)
        state = HydroState(u=np.sin(x), p=0.5 * np.cos(2 * x), s=0.2 * np.sin(3 * x))
        projection = hydro_projection(from_hydro(state, 0.1))
        assert projection.state.u == pytest.approx(state.u, abs=1e-13)
        assert projection.state.p == pytest.approx(state.p, abs=1e-13)
        assert projection.state.s == pytest.approx(state.s, abs=1e-13)


class TestHydrodynamicLimit:
    def test_sound_branch_convergence_order(self):
        errors = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            table = branches(ModelId.MOMENT_REFERENCE, [1.0], eps, EV)
            sound = table.branch(Branch.SOUND_PLUS)[0]
            errors.append(abs(sound - sigma_asymptotic(1.0, eps, EV, Branch.SOUND_PLUS)))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 2.7

    def test_entropy_branch_convergence(self):
        errors = []
        for eps in (0.1, 0.05, 0.025, 0.0125):
            table = branches(ModelId.MOMENT_REFERENCE, [1.0], eps, EV)
            entropy = table.branch(Branch.ENTROPY)[0]
            errors.append(abs(entropy - sigma_asymptotic(1.0, eps, EV, Branch.ENTROPY)))
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.8


class TestBurnettDeviation:
    def test_standing_wave_uniform_error_scaling(self):
        n = 64
        state = HydroState(u=np.sin(grid(n)), p=np.zeros(n), s=np.zeros(n))
        coarse = burnett_deviation_rms(state, 0.1, EV, time=1.0 / 0.1)
        fine = burnett_deviation_rms(state, 0.05, EV, time=1.0 / 0.05)
        assert 1.5 <= coarse / fine <= 2.5

    def test_deviation_grows_with_eps(self):
        n = 32
        state = HydroState(u=np.sin(grid(n)), p=np.zeros(n), s=np.zeros(n))
        small = burnett_deviation_rms(state, 0.025, EV, time=40.0)
        large = burnett_deviation_rms(state, 0.2, EV, time=10.0)
        assert large > small

    def test_matches_direct_comparison(self):
        # reference_gaps, and for Burnett one sample of the windowed RMS, agree
        # with the grid L2 gap of fields evolved and synthesized by hand.
        # Random fields put content on every mode, the Nyquist mode of the
        # even grid and the last interior mode of the odd one included.
        eps, t = 0.1, 6.0
        for model in HYDRO_MODELS:
            for n in (32, 31):
                fields = np.random.default_rng(n).normal(size=(3, n))
                state = HydroState(u=fields[0], p=fields[1], s=fields[2])
                direct = from_modes(evolve(to_modes(state), model, eps, EV, t))
                projection = hydro_projection(evolve_moments(from_hydro(state, eps), EV, t)).state
                dx = 2.0 * np.pi / n
                gap = np.sqrt(
                    dx
                    * np.sum(
                        (direct.u - projection.u) ** 2
                        + (direct.p - projection.p) ** 2
                        + (direct.s - projection.s) ** 2
                    )
                )
                gaps = reference_gaps(state, [model], eps, EV, np.array([t]))
                assert gaps.shape == (1, 1)
                assert gaps[0, 0] == pytest.approx(gap, rel=1e-10), (model, n)
                if model is ModelId.BURNETT:
                    rms = burnett_deviation_rms(state, eps, EV, time=t, n_samples=1)
                    assert rms == pytest.approx(gap, rel=1e-10), n

    def test_gap_columns_follow_model_order(self):
        n = 16
        fields = np.random.default_rng(3).normal(size=(3, n))
        state = HydroState(u=fields[0], p=fields[1], s=fields[2])
        times = np.array([0.5, 1.0, 2.0])
        together = reference_gaps(state, HYDRO_MODELS, 0.1, EV, times)
        assert together.shape == (3, len(HYDRO_MODELS))
        for j, model in enumerate(HYDRO_MODELS):
            alone = reference_gaps(state, [model], 0.1, EV, times)
            assert np.array_equal(together[:, j], alone[:, 0])
        truth = reference_gaps(state, [ModelId.MOMENT_REFERENCE], 0.1, EV, times)
        assert np.all(truth == 0.0)


class TestTrajectory:
    @pytest.mark.parametrize("n", [16, 15])
    @pytest.mark.parametrize("model", list(ModelId))
    def test_equals_direct_route(self, model, n):
        eps = 0.1
        fields = np.random.default_rng(n).normal(size=(3, n))
        state = HydroState(u=fields[0], p=fields[1], s=fields[2], time=0.25)
        times = np.array([0.1, 1.0, 3.5])
        if model is ModelId.MOMENT_REFERENCE:
            evolved = evolve_moments(from_hydro(state, eps), EV, times)
            direct = [hydro_projection(later).state for later in evolved]
        else:
            direct = [from_modes(s) for s in evolve(to_modes(state), model, eps, EV, times)]
        shared = list(trajectory(state, model, eps, EV, times))
        assert len(shared) == len(direct) == times.size
        for a, b, t in zip(shared, direct, times):
            assert a.time == b.time == 0.25 + t
            for name in ("u", "p", "s"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (name, t)

    def test_moment_model_is_refused_by_hydro_evolve(self):
        state = HydroState(u=np.zeros(8), p=np.zeros(8), s=np.zeros(8))
        with pytest.raises(ValueError, match="moment_reference.trajectory"):
            evolve(to_modes(state), ModelId.MOMENT_REFERENCE, 0.1, EV, 1.0)

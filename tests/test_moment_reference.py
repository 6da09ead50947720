"""Five-field kinetic moment system: symbol, evolution, projection."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydrobench import _modal, moment_reference
from hydrobench._modal import (
    EVAL_BLOCK,
    MIN_GRID_SIZE,
    forward_modes,
    hermitian_violation,
    inverse_modes,
    scatter_modes,
    wavenumbers,
)
from hydrobench.coefficients import eigenvalue_set
from hydrobench.dispersion import Branch, ModelId, branches, sigma_asymptotic, symbol_matrix
from hydrobench.hydro_spectral import (
    HermitianSymmetryError,
    InternalConsistencyError,
    SpectralState,
    _gradients,
    evolve,
    from_modes,
    to_modes,
)
from hydrobench.initial_conditions import parse_initial_condition, spectrum
from hydrobench.moment_reference import (
    SYNTHESIS_GAP_C,
    _hydro_modes,
    _parseval_norms,
    burnett_deviation_rms,
    evolve_moments,
    from_hydro,
    hydro_projection,
    reference_gaps,
    trajectory,
)

EV = eigenvalue_set(-1)
MOMENT = ModelId.MOMENT_REFERENCE
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
        state = np.zeros((3, n))
        moments = from_hydro(to_modes(state))
        modes = moments.modes.copy()
        modes[3, 0] = 0.7  # uniform stress moment
        moments = SpectralState(modes, n)
        t = 0.42
        (out,) = scatter_modes(*evolve(moments, MOMENT, eps, EV, [t]), n)
        assert out[3, 0] == pytest.approx(0.7 * np.exp(-t / eps), rel=1e-12)

    def test_conserved_means(self):
        n = 16
        x = grid(n)
        state = np.stack([0.3 + np.sin(x), np.full(n, 0.2), np.full(n, -0.1)])
        moments = from_hydro(to_modes(state))
        (out,) = scatter_modes(*evolve(moments, MOMENT, 0.1, EV, [3.0]), n)
        assert np.array_equal(out[:3, 0], moments.modes[:3, 0])

    def test_semigroup(self):
        n = 16
        state = np.stack([np.sin(grid(n)), np.zeros(n), np.zeros(n)])
        moments = from_hydro(to_modes(state))
        (one,) = scatter_modes(*evolve(moments, MOMENT, 0.1, EV, [1.1]), n)
        (half,) = scatter_modes(*evolve(moments, MOMENT, 0.1, EV, [0.6]), n)
        (two,) = scatter_modes(*evolve(SpectralState(half, n), MOMENT, 0.1, EV, [0.5]), n)
        assert np.max(np.abs(one - two)) <= 1e-11

    def test_hermitian_preserved(self):
        from hydrobench._modal import hermitian_violation

        n = 16
        x = grid(n)
        state = np.stack([np.sin(x) + 0.2 * np.sin(5 * x), np.cos(2 * x), 0 * x])
        (out,) = scatter_modes(*evolve(from_hydro(to_modes(state)), MOMENT, 0.05, EV, [2.3]), n)
        assert hermitian_violation(out, n) <= 1e-12

    def test_relaxation_toward_ns_closure(self):
        # After the kinetic transient the stress moment tracks its quasi-steady
        # closure; the residual shrinks with eps.
        n = 32
        x = grid(n)
        state = np.stack([np.sin(x), np.zeros(n), np.zeros(n)])
        residuals = []
        for eps in (0.1, 0.05):
            (out,) = scatter_modes(*evolve(from_hydro(to_modes(state)), MOMENT, eps, EV, [3.0]), n)
            projection = hydro_projection(SpectralState(out, n))
            du_dx = np.fft.ifft(
                1j * np.fft.fftfreq(n, d=1.0 / n) * np.fft.fft(projection.fields[0])
            ).real
            closure = 4.0 * eps / (3.0 * -1.0) * du_dx
            residuals.append(float(np.max(np.abs(projection.stress - closure))))
        assert residuals[1] < residuals[0]

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0])
    def test_state_eps_validation(self, eps):
        with pytest.raises(ValueError, match="eps"):
            evolve(SpectralState(np.zeros((5, 5), dtype=complex), 8), MOMENT, eps, EV, [1.0])

    def test_state_shape_must_fit_grid_size(self):
        # Nine columns describe a grid of 16 or 17 points, never 15.
        with pytest.raises(ValueError, match="grid size"):
            SpectralState(np.zeros((5, 9), dtype=complex), 15)

    def test_dt_validation(self):
        # A leading 0 is the moment start itself; a negative, repeated or
        # descending time is refused.
        moments = from_hydro(to_modes(np.random.default_rng(8).normal(size=(3, 8))))
        (start,) = scatter_modes(*evolve(moments, MOMENT, 0.1, EV, [0.0]), moments.grid_size)
        assert start.tobytes() == moments.modes.tobytes()
        for times in ([-0.5], [0.0, 0.0], [1.0, 0.5]):
            with pytest.raises(ValueError):
                evolve(moments, MOMENT, 0.1, EV, times)


@st.composite
def moment_states(draw):
    """Moment state from small random real (u, p, s) fields, and a random eps."""
    n = draw(st.integers(MIN_GRID_SIZE, 32))
    values = draw(arrays(np.float64, (3, n), elements=st.floats(-1.0, 1.0)))
    eps = draw(st.floats(0.01, 1.0))
    return from_hydro(to_modes(values)), eps


class TestEvolveMomentsProperties:
    @settings(max_examples=40, deadline=None)
    @given(drawn=moment_states(), t1=st.floats(0.01, 5.0), t2=st.floats(0.01, 5.0))
    def test_semigroup(self, drawn, t1, t2):
        moments, eps = drawn
        n = moments.grid_size
        (direct,) = scatter_modes(*evolve(moments, MOMENT, eps, EV, [t1 + t2]), n)
        (first,) = scatter_modes(*evolve(moments, MOMENT, eps, EV, [t1]), n)
        (composed,) = scatter_modes(*evolve(SpectralState(first, n), MOMENT, eps, EV, [t2]), n)
        # The Nyquist mode of an even grid takes the real part of its
        # propagator at every time, which does not compose; skip it.
        others = 2 * wavenumbers(moments.grid_size) != moments.grid_size
        gap = np.max(np.abs(direct - composed)[:, others])
        assert gap <= 1e-11 * max(float(np.max(np.abs(moments.modes))), np.finfo(float).tiny)

    @settings(max_examples=40, deadline=None)
    @given(drawn=moment_states(), t=st.floats(0.01, 10.0))
    def test_hermitian_preserved(self, drawn, t):
        moments, eps = drawn
        (out,) = scatter_modes(*evolve(moments, MOMENT, eps, EV, [t]), moments.grid_size)
        assert hermitian_violation(out, moments.grid_size) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(drawn=moment_states(), t=st.floats(0.01, 10.0))
    def test_conserved_rows_exact_at_zero_k(self, drawn, t):
        moments, eps = drawn
        (out,) = scatter_modes(*evolve(moments, MOMENT, eps, EV, [t]), moments.grid_size)
        assert np.array_equal(out[:3, 0], moments.modes[:3, 0])


class TestHydroProjection:
    @pytest.mark.parametrize("n", [16, 15])
    def test_moment_start_is_formed_from_the_modes(self, n):
        # n = (3p - 2s)/5 column by column: the analysis of the density field
        # up to roundoff, and an empty (u, p, s) column stays empty.
        fields = np.random.default_rng(n).normal(size=(3, n))
        moments = from_hydro(to_modes(fields)).modes
        assert np.array_equal(moments[1:3], to_modes(fields).modes[:2])
        assert not moments[3:].any()
        density = forward_modes((3.0 * fields[1] - 2.0 * fields[2]) / 5.0)
        assert np.max(np.abs(moments[0] - density)) <= 1e-14 * np.max(np.abs(density))
        sparse = np.zeros((3, n // 2 + 1), dtype=complex)
        sparse[:, 2] = [0.5j, -0.25, 1.0 - 2.0j]
        moments = from_hydro(SpectralState(sparse, n)).modes
        assert np.array_equal(np.flatnonzero(moments.any(axis=0)), [2])
        assert moments[0, 2] == (3.0 * -0.25 - 2.0 * (1.0 - 2.0j)) / 5.0

    def test_entropy_relation(self):
        n = 8
        state = np.zeros((3, n))
        moments = from_hydro(to_modes(state))
        modes = moments.modes.copy()
        modes[0, 0] = 1.0  # uniform n
        modes[2, 0] = 1.0  # uniform p
        projection = hydro_projection(SpectralState(modes, n))
        assert projection.fields[2] == pytest.approx(np.full(n, -1.0))
        assert _gradients(projection.fields)[0] == pytest.approx(np.zeros(n), abs=1e-15)

    def test_zero_fields(self):
        n = 8
        state = np.zeros((3, n))
        projection = hydro_projection(from_hydro(to_modes(state)))
        assert np.all(projection.fields[2] == 0)
        assert np.all(projection.stress == 0)
        assert np.all(projection.heat_flux == 0)

    def test_hydro_modes_map_in_place(self):
        # s = (3/2)p - (5/2)n is written over the Pi row with the bits of
        # 1.5*p - 2.5*n, and rows 1 to 3 come back as a view, for one state
        # and for a stack of them.
        rng = np.random.default_rng(9)
        for shape in [(5, 9), (4, 5, 9)]:
            moments = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            n, u, p = (moments[..., row, :].copy() for row in range(3))
            want = np.stack([u, p, 1.5 * p - 2.5 * n], axis=-2)
            mapped = _hydro_modes(moments)
            assert np.shares_memory(mapped, moments)
            assert mapped.shape == want.shape and mapped.tobytes() == want.tobytes()

    def test_projection_leaves_its_state_unchanged(self):
        modes = np.random.default_rng(10).normal(size=(5, 9)) + 0j
        modes[:, 0] = modes[:, 0].real
        before = modes.copy()
        projection = hydro_projection(SpectralState(modes, 17))
        assert modes.tobytes() == before.tobytes()
        assert np.array_equal(projection.stress, inverse_modes(before[3], 17))

    def test_round_trips_hydro_fields(self):
        n = 16
        x = grid(n)
        state = np.stack([np.sin(x), 0.5 * np.cos(2 * x), 0.2 * np.sin(3 * x)])
        projection = hydro_projection(from_hydro(to_modes(state)))
        assert projection.fields[0] == pytest.approx(state[0], abs=1e-13)
        assert projection.fields[1] == pytest.approx(state[1], abs=1e-13)
        assert projection.fields[2] == pytest.approx(state[2], abs=1e-13)


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
        start = to_modes(np.stack([np.sin(grid(n)), np.zeros(n), np.zeros(n)]))
        coarse = burnett_deviation_rms(start, 0.1, EV, time=1.0 / 0.1)
        fine = burnett_deviation_rms(start, 0.05, EV, time=1.0 / 0.05)
        assert 1.5 <= coarse / fine <= 2.5

    def test_deviation_grows_with_eps(self):
        n = 32
        start = to_modes(np.stack([np.sin(grid(n)), np.zeros(n), np.zeros(n)]))
        small = burnett_deviation_rms(start, 0.025, EV, time=40.0)
        large = burnett_deviation_rms(start, 0.2, EV, time=10.0)
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
                start = to_modes(fields)
                (modes,) = scatter_modes(*evolve(start, model, eps, EV, [t]), n)
                direct = from_modes(SpectralState(modes, n))
                (moments,) = scatter_modes(*evolve(from_hydro(start), MOMENT, eps, EV, [t]), n)
                projection = hydro_projection(SpectralState(moments, n)).fields
                dx = 2.0 * np.pi / n
                gap = np.sqrt(
                    dx
                    * np.sum(
                        (direct[0] - projection[0]) ** 2
                        + (direct[1] - projection[1]) ** 2
                        + (direct[2] - projection[2]) ** 2
                    )
                )
                gaps = reference_gaps(start, [model], eps, EV, np.array([t]))
                assert gaps.shape == (1, 1)
                assert gaps[0, 0] == pytest.approx(gap, rel=1e-10), (model, n)
                if model is ModelId.BURNETT:
                    rms = burnett_deviation_rms(start, eps, EV, time=t, n_samples=1)
                    assert rms == pytest.approx(gap, rel=1e-10), n

    def test_gap_columns_follow_model_order(self):
        n = 16
        fields = np.random.default_rng(3).normal(size=(3, n))
        start = to_modes(fields)
        times = np.array([0.5, 1.0, 2.0])
        together = reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
        assert together.shape == (3, len(HYDRO_MODELS))
        for j, model in enumerate(HYDRO_MODELS):
            alone = reference_gaps(start, [model], 0.1, EV, times)
            assert np.array_equal(together[:, j], alone[:, 0])
        truth = reference_gaps(start, [ModelId.MOMENT_REFERENCE], 0.1, EV, times)
        assert np.all(truth == 0.0)


def _synthesized_gaps(start, models, eps, times):
    """The route reference_gaps once took: every model's trajectory and the
    truth's synthesized, then subtracted as fields."""
    truth = trajectory(start, MOMENT, eps, EV, times)
    dx = 2.0 * np.pi / start.grid_size
    gaps = [trajectory(start, model, eps, EV, times) - truth for model in models]
    return np.stack([np.sqrt(dx * np.sum(gap**2, axis=(1, 2))) for gap in gaps], axis=1)


#: Gap between reference_gaps and _synthesized_gaps in units of u = 2**-53
#: times the start's sum of |mode|: the routes differ only in synthesizing
#: the difference of the modes or the difference of the fields.  Over 20
#: normal starts of scale 1e-3 to 1e3 at each N of 16, 17 and 64, eps of
#: 0.01, 0.1 and 0.3 and 401 times from 0 to 20, the largest measured was 3.0.
GAP_ROUTE_C = 8.0


class TestReferenceGaps:
    @pytest.mark.parametrize("n", [16, 17, 64])
    def test_matches_the_synthesized_route(self, n):
        # 401 times make three synthesis blocks on the grids of 16 and 17.
        rng = np.random.default_rng(n)
        times = 0.05 * np.arange(401)
        for eps in (0.01, 0.3):
            start = to_modes(rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3))
            gaps = reference_gaps(start, HYDRO_MODELS, eps, EV, times)
            want = _synthesized_gaps(start, HYDRO_MODELS, eps, times)
            assert np.all(gaps[0] == 0.0) and not np.signbit(gaps[0]).any()
            bound = GAP_ROUTE_C * 2.0**-53 * np.abs(start.modes).sum()
            assert np.max(np.abs(gaps - want)) <= bound, eps

    @pytest.mark.parametrize("column", [0, -1])
    def test_a_complex_start_is_refused(self, column):
        # A complex k = 0 or Nyquist coefficient describes no real field.
        modes = to_modes(np.random.default_rng(4).normal(size=(3, 16))).modes
        modes[1, column] += 1e-3j
        with pytest.raises(HermitianSymmetryError):
            reference_gaps(SpectralState(modes, 16), HYDRO_MODELS, 0.1, EV, [0.0, 1.0])

    @pytest.mark.parametrize("value", [1e-3j, np.nan, np.inf])
    def test_the_start_is_checked_whatever_the_times(self, value):
        # Propagation keeps the Nyquist column real, and the differences
        # cancel the k = 0 column, so the start is checked on its own.
        modes = to_modes(np.random.default_rng(5).normal(size=(3, 16))).modes
        modes[2, -1] += value
        error = HermitianSymmetryError if np.isfinite(value) else FloatingPointError
        with pytest.raises(error):
            reference_gaps(SpectralState(modes, 16), HYDRO_MODELS, 0.1, EV, [1.0, 2.0])

    def test_only_the_start_needs_no_propagation(self):
        start = to_modes(np.random.default_rng(6).normal(size=(3, 16)))
        gaps = reference_gaps(start, HYDRO_MODELS, 0.1, EV, [0.0])
        assert gaps.shape == (1, len(HYDRO_MODELS)) and np.all(gaps == 0.0)
        assert reference_gaps(start, [], 0.1, EV, [0.0, 1.0]).shape == (2, 0)

    def test_a_tolerated_nyquist_part_starts_at_exact_zero(self):
        # The even grid's Nyquist mode may hold an imaginary part within
        # HERMITIAN_TOL.  Propagation makes only the later rows' Nyquist mode
        # real, so every model's t = 0 row is the start itself: its gap is the
        # start less itself, and trajectory's row is from_modes of the start.
        modes = to_modes(np.random.default_rng(11).normal(size=(3, 16))).modes
        modes[:, -1] += 0.5 * _modal.HERMITIAN_TOL * np.abs(modes).max() * 1j
        start, times = SpectralState(modes, 16), [0.0, 0.5, 1.0]
        gaps = reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
        assert np.all(gaps[0] == 0.0) and not np.signbit(gaps[0]).any()
        for model in ModelId:
            assert np.array_equal(trajectory(start, model, 0.1, EV, times)[0], from_modes(start))

    @pytest.mark.parametrize("n,column", [(16, 0), (17, 0), (16, 8), (16, 3), (17, 3), (17, 8)])
    def test_parseval_weights(self, n, column):
        # k = 0 and the even grid's Nyquist column (8 of N = 16) count once,
        # every other column twice, the odd grid's last column (8 of N = 17)
        # among them.  One column's gap is as large as the start, so the
        # bound also counts GAP_ROUTE_C units of the gap itself.
        rng = np.random.default_rng(n + column)
        modes = np.zeros((3, n // 2 + 1), dtype=complex)
        modes[:, column] = rng.normal(size=3) + 1j * rng.normal(size=3) * (0 < column < n / 2)
        block = np.stack([modes, 2.0 * modes])
        fields = inverse_modes(block, n)
        want = np.sqrt(2.0 * np.pi / n * np.sum(fields**2, axis=(1, 2)))
        columns = wavenumbers(n)[[column]]
        occupied = np.ascontiguousarray(block[..., columns])
        assert np.allclose(_parseval_norms(occupied, n, columns), want, rtol=1e-15, atol=0)
        start, times = SpectralState(modes, n), 0.5 * np.arange(9)
        gaps = reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
        want = _synthesized_gaps(start, HYDRO_MODELS, 0.1, times)
        unit = GAP_ROUTE_C * 2.0**-53
        assert np.allclose(gaps, want, rtol=unit, atol=unit * np.abs(modes).sum())

    @pytest.mark.parametrize("n", [16, 17, 4096, 4097])
    def test_the_routes_agree_within_the_constant(self, n):
        # The final-time differences, synthesized by hand, against the
        # Parseval row that reference_gaps returns.
        rng = np.random.default_rng(n)
        for eps in (0.01, 0.1, 0.3):
            start = to_modes(rng.normal(size=(3, n)) * 10.0 ** rng.uniform(-3, 3))
            t = rng.uniform(1.0, 20.0)
            gaps = reference_gaps(start, HYDRO_MODELS, eps, EV, [0.0, t])[-1]
            (moments,) = scatter_modes(*evolve_moments(from_hydro(start), eps, EV, [t]), n)
            truth = _hydro_modes(moments)
            for model, gap in zip(HYDRO_MODELS, gaps):
                difference = scatter_modes(*evolve(start, model, eps, EV, [t]), n)[0] - truth
                direct = np.sqrt(2.0 * np.pi / n * np.sum(inverse_modes(difference, n) ** 2))
                bound = SYNTHESIS_GAP_C * 2.0**-53 * np.abs(difference).sum()
                assert abs(gap - direct) <= bound, (model, eps)

    def test_routes_that_disagree_are_refused(self, monkeypatch):
        # A synthesis that is off by 1e3 u fails the final-time check, and the
        # message names the Parseval value, the synthesized one and the bound.
        start = to_modes(np.stack([np.sin(grid(16)), np.cos(3 * grid(16)), np.zeros(16)]))
        times = 0.5 * np.arange(21)
        parseval = reference_gaps(start, [ModelId.BURNETT], 0.1, EV, times)[-1, 0]
        synthesis = _modal.inverse_modes
        monkeypatch.setattr(
            moment_reference._modal,
            "inverse_modes",
            lambda modes, n: synthesis(modes, n) * (1.0 + 1e3 * 2.0**-53),
        )
        with pytest.raises(InternalConsistencyError) as refused:
            reference_gaps(start, [ModelId.BURNETT], 0.1, EV, times)
        number, bound = r"[\d.e+-]+", re.escape(f"{SYNTHESIS_GAP_C:g} u sum|modes|")
        pattern = re.escape(f"burnett gap: Parseval gives {parseval:.17g} and synthesis ")
        pattern += rf"{number} at t = 10, more than {bound} = {number} apart"
        assert re.fullmatch(pattern, str(refused.value))

    def test_a_column_the_moment_start_loses_is_compared_as_zero(self):
        # s = 5e-324 (-i) alone in column 3 gives n = (3p - 2s)/5 = 0 there,
        # so the moment start occupies column 1 only; the truth is widened to
        # the columns the start occupies, with column 3 exactly 0, as the
        # dense truth had it, and is not broadcast over them.
        start = spectrum(parse_initial_condition("u:1:1,s:3:1e-323"), 16)
        assert np.array_equal(np.flatnonzero(start.modes.any(axis=0)), [1, 3])
        assert np.array_equal(np.flatnonzero(from_hydro(start).modes.any(axis=0)), [1])
        times = 0.5 * np.arange(9)
        gaps = reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
        want = _synthesized_gaps(start, HYDRO_MODELS, 0.1, times)
        assert np.max(np.abs(gaps - want)) <= GAP_ROUTE_C * 2.0**-53 * np.abs(start.modes).sum()
        truth = trajectory(start, MOMENT, 0.1, EV, times)
        assert np.array_equal(truth[0], from_modes(start))

    @pytest.mark.parametrize("n", [16384, 65536])
    def test_peak_memory(self, n):
        # Every model's modes, the truth's and their differences are held,
        # checked and summed on the three columns the IC occupies, and only
        # the final-time differences are scattered to dense modes, for the
        # one synthesis.  With 21 times and the four hydro models the peak
        # is 0.572 times the bytes of one (21, 3, N) field array at N =
        # 16,384 and at 65,536, the synthesis of the four final spectra;
        # propagating, checking and summing every column read 2.667 at both
        # (Python 3.11, numpy 2.4, x86-64).  The first call imports
        # numpy.fft's internals; the second is measured.
        start = spectrum(parse_initial_condition("u:1:1,p:3:0.5:0.2,s:2:0.3"), n)
        times = 0.5 * np.arange(21)
        reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
        tracemalloc.start()
        try:
            gaps = reference_gaps(start, HYDRO_MODELS, 0.1, EV, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gaps.shape == (21, len(HYDRO_MODELS))
        assert peak < 0.65 * (21 * 3 * n * 8)


class TestTrajectory:
    @pytest.mark.parametrize("n", [16, 15])
    @pytest.mark.parametrize("model", list(ModelId))
    def test_equals_direct_route(self, model, n):
        eps = 0.1
        fields = np.random.default_rng(n).normal(size=(3, n))
        start = to_modes(fields)
        times = np.array([0.1, 1.0, 3.5])
        if model is ModelId.MOMENT_REFERENCE:
            evolved = scatter_modes(*evolve(from_hydro(start), model, eps, EV, times), n)
            direct = [hydro_projection(SpectralState(later, n)).fields for later in evolved]
        else:
            evolved = scatter_modes(*evolve(start, model, eps, EV, times), n)
            direct = [from_modes(SpectralState(s, n)) for s in evolved]
        shared = trajectory(start, model, eps, EV, times)
        assert shared.shape == (times.size, 3, n) and shared.dtype == np.float64
        for a, b, t in zip(shared, direct, times):
            for row, name in enumerate("ups"):
                assert np.array_equal(a[row], b[row]), (name, t)

    @pytest.mark.parametrize("n", [16, 15])
    @pytest.mark.parametrize("model", list(ModelId))
    def test_a_leading_zero_is_the_start_synthesized(self, model, n):
        # Bit for bit, and for every model alike: the moment start does not
        # pass through from_hydro and back.
        fields = np.random.default_rng(n).normal(size=(3, n))
        start = to_modes(fields)
        times = np.array([0.1, 1.0, 3.5])
        shared = trajectory(start, model, 0.1, EV, np.concatenate([[0.0], times]))
        assert np.array_equal(shared[0], inverse_modes(start.modes, n))
        assert np.array_equal(shared[1:], trajectory(start, model, 0.1, EV, times))
        assert np.array_equal(trajectory(start, model, 0.1, EV, np.zeros(1)), shared[:1])

    @pytest.mark.parametrize("n", [16, 15])
    @pytest.mark.parametrize("model", list(ModelId))
    def test_the_start_row_is_from_modes(self, model, n):
        # One synthesis of (u, p, s) modes to (3, N) fields, the trajectory's
        # t = 0 row included.
        start = to_modes(np.random.default_rng(n).normal(size=(3, n)))
        row = trajectory(start, model, 0.1, EV, [0.0])[0]
        assert row.shape == (3, n) and np.array_equal(from_modes(start), row)

    @pytest.mark.parametrize("times", [[], [0.0, 0.0], [0.5, 0.0], [0.0, -1.0], [[0.0]]])
    @pytest.mark.parametrize("model", [ModelId.BURNETT, MOMENT])
    def test_only_a_leading_time_may_be_zero(self, model, times):
        start = to_modes(np.stack([np.ones(8), np.zeros(8), np.zeros(8)]))
        with pytest.raises(ValueError):
            trajectory(start, model, 0.1, EV, np.asarray(times, dtype=float))

    @pytest.mark.parametrize("n", [16, 15])
    def test_moment_blocks_are_mapped_bit_for_bit(self, n):
        # On these grids one block holds 151 (N = 16) or 170 (N = 15)
        # snapshots, so 400 times make three blocks.  Mapping the moment
        # modes to (u, p, s) in place, all times at once, moves no bit of any
        # row, with or without the start in front.
        fields = np.random.default_rng(n).normal(size=(3, n))
        start = to_modes(fields)
        times = 0.05 * np.arange(1, 401)
        assert EVAL_BLOCK // (3 * (n // 2 + 1)) < times.size // 2
        moments = scatter_modes(*evolve_moments(from_hydro(start), 0.1, EV, times), n)
        assert moments.shape == (times.size, 5, n // 2 + 1)
        later = trajectory(start, MOMENT, 0.1, EV, times)
        from_zero = trajectory(start, MOMENT, 0.1, EV, np.concatenate([[0.0], times]))
        for i, modes in enumerate(moments):  # each time's modes are mapped in place, once
            row = inverse_modes(_hydro_modes(modes), n)
            assert np.array_equal(later[i], row) and np.array_equal(from_zero[i + 1], row), i

    def test_peak_memory(self):
        # Snapshots are synthesized in blocks of about EVAL_BLOCK modes,
        # each scattered from the occupied columns' values into one reused
        # buffer; the moment modes are mapped to (u, p, s) in place, as they
        # were a block at a time before, at the same peak.  These fields'
        # analysis leaves roundoff in every column, so all are occupied.  At
        # N = 16,384 with 21 times the moment trajectory peaks at 3.51 times
        # the fields' bytes, as it did when each snapshot was a
        # SpectralState mapped on its own and when evolve returned a dense
        # array; one synthesis call per time read 3.42, and one np.stack of
        # all snapshots' (u, p, s) modes synthesized at once 4.67 (Python
        # 3.11, numpy 2.4, x86-64).  The propagation's own peak sets it, so
        # the fields must be allocated after it: allocating them first read
        # 4.51.  The first call imports numpy.fft's internals; the second is
        # measured.
        n = 16384
        x = grid(n)
        state = np.stack([np.sin(x), 0.5 * np.cos(3 * x), 0.3 * np.sin(2 * x + 0.1)])
        start = to_modes(state)
        times = 0.25 * np.arange(1, 22)
        trajectory(start, MOMENT, 0.1, EV, times)
        tracemalloc.start()
        try:
            fields = trajectory(start, MOMENT, 0.1, EV, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields.shape == (21, 3, n)
        assert peak < 3.8 * fields.nbytes

    @pytest.mark.parametrize("model", list(ModelId))
    def test_peak_memory_at_large_n(self, model):
        # An IC's spectrum occupies three columns, and only those are
        # propagated and held; each block of snapshots is scattered into one
        # zeroed (block, 3, N//2 + 1) buffer before its synthesis.  At N =
        # 65,536 with 21 times every model peaks at 1.143 times its fields'
        # bytes; with the dense (21, d, N//2 + 1) spectrum held while
        # synthesizing, the hydro models read 2.095 and the moment model
        # 2.762 (Python 3.11, numpy 2.4, x86-64).  The first call imports
        # numpy.fft's internals; the second is measured.
        n = 65536
        start = spectrum(parse_initial_condition("u:1:1,p:3:0.5:0.2,s:2:0.3"), n)
        times = 0.5 * np.arange(21)
        trajectory(start, model, 0.1, EV, times)
        tracemalloc.start()
        try:
            fields = trajectory(start, model, 0.1, EV, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields.shape == (21, 3, n)
        assert peak < 1.25 * fields.nbytes

    def test_moment_model_is_refused_by_hydro_evolve(self):
        state = np.zeros((3, 8))
        with pytest.raises(ValueError, match="moment_reference needs a state of 5 rows, got 3"):
            evolve(to_modes(state), ModelId.MOMENT_REFERENCE, 0.1, EV, [1.0])

    def test_projection_refuses_a_three_row_state(self):
        state = np.zeros((3, 8))
        with pytest.raises(ValueError, match="needs a state of 5 rows, got 3"):
            hydro_projection(to_modes(state))

"""Spectral transforms, per-mode evolution, Riemann algebra, flux bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydrobench._modal import scatter_modes
from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import ModelId
from hydrobench.hydro_spectral import (
    HermitianSymmetryError,
    InternalConsistencyError,
    SpectralState,
    _gradients,
    evolve,
    first_order_correction,
    from_modes,
    h1_fluxes,
    riemann_join,
    riemann_split,
    spectral_derivative,
    to_modes,
)

EV = eigenvalue_set(-1)
ACOUSTIC_PERIOD = 2.0 * np.pi / SOUND_SPEED  # 4.8669344111683355


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def make_state(n=16, u=None, p=None, s=None):
    """(3, n) fields, rows u, p and s; a row not given is zero."""
    zeros = np.zeros(n)
    return np.stack([zeros if row is None else row for row in (u, p, s)])


def total_energy(state: np.ndarray) -> float:
    dx = 2.0 * np.pi / state.shape[1]
    return float(dx * np.sum((5.0 / 3.0) * state[0] ** 2 + state[1] ** 2))


class TestTransforms:
    def test_sinusoid_modes(self):
        n = 8
        state = make_state(n, u=np.sin(grid(n)))
        spec = to_modes(state)
        u_modes = spec.modes[0]
        assert u_modes.shape == (n // 2 + 1,)
        assert u_modes[1] == pytest.approx(-0.5j, abs=1e-15)
        others = np.delete(u_modes, 1)
        assert np.max(np.abs(others)) < 1e-15

    def test_zero_field_zero_modes(self):
        spec = to_modes(make_state(16))
        assert np.all(spec.modes == 0)

    def test_round_trip_examples(self):
        n = 32
        x = grid(n)
        state = make_state(n, u=np.sin(3 * x), p=np.cos(x), s=0.5 * np.sin(2 * x + 0.3))
        back = from_modes(to_modes(state))
        for row in range(3):
            assert np.max(np.abs(back[row] - state[row])) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        values=arrays(
            np.float64,
            (3, 16),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        )
    )
    def test_round_trip_property(self, values):
        state = make_state(16, u=values[0], p=values[1], s=values[2])
        back = from_modes(to_modes(state))
        scale = max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(back[0] - state[0])) <= 1e-12 * scale
        assert np.max(np.abs(back[1] - state[1])) <= 1e-12 * scale
        assert np.max(np.abs(back[2] - state[2])) <= 1e-12 * scale

    def test_non_hermitian_rejected(self):
        # Only the k = 0 and Nyquist coefficients have no conjugate partner.
        spec = to_modes(make_state(16, u=np.sin(grid(16))))
        for column in (0, -1):
            broken = spec.modes.copy()
            broken[0, column] += 0.1j
            with pytest.raises(HermitianSymmetryError):
                from_modes(SpectralState(broken, spec.grid_size))

    def test_derived_fields(self):
        n = 8
        # n = (3p - 2s)/5 is formed by the moment start alone, from the modes.
        from hydrobench.moment_reference import from_hydro

        state = make_state(n, p=np.full(n, 1.0), s=np.full(n, -1.0))
        density = from_modes(SpectralState(from_hydro(to_modes(state)).modes[:3], n))[0]
        assert density == pytest.approx(np.full(n, 1.0))
        assert _gradients(state)[0] == pytest.approx(np.zeros(n), abs=1e-15)


class TestEvolve:
    def test_euler_full_period_returns(self):
        n = 16
        state = make_state(n, u=np.sin(grid(n)))
        moved = evolve(to_modes(state), ModelId.EULER, 0.0, EV, [ACOUSTIC_PERIOD])
        (modes,) = scatter_modes(*moved, n)
        back = from_modes(SpectralState(modes, n))
        assert np.max(np.abs(back[0] - state[0])) <= 1e-10
        assert np.max(np.abs(back[1])) <= 1e-10

    @pytest.mark.parametrize(
        "model",
        [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED],
    )
    def test_means_invariant(self, model):
        n = 16
        state = make_state(
            n, u=1.0 + np.sin(grid(n)), p=np.full(n, -0.3), s=np.full(n, 0.7)
        )
        spec = to_modes(state)
        (out,) = scatter_modes(*evolve(spec, model, 0.1, EV, [2.0]), n)
        assert np.array_equal(out[:, 0], spec.modes[:, 0])

    def test_burnett_at_zero_eps_equals_euler(self):
        n = 16
        spec = to_modes(make_state(n, u=np.sin(grid(n)), p=np.cos(grid(n))))
        (a,) = scatter_modes(*evolve(spec, ModelId.BURNETT, 0.0, EV, [1.3]), n)
        (b,) = scatter_modes(*evolve(spec, ModelId.EULER, 0.0, EV, [1.3]), n)
        assert np.max(np.abs(a - b)) == 0.0

    def test_semigroup(self):
        n = 16
        spec = to_modes(make_state(n, u=np.sin(grid(n)), s=np.cos(2 * grid(n))))
        for model in (ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT):
            (one,) = scatter_modes(*evolve(spec, model, 0.1, EV, [1.7]), n)
            (half,) = scatter_modes(*evolve(spec, model, 0.1, EV, [0.9]), n)
            (two,) = scatter_modes(*evolve(SpectralState(half, n), model, 0.1, EV, [0.8]), n)
            assert np.max(np.abs(one - two)) <= 1e-11

    def test_euler_conserves_energy_and_entropy_norm(self):
        n = 16
        x = grid(n)
        state = make_state(n, u=np.sin(x), p=0.5 * np.cos(2 * x), s=np.sin(3 * x))
        spec = to_modes(state)
        e0 = total_energy(state)
        s_norm0 = float(np.sum(state[2] ** 2))
        for _ in range(100):
            (modes,) = scatter_modes(*evolve(spec, ModelId.EULER, 0.0, EV, [0.05]), n)
            spec = SpectralState(modes, n)
            now = from_modes(spec)
            assert abs(total_energy(now) - e0) <= 1e-10 * e0
            assert abs(float(np.sum(now[2] ** 2)) - s_norm0) <= 1e-10 * s_norm0

    def test_euler_adiabatic_s_constant(self):
        n = 16
        state = make_state(n, u=np.sin(grid(n)), s=np.cos(grid(n)))
        (modes,) = scatter_modes(*evolve(to_modes(state), ModelId.EULER, 0.0, EV, [2.7]), n)
        out = from_modes(SpectralState(modes, n))
        assert np.max(np.abs(out[2] - state[2])) <= 1e-12

    @pytest.mark.parametrize("model", [ModelId.NAVIER_STOKES, ModelId.BURNETT])
    def test_dissipation_monotone(self, model):
        n = 16
        x = grid(n)
        spec = to_modes(make_state(n, u=np.sin(x) + 0.2 * np.sin(5 * x), p=np.cos(2 * x)))
        previous = total_energy(from_modes(spec))
        for _ in range(60):
            spec = SpectralState(scatter_modes(*evolve(spec, model, 0.15, EV, [0.2]), n)[0], n)
            now = total_energy(from_modes(spec))
            assert now <= previous * (1.0 + 1e-12)
            previous = now

    def test_decoupling_equivalence(self):
        n = 32
        x = grid(n)
        state = make_state(n, u=np.sin(x), p=0.4 * np.sin(2 * x + 0.5))
        eps, t = 0.1, 4.0

        (modes,) = scatter_modes(*evolve(to_modes(state), ModelId.BURNETT, eps, EV, [t]), n)
        evolved = from_modes(SpectralState(modes, n))
        rp_direct, rm_direct = riemann_split(evolved[0], evolved[1])

        rp0, rm0 = riemann_split(state[0], state[1])
        riemann_state = make_state(n, u=rp0, p=rm0)
        moved = evolve(to_modes(riemann_state), ModelId.RIEMANN_DECOUPLED, eps, EV, [t])
        (modes,) = scatter_modes(*moved, n)
        riemann_out = from_modes(SpectralState(modes, n))
        assert np.max(np.abs(riemann_out[0] - rp_direct)) <= 1e-10
        assert np.max(np.abs(riemann_out[1] - rm_direct)) <= 1e-10

    def test_moment_reference_rejected(self):
        spec = to_modes(make_state(16, u=np.sin(grid(16))))
        with pytest.raises(ValueError, match="moment_reference needs a state of 5 rows, got 3"):
            evolve(spec, ModelId.MOMENT_REFERENCE, 0.1, EV, [1.0])

    @pytest.mark.parametrize(
        "model",
        [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED],
    )
    def test_five_row_state_rejected_by_hydro_models(self, model):
        spec = SpectralState(np.zeros((5, 9)), 16)
        with pytest.raises(ValueError, match=f"{model.value} needs a state of 3 rows, got 5"):
            evolve(spec, model, 0.1, EV, [1.0])

    def test_zero_dt_is_the_start_and_negative_dt_rejected(self):
        # exp(M 0) = I: a lone 0 returns the state's own modes, bit for bit.
        spec = to_modes(make_state(16, u=np.sin(grid(16)), s=np.cos(3 * grid(16))))
        (start,) = scatter_modes(*evolve(spec, ModelId.EULER, 0.0, EV, [0.0]), 16)
        assert start.tobytes() == spec.modes.tobytes()
        with pytest.raises(ValueError):
            evolve(spec, ModelId.EULER, 0.0, EV, [-0.5])

    @settings(max_examples=25, deadline=None)
    @given(
        values=arrays(
            np.float64,
            (3, 16),
            elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        ),
        model=st.sampled_from(
            [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED]
        ),
        dt=st.floats(0.01, 5.0),
    )
    def test_evolution_keeps_fields_real(self, values, model, dt):
        # The k = 0 and Nyquist modes stay real under propagation for
        # arbitrary real data; from_modes would reject otherwise.
        state = make_state(16, u=values[0], p=values[1], s=values[2])
        (modes,) = scatter_modes(*evolve(to_modes(state), model, 0.1, EV, [dt]), 16)
        out = from_modes(SpectralState(modes, 16))
        assert out.shape == (3, 16)


class TestModalMachinery:
    def test_defective_symbol_falls_back_to_expm(self):
        import scipy.linalg

        from hydrobench._modal import mode_propagators, scatter_modes

        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # defective

        def stack(kappa):
            return np.broadcast_to(jordan, (kappa.size, 2, 2))

        # Column j of every per-mode propagator is the image of basis vector j.
        props = np.stack(
            [
                scatter_modes(*mode_propagators(stack, 5, [0.5], np.outer(e, np.ones(3))), 5)[0]
                for e in np.eye(2)
            ],
            axis=-1,
        )
        expected = scipy.linalg.expm(jordan * 0.5)
        for m in range(3):
            assert np.allclose(props[:, m, :], expected, atol=1e-12)

    def test_nyquist_mode_evolves_as_aliased_pair(self):
        # cos(N/2 x) sampled on the grid is pure Nyquist content; the exact
        # band-limited Euler evolution keeps p = 0 at the nodes and gives
        # u(t) = cos(a0*(N/2)*t) * cos(N/2 x).
        n = 16
        x = grid(n)
        state = make_state(n, u=np.cos((n // 2) * x))
        t = 0.37
        (modes,) = scatter_modes(*evolve(to_modes(state), ModelId.EULER, 0.0, EV, [t]), n)
        out = from_modes(SpectralState(modes, n))
        expected = np.cos(SOUND_SPEED * (n // 2) * t) * np.cos((n // 2) * x)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12
        assert np.max(np.abs(out[1])) <= 1e-12


class TestHermitianCheck:
    def test_one_sided_tiny_spectrum_rejected(self):
        # A 1e-12 imaginary k = 0 or Nyquist mode is all violation, however small.
        for column in (0, -1):
            modes = np.zeros((3, 9), dtype=complex)
            modes[0, column] = 1e-12j
            with pytest.raises(HermitianSymmetryError):
                from_modes(SpectralState(modes, 16))

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_spectrum_rejected(self, value):
        from hydrobench._modal import inverse_modes

        modes = np.zeros((3, 9), dtype=complex)
        modes[1, 3] = value
        with pytest.raises(FloatingPointError, match="non-finite"):
            inverse_modes(modes, 16)

    def test_zero_spectrum_has_no_violation(self):
        from hydrobench._modal import hermitian_violation

        assert hermitian_violation(np.zeros((3, 9), dtype=complex), 16) == 0.0

    @pytest.mark.parametrize("n", [16, 17])
    def test_stack_reads_its_worst_snapshot(self, n):
        # Each (d, m) spectrum of a (T, d, m) stack is measured at its own scale.
        from hydrobench._modal import hermitian_violation

        rng = np.random.default_rng(n)
        scales = np.array([1.0, 1e-6, 1e3, 1e-300, 0.0])
        stack = rng.normal(size=(5, 3, 9)) + 1j * rng.normal(size=(5, 3, 9))
        stack *= scales[:, None, None]
        per_snapshot = [hermitian_violation(snapshot, n) for snapshot in stack]
        assert hermitian_violation(stack, n) == max(per_snapshot)
        assert hermitian_violation(stack[None], n) == max(per_snapshot)

    def test_small_snapshot_refused_beside_a_large_one(self):
        # 1e-8 relative violation in a spectrum of size 1e-6 fails HERMITIAN_TOL,
        # however large the snapshot synthesized with it.
        from hydrobench._modal import HERMITIAN_TOL, hermitian_violation, inverse_modes

        large = np.zeros((3, 9), dtype=complex)
        large[0, 1] = 1e3
        small = np.zeros((3, 9), dtype=complex)
        small[1, 2] = 1e-6
        small[2, 0] = 1e-14j
        block = np.stack([large, small])
        assert hermitian_violation(small, 16) == pytest.approx(1e-8)
        assert hermitian_violation(block, 16) == hermitian_violation(small, 16) > HERMITIAN_TOL
        assert 1e-14 / np.abs(block).max() < HERMITIAN_TOL  # one scale per block would pass it
        with pytest.raises(HermitianSymmetryError):
            inverse_modes(block, 16)
        inverse_modes(large, 16)

    @pytest.mark.parametrize("n", [16, 17])
    def test_a_row_is_one_field(self, n):
        # A 1-D row of n//2 + 1 coefficients synthesizes to the n samples of
        # the same row of a 2-D call, bit for bit, and is measured as a
        # one-row spectrum; a 0-d array fits no grid.
        from hydrobench._modal import hermitian_violation, inverse_modes

        modes = to_modes(np.random.default_rng(n).normal(size=(3, n))).modes
        for row, field in zip(modes, inverse_modes(modes, n)):
            assert np.array_equal(inverse_modes(row, n), field)
        assert np.array_equal(inverse_modes(np.zeros(n // 2 + 1), n), np.zeros(n))
        row = modes[1].copy()
        row[0] += 1e-3j
        assert hermitian_violation(row, n) == hermitian_violation(row[None], n) > 0.0
        with pytest.raises(HermitianSymmetryError):
            inverse_modes(row, n)
        with pytest.raises(ValueError, match="grid size"):
            hermitian_violation(np.zeros(()), n)
        with pytest.raises(ValueError, match="grid size"):  # two values, three columns
            hermitian_violation(np.zeros((3, 2)), n, [0, 1, 2])

    def test_column_count_must_fit_grid_size(self):
        # Nine columns describe a grid of 16 or 17 points, never 15.
        from hydrobench._modal import inverse_modes

        assert from_modes(SpectralState(np.zeros((3, 9)), 17)).shape == (3, 17)
        with pytest.raises(ValueError, match="grid size"):
            SpectralState(np.zeros((3, 9)), 15)
        with pytest.raises(ValueError, match="grid size"):
            inverse_modes(np.zeros((3, 9)), 15)

    def test_row_count_is_three_or_five(self):
        for rows in (1, 2, 4, 6):
            with pytest.raises(ValueError, match="3 or 5"):
                SpectralState(np.zeros((rows, 9)), 16)

    def test_synthesis_refuses_a_five_row_state(self):
        # Rows are read by position: a moment state would become u = n.
        with pytest.raises(ValueError, match="from_modes needs a state of 3 rows, got 5"):
            from_modes(SpectralState(np.zeros((5, 9)), 16))

    @pytest.mark.parametrize("scale", [1e-300, 1e-316, 1e-320, 5e-324])
    def test_tiny_real_fields_synthesize_before_and_after_evolve(self, scale):
        # Subnormal values carry no relative precision, so evolution breaks the
        # symmetry by a few ulps of the smallest double; that is not an error.
        from hydrobench.moment_reference import from_hydro, hydro_projection

        n = 16
        fields = np.random.default_rng(13).normal(size=(3, n)) * scale
        state = make_state(n, u=fields[0], p=fields[1], s=fields[2])
        spec = to_modes(state)
        from_modes(spec)
        times = np.array([0.1, 1.0, 5.0])
        for model in (
            ModelId.EULER,
            ModelId.NAVIER_STOKES,
            ModelId.BURNETT,
            ModelId.RIEMANN_DECOUPLED,
        ):
            for later in scatter_modes(*evolve(spec, model, 0.1, EV, times), n):
                from_modes(SpectralState(later, n))
        moved = evolve(from_hydro(spec), ModelId.MOMENT_REFERENCE, 0.1, EV, times)
        for later in scatter_modes(*moved, n):
            hydro_projection(SpectralState(later, n))


class TestRiemann:
    def test_pure_velocity(self):
        u = np.ones(8)
        p = np.zeros(8)
        rp, rm = riemann_split(u, p)
        assert rp == pytest.approx(np.full(8, SOUND_SPEED))
        assert rm == pytest.approx(np.full(8, SOUND_SPEED))

    def test_pure_pressure(self):
        rp, rm = riemann_split(np.zeros(8), np.ones(8))
        assert rp == pytest.approx(np.ones(8))
        assert rm == pytest.approx(-np.ones(8))

    def test_join_inverts_split(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=32)
        p = rng.normal(size=32)
        u2, p2 = riemann_join(*riemann_split(u, p))
        assert np.max(np.abs(u2 - u)) <= 1e-14
        assert np.max(np.abs(p2 - p)) <= 1e-14


class TestFluxBridge:
    def test_stress_example(self):
        n = 64
        x = grid(n)
        state = make_state(n, u=np.sin(x))
        stress, heat = h1_fluxes(state, EV)
        assert np.max(np.abs(stress - (-4.0 / 3.0) * np.cos(x))) <= 1e-10
        assert np.max(np.abs(heat)) <= 1e-12

    def test_heat_flux_example(self):
        # T = sin x requires p + s = (5/2) sin x; with lambda11 = -2/3 the
        # heat flux is (5/(2*lambda11)) cos x = -(15/4) cos x.
        n = 64
        x = grid(n)
        state = make_state(n, p=2.5 * np.sin(x))
        assert _gradients(state)[0] == pytest.approx(np.sin(x))
        _, heat = h1_fluxes(state, EV)
        assert np.max(np.abs(heat - (-15.0 / 4.0) * np.cos(x))) <= 1e-10

    def test_constant_state_zero_fluxes(self):
        n = 16
        state = make_state(n, u=np.full(n, 0.8), p=np.full(n, -0.1), s=np.full(n, 0.4))
        stress, heat = h1_fluxes(state, EV)
        assert np.max(np.abs(stress)) <= 1e-13
        assert np.max(np.abs(heat)) <= 1e-13

    def test_correction_coefficients(self):
        n = 32
        x = grid(n)
        state = make_state(n, u=np.sin(x))
        correction = first_order_correction(state, EV)
        assert correction.a_velocity == pytest.approx(-np.cos(x), abs=1e-12)
        assert correction.a_temperature == pytest.approx(np.zeros(n), abs=1e-12)

    def test_route_disagreement_raises(self, monkeypatch):
        import hydrobench.hydro_spectral as hs

        # Sabotage the bridge route's normalization lookup to prove the
        # consistency guard trips.
        real_inner = hs.inner

        def skewed_inner(p, q):
            value = real_inner(p, q)
            return value * 2 if value != 0 else value

        monkeypatch.setattr(hs, "inner", skewed_inner)
        n = 32
        state = make_state(n, u=np.sin(grid(n)))
        with pytest.raises(InternalConsistencyError):
            hs.h1_fluxes(state, EV)


def _ragged(n):
    return [np.zeros(n), np.zeros(n), np.zeros(n + 1)]


class TestFieldArrays:
    """Real fields are one (3, N) float array, rows u, p and s."""

    ROUTES = {
        "to_modes": to_modes,
        "h1_fluxes": lambda fields: h1_fluxes(fields, EV),
        "first_order_correction": lambda fields: first_order_correction(fields, EV),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "fields, shape",
        [
            (np.zeros((2, 16)), r"\(2, 16\)"),
            (np.zeros((3, 16, 1)), r"\(3, 16, 1\)"),
            (_ragged(16), ""),
        ],
        ids=["two rows", "three dimensions", "ragged"],
    )
    def test_other_shapes_are_refused_with_their_shape(self, route, fields, shape):
        with pytest.raises(ValueError, match=r"fields must have shape \(3, N\).*" + shape):
            self.ROUTES[route](fields)

    def test_a_list_of_rows_is_the_array(self):
        x = grid(16)
        rows = [np.sin(x), 0.5 * np.cos(2 * x), 0.25 * np.sin(3 * x + 0.1)]
        assert np.array_equal(to_modes(rows).modes, to_modes(np.stack(rows)).modes)
        for got, want in zip(h1_fluxes(rows, EV), h1_fluxes(np.stack(rows), EV)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_refused(self, value):
        # Analysis refuses it before any transform, with one exception type
        # and no numpy warning, where it once became nan fluxes.
        fields = make_state(16, u=np.sin(grid(16)))
        fields[1, 3] = value
        routes = (
            to_modes,
            spectral_derivative,
            lambda f: h1_fluxes(f, EV),
            lambda f: first_order_correction(f, EV),
        )
        for route in routes:
            with pytest.raises(FloatingPointError, match="non-finite field"):
                route(fields)


#: Gap between spectral_derivative and the direct irfft(i k rfft(x)) route,
#: in units of u = 2**-53 times the largest |derivative|: the two differ only
#: in the rfft(x)/N, *N normalization of _modal, exact for N a power of two.
#: Over 20 normal fields of scale 1e-3, 1 and 1e3 at each N of 8-69, 127,
#: 128, 255, 256, 1000, 1001 and 4096, the largest measured was 5.0.
DERIVATIVE_C = 16.0


class TestSpectralDerivative:
    @staticmethod
    def _direct(values):
        n = values.shape[-1]
        k = np.arange(n // 2 + 1).astype(float)
        if n % 2 == 0:
            k[-1] = 0.0
        return np.fft.irfft(1j * k * np.fft.rfft(values), n)

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 63, 64, 255, 256, 1000, 1001])
    def test_matches_the_direct_fft_route(self, n):
        from hydrobench.hydro_spectral import spectral_derivative

        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            values = scale * rng.normal(size=(2, n))
            want = self._direct(values)
            got = spectral_derivative(values)
            assert np.max(np.abs(got - want)) <= DERIVATIVE_C * 2.0**-53 * np.abs(want).max()
            if n & (n - 1) == 0:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [16, 17])
    def test_rows_are_differentiated_alone(self, n):
        from hydrobench.hydro_spectral import spectral_derivative

        values = np.random.default_rng(3).normal(size=(3, n))
        together = spectral_derivative(values)
        for row in range(3):
            assert np.array_equal(together[row], spectral_derivative(values[row : row + 1])[0])

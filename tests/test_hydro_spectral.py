"""Spectral transforms, per-mode evolution, Riemann algebra, flux bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import ModelId
from hydrobench.hydro_spectral import (
    HermitianSymmetryError,
    HydroState,
    InternalConsistencyError,
    SpectralState,
    evolve,
    first_order_correction,
    from_modes,
    h1_fluxes,
    riemann_join,
    riemann_split,
    to_modes,
)

EV = eigenvalue_set(-1)
ACOUSTIC_PERIOD = 2.0 * np.pi / SOUND_SPEED  # 4.8669344111683355


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def make_state(n=16, u=None, p=None, s=None, time=0.0):
    zeros = np.zeros(n)
    return HydroState(
        u=zeros if u is None else u,
        p=zeros if p is None else p,
        s=zeros if s is None else s,
        time=time,
    )


def total_energy(state: HydroState) -> float:
    dx = 2.0 * np.pi / state.grid_size
    return float(dx * np.sum((5.0 / 3.0) * state.u**2 + state.p**2))


class TestTransforms:
    def test_sinusoid_modes(self):
        n = 8
        state = make_state(n, u=np.sin(grid(n)))
        spec = to_modes(state)
        u_modes = spec.field_modes("u")
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
        for name in ("u", "p", "s"):
            assert np.max(np.abs(getattr(back, name) - getattr(state, name))) <= 1e-12

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
        assert np.max(np.abs(back.u - state.u)) <= 1e-12 * scale
        assert np.max(np.abs(back.p - state.p)) <= 1e-12 * scale
        assert np.max(np.abs(back.s - state.s)) <= 1e-12 * scale

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
        state = make_state(n, p=np.full(n, 1.0), s=np.full(n, -1.0))
        assert state.n == pytest.approx(np.full(n, 1.0))
        assert state.temperature == pytest.approx(np.zeros(n), abs=1e-15)


class TestEvolve:
    def test_euler_full_period_returns(self):
        n = 16
        state = make_state(n, u=np.sin(grid(n)))
        spec = evolve(to_modes(state), ModelId.EULER, 0.0, EV, ACOUSTIC_PERIOD)
        back = from_modes(spec)
        assert np.max(np.abs(back.u - state.u)) <= 1e-10
        assert np.max(np.abs(back.p)) <= 1e-10

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
        out = evolve(spec, model, 0.1, EV, 2.0)
        assert np.array_equal(out.modes[:, 0], spec.modes[:, 0])

    def test_burnett_at_zero_eps_equals_euler(self):
        n = 16
        spec = to_modes(make_state(n, u=np.sin(grid(n)), p=np.cos(grid(n))))
        a = evolve(spec, ModelId.BURNETT, 0.0, EV, 1.3)
        b = evolve(spec, ModelId.EULER, 0.0, EV, 1.3)
        assert np.max(np.abs(a.modes - b.modes)) == 0.0

    def test_semigroup(self):
        n = 16
        spec = to_modes(make_state(n, u=np.sin(grid(n)), s=np.cos(2 * grid(n))))
        for model in (ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT):
            one = evolve(spec, model, 0.1, EV, 1.7)
            two = evolve(evolve(spec, model, 0.1, EV, 0.9), model, 0.1, EV, 0.8)
            assert np.max(np.abs(one.modes - two.modes)) <= 1e-11

    def test_euler_conserves_energy_and_entropy_norm(self):
        n = 16
        x = grid(n)
        state = make_state(n, u=np.sin(x), p=0.5 * np.cos(2 * x), s=np.sin(3 * x))
        spec = to_modes(state)
        e0 = total_energy(state)
        s_norm0 = float(np.sum(state.s**2))
        for _ in range(100):
            spec = evolve(spec, ModelId.EULER, 0.0, EV, 0.05)
            now = from_modes(spec)
            assert abs(total_energy(now) - e0) <= 1e-10 * e0
            assert abs(float(np.sum(now.s**2)) - s_norm0) <= 1e-10 * s_norm0

    def test_euler_adiabatic_s_constant(self):
        n = 16
        state = make_state(n, u=np.sin(grid(n)), s=np.cos(grid(n)))
        out = from_modes(evolve(to_modes(state), ModelId.EULER, 0.0, EV, 2.7))
        assert np.max(np.abs(out.s - state.s)) <= 1e-12

    @pytest.mark.parametrize("model", [ModelId.NAVIER_STOKES, ModelId.BURNETT])
    def test_dissipation_monotone(self, model):
        n = 16
        x = grid(n)
        spec = to_modes(make_state(n, u=np.sin(x) + 0.2 * np.sin(5 * x), p=np.cos(2 * x)))
        previous = total_energy(from_modes(spec))
        for _ in range(60):
            spec = evolve(spec, model, 0.15, EV, 0.2)
            now = total_energy(from_modes(spec))
            assert now <= previous * (1.0 + 1e-12)
            previous = now

    def test_decoupling_equivalence(self):
        n = 32
        x = grid(n)
        state = make_state(n, u=np.sin(x), p=0.4 * np.sin(2 * x + 0.5))
        eps, t = 0.1, 4.0

        evolved = from_modes(evolve(to_modes(state), ModelId.BURNETT, eps, EV, t))
        rp_direct, rm_direct = riemann_split(evolved.u, evolved.p)

        rp0, rm0 = riemann_split(state.u, state.p)
        riemann_state = make_state(n, u=rp0, p=rm0)
        riemann_out = from_modes(
            evolve(to_modes(riemann_state), ModelId.RIEMANN_DECOUPLED, eps, EV, t)
        )
        assert np.max(np.abs(riemann_out.u - rp_direct)) <= 1e-10
        assert np.max(np.abs(riemann_out.p - rm_direct)) <= 1e-10

    def test_moment_reference_rejected(self):
        spec = to_modes(make_state(16, u=np.sin(grid(16))))
        with pytest.raises(ValueError, match="moment"):
            evolve(spec, ModelId.MOMENT_REFERENCE, 0.1, EV, 1.0)

    def test_nonpositive_dt_rejected(self):
        spec = to_modes(make_state(16))
        with pytest.raises(ValueError):
            evolve(spec, ModelId.EULER, 0.0, EV, 0.0)

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
        out = from_modes(evolve(to_modes(state), model, 0.1, EV, dt))
        assert out.grid_size == 16


class TestModalMachinery:
    def test_defective_symbol_falls_back_to_expm(self):
        import scipy.linalg

        from hydrobench._modal import mode_propagators

        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # defective

        def stack(kappa):
            return np.broadcast_to(jordan, (kappa.size, 2, 2))

        # Column j of every per-mode propagator is the image of basis vector j.
        props = np.stack(
            [mode_propagators(stack, 5, 0.5, np.outer(e, np.ones(3)))[0] for e in np.eye(2)],
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
        out = from_modes(evolve(to_modes(state), ModelId.EULER, 0.0, EV, t))
        expected = np.cos(SOUND_SPEED * (n // 2) * t) * np.cos((n // 2) * x)
        assert np.max(np.abs(out.u - expected)) <= 1e-12
        assert np.max(np.abs(out.p)) <= 1e-12


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

    def test_column_count_must_fit_grid_size(self):
        # Nine columns describe a grid of 16 or 17 points, never 15.
        from hydrobench._modal import inverse_modes

        assert from_modes(SpectralState(np.zeros((3, 9)), 17)).grid_size == 17
        with pytest.raises(ValueError, match="grid size"):
            SpectralState(np.zeros((3, 9)), 15)
        with pytest.raises(ValueError, match="grid size"):
            inverse_modes(np.zeros((3, 9)), 15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-316, 1e-320, 5e-324])
    def test_tiny_real_fields_synthesize_before_and_after_evolve(self, scale):
        # Subnormal values carry no relative precision, so evolution breaks the
        # symmetry by a few ulps of the smallest double; that is not an error.
        from hydrobench.moment_reference import evolve_moments, from_hydro, hydro_projection

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
            for later in evolve(spec, model, 0.1, EV, times):
                from_modes(later)
        for later in evolve_moments(from_hydro(state, 0.1), EV, times):
            hydro_projection(later)


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
        stress, heat = h1_fluxes(state, EV, 0.1)
        assert np.max(np.abs(stress - (-4.0 / 3.0) * np.cos(x))) <= 1e-10
        assert np.max(np.abs(heat)) <= 1e-12

    def test_heat_flux_example(self):
        # T = sin x requires p + s = (5/2) sin x; with lambda11 = -2/3 the
        # heat flux is (5/(2*lambda11)) cos x = -(15/4) cos x.
        n = 64
        x = grid(n)
        state = make_state(n, p=2.5 * np.sin(x))
        assert state.temperature == pytest.approx(np.sin(x))
        _, heat = h1_fluxes(state, EV, 0.1)
        assert np.max(np.abs(heat - (-15.0 / 4.0) * np.cos(x))) <= 1e-10

    def test_constant_state_zero_fluxes(self):
        n = 16
        state = make_state(n, u=np.full(n, 0.8), p=np.full(n, -0.1), s=np.full(n, 0.4))
        stress, heat = h1_fluxes(state, EV, 0.1)
        assert np.max(np.abs(stress)) <= 1e-13
        assert np.max(np.abs(heat)) <= 1e-13

    def test_correction_coefficients(self):
        n = 32
        x = grid(n)
        state = make_state(n, u=np.sin(x))
        correction = first_order_correction(state, EV)
        assert correction.a_velocity == pytest.approx(-np.cos(x), abs=1e-12)
        assert correction.a_temperature == pytest.approx(np.zeros(n), abs=1e-12)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            h1_fluxes(make_state(16), EV, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            h1_fluxes(make_state(16), EV, eps)

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
            hs.h1_fluxes(state, EV, 0.1)

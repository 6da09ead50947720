"""Independent routes to the numbers of the diagonalize-once propagation engine.

The engine evaluates exp(M t) x for a whole symbol stack at every output time
from one eigendecomposition, on the N//2 + 1 columns of the rfft layout.
These tests reach the same numbers by other routes: scipy's
scaling-and-squaring expm per mode and time over all N indices of the full
DFT layout, an explicit DOP853 integration of dx/dt = M x, and the
composition of single steps (the semigroup property).  All five models run
over an eps grid that puts the k = 1 mode of the moment system on its
exceptional point.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from hydrobench._modal import forward_modes, inverse_modes, mode_propagators, wavenumbers
from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import ModelId, symbol_matrix
from hydrobench.hydro_spectral import HydroState, evolve, from_modes, to_modes
from hydrobench.moment_reference import from_hydro

EV = eigenvalue_set(-1)
TIMES = np.array([0.05, 0.4, 1.3, 3.7])
#: eps * k = 0.30207 is where the moment system's entropy and kinetic-heat
#: branches merge (cond(V) peaks there on a 1e-5 grid in eps); 0.02 stays
#: below it for every resolved k and 1.0 puts every k >= 1 above it.
EPS = (0.02, 0.30207, 1.0)
CASES = [(model, eps) for model in ModelId for eps in EPS]
#: Errors of the eigen route grow like cond(V) * 2.2e-16, with cond(V) < 1e4 here.
EXPM_TOL = 1e-11
#: DOP853 at rtol = atol = 1e-13 over t <= 3.7 (measured within 2e-12).
ODE_TOL = 1e-10


def _random_modes(d: int, n: int, seed: int) -> np.ndarray:
    """Complex coefficients for the n//2 + 1 columns of a grid of n points."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, n // 2 + 1)) + 1j * rng.normal(size=(d, n // 2 + 1))


def _symbol_stack(model, eps):
    return lambda kappa: symbol_matrix(model, kappa, eps, EV)


@pytest.mark.parametrize("model,eps", CASES)
def test_every_time_matches_expm_per_mode(model, eps):
    # The reference keeps all N modes in numpy fft layout, where index m
    # carries plane wavenumber -fftfreq(N)[m], and synthesizes with
    # ifft(...).real.  That real part is the Nyquist rule Re exp(M t) of an
    # even grid, since the Nyquist basis function is real.
    d = model.dimension
    for n in (16, 15):
        fields = np.random.default_rng(3).normal(size=(d, n))
        got = mode_propagators(_symbol_stack(model, eps), n, TIMES, forward_modes(fields))
        assert got.shape == (TIMES.size, d, n // 2 + 1)
        full = np.fft.fft(fields, axis=-1) / n
        k_full = np.fft.fftfreq(n, d=1.0 / n)
        mats = symbol_matrix(model, -k_full, eps, EV)
        for row, t in enumerate(TIMES):
            moved = np.stack([scipy.linalg.expm(mats[m] * t) @ full[:, m] for m in range(n)], 1)
            want = np.fft.ifft(moved * n, axis=-1).real
            scale = max(1.0, float(np.max(np.abs(want))))
            gap = np.max(np.abs(inverse_modes(got[row], n) - want))
            assert gap <= EXPM_TOL * scale, (n, t)


@pytest.mark.parametrize("model,eps", CASES)
def test_every_time_matches_dop853(model, eps):
    # Odd n: no Nyquist index, so every mode obeys dx/dt = M(-k_m) x exactly.
    n = 15
    d = model.dimension
    x0 = _random_modes(d, n, seed=5)
    mats = symbol_matrix(model, -wavenumbers(n).astype(float), eps, EV)

    def rhs(_t, y):
        return np.einsum("mij,jm->im", mats, y.reshape(x0.shape)).ravel()

    sol = solve_ivp(
        rhs, (0.0, TIMES[-1]), x0.ravel(), method="DOP853", t_eval=TIMES, rtol=1e-13, atol=1e-13
    )
    assert sol.success
    want = sol.y.T.reshape(TIMES.size, *x0.shape)
    got = mode_propagators(_symbol_stack(model, eps), n, TIMES, x0)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= ODE_TOL * scale


@pytest.mark.parametrize("model,eps", CASES)
def test_times_array_equals_composed_steps(model, eps):
    # Odd n: the Nyquist rule is no semigroup, since Re P(a) Re P(b) != Re P(a + b);
    # each output time gets the direct band-limited value instead (tested below).
    n = 15
    rng = np.random.default_rng(7)
    fields = rng.normal(size=(3, n))
    state = HydroState(u=fields[0], p=fields[1], s=fields[2])
    current = from_hydro(state) if model is ModelId.MOMENT_REFERENCE else to_modes(state)
    series = evolve(current, model, eps, EV, TIMES)

    def step(s, dt):
        (later,) = evolve(s, model, eps, EV, [dt])
        return later

    assert len(series) == TIMES.size
    for dt, expected in zip(np.diff(TIMES, prepend=0.0), series):
        current = step(current, float(dt))
        scale = max(1.0, float(np.max(np.abs(expected.modes))))
        assert np.max(np.abs(current.modes - expected.modes)) <= EXPM_TOL * scale


def test_scalar_time_is_refused():
    # times is always a 1-D array; one output time is a one-element array.
    n = 16
    x = 2.0 * np.pi * np.arange(n) / n
    spec = to_modes(HydroState(u=np.sin(x), p=np.cos(2 * x), s=0.5 * np.sin(3 * x)))
    for times in (1.3, np.float64(1.3), np.array(1.3)):
        with pytest.raises(ValueError, match="times"):
            evolve(spec, ModelId.BURNETT, 0.1, EV, times)
        with pytest.raises(ValueError, match="times"):
            mode_propagators(_symbol_stack(ModelId.BURNETT, 0.1), n, times, spec.modes)
    (later,) = evolve(spec, ModelId.BURNETT, 0.1, EV, [1.3])
    assert later.modes.shape == spec.modes.shape


def test_defective_symbol_falls_back_to_expm_at_every_time():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # defective
    x0 = _random_modes(2, 5, seed=11)  # 3 columns, no Nyquist

    def stack(kappa):
        return np.broadcast_to(jordan, (kappa.size, 2, 2))

    got = mode_propagators(stack, 5, TIMES, x0)
    for row, t in enumerate(TIMES):
        want = scipy.linalg.expm(jordan * t) @ x0
        assert np.max(np.abs(got[row] - want)) <= 1e-12 * float(np.max(np.abs(want)))


def test_nyquist_mode_evolves_as_aliased_pair_at_every_time():
    # cos(N/2 x) is pure Nyquist content; exact band-limited Euler evolution
    # keeps p = 0 at the nodes and gives u(t) = cos(a0*(N/2)*t) * cos(N/2 x).
    n = 16
    x = 2.0 * np.pi * np.arange(n) / n
    spec = to_modes(HydroState(u=np.cos((n // 2) * x), p=np.zeros(n), s=np.zeros(n)))
    for t, later in zip(TIMES, evolve(spec, ModelId.EULER, 0.0, EV, TIMES)):
        out = from_modes(later)
        expected = np.cos(SOUND_SPEED * (n // 2) * t) * np.cos((n // 2) * x)
        assert np.max(np.abs(out.u - expected)) <= 1e-12
        assert np.max(np.abs(out.p)) <= 1e-12


@pytest.mark.parametrize("times", [[], [0.0, 1.0], [1.0, 0.5], [0.5, 0.5], [[0.5]], -1.0])
def test_times_must_be_positive_and_ascending(times):
    spec = to_modes(HydroState(u=np.zeros(8), p=np.zeros(8), s=np.zeros(8)))
    with pytest.raises(ValueError):
        evolve(spec, ModelId.EULER, 0.0, EV, np.asarray(times, dtype=float))


@pytest.mark.parametrize("model", list(ModelId))
def test_symbol_stack_matches_scalar_symbols(model):
    k = np.array([-2.5, 0.0, 0.7, 3.0])
    stack = symbol_matrix(model, k, 0.1, EV)
    assert stack.shape == (k.size, model.dimension, model.dimension)
    for i, kappa in enumerate(k):
        assert np.array_equal(stack[i], symbol_matrix(model, float(kappa), 0.1, EV))

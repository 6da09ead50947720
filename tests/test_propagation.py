"""Independent routes to the numbers of the exponentiate-once propagation engine.

The engine evaluates exp(M t) x for a whole symbol stack at every output time,
on the N//2 + 1 columns of the rfft layout, in the real coordinates
S^-1 M S of the four parity models: in closed form for the acoustic pair of
Euler, Navier-Stokes and Burnett, from one eigendecomposition for the moment
system, and with no eig at all for the diagonal Riemann-decoupled symbol.
These tests reach the same numbers by other routes: scipy's
scaling-and-squaring expm per mode and time over all N indices of the full
DFT layout, an explicit DOP853 integration of dx/dt = M x, and the
composition of single steps (the semigroup property).  All five models run
over an eps grid that puts the k = 1 mode of the moment system on its
exceptional point.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from hydrobench import _modal
from hydrobench._modal import (
    acoustic_frequency,
    exp_action,
    forward_modes,
    inverse_modes,
    mode_propagators,
    real_coordinates,
    scatter_modes,
    wavenumbers,
)
from hydrobench.cli import main
from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import ModelId, parity_scale, symbol_matrix
from hydrobench.hydro_spectral import SpectralState, evolve, from_modes, to_modes
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
        pair = mode_propagators(_symbol_stack(model, eps), n, TIMES, forward_modes(fields))
        got = scatter_modes(*pair, n)
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
    got = scatter_modes(*mode_propagators(_symbol_stack(model, eps), n, TIMES, x0), n)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= ODE_TOL * scale


@pytest.mark.parametrize("model,eps", CASES)
def test_times_array_equals_composed_steps(model, eps):
    # Odd n: the Nyquist rule is no semigroup, since Re P(a) Re P(b) != Re P(a + b);
    # each output time gets the direct band-limited value instead (tested below).
    n = 15
    rng = np.random.default_rng(7)
    current = to_modes(rng.normal(size=(3, n)))
    if model is ModelId.MOMENT_REFERENCE:
        current = from_hydro(current)
    series = scatter_modes(*evolve(current, model, eps, EV, TIMES), n)

    def step(s, dt):
        (later,) = scatter_modes(*evolve(s, model, eps, EV, [dt]), n)
        return SpectralState(later, n)

    assert series.shape == (TIMES.size, *current.modes.shape)
    for dt, expected in zip(np.diff(TIMES, prepend=0.0), series):
        current = step(current, float(dt))
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(current.modes - expected)) <= EXPM_TOL * scale


def test_scalar_time_is_refused():
    # times is always a 1-D array; one output time is a one-element array.
    n = 16
    x = 2.0 * np.pi * np.arange(n) / n
    spec = to_modes(np.stack([np.sin(x), np.cos(2 * x), 0.5 * np.sin(3 * x)]))
    for times in (1.3, np.float64(1.3), np.array(1.3)):
        with pytest.raises(ValueError, match="times"):
            evolve(spec, ModelId.BURNETT, 0.1, EV, times)
        with pytest.raises(ValueError, match="times"):
            mode_propagators(_symbol_stack(ModelId.BURNETT, 0.1), n, times, spec.modes)
    (later,) = scatter_modes(*evolve(spec, ModelId.BURNETT, 0.1, EV, [1.3]), n)
    assert later.shape == spec.modes.shape


def test_defective_symbol_falls_back_to_expm_at_every_time():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # defective
    x0 = _random_modes(2, 5, seed=11)  # 3 columns, no Nyquist

    def stack(kappa):
        return np.broadcast_to(jordan, (kappa.size, 2, 2))

    got = scatter_modes(*mode_propagators(stack, 5, TIMES, x0), 5)
    for row, t in enumerate(TIMES):
        want = scipy.linalg.expm(jordan * t) @ x0
        assert np.max(np.abs(got[row] - want)) <= 1e-12 * float(np.max(np.abs(want)))


def test_nyquist_mode_evolves_as_aliased_pair_at_every_time():
    # cos(N/2 x) is pure Nyquist content; exact band-limited Euler evolution
    # keeps p = 0 at the nodes and gives u(t) = cos(a0*(N/2)*t) * cos(N/2 x).
    n = 16
    x = 2.0 * np.pi * np.arange(n) / n
    spec = to_modes(np.stack([np.cos((n // 2) * x), np.zeros(n), np.zeros(n)]))
    for t, later in zip(TIMES, scatter_modes(*evolve(spec, ModelId.EULER, 0.0, EV, TIMES), n)):
        out = from_modes(SpectralState(later, n))
        expected = np.cos(SOUND_SPEED * (n // 2) * t) * np.cos((n // 2) * x)
        assert np.max(np.abs(out[0] - expected)) <= 1e-12
        assert np.max(np.abs(out[1])) <= 1e-12


@pytest.mark.parametrize(
    "times",
    [[], [-0.5, 1.0], [1.0, 0.5], [0.5, 0.5], [[0.5]], -1.0, [0.0, np.nan]]
    + [[0.0, np.inf], [np.inf], [np.inf, np.inf]],
)
def test_times_must_be_nonnegative_and_ascending(times):
    # A non-finite time is refused before any arithmetic: t = inf once made
    # the Navier-Stokes propagator warn of an invalid value in sin.
    spec = to_modes(np.zeros((3, 8)))
    with pytest.raises(ValueError, match="times must be a nonempty 1-D array, ascending"):
        evolve(spec, ModelId.NAVIER_STOKES, 0.1, EV, np.asarray(times, dtype=float))


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("model", list(ModelId))
def test_a_leading_zero_is_the_start(model, n):
    # exp(M 0) = I with no arithmetic: row 0 is the modes bit for bit, and
    # the later rows are those of the positive times alone.
    spec = to_modes(np.random.default_rng(n).normal(size=(3, n)))
    if model is ModelId.MOMENT_REFERENCE:
        spec = from_hydro(spec)
    moved = scatter_modes(*evolve(spec, model, 0.1, EV, np.concatenate([[0.0], TIMES])), n)
    assert moved[0].tobytes() == spec.modes.tobytes()
    later = scatter_modes(*evolve(spec, model, 0.1, EV, TIMES), n)
    assert moved[1:].tobytes() == later.tobytes()


def test_the_start_keeps_its_nyquist_column():
    # The even grid's Nyquist rule, Re(P x), is for propagated rows: a start
    # whose Nyquist mode holds an imaginary part within HERMITIAN_TOL is
    # returned as given.
    spec = to_modes(np.random.default_rng(3).normal(size=(3, 16)))
    modes = spec.modes.copy()
    modes[:, -1] += 1e-3 * _modal.HERMITIAN_TOL * np.abs(modes).max() * 1j
    scale = parity_scale(ModelId.BURNETT)
    pair = mode_propagators(_symbol_stack(ModelId.BURNETT, 0.1), 16, [0.0, 1.0], modes, scale)
    moved = scatter_modes(*pair, 16)
    assert moved[0].tobytes() == modes.tobytes()
    assert not moved[1, :, -1].imag.any()


@pytest.mark.parametrize("model", list(ModelId))
def test_symbol_stack_matches_scalar_symbols(model):
    k = np.array([-2.5, 0.0, 0.7, 3.0])
    stack = symbol_matrix(model, k, 0.1, EV)
    assert stack.shape == (k.size, model.dimension, model.dimension)
    for i, kappa in enumerate(k):
        assert np.array_equal(stack[i], symbol_matrix(model, float(kappa), 0.1, EV))


# The parity-scaled route, mode by mode -----------------------------------

U = 2.0**-53
#: eps*k of the moment system's real exceptional point (lambda02 = -1).
EXCEPTIONAL_EPS_K = 0.3020703897662709
PARITY_MODELS = [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT, ModelId.MOMENT_REFERENCE]
#: Errors of the real route in units of u*||expm(M t)||_2*||x||_2, per mode and
#: time, over random starts drawn with seeds 1-8.  Away from the exceptional
#: point the largest measured was 904 (Navier-Stokes at eps = 1, where |M t|
#: reaches 100 and exp(z) has condition number |z|); diagonalizing the
#: complex M itself read 771 with seed 3 there.
FAR_C = 2048
#: Within 1e-3 of the exceptional point, for k = 1 and k = 2, the error grows
#: with cond(V) as eps*k nears it; the largest measured was 2556, at
#: eps = 0.30207 (3.9e-7 below it), where the complex M read 2067 with
#: seed 3.  At the point itself cond(V) reaches 3.5e8 and either route errs
#: by about 1e8 u, which the defect screen lets through.
NEAR_C = 8192
NEAR_EPS = tuple(EXCEPTIONAL_EPS_K + np.array([-1e-3, -4e-4, -1e-5, 1e-5, 1e-4, 9e-4])) + (
    0.30207,
    (EXCEPTIONAL_EPS_K - 1e-5) / 2,
    (EXCEPTIONAL_EPS_K + 2e-4) / 2,
)


def _expm_gaps(model, eps, n, seed):
    """Each mode's gap from expm(M t) x per time, in units of u*||expm(M t)||*||x||."""
    x = forward_modes(np.random.default_rng(seed).normal(size=(model.dimension, n)))
    pair = mode_propagators(_symbol_stack(model, eps), n, TIMES, x, parity_scale(model))
    got = scatter_modes(*pair, n)
    mats = symbol_matrix(model, -wavenumbers(n).astype(float), eps, EV)
    gaps = np.empty((TIMES.size, n // 2 + 1))
    for row, t in enumerate(TIMES):
        for m in range(n // 2 + 1):
            propagator = scipy.linalg.expm(mats[m] * t)
            want = propagator @ x[:, m]
            if n % 2 == 0 and m == n // 2:
                want = want.real  # the Nyquist rule Re(P x), on a real x
            unit = U * np.linalg.norm(propagator, 2) * np.linalg.norm(x[:, m])
            gaps[row, m] = np.linalg.norm(got[row, :, m] - want) / unit
    return gaps


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("eps", [0.02, 0.1, 1.0])
@pytest.mark.parametrize("model", PARITY_MODELS)
def test_real_route_matches_expm_per_mode(model, eps, n):
    assert np.max(_expm_gaps(model, eps, n, seed=3)) <= FAR_C


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("eps", NEAR_EPS)
@pytest.mark.parametrize("model", PARITY_MODELS)
def test_real_route_matches_expm_at_the_exceptional_point(model, eps, n):
    assert np.max(_expm_gaps(model, eps, n, seed=4)) <= NEAR_C


def test_scaled_symbol_with_an_imaginary_part_is_refused():
    # A real u-p coupling breaks the parity structure: S^-1 M S is then complex,
    # and its imaginary part must not be dropped.
    def broken(kappa):
        mats = symbol_matrix(ModelId.EULER, kappa, 0.0, EV)
        mats[:, 0, 1] += 1e-3
        return mats

    x = _random_modes(3, 16, seed=2)
    with pytest.raises(ValueError, match="not real"):
        mode_propagators(broken, 16, TIMES, x, parity_scale(ModelId.EULER))


def test_real_defective_stack_falls_back_to_expm_of_the_real_matrix(monkeypatch):
    # M = S J S^-1 with a real J that holds a Jordan block in rows 1-2, so the
    # scaled route sees the real defective J.  Its (1, 2) coupling lies
    # outside the acoustic pair, so J goes to eig, the screen flags it, and
    # expm runs on it at every time.
    jordan = np.array([[-1.0, 0.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -0.5]])
    scale = np.array([1.0, 1j, 1.0])
    symbol = jordan * np.outer(scale, scale.conj())
    x0 = _random_modes(3, 5, seed=11)  # 3 columns, no Nyquist
    calls = []
    expm = scipy.linalg.expm

    def stack(kappa):
        return np.broadcast_to(symbol, (kappa.size, 3, 3))

    def recording(matrix):
        calls.append(matrix.dtype)
        return expm(matrix)

    monkeypatch.setattr(scipy.linalg, "expm", recording)
    got = scatter_modes(*mode_propagators(stack, 5, TIMES, x0, scale), 5)
    assert calls == [np.dtype(float)] * (3 * TIMES.size)
    monkeypatch.undo()
    for row, t in enumerate(TIMES):
        want = scipy.linalg.expm(symbol * t) @ x0
        assert np.max(np.abs(got[row] - want)) <= 1e-12 * float(np.max(np.abs(want)))


def test_real_jordan_pair_takes_the_closed_form_without_expm(monkeypatch):
    # A 2x2 Jordan block is an acoustic pair with w = 0: exp(d t) [[1, a t], [0, 1]]
    # in closed form, with no eig, no screen and no expm.
    jordan = np.array([[-0.5, 1.0], [0.0, -0.5]])
    scale = np.array([1.0, 1j])
    symbol = jordan * np.outer(scale, scale.conj())
    x0 = _random_modes(2, 5, seed=11)
    calls = []

    def stack(kappa):
        return np.broadcast_to(symbol, (kappa.size, 2, 2))

    def refused(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the closed form calls neither eig nor expm")

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "expm", refused)
        patch.setattr(np.linalg, "eig", refused)
        got = scatter_modes(*mode_propagators(stack, 5, TIMES, x0, scale), 5)
    assert calls == []
    for row, t in enumerate(TIMES):
        want = scipy.linalg.expm(symbol * t) @ x0
        assert np.max(np.abs(got[row] - want)) <= 1e-14 * float(np.max(np.abs(want)))


def test_real_stack_with_real_eigenvalues_acts_on_complex_vectors():
    # numpy's eig returns float64 eigenvalues and eigenvectors for this stack;
    # the complex coefficients of a half spectrum must still propagate.
    mats = np.array([[[-1.0, 2.0], [0.0, 0.5]], [[0.3, 0.0], [1.0, -2.0]]])
    assert np.linalg.eig(mats)[0].dtype == np.float64
    x = _random_modes(2, 3, seed=1)  # two columns
    got = np.concatenate([block for _, block in exp_action(mats, x, TIMES)])
    for row, t in enumerate(TIMES):
        for m in range(2):
            want = scipy.linalg.expm(mats[m] * t) @ x[:, m]
            assert np.max(np.abs(got[row, :, m] - want)) <= 1e-13 * np.max(np.abs(want))


def _eig_route(mats, x, times):
    """The engine's general V exp(Lambda t) V^-1 x route, applied to any stack."""
    eigvals, eigvecs = np.linalg.eig(mats)
    coeffs = np.einsum("mij,jm->mi", np.linalg.inv(eigvecs), x)
    phases = np.exp(np.multiply.outer(times, eigvals)) * coeffs
    return np.einsum("mij,tmj->tim", eigvecs, phases)


@pytest.mark.parametrize("n", [16, 17, 256])
def test_diagonal_riemann_stack_gives_the_eig_route_bit_for_bit(n):
    # The Riemann-decoupled symbol is diagonal: its eigenvalues are its
    # diagonal and its eigenvectors the identity, so the shortcut with no
    # eig must reproduce the eig route exactly, and with it evolve's bytes.
    model = ModelId.RIEMANN_DECOUPLED
    assert parity_scale(model) is None
    x = forward_modes(np.random.default_rng(n).normal(size=(3, n)))
    mats = symbol_matrix(model, -wavenumbers(n).astype(float), 0.1, EV)
    want = _eig_route(mats, x, TIMES)
    if n % 2 == 0:
        want[:, :, -1] = want[:, :, -1].real
    got = scatter_modes(*mode_propagators(_symbol_stack(model, 0.1), n, TIMES, x), n)
    assert np.array_equal(got, want)
    # array_equal takes -0.0 for 0.0, and a CSV does not.
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


# The acoustic pair's closed form --------------------------------------------

HYDRO_MODELS = [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT]
#: Output times up to |lambda| t = 1.0e4 (k = 8 at t = 1000).
LONG_TIMES = np.array([0.05, 1.3, 37.0, 1000.0])
#: Errors of the closed form in units of u*(1 + t*|lambda|)*||x||_2 per mode and
#: time, where |lambda| is the largest eigenvalue modulus of M: phase rounding
#: grows with t*|lambda| on every route.  Over seeds 1-8, eps 0.01, 0.1 and 1
#: and N = 15, 16 and 64 the largest measured against scipy's expm was 2.86
#: (Euler, N = 64).
PAIR_C = 8.0


def _scaled_stack(model, k, eps):
    """The real parity-scaled stack S^-1 M S at wavenumbers k."""
    scale = parity_scale(model)
    return (symbol_matrix(model, k, eps, EV) * np.outer(scale.conj(), scale)).real


def _pair_gap(got, mats, x, times, nyquist=False):
    """Largest gap of got (T, d, N) to expm(M t) x in units of u*(1 + t|lambda|)*||x||."""
    worst = 0.0
    for row, t in enumerate(times):
        for m, matrix in enumerate(mats):
            want = scipy.linalg.expm(matrix * t) @ x[:, m]
            if nyquist and m == len(mats) - 1:
                want = want.real  # the Nyquist rule Re(P x), on a real x
            rate = float(np.abs(np.linalg.eigvals(matrix)).max())
            unit = U * (1.0 + t * rate) * np.linalg.norm(x[:, m])
            worst = max(worst, float(np.linalg.norm(got[row, :, m] - want)) / unit)
    return worst


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("model", HYDRO_MODELS)
def test_closed_form_matches_expm_per_mode(model, eps, n):
    mats = _scaled_stack(model, -wavenumbers(n).astype(float), eps)
    assert acoustic_frequency(mats) is not None
    x = forward_modes(np.random.default_rng(5).normal(size=(3, n)))
    pair = mode_propagators(_symbol_stack(model, eps), n, LONG_TIMES, x, parity_scale(model))
    got = scatter_modes(*pair, n)
    mats = symbol_matrix(model, -wavenumbers(n).astype(float), eps, EV)
    assert _pair_gap(got, mats, x, LONG_TIMES, nyquist=n % 2 == 0) <= PAIR_C


@pytest.mark.parametrize("model", HYDRO_MODELS)
def test_closed_form_at_subnormal_wavenumbers(model):
    # w = sqrt|a| sqrt|b| stays nonzero down to k = 5e-324, where a*b would
    # underflow to zero; theta = w t is subnormal, sin(theta)/theta is 1, and
    # Sn = t exactly.  The k = 0 column is the identity.
    k = np.array([0.0, -5e-324, -1e-320, -2.2e-308, -1e-300])
    mats = _scaled_stack(model, k, 0.1)
    omega = acoustic_frequency(mats)
    assert omega[0] == 0 and np.all(omega[1:] > 0)
    x = _random_modes(3, 2 * k.size - 1, seed=13)
    with np.errstate(all="raise", under="ignore"):
        got = np.concatenate([block for _, block in exp_action(mats, x, LONG_TIMES)])
    assert np.array_equal(got[:, :, 0], np.broadcast_to(x[:, 0], (LONG_TIMES.size, 3)))
    assert _pair_gap(got, mats, x, LONG_TIMES) <= PAIR_C
    for row, t in enumerate(LONG_TIMES):
        # Subnormal: exp(d t) = 1 and C = 1, so row 0 is x0 + a t x1 on the nose.
        assert np.array_equal(got[row, 0, 1:2], x[0, 1:2] + (mats[1, 0, 1] * t) * x[1, 1:2])


def _pair_like():
    """A real acoustic-pair stack of Burnett shape with nonzero d, a, b and e."""
    return _scaled_stack(ModelId.BURNETT, -np.arange(1.0, 6.0), 0.1)


def _with_eig_recorded(monkeypatch, mats, x):
    calls = []
    eig = np.linalg.eig

    def recording(matrix):
        calls.append(matrix.shape)
        return eig(matrix)

    monkeypatch.setattr(np.linalg, "eig", recording)
    got = np.concatenate([block for _, block in exp_action(mats, x, TIMES)])
    monkeypatch.undo()
    return calls, got


def _one_ulp_off_diagonal(mats):
    mats[2, 1, 1] = np.nextafter(mats[2, 1, 1], 0.0)
    return mats


def _extra_coupling(mats):
    mats[3, 0, 2] = 1e-300
    return mats


def _same_sign(mats):
    mats[4, 1, 0] = -mats[4, 1, 0]
    return mats


@pytest.mark.parametrize("miss", [_one_ulp_off_diagonal, _extra_coupling, _same_sign])
def test_stack_off_the_pattern_goes_to_eig(monkeypatch, miss):
    # One matrix of the stack misses the pattern, so the whole stack takes
    # the eig route, which still matches expm.
    mats = _pair_like()
    assert acoustic_frequency(mats) is not None
    mats = miss(mats)
    assert acoustic_frequency(mats) is None
    x = _random_modes(3, 9, seed=17)  # five columns
    calls, got = _with_eig_recorded(monkeypatch, mats, x)
    assert calls == [mats.shape]
    for row, t in enumerate(TIMES):
        for m in range(mats.shape[0]):
            want = scipy.linalg.expm(mats[m] * t) @ x[:, m]
            assert np.max(np.abs(got[row, :, m] - want)) <= 1e-12 * np.max(np.abs(want))


def test_only_real_hydro_stacks_are_acoustic_pairs(monkeypatch):
    # The unscaled complex symbol is the same pair in other coordinates, but
    # only a real stack takes the closed form; the moment system couples more.
    k = -wavenumbers(16).astype(float)
    assert acoustic_frequency(symbol_matrix(ModelId.EULER, k, 0.1, EV)) is None
    assert acoustic_frequency(_scaled_stack(ModelId.MOMENT_REFERENCE, k, 0.1)) is None
    x = _random_modes(3, 16, seed=19)
    calls, _ = _with_eig_recorded(monkeypatch, _pair_like(), x[:, :5])
    assert calls == []


@pytest.mark.parametrize("model", ["euler", "navier_stokes", "burnett"])
@pytest.mark.parametrize("n", ["16", "15"])
def test_cli_run_with_a_flat_k0_column_raises_nothing(tmp_path, model, n):
    # The k = 0 column has theta = 0 at every time; Sn = t there is set, not
    # divided, so invalid = "raise" finds no 0/0.  A run propagates only the
    # IC's columns, which never include k = 0, so the flat column itself is
    # reached through evolve, from fields with a mean.
    argv = ["evolve", "--model", model, "--ic", "u:1:1,p:2:0.5:0.3,s:3:0.2", "--eps", "0.1"]
    argv += ["--tmax", "2", "--dt-out", "0.5", "--grid-size", n, "--out", str(tmp_path / "x.csv")]
    fields = np.random.default_rng(int(n)).normal(size=(3, int(n))) + 0.5
    start = to_modes(fields)
    with np.errstate(all="raise", under="ignore"):
        assert main(argv) == 0
        evolve(start, ModelId(model), 0.1, EV, TIMES)


# Propagating only the occupied columns --------------------------------------


def _dense_propagators(symbol_stack, n, times, modes, scale=None):
    """The dense (T, d, N//2 + 1) array mode_propagators returned before it
    returned the occupied columns alone: the same arithmetic on the occupied
    columns, scattered into exact zeros."""
    times = _modal.check_times(times)
    occupied = np.flatnonzero(np.any(modes, axis=0))
    mats = real_coordinates(symbol_stack(-wavenumbers(n)[occupied].astype(float)), scale)
    vectors = modes[:, occupied]
    if scale is not None:
        vectors = vectors * scale.conj()[:, None]
    out = np.zeros((times.size, len(modes), n // 2 + 1), dtype=complex)
    start = int(times[0] == 0.0)
    out[:start] = modes
    later = out[start:]
    if occupied.size:
        for rows, block in exp_action(mats, vectors, times[start:]):
            later[rows, :, occupied] = block if scale is None else block * scale[:, None]
    if n % 2 == 0:
        later[:, :, -1] = later[:, :, -1].real
    return out


def _sparse_modes(d, n, seed, share):
    """Random complex modes on about `share` of the columns; a complex k = 0
    column keeps its imaginary part at every time, for the Hermitian check."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n // 2 + 1) < share, _random_modes(d, n, seed), 0)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 63, 64, 255, 256, 511, 512])
@pytest.mark.parametrize("model", list(ModelId))
def test_the_pair_scatters_to_the_dense_result_bit_for_bit(model, n):
    # columns are the occupied columns of the start, values the C-contiguous
    # (T, d, m) modes there, and their scatter is the dense array, -0.0
    # included; the Hermitian check of the pair reads what the dense check
    # reads.
    d, symbol, scale = model.dimension, _symbol_stack(model, 0.1), parity_scale(model)
    for seed, share in enumerate((0.05, 0.3, 1.0)):
        modes = _sparse_modes(d, n, seed=[n, d, seed], share=share)
        for times in (TIMES, np.concatenate([[0.0], TIMES])):
            columns, values = mode_propagators(symbol, n, times, modes, scale)
            assert np.array_equal(columns, np.flatnonzero(np.any(modes, axis=0)))
            assert values.shape == (times.size, d, columns.size)
            assert values.flags.c_contiguous
            got = scatter_modes(columns, values, n)
            want = _dense_propagators(symbol, n, times, modes, scale)
            assert got.tobytes() == want.tobytes(), (seed, times[0])
            violation = _modal.hermitian_violation(values, n, columns)
            assert violation == _modal.hermitian_violation(want, n)


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("model", list(ModelId))
def test_the_occupied_columns_are_those_with_a_nonzero_entry(model, n):
    # k = 0 alone, the even grid's Nyquist column occupied and empty, and a
    # column occupied by one row only.
    d, last = model.dimension, n // 2
    for occupied in ([0], [0, last], [3, last], [1, 3], [last]):
        modes = np.zeros((d, n // 2 + 1), dtype=complex)
        modes[-1, occupied] = 0.5
        modes[0, 3] = 0.25
        columns, values = mode_propagators(
            _symbol_stack(model, 0.1), n, TIMES, modes, parity_scale(model)
        )
        assert np.array_equal(columns, np.flatnonzero(np.any(modes, axis=0)))
        assert (last in columns) == (last in occupied)
        if n % 2 == 0 and last in columns:  # the Nyquist rule Re(P x)
            assert not values[:, :, -1].imag.any()


@pytest.mark.parametrize("n", [15, 16, 64])
@pytest.mark.parametrize("model", list(ModelId))
def test_empty_columns_are_skipped_and_the_rest_keep_their_bits(n, model):
    # Zeroing columns of a dense spectrum leaves every other column's bits
    # as the dense propagation made them, whatever route the smaller stack
    # takes (a lone k = 0 column is diagonal for every model), and the
    # zeroed columns are not returned.  The symbol is built at the
    # occupied wavenumbers only.
    d = model.dimension
    dense = _random_modes(d, n, seed=n)
    for eps in EPS:
        every, full = mode_propagators(
            _symbol_stack(model, eps), n, TIMES, dense, parity_scale(model)
        )
        assert np.array_equal(every, wavenumbers(n))
        rng = np.random.default_rng([n, d, int(1e5 * eps)])
        subsets = [rng.random(n // 2 + 1) < share for share in (0.1, 0.5, 0.9)]
        subsets += [wavenumbers(n) == 0, wavenumbers(n) == n // 2]
        for keep in subsets:
            built = []

            def stack(kappa):
                built.append(kappa)
                return symbol_matrix(model, kappa, eps, EV)

            start = np.where(keep, dense, 0)
            columns, got = mode_propagators(stack, n, TIMES, start, parity_scale(model))
            assert np.array_equal(columns, np.flatnonzero(keep))
            assert np.array_equal(built[0], -wavenumbers(n)[keep].astype(float))
            assert got.tobytes() == np.ascontiguousarray(full[..., keep]).tobytes(), (eps, keep)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("model", list(ModelId))
def test_all_zero_modes_propagate_to_zeros_without_exp_action(monkeypatch, n, model):
    # exp_action sizes its blocks by the column count, so an empty stack would
    # divide by zero; the symbol is still built, empty, and checks eps.
    def refused(*args):
        raise AssertionError("exp_action runs on no empty stack")

    monkeypatch.setattr(_modal, "exp_action", refused)
    zeros = np.zeros((model.dimension, n // 2 + 1), dtype=complex)
    for times in (TIMES, np.concatenate([[0.0], TIMES])):
        columns, values = mode_propagators(
            _symbol_stack(model, 0.1), n, times, zeros, parity_scale(model)
        )
        assert columns.size == 0
        assert values.shape == (times.size, model.dimension, 0)
        assert not scatter_modes(columns, values, n).any()
    with pytest.raises(ValueError, match="eps"):
        mode_propagators(_symbol_stack(model, np.nan), n, TIMES, zeros, parity_scale(model))


def test_one_empty_column_costs_the_full_spectrum_memory():
    # Every column but one occupied takes the same column path as a full
    # spectrum, with S applied to each block as it is written into values.
    # At N = 16,384 with 21 times a Burnett propagation peaks at 1.40 times
    # its output either way, as it did when it returned a dense array;
    # rescaling the scattered columns of the whole array at once copied them
    # twice and read 2.26 with one column empty (Python 3.11, numpy 2.4,
    # x86-64).  The first calls warm numpy up.
    n, model = 16384, ModelId.BURNETT
    times = 0.25 * np.arange(1, 22)
    dense = _random_modes(3, n, seed=23)
    holed = dense.copy()
    holed[:, 7] = 0
    peaks, outs = [], []
    for modes in (dense, holed):
        mode_propagators(_symbol_stack(model, 0.1), n, times, modes, parity_scale(model))
        tracemalloc.start()
        try:
            outs.append(
                mode_propagators(_symbol_stack(model, 0.1), n, times, modes, parity_scale(model))
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (_, full), (columns, got) = outs
    assert np.array_equal(columns, np.delete(wavenumbers(n), 7))
    assert np.array_equal(got, np.delete(full, 7, axis=-1))
    assert peaks[1] < 1.5 * got.nbytes
    assert peaks[1] <= 1.02 * peaks[0]

"""Secular growth of the naive expansion versus multiscale boundedness."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.initial_conditions import parse_initial_condition
from hydrobench.secularity import (
    UnsupportedInitialCondition,
    beyond_horizon,
    secular_ratio_series,
)

EV = eigenvalue_set(-1)
IC = parse_initial_condition("u:1:1")


def naive_at(t, ic=IC, eps=0.05, eigenvalues=EV):
    return secular_ratio_series(ic, eps, eigenvalues, np.array([t])).naive_ratio[0]


def largest_multiscale_ratio(ic, eps, eigenvalues, tmax):
    """Largest multiscale ratio in (0, tmax], eight samples per acoustic period."""
    mode = ic.terms[0].mode
    n = max(256, int(np.ceil(8.0 * tmax / (2.0 * np.pi / (SOUND_SPEED * mode)))))
    times = tmax * np.arange(1, n + 1) / n
    return float(np.max(secular_ratio_series(ic, eps, eigenvalues, times).multiscale_ratio))


class TestResonantOscillatorOracle:
    def test_envelope_law_against_ode(self):
        # y'' + y = cos t from rest has the secular solution (t/2) sin t; the
        # envelope law |F|/(2 w) * t must match the integrated peaks.
        sol = solve_ivp(
            lambda t, y: [y[1], -y[0] + np.cos(t)],
            (0.0, 120.0),
            [0.0, 0.0],
            rtol=1e-10,
            atol=1e-12,
            dense_output=True,
        )
        t = np.linspace(60.0, 120.0, 60001)
        y = np.abs(sol.sol(t)[0])
        peaks = [
            (t[i], y[i])
            for i in range(1, len(t) - 1)
            if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] > 1.0
        ]
        assert len(peaks) >= 15
        for when, height in peaks:
            assert height == pytest.approx(when / 2.0, rel=2e-2)

    def test_envelope_bounds_solution_everywhere(self):
        # |y(t)| never exceeds the envelope t/2 (up to the bounded remainder
        # of the homogeneous part), and touches it: envelope(10) = 5 bounds
        # the integrated solution near t = 10.
        sol = solve_ivp(
            lambda t, y: [y[1], -y[0] + np.cos(t)],
            (0.0, 40.0),
            [0.0, 0.0],
            rtol=1e-10,
            atol=1e-12,
            dense_output=True,
        )
        t = np.linspace(0.5, 40.0, 8001)
        y = np.abs(sol.sol(t)[0])
        assert np.all(y <= t / 2.0 + 0.6)
        near_ten = y[(t >= 9.0) & (t <= 11.5)]
        assert float(near_ten.max()) == pytest.approx(5.0, rel=0.15)


class TestNaiveEnvelope:
    def test_closed_form_value(self):
        # eps * Ds * k^2 * t with the Maxwell sound diffusivity Ds = 7/6, bitwise.
        assert naive_at(10.0) == 0.05 * (7.0 / 6.0 * 1.0 * 1.0 * 10.0)

    def test_linear_doubling(self):
        assert naive_at(80.0) == 2.0 * naive_at(40.0)

    def test_scales_with_mode_squared(self):
        higher = parse_initial_condition("u:2:1")
        assert naive_at(5.0, higher) == pytest.approx(4.0 * naive_at(5.0))

    def test_collisionless_limit_vanishes(self):
        # mu -> 0 switches the dissipative forcing off.
        stiff = eigenvalue_set(-1e12)
        assert naive_at(100.0, eigenvalues=stiff) <= 1e-9

    def test_rejects_multi_term_ic(self):
        multi = parse_initial_condition("u:1:1,p:2:0.5")
        with pytest.raises(UnsupportedInitialCondition):
            naive_at(1.0, multi)
        pressure_only = parse_initial_condition("p:1:1")
        with pytest.raises(UnsupportedInitialCondition):
            naive_at(1.0, pressure_only)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            naive_at(1.0, eps=eps)


class TestRatioSeries:
    def test_naive_line_fit(self):
        eps = 0.05
        times = np.linspace(10.0, 100.0, 91)
        series = secular_ratio_series(IC, eps, EV, times)
        coeffs, residuals, *_ = np.polyfit(times, series.naive_ratio, 1, full=True)
        ss_tot = float(np.sum((series.naive_ratio - series.naive_ratio.mean()) ** 2))
        r_squared = 1.0 - (float(residuals[0]) if residuals.size else 0.0) / ss_tot
        assert coeffs[0] > 0
        assert r_squared >= 0.99

    def test_naive_order_one_at_inverse_eps(self):
        eps = 0.05
        series = secular_ratio_series(IC, eps, EV, np.array([1.0 / eps]))
        assert 0.5 <= series.naive_ratio[0] <= 5.0

    def test_ratios_shrink_with_eps_at_fixed_time(self):
        times = np.array([5.0, 10.0])
        coarse = secular_ratio_series(IC, 0.05, EV, times)
        fine = secular_ratio_series(IC, 0.025, EV, times)
        assert np.all(fine.naive_ratio < coarse.naive_ratio)
        assert np.all(fine.multiscale_ratio < coarse.multiscale_ratio + 1e-12)

    def test_rejects_times_beyond_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            secular_ratio_series(IC, 0.1, EV, np.array([50.0, 150.0]))

    def test_horizon_rule(self):
        assert not beyond_horizon(400.0, 0.05)
        assert beyond_horizon(400.0 * (1.0 + 1e-9), 0.05)
        assert not beyond_horizon(1e300, 1e-200)  # eps^2 underflows: no horizon

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            secular_ratio_series(IC, 0.1, EV, np.array([5.0, 2.0]))

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            secular_ratio_series(IC, eps, EV, np.array([1.0, 2.0]))


class TestSeriesRoutes:
    def test_naive_series_is_closed_form_bitwise(self):
        # The series is that of the unit-amplitude wave of the same mode.
        eps = 0.05
        times = np.linspace(0.5, 100.0, 37)
        series = secular_ratio_series(parse_initial_condition("u:2:0.7"), eps, EV, times)
        assert np.array_equal(series.naive_ratio, eps * (7.0 / 6.0 * 2.0 * 2.0 * times))

    def test_multiscale_matches_composed_expm_steps(self):
        import scipy.linalg

        from hydrobench.coefficients import SOUND_SPEED
        from hydrobench.secularity import _augmented_matrix

        eps = 0.05
        times = np.linspace(0.0, 40.0, 81)
        generator = _augmented_matrix(1, eps, EV)
        state = np.array([0.5, 0.0, 0.0, 0.0], dtype=complex)
        step = scipy.linalg.expm(generator * (times[1] - times[0]))
        expected = []
        for _ in times:
            lead = np.hypot(SOUND_SPEED * abs(state[0]), abs(state[1]))
            corr = np.hypot(SOUND_SPEED * abs(state[2]), abs(state[3]))
            expected.append(eps * corr / lead)
            state = step @ state
        got = secular_ratio_series(IC, eps, EV, times).multiscale_ratio
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(expected)

    def test_route_disagreement_raises(self, monkeypatch):
        # A closed form whose beta_u is off by one part in 1e8 moves the ratio
        # at t = 10 by about 1,000 times the check's bound of 16 units.
        import hydrobench.secularity as sec
        from hydrobench.coefficients import BurnettCoefficients
        from hydrobench.hydro_spectral import InternalConsistencyError

        real = sec.transport_burnett

        def skewed(eigenvalues):
            beta = real(eigenvalues)
            skew = 1 + Fraction(1, 10**8)
            return BurnettCoefficients(beta.beta_u * skew, beta.beta_p * skew)

        monkeypatch.setattr(sec, "transport_burnett", skewed)
        with pytest.raises(InternalConsistencyError):
            sec.secular_ratio_series(IC, 0.05, EV, np.linspace(1.0, 10.0, 20))

    def test_closed_form_without_burnett_dispersion_raises(self, monkeypatch):
        # Without eps^2 beta_u k^2, Omega*t/2 drifts 0.10 rad by the workload's
        # horizon, t = 1/eps^2 = 1e4 at eps = 0.01; the expm route keeps the term.
        import hydrobench.secularity as sec
        from hydrobench.coefficients import BurnettCoefficients
        from hydrobench.hydro_spectral import InternalConsistencyError

        dropped = BurnettCoefficients(Fraction(0), Fraction(0))
        monkeypatch.setattr(sec, "transport_burnett", lambda eigenvalues: dropped)
        with pytest.raises(InternalConsistencyError, match="closed form and expm"):
            sec.secular_ratio_series(IC, 0.01, EV, 0.5 * np.arange(1, 20001))

    @pytest.mark.parametrize("lambda02", [-1, -3, Fraction(-1, 7)])
    def test_closed_form_matches_eig_route_and_expm(self, lambda02):
        # The route this module took before the closed form: V exp(Lambda t) V^-1
        # of the damping-shifted generator by exp_action, and one expm per time.
        # Gaps are in units of u (1 + t omega_B) envelope: on this grid the eig
        # route read at most 7.6 and expm 2.5.
        import scipy.linalg

        from hydrobench._modal import exp_action
        from hydrobench.coefficients import transport_burnett, transport_ns
        from hydrobench.secularity import _augmented_matrix, _multiscale_ratios

        ev = eigenvalue_set(lambda02)
        kappa = abs(float(Fraction(2, 3) / ev.lambda02 - Fraction(1, 3) / ev.lambda11))
        beta_u = float(transport_burnett(ev).beta_u)

        def ratio(state, eps):
            amplitude = np.hypot(SOUND_SPEED * np.abs(state[..., ::2]), np.abs(state[..., 1::2]))
            return eps * amplitude[..., 1] / amplitude[..., 0]

        for eps, mode in [(0.01, 1), (0.03, 2), (0.1, 5), (0.3, 1), (0.3, 5)]:
            k = float(mode)
            omega_b = SOUND_SPEED * k * (1.0 + eps * eps * beta_u * k * k)
            envelope = 2.0 * eps * kappa * k * k / (omega_b + SOUND_SPEED * k)
            damping = eps * float(transport_ns(ev).sound_diffusivity) * k * k
            shifted = _augmented_matrix(mode, eps, ev) + damping * np.eye(4)
            times = np.linspace(0.0, 1.0 / eps**2, 2001)
            unit = 2.0**-53 * (1.0 + times * omega_b) * envelope
            closed = _multiscale_ratios(mode, eps, ev, times)
            start = np.array([[1.0], [0.0], [0.0], [0.0]], dtype=complex)
            eig = np.concatenate(
                [block[:, :, 0] for _, block in exp_action(shifted[None], start, times)]
            )
            assert np.max(np.abs(closed - ratio(eig, eps)) / unit) <= 32.0, (eps, mode)
            sample = slice(None, None, 100)
            expm = np.array([scipy.linalg.expm(shifted * t)[:, 0] for t in times[sample]])
            gap = np.abs(closed[sample] - ratio(expm, eps)) / unit[sample]
            assert np.max(gap) <= 16.0, (eps, mode)


class TestCrossingTime:
    @staticmethod
    def crossing_time(eps: float) -> float:
        times = np.linspace(1.0, 1.0 / eps**2, 4000)
        series = secular_ratio_series(IC, eps, EV, times)
        above = np.nonzero(series.naive_ratio >= 0.5)[0]
        assert above.size, "ratio never crossed 0.5"
        i = above[0]
        if i == 0:
            return float(times[0])
        # linear interpolation between the bracketing samples
        t0, t1 = times[i - 1], times[i]
        r0, r1 = series.naive_ratio[i - 1], series.naive_ratio[i]
        return float(t0 + (0.5 - r0) * (t1 - t0) / (r1 - r0))

    def test_halving_eps_doubles_crossing(self):
        t_coarse = self.crossing_time(0.05)
        t_fine = self.crossing_time(0.025)
        assert 1.6 <= t_fine / t_coarse <= 2.4


class TestMultiscaleClosedForm:
    def test_matches_bounded_particular_solution(self):
        # For the standing wave at mode k the post-uniformization correction
        # with zero initial data is u1 = (D k / a0) sin(w t) sin(k x), p1 = 0
        # (D the residual dissipative bracket), before slow damping sets in.
        # The augmented propagator must reproduce the energy-amplitude ratio
        # eps * |D| k / a0 * |sin(w t)| at early times.
        from hydrobench.coefficients import SOUND_SPEED
        from hydrobench.secularity import _multiscale_ratios

        eps = 0.01  # small, so slow damping is negligible over one period
        mode = 1
        d_bracket = abs(2.0 / (3.0 * -1.0) - 1.0 / (3.0 * -2.0 / 3.0))  # 1/6
        omega = SOUND_SPEED * mode
        times = np.linspace(0.3, 2.0 * np.pi / omega, 40)
        ratios = _multiscale_ratios(mode, eps, EV, times)
        predicted = eps * d_bracket * mode / SOUND_SPEED * np.abs(np.sin(omega * times))
        assert np.max(np.abs(ratios - predicted)) <= 0.05 * eps


class TestMultiscaleBound:
    def test_bounded_over_validity_window(self):
        eps = 0.1
        bound = largest_multiscale_ratio(IC, eps, EV, tmax=1.0 / eps**2)
        early = largest_multiscale_ratio(IC, eps, EV, tmax=10.0)
        assert bound <= 2.0 * early

    def test_tail_has_no_growth_trend(self):
        eps = 0.1
        times = np.linspace(50.0, 100.0, 400)
        series = secular_ratio_series(IC, eps, EV, times)
        envelope = np.maximum.accumulate(series.multiscale_ratio)
        slope = np.polyfit(times, envelope, 1)[0]
        assert slope <= 1e-3

    def test_regression_guard_constant(self):
        # Frozen once from the oracle experiment: bound/eps = 0.1291 +- 20%.
        eps = 0.05
        bound = largest_multiscale_ratio(IC, eps, EV, tmax=1.0 / eps**2)
        assert bound / eps == pytest.approx(0.1291, rel=0.20)

    def test_halving_eps_halves_bound(self):
        coarse = largest_multiscale_ratio(IC, 0.05, EV, tmax=400.0)
        fine = largest_multiscale_ratio(IC, 0.025, EV, tmax=400.0)
        assert coarse / fine == pytest.approx(2.0, rel=0.1)

    def test_collisionless_limit_vanishes(self):
        stiff = eigenvalue_set(-1e12)
        bound = largest_multiscale_ratio(IC, 0.05, EV, tmax=50.0)
        tiny = largest_multiscale_ratio(IC, 0.05, stiff, tmax=50.0)
        assert tiny <= 1e-9
        assert tiny < bound

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            largest_multiscale_ratio(IC, eps, EV, tmax=10.0)

"""Dispersion relations, symbol matrices, and branch tracking."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import (
    Branch,
    BranchCollisionError,
    ModelId,
    _eigenvalues,
    _parity_scaled,
    branches,
    sigma_asymptotic,
    symbol_matrix,
)

EV = eigenvalue_set(-1)

#: The oracle's two candidate matches closer than this are a tie it refuses.
MATCH_AMBIGUITY_TOL = 1e-12


class OracleTie(BranchCollisionError):
    """The oracle's refusal, with the two candidates it could not tell apart."""

    def __init__(self, k, candidates):
        super().__init__(f"ambiguous branch match at k = {k:g}: {candidates}")
        self.k = k
        self.candidates = candidates


def _oracle_seeds(model, k, eps):
    """Analytic small-k limits that name the branches at the oracle's first point."""
    if model is ModelId.EULER:
        return {
            Branch.ENTROPY: 0j,
            Branch.SOUND_PLUS: 1j * SOUND_SPEED * k,
            Branch.SOUND_MINUS: -1j * SOUND_SPEED * k,
        }
    seeds = {
        branch: sigma_asymptotic(k, eps, EV, branch)
        for branch in (Branch.ENTROPY, Branch.SOUND_PLUS, Branch.SOUND_MINUS)
    }
    if model is ModelId.MOMENT_REFERENCE:
        seeds[Branch.KINETIC_STRESS] = complex(float(EV.lambda02) / eps)
        seeds[Branch.KINETIC_HEAT] = complex(float(EV.lambda11) / eps)
    return seeds


def _oracle_seeded(seeds, values):
    """Sequential seeded match: one eigenvalue per label, in label order."""
    remaining = list(range(len(values)))
    assigned = {}
    for label, seed in seeds.items():
        dists = [(abs(values[i] - seed), i) for i in remaining]
        dists.sort(key=lambda item: item[0])
        best = dists[0]
        if len(dists) > 1 and abs(dists[1][0] - best[0]) <= MATCH_AMBIGUITY_TOL:
            tied = [i for d, i in dists if abs(d - best[0]) <= MATCH_AMBIGUITY_TOL]
            tied.sort(
                key=lambda i: (
                    np.sign(values[i].imag) != np.sign(seed.imag),
                    abs(values[i].real - seed.real),
                )
            )
            best = (abs(values[tied[0]] - seed), tied[0])
        assigned[label] = complex(values[best[1]])
        remaining.remove(best[1])
    return assigned


def _oracle_continued(previous, values, k):
    """Sequential greedy continuation at one k, most confident label first."""
    remaining = list(range(len(values)))
    pending = list(previous.keys())
    assigned = {}
    while pending:
        best_label = None
        best = second = (np.inf, -1)
        for label in pending:
            dists = sorted((abs(values[i] - previous[label]), i) for i in remaining)
            if dists[0][0] < best[0]:
                best_label, best = label, dists[0]
                second = dists[1] if len(dists) > 1 else (np.inf, -1)
        if second[0] - best[0] <= MATCH_AMBIGUITY_TOL:
            raise OracleTie(k, (complex(values[best[1]]), complex(values[second[1]])))
        assigned[best_label] = complex(values[best[1]])
        remaining.remove(best[1])
        pending.remove(best_label)
    return assigned


def _oracle_branches(model, grid, eps):
    """Seeded greedy continuation, one k after another, as the oracle of branches.

    It checks the labels, not LAPACK, so it reads the raw eigenvalues from
    the helper that branches uses; TestParityRealEigenvalues checks those.
    """
    values = _eigenvalues(model, grid, eps, EV)
    matched = [_oracle_seeded(_oracle_seeds(model, float(grid[0]), eps), values[0])]
    for k, row in zip(grid[1:], values[1:]):
        matched.append(_oracle_continued(matched[-1], row, float(k)))
    labels = tuple(Branch)[: model.dimension]
    return np.array([[match[label] for label in labels] for match in matched], dtype=complex)


def _outcome(route):
    """(sigma, None) from a labelling route, or (None, its BranchCollisionError)."""
    try:
        return route(), None
    except BranchCollisionError as exc:
        return None, exc


class TestSigmaAsymptotic:
    def test_entropy_example(self):
        sigma = sigma_asymptotic(1.0, 0.1, EV, Branch.ENTROPY)
        assert sigma == pytest.approx(-0.15)
        assert sigma.imag == 0.0

    def test_sound_plus_example(self):
        # Frozen from direct evaluation of the closed form with
        # A = -7/6, B = 19/120, a0 = sqrt(5/3).
        sigma = sigma_asymptotic(1.0, 0.1, EV, Branch.SOUND_PLUS)
        assert sigma.real == pytest.approx(-0.11666666666666667, abs=1e-12)
        assert sigma.imag == pytest.approx(1.2930385232796373, abs=1e-12)

    def test_vanishes_with_k(self):
        for branch in (Branch.ENTROPY, Branch.SOUND_PLUS, Branch.SOUND_MINUS):
            assert abs(sigma_asymptotic(1e-9, 0.1, EV, branch)) < 1e-8

    def test_conjugate_symmetry(self):
        for k in (0.3, 1.0, 4.0):
            for eps in (0.05, 0.2):
                plus = sigma_asymptotic(k, eps, EV, Branch.SOUND_PLUS)
                minus = sigma_asymptotic(k, eps, EV, Branch.SOUND_MINUS)
                assert plus == np.conj(minus)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma_asymptotic(0.0, 0.1, EV, Branch.ENTROPY)
        with pytest.raises(ValueError):
            sigma_asymptotic(1.0, -0.1, EV, Branch.ENTROPY)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            sigma_asymptotic(1.0, eps, EV, Branch.ENTROPY)


class TestSymbolMatrix:
    def test_euler_entries(self):
        m = symbol_matrix(ModelId.EULER, 1.0, 0.0, EV)
        assert m[0, 1] == 1j
        assert m[1, 0] == pytest.approx((5.0 / 3.0) * 1j)
        assert np.all(m[2] == 0)

    def test_euler_ignores_eps(self):
        assert np.array_equal(
            symbol_matrix(ModelId.EULER, 2.0, 0.0, EV),
            symbol_matrix(ModelId.EULER, 2.0, 0.7, EV),
        )

    def test_burnett_at_zero_eps_is_euler(self):
        assert np.array_equal(
            symbol_matrix(ModelId.BURNETT, 3.0, 0.0, EV),
            symbol_matrix(ModelId.EULER, 3.0, 0.0, EV),
        )

    def test_navier_stokes_damping_example(self):
        m = symbol_matrix(ModelId.NAVIER_STOKES, 2.0, 0.1, EV)
        assert m[0, 0] == pytest.approx(-7.0 / 15.0)
        assert m[1, 1] == pytest.approx(-7.0 / 15.0)
        assert m[2, 2] == pytest.approx(-0.6)
        # Streaming block unchanged from Euler.
        assert m[0, 1] == pytest.approx(2j)

    def test_navier_stokes_matches_asymptotic_to_third_order(self):
        k = 1.0
        for eps in (0.05, 0.025):
            eig = np.linalg.eigvals(symbol_matrix(ModelId.NAVIER_STOKES, k, eps, EV))
            target = sigma_asymptotic(k, eps, EV, Branch.SOUND_PLUS)
            gap = min(abs(eig - target))
            # The NS symbol lacks the dispersive correction, so the gap is
            # a0*k^3*eps^2*beta_u exactly.
            assert gap == pytest.approx(SOUND_SPEED * (19.0 / 120.0) * eps**2, rel=1e-6)

    def test_moment_reference_dimension(self):
        m = symbol_matrix(ModelId.MOMENT_REFERENCE, 1.0, 0.1, EV)
        assert m.shape == (5, 5)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            symbol_matrix(ModelId.BURNETT, 1.0, -0.1, EV)
        with pytest.raises(ValueError):
            symbol_matrix(ModelId.MOMENT_REFERENCE, 1.0, 0.0, EV)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        for model in ModelId:
            with pytest.raises(ValueError, match="eps"):
                symbol_matrix(model, 1.0, eps, EV)
        with pytest.raises(ValueError, match="eps"):
            branches(ModelId.BURNETT, [0.1, 0.2], eps, EV)


class TestExactness:
    @pytest.mark.parametrize("model", [ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED])
    def test_eigenvalues_match_closed_form(self, model):
        worst = 0.0
        for k in (0.5, 1.0, 2.0, 4.0, 8.0):
            for eps in (0.05, 0.1, 0.2):
                eig = np.linalg.eigvals(symbol_matrix(model, k, eps, EV))
                for branch in (Branch.ENTROPY, Branch.SOUND_PLUS, Branch.SOUND_MINUS):
                    target = sigma_asymptotic(k, eps, EV, branch)
                    worst = max(worst, float(np.min(np.abs(eig - target))))
        assert worst <= 1e-12

    @settings(max_examples=120, deadline=None)
    @given(
        k=st.floats(0.01, 8.0),
        eps=st.floats(1e-3, 0.2),
        model=st.sampled_from([ModelId.BURNETT, ModelId.RIEMANN_DECOUPLED]),
    )
    def test_exactness_holds_across_domain(self, k, eps, model):
        # The coupled and decoupled symbols are similar matrices, so the
        # closed form is exact everywhere in the stated (k, eps) domain.
        eig = np.linalg.eigvals(symbol_matrix(model, k, eps, EV))
        scale = max(1.0, float(np.max(np.abs(eig))))
        for branch in (Branch.ENTROPY, Branch.SOUND_PLUS, Branch.SOUND_MINUS):
            target = sigma_asymptotic(k, eps, EV, branch)
            assert float(np.min(np.abs(eig - target))) <= 1e-12 * scale


#: eps*k of the moment system's real exceptional point (lambda02 = -1), to 1e-16.
EXCEPTIONAL_EPS_K = 0.3020703897662709

#: eps*k samples: a coarse span, and both sides of the exceptional point at
#: distances 1e-2 to 1e-5.  Within about 1e-6 of it the merging eigenvalues
#: have condition of order 1/sqrt(distance), so no two LAPACK routes agree to
#: 1e-13 there; test_routes_agree_at_the_exceptional_point bounds that gap.
EPS_K_SAMPLES = np.sort(
    np.concatenate(
        [
            np.linspace(0.001, 8.0, 97),
            EXCEPTIONAL_EPS_K + np.outer([-1.0, 1.0], [1e-2, 1e-3, 1e-4, 1e-5]).ravel(),
        ]
    )
)

PARITY_MODELS = [ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT, ModelId.MOMENT_REFERENCE]


def _worst_assignment_gap(reference, values):
    """Largest |reference - values| per k after the cheapest one-to-one matching,
    relative to that k's largest |reference|."""
    worst = 0.0
    for ref, val in zip(reference, values):
        cost = np.abs(ref[:, None] - val[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max() / np.abs(ref).max()))
    return worst


#: C of the bound C * u * ||M||_1 * kappa(lambda) on the gap between the real
#: and the complex eigenvalue routes at each eigenvalue lambda of a symbol M,
#: with u = 2**-53.  The largest gap / (u * ||M||_1 * kappa) measured was 40.3
#: for the moment system over 7,008 eps draws (uniform and log-uniform on
#: [0.01, 1], 99th percentile 24) on EPS_K_SAMPLES, and 5.2 for Euler, NS and
#: Burnett (numpy 2.4 with OpenBLAS, x86-64).
ROUTE_GAP_C = 64.0


def _route_gaps(model, k, eps, values):
    """The gap of each complex-route eigenvalue of the symbol M at each k to
    the entry of values matched to it one-to-one, and its bound ROUTE_GAP_C
    * u * ||M||_1 * kappa(lambda), as two (len(k), d) arrays.

    kappa(lambda) = ||x|| ||y|| / |y^H x| for the right and left eigenvectors
    x and y of lambda, the first-order sensitivity of lambda to a
    perturbation of M; near the exceptional point it grows as 1/sqrt of the
    distance, where no fixed bound holds.
    """
    matrices = symbol_matrix(model, k, eps, EV)
    reference = np.linalg.eigvals(matrices)
    gaps, bounds = np.empty(reference.shape), np.empty(reference.shape)
    for i, (matrix, ref, val) in enumerate(zip(matrices, reference, values)):
        w, left, right = scipy.linalg.eig(matrix, left=True, right=True)
        kappa = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
        kappa /= np.abs(np.sum(left.conj() * right, axis=0))
        cost = np.abs(ref[:, None] - val[None, :])
        gaps[i] = cost[np.arange(len(ref)), linear_sum_assignment(cost)[1]]
        own = linear_sum_assignment(np.abs(ref[:, None] - w[None, :]))[1]
        bounds[i] = ROUTE_GAP_C * 2.0**-53 * np.abs(matrix).sum(axis=0).max() * kappa[own]
    return gaps, bounds


class TestParityRealEigenvalues:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(PARITY_MODELS),
        eps=st.floats(0.01, 1.0),
        k=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=20),
    )
    def test_scaled_stack_is_exactly_real(self, model, eps, k):
        scaled = _parity_scaled(model, symbol_matrix(model, np.array(k), eps, EV))
        assert np.all(scaled.imag == 0)

    @settings(max_examples=40, deadline=None)
    @given(model=st.sampled_from(PARITY_MODELS), eps=st.floats(0.01, 1.0))
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.01)
    @example(model=ModelId.MOMENT_REFERENCE, eps=1.0)
    # A fixed bound of 1e-13 of the largest |sigma| failed here, 1e-5 from
    # the exceptional point, where kappa reaches 271.
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.28964356227589255)
    def test_real_route_matches_complex_eigvals(self, model, eps):
        k = EPS_K_SAMPLES / eps
        gaps, bounds = _route_gaps(model, k, eps, _eigenvalues(model, k, eps, EV))
        assert np.all(gaps <= bounds)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 1.0])
    def test_bound_no_looser_than_fixed_away_from_the_merge(self, eps):
        # At the 97 samples of the coarse span the bound is at most 0.89 of
        # the former fixed bound, 1e-13 of the largest |sigma| at that k,
        # and 0.20 at the median.  At the 8 samples within 1e-2 of the
        # exceptional point kappa is 9 to 271, and the bound 1.4 to 40 times
        # the fixed one, which failed there.
        model = ModelId.MOMENT_REFERENCE
        k = EPS_K_SAMPLES / eps
        far = np.abs(EPS_K_SAMPLES - EXCEPTIONAL_EPS_K) > 0.02
        _, bounds = _route_gaps(model, k, eps, _eigenvalues(model, k, eps, EV))
        largest = np.abs(np.linalg.eigvals(symbol_matrix(model, k, eps, EV))).max(axis=1)
        assert np.count_nonzero(far) == 97
        assert np.all(bounds[far] <= 1e-13 * largest[far, None])

    @pytest.mark.parametrize("eps", [0.1, 0.01, 1.0, 0.28964356227589255])
    def test_bound_catches_a_relative_perturbation(self, eps):
        model = ModelId.MOMENT_REFERENCE
        k = EPS_K_SAMPLES / eps
        perturbed = _eigenvalues(model, k, eps, EV) * (1.0 + 1e-12)
        gaps, bounds = _route_gaps(model, k, eps, perturbed)
        assert not np.all(gaps <= bounds)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    def test_routes_agree_at_the_exceptional_point(self, eps):
        # A double eigenvalue moves by the square root of a perturbation, so
        # the two routes' roundoff shows as a gap near sqrt(1e-16) here.
        model = ModelId.MOMENT_REFERENCE
        k = np.array([EXCEPTIONAL_EPS_K / eps])
        complex_route = np.linalg.eigvals(symbol_matrix(model, k, eps, EV))
        assert _worst_assignment_gap(complex_route, _eigenvalues(model, k, eps, EV)) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(PARITY_MODELS),
        eps=st.floats(0.01, 1.0),
        k=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=20),
    )
    def test_non_real_eigenvalues_are_exact_conjugate_pairs(self, model, eps, k):
        # The fact that branches labels by: each raw eigenvalue is exactly
        # real, or the exact conjugate of another one at the same k.
        for row in _eigenvalues(model, np.array(k), eps, EV):
            for value in row[row.imag != 0]:
                assert np.count_nonzero(row == np.conj(value)) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(PARITY_MODELS[:3]),
        eps=st.floats(0.01, 1.0),
        k=st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=20),
    )
    @example(model=ModelId.NAVIER_STOKES, eps=1.0, k=[1e-6, 1e4])
    def test_closed_form_branches_match_complex_eigvals(self, model, eps, k):
        # The Euler, NS and Burnett stacks are acoustic pairs: their
        # eigenvalues d +- i w and e come in closed form, with no eigvals call,
        # and sit within the same route-gap bound of the complex eigvals.
        k = np.array(k)
        with mock.patch.object(np.linalg, "eigvals", side_effect=AssertionError("eigvals")):
            values = _eigenvalues(model, k, eps, EV)
        gaps, bounds = _route_gaps(model, k, eps, values)
        assert np.all(gaps <= bounds)

    def test_moment_system_keeps_eigvals(self):
        with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
            _eigenvalues(ModelId.MOMENT_REFERENCE, np.array([0.5, 1.0]), 0.1, EV)
        assert eigvals.call_count == 1

    def test_riemann_decoupled_keeps_the_complex_route(self):
        # Its diagonal is what complex eigvals returns for it, bit for bit
        # and in the same order, so reading it skips LAPACK and moves no byte.
        k = np.linspace(0.1, 4.0, 9)
        matrix = symbol_matrix(ModelId.RIEMANN_DECOUPLED, k, 0.1, EV)
        values = _eigenvalues(ModelId.RIEMANN_DECOUPLED, k, 0.1, EV)
        assert values.tobytes() == np.linalg.eigvals(matrix).tobytes()


class TestBranches:
    def test_euler_closed_form(self):
        grid = np.linspace(0.2, 5.0, 25)
        table = branches(ModelId.EULER, grid, 0.1, EV)
        assert np.allclose(table.branch(Branch.ENTROPY), 0.0, atol=1e-14)
        assert np.allclose(
            table.branch(Branch.SOUND_PLUS), 1j * SOUND_SPEED * grid, atol=1e-12
        )
        assert np.allclose(
            table.branch(Branch.SOUND_MINUS), -1j * SOUND_SPEED * grid, atol=1e-12
        )

    def test_burnett_matches_asymptotic(self):
        table = branches(ModelId.BURNETT, [0.5, 1.0], 0.1, EV)
        sound = table.branch(Branch.SOUND_PLUS)[1]
        assert abs(sound - sigma_asymptotic(1.0, 0.1, EV, Branch.SOUND_PLUS)) <= 1e-12

    def test_moment_kinetic_limits(self):
        eps = 0.1
        table = branches(ModelId.MOMENT_REFERENCE, [1e-4], eps, EV)
        assert table.branch(Branch.KINETIC_STRESS)[0] == pytest.approx(-1.0 / eps, rel=1e-6)
        assert table.branch(Branch.KINETIC_HEAT)[0] == pytest.approx(
            -2.0 / 3.0 / eps, rel=1e-6
        )

    def test_stability_all_models(self):
        # Raw eigenvalues, so the scan crosses the moment system's branch
        # merge without needing label continuation.
        for model in ModelId:
            for k in np.linspace(0.1, 8.0, 30):
                eig = np.linalg.eigvals(symbol_matrix(model, float(k), 0.1, EV))
                assert float(eig.real.max()) <= 1e-10, (model, k)

    def test_tracked_branches_stable(self):
        grid = np.linspace(0.1, 8.0, 30)
        for model in (ModelId.EULER, ModelId.NAVIER_STOKES, ModelId.BURNETT,
                      ModelId.RIEMANN_DECOUPLED):
            table = branches(model, grid, 0.1, EV)
            assert float(table.sigma.real.max()) <= 1e-10, model

    def test_labels_continuous(self):
        # eps*k stays below the exceptional point of the moment system.
        grid = np.linspace(0.05, 5.0, 100)
        table = branches(ModelId.MOMENT_REFERENCE, grid, 0.05, EV)
        jumps = np.abs(np.diff(table.sigma, axis=0))
        # Continuity: no branch moves more than the local grid scale allows.
        assert float(jumps.max()) < 1.0

    def test_collision_error_at_real_exceptional_point(self):
        # The entropy and kinetic-heat branches genuinely merge near
        # eps*k ~ 0.3; labelling through the merge must refuse loudly, at
        # the first grid point past it, and the grid before it labels.
        eps = 0.1
        grid = np.linspace(0.5, 4.0, 60)
        past = grid[grid * eps > EXCEPTIONAL_EPS_K][0]
        message = f"at k = {past:g}: real eigenvalue count 1, not 3; refine the k grid"
        with pytest.raises(BranchCollisionError, match=message):
            branches(ModelId.MOMENT_REFERENCE, grid, eps, EV)
        branches(ModelId.MOMENT_REFERENCE, grid[grid < past], eps, EV)

    def test_first_point_past_the_merge_refuses(self):
        # Past the merge the moment system has one real eigenvalue, so no
        # rank names its kinetic branches, however well the grid resolves it.
        for grid in ([5.0], np.linspace(5.0, 6.0, 4)):
            with pytest.raises(BranchCollisionError, match="at k = 5: real eigenvalue count 1"):
                branches(ModelId.MOMENT_REFERENCE, grid, 0.1, EV)

    def test_tiny_k_grid_is_labelled(self):
        # All three branches lie within 1e-299 of each other here, which
        # rank tells apart without a tolerance.
        grid = np.linspace(1e-320, 1e-300, 4)
        table = branches(ModelId.EULER, grid, 0.1, EV)
        assert np.all(table.branch(Branch.ENTROPY) == 0)
        plus = table.branch(Branch.SOUND_PLUS)
        assert np.all(plus.imag > 0)
        assert np.array_equal(table.branch(Branch.SOUND_MINUS), plus.conj())
        assert plus[-1].imag == pytest.approx(SOUND_SPEED * 1e-300)

    @pytest.mark.parametrize(
        "grid", [[np.nan], [np.inf], [0.1, np.inf], [0.1, np.nan, 0.3], [-np.inf, 0.1]]
    )
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            branches(ModelId.EULER, grid, 0.1, EV)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            branches(ModelId.EULER, [2.0, 1.0], 0.1, EV)
        with pytest.raises(ValueError):
            branches(ModelId.EULER, [], 0.1, EV)
        with pytest.raises(ValueError):
            branches(ModelId.EULER, [-1.0, 1.0], 0.1, EV)

    def test_asymptotic_consistency_order(self):
        # Sound-branch gap between the kinetic reference and the closed form
        # shrinks by roughly 8x when eps halves (third order in eps*k).
        errors = []
        for eps in (0.1, 0.05, 0.025):
            table = branches(ModelId.MOMENT_REFERENCE, [1.0], eps, EV)
            sound = table.branch(Branch.SOUND_PLUS)[0]
            errors.append(abs(sound - sigma_asymptotic(1.0, eps, EV, Branch.SOUND_PLUS)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 6.5 <= coarse / fine <= 9.5


class TestTwoRoutes:
    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(list(ModelId)),
        eps=st.floats(0.01, 1.0),
        kmin=st.floats(0.02, 0.5),
        span=st.floats(1e-3, 8.0),
        samples=st.integers(1, 300),
    )
    # The one-point grids of the moment-convergence check, the grid of the
    # CLI's exit-2 example, which crosses the exceptional point, a first point
    # past that point, and a grid whose sound branches are subnormal.
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.05, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.025, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.0125, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1, kmin=0.5, span=3.5, samples=60)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1, kmin=5.0, span=1.0, samples=4)
    @example(model=ModelId.EULER, eps=0.1, kmin=1e-320, span=1e-300, samples=4)
    def test_batched_matches_sequential(self, model, eps, kmin, span, samples):
        grid = np.linspace(kmin, kmin + span, samples)
        counts = np.count_nonzero(_eigenvalues(model, grid, eps, EV).imag == 0, axis=1)
        changed = np.flatnonzero(counts != model.dimension - 2)
        ranked, ranked_error = _outcome(lambda: branches(model, grid, eps, EV).sigma)
        oracle, oracle_error = _outcome(lambda: _oracle_branches(model, grid, eps))
        # The rank route refuses exactly at the first k whose real count
        # differs from the model's.
        if changed.size:
            assert f"at k = {grid[changed[0]]:g}:" in str(ranked_error)
        else:
            assert ranked_error is None
        # Wherever both routes label, sigma is bitwise equal; wherever both
        # refuse, they name the same k.
        if ranked_error is None and oracle_error is None:
            assert ranked.tobytes() == oracle.tobytes()
        if ranked_error is not None and oracle_error is not None:
            assert f"at k = {oracle_error.k:g}:" in str(ranked_error)
        # The oracle refuses alone only on a tie the spectrum settles: between
        # conjugate partners, or between candidates closer together than its
        # absolute tolerance, which is blind to the scale of a tiny-k grid.
        if oracle_error is not None and ranked_error is None:
            first, second = oracle_error.candidates
            conjugate = first.imag != 0 and first == np.conj(second)
            assert conjugate or abs(first - second) <= MATCH_AMBIGUITY_TOL
        # The rank route refuses alone only when its first point is already
        # past the moment system's merge, which the oracle labels regardless.
        if ranked_error is not None and oracle_error is None:
            assert changed[0] == 0
            assert model is ModelId.MOMENT_REFERENCE and eps * grid[0] > EXCEPTIONAL_EPS_K

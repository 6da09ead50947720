"""Dispersion relations, symbol matrices, and branch tracking."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrobench.coefficients import SOUND_SPEED, eigenvalue_set
from hydrobench.dispersion import (
    MATCH_AMBIGUITY_TOL,
    Branch,
    BranchCollisionError,
    ModelId,
    _seed_values,
    _step_maps,
    branches,
    sigma_asymptotic,
    symbol_matrix,
)

EV = eigenvalue_set(-1)


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
        best_idx = -1
        best_dist = np.inf
        second_dist = np.inf
        for label in pending:
            dists = sorted((abs(values[i] - previous[label]), i) for i in remaining)
            if dists[0][0] < best_dist:
                best_label, best_idx, best_dist = label, dists[0][1], dists[0][0]
                second_dist = dists[1][0] if len(dists) > 1 else np.inf
        if second_dist - best_dist <= MATCH_AMBIGUITY_TOL:
            raise BranchCollisionError(
                f"ambiguous branch match at k = {k:g}: two eigenvalue candidates "
                f"are equidistant within {MATCH_AMBIGUITY_TOL:g}; refine the k grid "
                "(a collision that persists under refinement is a genuine eigenvalue "
                "merge, past which these labels stop being meaningful)"
            )
        assigned[best_label] = complex(values[best_idx])
        remaining.remove(best_idx)
        pending.remove(best_label)
    return assigned


def _oracle_branches(model, grid, eps):
    """The per-k continuation loop that the batched matcher replaced, as its oracle."""
    values = np.linalg.eigvals(symbol_matrix(model, grid, eps, EV))
    matched = [_oracle_seeded(_seed_values(model, float(grid[0]), eps, EV), values[0])]
    for k, row in zip(grid[1:], values[1:]):
        matched.append(_oracle_continued(matched[-1], row, float(k)))
    labels = tuple(Branch)[: model.dimension]
    return np.array([[match[label] for label in labels] for match in matched], dtype=complex)


def _outcome(route):
    """(sigma, None) from a matching route, or (None, message) when it refuses."""
    try:
        return route(), None
    except BranchCollisionError as exc:
        return None, str(exc)


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
        # eps*k ~ 0.3; continuation through the merge must refuse loudly.
        grid = np.linspace(0.5, 4.0, 60)
        with pytest.raises(BranchCollisionError, match="refine"):
            branches(ModelId.MOMENT_REFERENCE, grid, 0.1, EV)

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


class TestBranchCollision:
    # Two grid points: values[0] holds (sound_plus, sound_minus) at the previous k.
    K = np.array([0.5, 1.0])

    def test_ambiguous_candidates_raise(self):
        values = np.array([[1.0 + 0j, -1.0 + 0j], [0.0 + 0j, 0.0 + 0j]])  # equidistant twins
        with pytest.raises(BranchCollisionError, match="refine"):
            _step_maps(values, self.K)

    def test_distinct_candidates_do_not_raise(self):
        values = np.array([[1.0 + 0j, -1.0 + 0j], [0.9 + 0j, -1.1 + 0j]])
        (step,) = _step_maps(values, self.K)
        assert values[1, step[0]] == 0.9 + 0j
        assert values[1, step[1]] == -1.1 + 0j

    def test_tied_previous_branches_wanting_one_candidate_raise(self):
        # Both previous branches lie at distance 1 from the candidate 0, and
        # each has its second candidate far away; whichever branch took 0,
        # the other would be continued to 5 on the order of the labels alone.
        values = np.array([[1.0 + 0j, -1.0 + 0j], [0.0 + 0j, 5.0 + 0j]])
        with pytest.raises(BranchCollisionError, match="k = 1:"):
            _step_maps(values, self.K)


class TestTwoRoutes:
    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(list(ModelId)),
        eps=st.floats(0.01, 1.0),
        kmin=st.floats(0.02, 0.5),
        span=st.floats(1e-3, 8.0),
        samples=st.integers(1, 300),
    )
    # The one-point grids of the moment-convergence check, and the grid of
    # the CLI's exit-2 example, which crosses the exceptional point.
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.05, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.025, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.0125, kmin=1.0, span=1.0, samples=1)
    @example(model=ModelId.MOMENT_REFERENCE, eps=0.1, kmin=0.5, span=3.5, samples=60)
    def test_batched_matches_sequential(self, model, eps, kmin, span, samples):
        # Either bitwise-equal sigma, or a collision at the same k from both.
        grid = np.linspace(kmin, kmin + span, samples)
        batched, batched_error = _outcome(lambda: branches(model, grid, eps, EV).sigma)
        sequential, sequential_error = _outcome(lambda: _oracle_branches(model, grid, eps))
        assert batched_error == sequential_error
        if batched_error is None:
            assert batched.tobytes() == sequential.tobytes()

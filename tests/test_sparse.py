import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motion_lsmd import errors
from motion_lsmd.lsmd import soft_threshold

from oracles import BadShape, active_set_nn_lasso, kkt_residual, nn_lasso, scalar_shrink_grid


def random_instance(seed, d, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal(d)


class TestNnLasso:
    def test_zero_target(self):
        X = np.random.default_rng(0).standard_normal((4, 6))
        code = nn_lasso(X, np.zeros(4), lambda1=0.1)
        assert np.all(code.gamma == 0.0)
        assert code.objective == 0.0

    def test_identity_unconstrained(self):
        code = nn_lasso(np.eye(2), np.array([1.0, 0.5]), lambda1=0.0)
        assert np.allclose(code.gamma, [1.0, 0.5], atol=1e-8)

    def test_large_lambda_gives_zero(self):
        X, t = random_instance(1, 5, 7)
        lam = 2.0 * float((X.T @ t).max()) + 1.0
        code = nn_lasso(X, t, lambda1=lam)
        assert np.all(code.gamma == 0.0)
        assert code.kkt_residual <= 1e-9

    def test_known_two_by_two(self):
        # active-set optimum computed by support enumeration
        X = np.array([[1.0, 0.6], [0.0, 0.8]])
        t = np.array([1.0, 1.0])
        code = nn_lasso(X, t, lambda1=0.1)
        assert np.allclose(code.gamma, [0.21875, 1.21875], atol=1e-5)
        assert abs(code.objective - 0.146875) < 1e-8

    def test_matches_enumeration_oracle(self):
        for seed in range(20):
            X, t = random_instance(seed, 4, 6)
            code = nn_lasso(X, t, lambda1=0.1)
            _g, obj = active_set_nn_lasso(X, t, 0.1)
            assert code.objective <= obj * (1 + 1e-5) + 1e-5

    def test_zero_column_pinned(self):
        X = np.array([[1.0, 0.0], [0.5, 0.0]])
        code = nn_lasso(X, np.array([1.0, 1.0]), lambda1=0.01)
        assert code.gamma[1] == 0.0

    def test_objective_monotone_over_sweeps(self):
        X, t = random_instance(3, 8, 12)
        prev = np.inf
        for steps in range(1, 30):
            code = nn_lasso(X, t, lambda1=0.05, max_iter=steps, tol=1e-300)
            assert code.objective <= prev + 1e-12
            prev = code.objective

    def test_converged_instances_certify(self):
        # every instance that stops on the KKT tolerance (rather than the
        # step cap) carries a tight certificate
        converged = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((8, 12))
            t = rng.standard_normal(8)
            code = nn_lasso(X, t, lambda1=0.05, tol=1e-8, max_iter=500)
            if code.iterations < 500:
                converged += 1
                assert code.kkt_residual <= 1e-6
        assert converged >= 90

    @pytest.mark.parametrize("lam", [0.1, 0.01])
    def test_criterion_2_instances_solved_exactly(self, lam):
        # the overcomplete 8x12 Gaussian instances of criterion 2 at weaker
        # regularization: coordinate descent left 6 (lambda 0.1) and 14
        # (lambda 0.01) of them at its 500-sweep cap, with KKT residuals up
        # to 8.9e-3 and 1.5e-2; the active-set steps solve every one
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((8, 12))
            t = rng.standard_normal(8)
            code = nn_lasso(X, t, lambda1=lam, tol=1e-8, max_iter=500)
            assert code.kkt_residual <= 1e-9
            assert code.iterations < 500

    def test_scaling_covariance(self):
        X, t = random_instance(4, 6, 9)
        c = 3.7
        base = nn_lasso(X, t, lambda1=0.2)
        scaled = nn_lasso(c * X, c * t, lambda1=c * c * 0.2)
        assert np.allclose(base.gamma, scaled.gamma, atol=1e-6)

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            nn_lasso(np.eye(3), np.zeros(2))

    def test_non_finite(self):
        X = np.eye(2)
        X[0, 0] = np.nan
        with pytest.raises(errors.NonFiniteInput):
            nn_lasso(X, np.zeros(2))


class TestKktResidual:
    def test_solution_is_stationary(self):
        X, t = random_instance(6, 8, 12)
        code = nn_lasso(X, t, lambda1=0.1)
        assert kkt_residual(X, t, 0.1, code.gamma) <= 1e-6

    def test_origin_optimal_for_huge_lambda(self):
        X, t = random_instance(7, 5, 5)
        assert kkt_residual(X, t, 1e6, np.zeros(5)) == 0.0

    def test_perturbation_increases_residual(self):
        X, t = random_instance(8, 6, 8)
        code = nn_lasso(X, t, lambda1=0.1)
        at_solution = kkt_residual(X, t, 0.1, code.gamma)
        rng = np.random.default_rng(9)
        perturbed = np.maximum(code.gamma + 0.05 * rng.standard_normal(8), 0.0)
        assert kkt_residual(X, t, 0.1, perturbed) > at_solution

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            kkt_residual(np.eye(3), np.zeros(3), 0.1, np.zeros(2))


class TestSoftThreshold:
    def test_tau_zero_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_closed_form_example(self):
        out = soft_threshold(np.array([3.0, -1.0, 0.5]), 1.0)
        assert np.allclose(out, [2.0, 0.0, 0.0])

    def test_negative_tau(self):
        with pytest.raises(errors.NegativeTau):
            soft_threshold(np.zeros(2), -0.1)

    @settings(deadline=None, max_examples=25)
    @given(
        v=st.floats(-5, 5),
        tau=st.floats(0, 3),
    )
    def test_matches_grid_minimizer(self, v, tau):
        got = float(soft_threshold(np.array([v]), tau)[0])
        want = scalar_shrink_grid(v, tau)
        assert abs(got - want) < 1e-4  # grid resolution


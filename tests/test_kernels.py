"""The batched active-set solver, its one-problem view and the block
stage that calls it against the support enumeration and the KKT bound,
and the bilinear sampler against its reference."""

import numpy as np
import pytest

from motion_lsmd import _kernels
from oracles import active_set_nn_lasso, kkt_residual, reference_bilinear_sample


def lasso_instance(seed, d=12, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal(d)


def batch_instance(seed=5, n_problems=200):
    """200 non-negative 30x6 problems on three dictionaries, one of which
    has a zero column, with their dictionaries and targets."""
    rng = np.random.default_rng(seed)
    X = np.abs(rng.standard_normal((3, 30, 6)))
    X[1, :, 2] = 0.0  # a zero column stays at 0
    grams = np.einsum("pij,pik->pjk", X, X)
    which = rng.integers(0, 3, n_problems)
    t = np.abs(rng.standard_normal((n_problems, 30)))
    c = np.einsum("aij,ai->aj", X[which], t)
    tt = np.einsum("ai,ai->a", t, t)
    return grams, which, c, tt, X, t


def dependent_instance(seed):
    """A 5x9 dictionary whose last 5 columns repeat, scale, add or zero
    its first 4: two duplicates, a zero column (6), a scaled copy and a
    sum of two columns."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 4))
    X = np.concatenate([X, X[:, :2], np.zeros((5, 1)), 2.5 * X[:, 3:4], X[:, :1] + X[:, 2:3]], axis=1)
    return X, rng.standard_normal(5)


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bits, so -0.0 != 0.0


class TestScalarKernels:
    def test_block_residuals_solve_each_block(self):
        rng = np.random.default_rng(4)
        dicts = np.abs(rng.standard_normal((4, 16, 5)))
        dicts /= np.linalg.norm(dicts, axis=1, keepdims=True)
        grams = np.einsum("pij,pik->pjk", dicts, dicts)
        blocks = np.abs(rng.standard_normal((4, 16)))
        blocks[2] = 0.0  # an empty block is not solved
        blocks[3] = dicts[3] @ np.array([0.5, 0.0, 2.0, 0.0, 0.0])  # exactly representable
        # each block's coefficients, summed pixel by pixel
        solve = np.array([[True, True, False, True]])
        c = np.zeros((3, 5))
        for a, p in enumerate((0, 1, 3)):
            sq = 0.0
            for i in range(16):
                c[a] += dicts[p, i, :] * blocks[p, i]
                sq += blocks[p, i] * blocks[p, i]
            c[a] /= np.sqrt(sq)
        got, steps = _kernels.block_residuals(grams, c, solve, np.ones(4, dtype=bool), 0.0, 1e-10, 200)
        assert got.shape == steps.shape == (1, 4)
        # not solved; the dictionary has content there, so it is blacked out
        assert got[0, 2] == 1.0 and steps[0, 2] == 0
        for p in (0, 1, 3):
            y = blocks[p] / np.linalg.norm(blocks[p])
            g, obj = active_set_nn_lasso(dicts[p], y, 0.0)
            assert got[0, p] == pytest.approx(np.sqrt(obj), rel=1e-9, abs=1e-7)
            assert 1 <= steps[0, p] < 200
        assert got[0, 3] <= 1e-7  # the square root of rounding noise

    def test_zero_column_pinned(self):
        X = np.array([[1.0, 0.0], [0.5, 0.0]])
        t = np.array([1.0, 1.0])
        g, _r, _s = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-10, 100)
        assert g[1] == 0.0

    @pytest.mark.parametrize("lam, max_iter", [(0.0, 200), (0.05, 500), (0.05, 4)])
    def test_one_problem_view_equals_reference_bytes(self, lam, max_iter):
        # the reference is the batch kernel run on all 40 problems at once
        grams, which, c, tt, _X, _t = batch_instance(n_problems=40)
        want = _kernels.nn_lasso_gram_batch(grams, which, c, tt, lam, 1e-10, max_iter)
        for i in range(40):
            G = grams[which[i]]
            gamma, resid_sq, steps = _kernels.cd_nn_lasso_gram(G, c[i], float(tt[i]), lam, 1e-10, max_iter)
            assert type(resid_sq) is float and type(steps) is int
            assert_same_bytes(gamma, want[0][i])
            assert_same_bytes(resid_sq, want[1][i])
            assert steps == want[2][i]

    def test_one_problem_view_on_gaussian_instances(self):
        # signed dictionaries, more columns than rows, the lambda of nn_lasso
        for seed in range(10):
            X, t = lasso_instance(seed)
            gamma, resid_sq, steps = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.1, 1e-8, 500)
            assert kkt_residual(X, t, 0.1, gamma) <= 1e-9
            r = t - X @ gamma
            assert resid_sq == pytest.approx(float(r @ r), rel=1e-9, abs=1e-12)
            assert 1 <= steps < 500

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.1])
    def test_dependent_columns_match_enumeration(self, lam):
        # equal, scaled, summed and zero columns give singular Gram
        # submatrices: the solver must never solve on one
        for seed in range(40):
            X, t = dependent_instance(seed)
            gamma, resid_sq, steps = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), lam, 1e-10, 200)
            r = t - X @ gamma
            got = float(r @ r + lam * gamma.sum())
            _g, want = active_set_nn_lasso(X, t, lam)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert (gamma >= 0.0).all() and gamma[6] == 0.0  # the zero column
            assert steps < 200


    def test_tolerance_below_rounding_never_solves_a_singular_system(self):
        # with lam = 0 and tol = 1e-300, rounding alone makes a dependent
        # column's w_k pass the tolerance, with a pivot of rounding size and
        # either sign: taking that pivot as regular would free a dependent
        # set, whose solve raises LinAlgError
        for seed in range(40):
            X, t = dependent_instance(seed)
            gamma, _resid_sq, _steps = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.0, 1e-300, 50)
            r = t - X @ gamma
            _g, want = active_set_nn_lasso(X, t, 0.0)
            assert float(r @ r) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_blocking_coordinate_left_positive_by_rounding_is_freed(self):
        # a flat step along the null direction of 4x7 columns (a duplicate,
        # a scaled copy, a sum and a difference of three Gaussian columns)
        # stops at a bound where rounding leaves the blocking coordinate at
        # 4.9e-324: freeing coordinates by a > 0 test would keep it and
        # cycle to the cap
        rng = np.random.default_rng(1048)
        X = rng.standard_normal((4, 3))
        X = np.concatenate([X, X[:, :1], 3.0 * X[:, 1:2], X[:, :1] + X[:, 2:3], X[:, 1:2] - 0.5 * X[:, :1]], axis=1)
        t = rng.standard_normal(4) + X @ np.abs(rng.standard_normal(7)) * 0.5
        gamma, _resid_sq, steps = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-10, 200)
        r = t - X @ gamma
        _g, want = active_set_nn_lasso(X, t, 0.01)
        assert float(r @ r + 0.01 * gamma.sum()) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert steps < 200


class TestBatchedActiveSet:
    def test_matches_enumeration_per_problem(self):
        grams, which, c, tt, X, t = batch_instance()
        for lam in (0.0, 0.05):
            gamma, resid_sq, steps = _kernels.nn_lasso_gram_batch(grams, which, c, tt, lam, 1e-10, 500)
            assert gamma.shape == (200, 6) and resid_sq.shape == (200,) and steps.shape == (200,)
            for i in range(200):
                Xi = X[which[i]]
                _g, want = active_set_nn_lasso(Xi, t[i], lam)
                got = resid_sq[i] + lam * gamma[i].sum()
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert kkt_residual(Xi, t[i], lam, gamma[i]) <= 1e-9
            assert steps.max() < 500
            assert steps.min() < steps.max()  # problems stop at different steps

    def test_capped_problems_report_max_iter(self):
        grams, which, c, tt, _X, _t = batch_instance()
        _gamma, _resid_sq, steps = _kernels.nn_lasso_gram_batch(grams, which, c, tt, 0.05, 1e-10, 2)
        assert (steps == 2).all()  # no problem is solved in one step

    def test_empty_batch(self):
        grams, *_rest = batch_instance()
        gamma, resid_sq, steps = _kernels.nn_lasso_gram_batch(
            grams, np.zeros(0, dtype=np.intp), np.zeros((0, 6)), np.zeros(0), 0.0, 1e-10, 200
        )
        assert gamma.shape == (0, 6) and resid_sq.shape == (0,) and steps.shape == (0,)


class TestBilinearSample:
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 7), (9, 5), (64, 160)])
    def test_bit_equal_to_reference(self, h, w):
        rng = np.random.default_rng(h * 1000 + w)
        pixels = rng.uniform(-1.0, 1.0, (h, w))
        # every edge crossed: corners from two pixels outside to two past
        # the far side, on both axes and at fractional and integer points
        span_r = np.concatenate([np.linspace(-3.0, h + 2.0, 4 * h + 21), np.arange(-3, h + 3)])
        span_c = np.concatenate([np.linspace(-3.0, w + 2.0, 4 * w + 21), np.arange(-3, w + 3)])
        rows, cols = np.meshgrid(span_r, span_c, indexing="ij")
        far = np.array([-1e6, -1e6 + 0.25, -2.5, 0.5, 1e6 - 0.75, 1e6])
        far_r, far_c = np.meshgrid(far, far, indexing="ij")
        batch = rng.uniform(-4.0, h + 4.0, (3, 8, 8)), rng.uniform(-4.0, w + 4.0, (3, 8, 8))
        for r, c in ((rows, cols), (far_r, far_c), batch):
            r_bytes, c_bytes = r.tobytes(), c.tobytes()
            got = _kernels.bilinear_sample(pixels, r, c)
            assert r.tobytes() == r_bytes and c.tobytes() == c_bytes  # the kernel works in place on its own copies
            want = reference_bilinear_sample(pixels, r, c)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bits, so -0.0 != 0.0

"""The batched Gram-form solver, its one-problem view and the block
stage that calls it against the scalar reference loop, and the bilinear
sampler against its reference."""

import numpy as np
import pytest

from motion_lsmd import _kernels
from oracles import reference_bilinear_sample, reference_cd_nn_lasso_gram


def lasso_instance(seed, d=12, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal(d)


def batch_instance(seed=5, n_problems=200):
    """200 non-negative 30x6 problems on three dictionaries, one of which
    has a zero column."""
    rng = np.random.default_rng(seed)
    X = np.abs(rng.standard_normal((3, 30, 6)))
    X[1, :, 2] = 0.0  # a zero column is pinned at 0
    grams = np.einsum("pij,pik->pjk", X, X)
    which = rng.integers(0, 3, n_problems)
    t = np.abs(rng.standard_normal((n_problems, 30)))
    c = np.einsum("aij,ai->aj", X[which], t)
    tt = np.einsum("ai,ai->a", t, t)
    return grams, which, c, tt


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
        # each block's coefficients, summed pixel by pixel
        solve = np.array([[True, True, False, True]])
        c = np.zeros((3, 5))
        for a, p in enumerate((0, 1, 3)):
            sq = 0.0
            for i in range(16):
                c[a] += dicts[p, i, :] * blocks[p, i]
                sq += blocks[p, i] * blocks[p, i]
            c[a] /= np.sqrt(sq)
        got, sweeps = _kernels.block_residuals(grams, c, solve, np.ones(4, dtype=bool), 0.0, 1e-10, 200)
        assert got.shape == sweeps.shape == (1, 4)
        # not solved; the dictionary has content there, so it is blacked out
        assert got[0, 2] == 1.0 and sweeps[0, 2] == 0
        for a, p in enumerate((0, 1, 3)):
            y = blocks[p] / np.linalg.norm(blocks[p])
            _g, rsq, _s = reference_cd_nn_lasso_gram(grams[p], dicts[p].T @ y, 1.0, 0.0, 1e-10, 200)
            assert got[0, p] == pytest.approx(np.sqrt(rsq), rel=1e-9)
            # on the coefficients it is given, the bits
            _g, rsq, want_sweeps = reference_cd_nn_lasso_gram(grams[p], c[a], 1.0, 0.0, 1e-10, 200)
            assert_same_bytes(got[0, p], np.sqrt(rsq))
            assert sweeps[0, p] == want_sweeps

    def test_zero_column_pinned(self):
        X = np.array([[1.0, 0.0], [0.5, 0.0]])
        t = np.array([1.0, 1.0])
        g, _r, _s = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-10, 100)
        assert g[1] == 0.0

    @pytest.mark.parametrize("lam, max_iter", [(0.0, 200), (0.05, 500), (0.05, 4)])
    def test_one_problem_view_equals_reference_bytes(self, lam, max_iter):
        grams, which, c, tt = batch_instance(n_problems=40)
        for i in range(40):
            G = grams[which[i]]
            gamma, resid_sq, sweeps = _kernels.cd_nn_lasso_gram(G, c[i], float(tt[i]), lam, 1e-10, max_iter)
            want_g, want_rsq, want_sweeps = reference_cd_nn_lasso_gram(G, c[i], float(tt[i]), lam, 1e-10, max_iter)
            assert type(resid_sq) is float and type(sweeps) is int
            assert_same_bytes(gamma, want_g)
            assert_same_bytes(resid_sq, want_rsq)
            assert sweeps == want_sweeps

    def test_one_problem_view_on_gaussian_instances(self):
        # signed dictionaries, more columns than rows, the lambda of nn_lasso
        for seed in range(10):
            X, t = lasso_instance(seed)
            args = (X.T @ X, X.T @ t, float(t @ t), 0.1, 1e-8, 500)
            gamma, resid_sq, sweeps = _kernels.cd_nn_lasso_gram(*args)
            want_g, want_rsq, want_sweeps = reference_cd_nn_lasso_gram(*args)
            assert_same_bytes(gamma, want_g)
            assert_same_bytes(resid_sq, want_rsq)
            assert sweeps == want_sweeps


class TestBatchedGramCD:
    def test_matches_scalar_per_problem(self):
        grams, which, c, tt = batch_instance()
        for lam, max_iter in ((0.0, 200), (0.05, 500), (0.05, 4)):
            gamma, resid_sq, sweeps = _kernels.cd_nn_lasso_gram_batch(grams, which, c, tt, lam, 1e-10, max_iter)
            assert gamma.shape == (200, 6) and resid_sq.shape == (200,) and sweeps.shape == (200,)
            for i in range(200):
                want_g, want_rsq, want_sweeps = reference_cd_nn_lasso_gram(
                    grams[which[i]], c[i], float(tt[i]), lam, 1e-10, max_iter
                )
                assert sweeps[i] == want_sweeps
                assert resid_sq[i] == pytest.approx(want_rsq, rel=1e-12, abs=1e-12)
                # each problem's gamma is kept at the sweep where it stops
                assert_same_bytes(gamma[i], want_g)
                assert_same_bytes(resid_sq[i], want_rsq)
            if max_iter == 4:
                assert (sweeps == 4).all()  # every problem hits max_iter
            else:
                assert sweeps.min() < sweeps.max()  # problems stop at different sweeps

    def test_empty_batch(self):
        grams, _which, _c, _tt = batch_instance()
        gamma, resid_sq, sweeps = _kernels.cd_nn_lasso_gram_batch(
            grams, np.zeros(0, dtype=np.intp), np.zeros((0, 6)), np.zeros(0), 0.0, 1e-10, 200
        )
        assert gamma.shape == (0, 6) and resid_sq.shape == (0,) and sweeps.shape == (0,)


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

"""The scalar kernels against each other, and the batched Gram-form
solver against the scalar one."""

import numpy as np
import pytest

from motion_lsmd import _kernels


def lasso_instance(seed, d=12, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal(d)


class TestScalarKernels:
    def test_gram_form_agrees_with_residual_form(self):
        for seed in range(10):
            X, t = lasso_instance(seed, d=30, n=8)
            g_res, resid, _ = _kernels.cd_nn_lasso(X, t, 0.02, 1e-12, 1000)
            G, c = X.T @ X, X.T @ t
            g_gram, rsq, _ = _kernels.cd_nn_lasso_gram(G, c, float(t @ t), 0.02, 1e-12, 1000)
            assert np.allclose(g_res, g_gram, atol=1e-6)
            assert np.isclose(float(resid @ resid), rsq, atol=1e-8)

    def test_block_residuals_solve_each_block(self):
        rng = np.random.default_rng(4)
        dicts = np.abs(rng.standard_normal((4, 16, 5)))
        dicts /= np.linalg.norm(dicts, axis=1, keepdims=True)
        grams = np.einsum("pij,pik->pjk", dicts, dicts)
        blocks = np.abs(rng.standard_normal((4, 16)))
        blocks[2] = 0.0  # a zero block reconstructs exactly
        got = _kernels.block_residuals(grams, dicts, blocks, 0.0, 1e-10, 200)
        assert got[2] == 0.0
        for p in (0, 1, 3):
            y = blocks[p] / np.linalg.norm(blocks[p])
            _g, rsq, _s = _kernels.cd_nn_lasso_gram(grams[p], dicts[p].T @ y, 1.0, 0.0, 1e-10, 200)
            assert got[p] == pytest.approx(np.sqrt(rsq), rel=1e-9)

    def test_zero_column_pinned(self):
        X = np.array([[1.0, 0.0], [0.5, 0.0]])
        t = np.array([1.0, 1.0])
        g, _r, _s = _kernels.cd_nn_lasso(X, t, 0.01, 1e-10, 100)
        assert g[1] == 0.0


class TestBatchedGramCD:
    def test_matches_scalar_per_problem(self):
        rng = np.random.default_rng(5)
        X = np.abs(rng.standard_normal((3, 30, 6)))
        X[1, :, 2] = 0.0  # a zero column is pinned at 0
        grams = np.einsum("pij,pik->pjk", X, X)
        which = rng.integers(0, 3, 200)
        t = np.abs(rng.standard_normal((200, 30)))
        c = np.einsum("aij,ai->aj", X[which], t)
        tt = np.einsum("ai,ai->a", t, t)
        for lam, max_iter in ((0.0, 200), (0.05, 500), (0.05, 4)):
            resid_sq, sweeps = _kernels.cd_nn_lasso_gram_batch(grams, which, c, tt, lam, 1e-10, max_iter)
            for i in range(200):
                _g, want_rsq, want_sweeps = _kernels.cd_nn_lasso_gram(
                    grams[which[i]], c[i], float(tt[i]), lam, 1e-10, max_iter
                )
                assert sweeps[i] == want_sweeps
                assert resid_sq[i] == pytest.approx(want_rsq, rel=1e-12, abs=1e-12)
            if max_iter == 4:
                assert (sweeps == 4).all()  # every problem hits max_iter
            else:
                assert sweeps.min() < sweeps.max()  # problems stop at different sweeps

"""The scalar kernels against each other, the batched Gram-form solver
against the scalar one, and the bilinear sampler against its reference."""

import numpy as np
import pytest

from motion_lsmd import _kernels
from oracles import reference_bilinear_sample


def lasso_instance(seed, d=12, n=20):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.standard_normal(d)


class TestScalarKernels:
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
        g, _r, _s = _kernels.cd_nn_lasso_gram(X.T @ X, X.T @ t, float(t @ t), 0.01, 1e-10, 100)
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

"""Hot numeric kernels, in numpy.

The scalar kernels (``cd_nn_lasso_gram``, ``block_residuals``) solve
one problem at a time; ``sparse.nn_lasso`` runs on the first, and the
tests score particles with both as the reference for the batched solver
the tracker uses (``cd_nn_lasso_gram_batch``). ``bilinear_sample`` warps
patches.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# non-negative lasso coordinate descent, Gram form
#
# minimize ||t - X g||^2 + lam * sum(g)   subject to g >= 0
#
# Per-coordinate closed form, written against G = X'X, c = X't and
# tt = t.t, which the appearance model caches per dictionary:
#   g_k <- max(0, g_k + (2 (c_k - (G g)_k) - lam) / (2 G_kk))
# Columns with G_kk = 0 are pinned to 0. Returns the squared residual.
# ---------------------------------------------------------------------------

def cd_nn_lasso_gram(G, c, tt, lam, tol, max_iter):
    n = G.shape[0]
    gamma = np.zeros(n)
    q = np.zeros(n)
    sweeps = 0
    for sweep in range(max_iter):
        sweeps = sweep + 1
        max_change = 0.0
        for k in range(n):
            gkk = G[k, k]
            if gkk <= 0.0:
                continue
            new = gamma[k] + (2.0 * (c[k] - q[k]) - lam) / (2.0 * gkk)
            if new < 0.0:
                new = 0.0
            delta = new - gamma[k]
            if delta != 0.0:
                q += G[:, k] * delta
                gamma[k] = new
            if abs(delta) > max_change:
                max_change = abs(delta)
        if max_change < tol:
            break
    resid_sq = float(tt + gamma @ (q - 2.0 * c))
    return gamma, max(resid_sq, 0.0), sweeps


def cd_nn_lasso_gram_batch(grams, which, c, tt, lam, tol, max_iter):
    """Many Gram-form problems at once.

    Problem i is ``cd_nn_lasso_gram(grams[which[i]], c[i], tt[i], ...)``
    with grams (K, n, n), which (A,), c (A, n) and tt (A,). Every problem
    takes the scalar update in the same coordinate order, and its result
    is taken at the sweep at which it would have stopped alone, so each
    result equals the scalar one bit for bit. Returns (resid_sq (A,),
    sweeps (A,)).
    """
    A, n = c.shape
    resid_out = np.where(tt < 0.0, 0.0, tt)  # gamma = 0 until a sweep runs
    sweeps_out = np.zeros(A, dtype=np.int64)
    if A == 0:
        return resid_out, sweeps_out
    cols = np.ascontiguousarray(grams.transpose(2, 0, 1))  # cols[k, p] = grams[p][:, k]
    gkk = np.diagonal(grams, axis1=1, axis2=2).T  # (n, K)
    live = gkk > 0.0  # a zero column is pinned at 0
    den = np.where(live, 2.0 * gkk, 1.0)
    pinned = ~live.all(axis=1)

    # A finished problem stays in the working set, its later sweeps
    # unread, until half of the set has finished; so the set is compacted,
    # and its arrays reallocated, O(log A) times.
    ids = np.arange(A)
    gamma = np.zeros((A, n))
    q = np.zeros((A, n))  # G @ gamma per problem
    buf = np.empty((A, n))
    running = np.ones(A, dtype=bool)
    for sweep in range(1, max_iter + 1):
        max_change = np.zeros(len(ids))
        for k in range(n):
            old = gamma[:, k]
            new = old + (2.0 * (c[:, k] - q[:, k]) - lam) / den[k][which]
            new = np.where(new < 0.0, 0.0, new)
            if pinned[k]:
                new = np.where(live[k][which], new, old)
            delta = new - old
            # where delta is 0 this adds exact zeros and leaves q as it is
            np.take(cols[k], which, axis=0, out=buf)
            buf *= delta[:, None]
            q += buf
            gamma[:, k] = new
            # fmax skips a NaN delta, as the scalar comparison does
            np.fmax(max_change, np.abs(delta), out=max_change)
        done = running & (max_change < tol) if sweep < max_iter else running
        if not done.any():
            continue
        np.multiply(c, 2.0, out=buf)
        np.subtract(q, buf, out=buf)
        r = tt[done] + np.vecdot(gamma, buf)[done]
        resid_out[ids[done]] = np.where(r < 0.0, 0.0, r)
        sweeps_out[ids[done]] = sweep
        running &= ~done
        n_run = np.count_nonzero(running)
        if n_run == 0:
            break
        if 2 * n_run <= len(ids):
            ids = ids[running]
            which = which[running]
            c = c[running]
            tt = tt[running]
            gamma = gamma[running]
            q = q[running]
            buf = buf[:n_run]
            running = np.ones(n_run, dtype=bool)
    return resid_out, sweeps_out


# ---------------------------------------------------------------------------
# per-position block coding residuals (generative appearance model)
# ---------------------------------------------------------------------------

def block_residuals(grams, dicts, blocks, lam, tol, max_iter):
    """Residual norm of each unit-scaled block y_p coded on its own
    dictionary D_p, with grams (P, m, m) = D_p'D_p, dicts (P, d, m) and
    blocks (P, d). A zero block reconstructs exactly: residual 0.

    D_p'y and y'y are summed pixel by pixel, the order
    ``tracker._block_coefficients`` keeps.
    """
    P, d, m = dicts.shape
    c = np.zeros((P, m))
    sq = np.zeros(P)
    for i in range(d):
        c += dicts[:, i, :] * blocks[:, i, None]
        sq += blocks[:, i] * blocks[:, i]
    nrm = np.sqrt(sq)
    out = np.zeros(P)
    for p in range(P):
        if nrm[p] <= 0.0:
            continue
        _gamma, resid_sq, _sweeps = cd_nn_lasso_gram(grams[p], c[p] / nrm[p], 1.0, lam, tol, max_iter)
        out[p] = np.sqrt(resid_sq)
    return out


# ---------------------------------------------------------------------------
# bilinear sampling with zero padding outside the image
# ---------------------------------------------------------------------------

def bilinear_sample(pixels, rows, cols):
    """Bilinear sample of ``pixels`` at (rows, cols), grids of any shape
    such as (n, h, w); reads outside the image are 0."""
    h, w = pixels.shape
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    fr = rows - r0
    fc = cols - c0
    # two zero rows and columns on every side: with the base corner
    # clipped to [-2, h] x [-2, w], every corner outside the image reads
    # one of those zeros
    stride = w + 4
    padded = np.zeros((h + 4, stride))
    padded[2:-2, 2:-2] = pixels
    flat = padded.reshape(-1)
    np.clip(r0, -2, h, out=r0)
    np.clip(c0, -2, w, out=c0)
    r0 += 2
    r0 *= stride
    c0 += 2
    r0 += c0
    i = r0.astype(np.intp)
    gr = np.subtract(1.0, fr, out=r0)  # the floors are spent: reuse them
    gc = np.subtract(1.0, fc, out=c0)
    # each corner adds (value * row weight) * column weight, in the order
    # (r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1); a neighbour
    # is read through the padded frame's view offset by 1, stride or
    # stride + 1
    out = flat[i]
    out *= gr
    out *= gc
    for offset, wr, wc in ((1, gr, fc), (stride, fr, gc), (stride + 1, fr, fc)):
        t = flat[offset:][i]
        t *= wr
        t *= wc
        out += t
    return out


def backend_name() -> str:
    """The numeric backend; the benchmark records it with its run facts."""
    return "numpy"

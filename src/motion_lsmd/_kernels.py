"""Hot numeric kernels, in numpy.

``cd_nn_lasso_gram_batch`` is the package's one coordinate-descent loop
for the Gram-form non-negative lasso. The tracker codes every holistic
and block problem of a frame with it; ``block_residuals`` is its block
stage, the residuals of all particles' blocks in one batch, and
``cd_nn_lasso_gram`` is a one-problem call of it, which
``sparse.nn_lasso`` runs. The tests check it against the scalar loop it
replaced, kept as ``tests/oracles.py``'s reference.
``bilinear_sample`` warps patches.
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
# Columns with G_kk = 0 are pinned to 0. A problem stops after the first
# sweep whose largest coordinate change is below tol, or after max_iter
# sweeps; its squared residual is tt + g.(G g - 2 c), clipped at 0.
# ---------------------------------------------------------------------------

def cd_nn_lasso_gram_batch(grams, which, c, tt, lam, tol, max_iter):
    """Many Gram-form problems at once.

    Problem i codes c[i], tt[i] on grams[which[i]], with grams (K, n, n),
    which (A,), c (A, n) and tt (A,). Every problem takes the update above
    in coordinate order 0..n-1, and its result is taken at the sweep at
    which it stops, so it does not depend on the other problems in the
    batch. Returns (gamma (A, n), resid_sq (A,), sweeps (A,)).
    """
    A, n = c.shape
    gamma_out = np.zeros((A, n))
    resid_out = np.where(tt < 0.0, 0.0, tt)  # gamma = 0 until a sweep runs
    sweeps_out = np.zeros(A, dtype=np.int64)
    if A == 0:
        return gamma_out, resid_out, sweeps_out
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
            # fmax skips a NaN delta, as a `>` comparison would
            np.fmax(max_change, np.abs(delta), out=max_change)
        done = running & (max_change < tol) if sweep < max_iter else running
        if not done.any():
            continue
        np.multiply(c, 2.0, out=buf)
        np.subtract(q, buf, out=buf)
        r = tt[done] + np.vecdot(gamma, buf)[done]
        gamma_out[ids[done]] = gamma[done]
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
    return gamma_out, resid_out, sweeps_out


def cd_nn_lasso_gram(G, c, tt, lam, tol, max_iter):
    """One problem, G (n, n), c (n,) and float tt, through the batch.
    Returns (gamma (n,), float resid_sq, int sweeps).

    ``sparse.nn_lasso`` calls it; no CLI command does. perfbench's tracer
    also wraps this name and reads the sweep count r[2] against max_iter
    (argument 5), so the name, the signature and the triple stay.
    """
    gamma, resid_sq, sweeps = cd_nn_lasso_gram_batch(
        np.asarray(G, dtype=np.float64)[None], np.zeros(1, dtype=np.intp),
        np.asarray(c, dtype=np.float64)[None], np.array([tt], dtype=np.float64), lam, tol, max_iter,
    )
    return gamma[0], float(resid_sq[0]), int(sweeps[0])


# ---------------------------------------------------------------------------
# per-position block coding residuals (generative appearance model)
# ---------------------------------------------------------------------------

def block_residuals(grams, c, solve, has_content, lam, tol, max_iter):
    """(residuals (N, P), sweeps (N, P)) of the blocks of N candidates,
    each coded on the dictionary of its position p, grams (P, m, m).

    solve (N, P) marks the non-empty blocks, in raster order, and c (A, m)
    holds their coefficients D_p'y for unit-scaled y; they are coded in
    one batch (yy = 1). An empty block is not solved (0 sweeps): it
    reconstructs exactly, residual 0, unless has_content (P,) says the
    dictionary has content at its position, where it is a blacked-out
    region and takes residual 1.
    """
    n, P = solve.shape
    which = np.broadcast_to(np.arange(P), (n, P))[solve]
    _gamma, resid_sq, sw = cd_nn_lasso_gram_batch(grams, which, c, np.ones(len(which)), lam, tol, max_iter)
    residuals = np.tile(np.where(has_content, 1.0, 0.0), (n, 1))
    residuals[solve] = np.sqrt(resid_sq)
    sweeps = np.zeros((n, P), dtype=np.int64)
    sweeps[solve] = sw
    return residuals, sweeps


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
    """The numeric backend. Only perfbench reads it, to record with its
    run facts, so it stays."""
    return "numpy"

"""Hot numeric kernels, in numpy.

``nn_lasso_gram_batch`` is the package's one solver for the Gram-form
non-negative lasso: a batched active-set method that solves each problem
exactly in a few steps. The tracker codes every holistic and block
problem of a frame with it; ``block_residuals`` is its block stage, the
residuals of all particles' blocks in one batch, and
``cd_nn_lasso_gram`` is a one-problem call of it. The tests check it
against the support enumeration in ``tests/oracles.py`` and by its KKT
residual.
``bilinear_sample`` warps patches.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# non-negative lasso by an active-set method, Gram form
#
# minimize ||t - X g||^2 + lam * sum(g)   subject to g >= 0
#
# written against G = X'X, c = X't and tt = t.t, which the appearance
# model caches per dictionary: the objective is tt + g'G g - 2 c'g +
# lam * sum(g). With b = c - lam/2, w = b - G g is half the negative
# gradient, and the optimum over a free set F solves G_FF g_F = b_F.
#
# A step of the Lawson-Hanson method (Solving Least Squares Problems,
# 1974, ch. 23) either adds the zero coordinate k with the largest w_k
# to F, once g is the optimum on F, or moves g toward the optimum on F.
# Both come from one solve with G_FF and the right-hand sides b_F and
# G_Fk. The second gives the Schur pivot G_kk - G_kF G_FF^-1 G_Fk of
# the added column, and the optimum on F + k by block elimination. A
# column that lies in the span of F's (equal block columns across
# templates, a zero column, an overcomplete dictionary) has a pivot of
# about 0: the objective then falls linearly along (e_k - G_FF^-1 G_Fk),
# so g steps along it to the nearest bound. Any step that meets a bound
# stops there and frees exactly the one coordinate that blocked it, by
# index, so F never holds a dependent set and every G_FF stays regular.
# A problem stops when g is the optimum on F and no w_k exceeds tol, or
# after max_iter steps; its squared residual is tt + g.(G g - 2 c),
# clipped at 0.
# ---------------------------------------------------------------------------

# a pivot at most this share of G_kk is taken as 0: the column lies in
# the span of the free ones, up to rounding
_FLAT_PIVOT = 1e-10


def nn_lasso_gram_batch(grams, which, c, tt, lam, tol, max_iter):
    """Many Gram-form problems at once.

    Problem i codes c[i], tt[i] on grams[which[i]], with grams (K, n, n),
    which (A,), c (A, n) and tt (A,). Each step solves the stacked
    systems of all running problems in one ``np.linalg.solve``, one
    system per problem, so a problem's result does not depend on the
    other problems in the batch. Returns (gamma (A, n), resid_sq (A,),
    steps (A,)): steps counts the optimality checks, the one a problem
    passes included, and reads max_iter for a problem that passed none.
    """
    A, n = c.shape
    gamma_out = np.zeros((A, n))
    resid_out = np.zeros(A)
    steps_out = np.zeros(A, dtype=np.int64)
    eye = np.eye(n)
    ids = np.arange(A)
    G = grams[which]
    b = c - 0.5 * lam
    g = np.zeros((A, n))
    free = np.zeros((A, n), dtype=bool)
    settled = np.ones(A, dtype=bool)  # g is the optimum on its free set
    # the pass after step max_iter only records the problems still running
    for step in range(1, max_iter + 2):
        if len(ids) == 0:
            break
        rows = np.arange(len(ids))
        q = np.vecdot(G, g[:, None, :])  # G @ g per problem
        w = b - q
        k = np.argmax(np.where(free, -np.inf, w), axis=1)
        if step > max_iter:
            done = np.ones(len(ids), dtype=bool)
        else:
            # a full free set reads -inf; a NaN w stops the problem too
            done = settled & ~(w[rows, k] > tol)
        if done.any():
            r = tt[done] + np.vecdot(g[done], q[done] - 2.0 * c[done])
            gamma_out[ids[done]] = g[done]
            resid_out[ids[done]] = np.where(r < 0.0, 0.0, r)
            steps_out[ids[done]] = min(step, max_iter)
            keep = ~done
            ids, G, c, tt, b, g, free, settled, k = (
                x[keep] for x in (ids, G, c, tt, b, g, free, settled, k)
            )
            if len(ids) == 0:
                break
            rows = np.arange(len(ids))
        col = G[rows, :, k]
        # both 0 outside the free set, and everywhere on the first step
        z = np.zeros_like(g)
        u = np.zeros_like(g)
        if free.any():
            system = np.where(free[:, :, None] & free[:, None, :], G, eye)
            rhs = np.stack([np.where(free, b, 0.0), np.where(free, col, 0.0)], axis=2)
            sol = np.linalg.solve(system, rhs)
            z, u = sol[..., 0], sol[..., 1]
        gkk = G[rows, k, k]
        pivot = gkk - np.vecdot(col, u)
        # settled problems add k: a regular pivot gives the optimum on
        # F + k, a flat one a direction of linear descent; the others
        # move toward z, the optimum on F
        curved = settled & (pivot > _FLAT_PIVOT * gkk)
        flat = settled & ~curved
        zk = (b[rows, k] - np.vecdot(col, z)) / np.where(curved, pivot, 1.0)
        target = z - np.where(curved, zk, 0.0)[:, None] * u
        target[rows, k] = np.where(curved, zk, target[rows, k])
        d = np.where(flat[:, None], -u, target - g)
        d[rows, k] = np.where(flat, 1.0, d[rows, k])
        shrink = free & (d < 0.0)
        ratio = np.where(shrink, g / np.where(shrink, -d, 1.0), np.inf)
        j = np.argmin(ratio, axis=1)
        t = ratio[rows, j]
        blocked = t < np.where(flat, np.inf, 1.0)
        # a flat direction that meets no bound comes from rounding alone
        # (w_k > tol with X d = 0 needs lam = 0 and a tol below rounding):
        # g stays, and the problem runs on to its cap
        stay = flat & ~blocked
        g = np.where(
            blocked[:, None], g + np.where(blocked, t, 0.0)[:, None] * d,
            np.where(stay[:, None], g, target),
        )
        np.maximum(g, 0.0, out=g)
        g[rows[blocked], j[blocked]] = 0.0
        free[rows[blocked], j[blocked]] = False
        grow = settled & ~stay
        free[rows[grow], k[grow]] = True
        settled = ~blocked
    return gamma_out, resid_out, steps_out


def cd_nn_lasso_gram(G, c, tt, lam, tol, max_iter):
    """One problem, G (n, n), c (n,) and float tt, through the batch.
    Returns (gamma (n,), float resid_sq, int steps).

    No CLI command calls it. perfbench's tracer wraps this name and reads
    the step count r[2] against max_iter (argument 5) as a cap hit, so
    the name, the signature and the triple stay, though the solver is no
    longer coordinate descent.
    """
    gamma, resid_sq, steps = nn_lasso_gram_batch(
        np.asarray(G, dtype=np.float64)[None], np.zeros(1, dtype=np.intp),
        np.asarray(c, dtype=np.float64)[None], np.array([tt], dtype=np.float64), lam, tol, max_iter,
    )
    return gamma[0], float(resid_sq[0]), int(steps[0])


# ---------------------------------------------------------------------------
# per-position block coding residuals (generative appearance model)
# ---------------------------------------------------------------------------

def block_residuals(grams, c, solve, has_content, lam, tol, max_iter):
    """(residuals (N, P), steps (N, P)) of the blocks of N candidates,
    each coded on the dictionary of its position p, grams (P, m, m).

    solve (N, P) marks the non-empty blocks, in raster order, and c (A, m)
    holds their coefficients D_p'y for unit-scaled y; they are coded in
    one batch (yy = 1). An empty block is not solved (0 steps): it
    reconstructs exactly, residual 0, unless has_content (P,) says the
    dictionary has content at its position, where it is a blacked-out
    region and takes residual 1.
    """
    n, P = solve.shape
    which = np.broadcast_to(np.arange(P), (n, P))[solve]
    _gamma, resid_sq, st = nn_lasso_gram_batch(grams, which, c, np.ones(len(which)), lam, tol, max_iter)
    residuals = np.tile(np.where(has_content, 1.0, 0.0), (n, 1))
    residuals[solve] = np.sqrt(resid_sq)
    steps = np.zeros((n, P), dtype=np.int64)
    steps[solve] = st
    return residuals, steps


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

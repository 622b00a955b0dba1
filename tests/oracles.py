"""Independent numeric oracles used to verify solver outputs.

The oracles share no code with the implementations under test: the
non-negative lasso oracle enumerates support sets, the prox oracles run
projected subgradient descent refined by (a) dual block projections for
group norms and (b) a smoothed quasi-Newton continuation for the nuclear
norm, and the warp oracle interpolates one output pixel at a time. Several
references are exceptions, kept as the exact results the faster code
must reproduce: the reference proposal grid, feature matrix and motion
prior work one patch at a time; the reference warp grid forms the
row and column terms of the affine map at every point of a full
meshgrid; the tracker's reference scorer is its one
batch scorer taken apart, one particle at a time: one warp, then the
support enumeration once per holistic dictionary and once per non-empty
block, on each dictionary's distinct columns, so no reference calls the
package's lasso solver; its reference local dictionary normalises one
block at a time, and its reference block coefficients code every
template slot, copies included, and its reference block score sums
each candidate's unoccluded blocks on their own; the reference bilinear
sampler reads each corner through its own clip, gather and mask before
it lerps; the previous warp grid and bilinear sampler keep the
arithmetic the package used before it split the affine map by axis and
interpolated by lerps, so a test can bound that change; the reference
k-means and index tree are the tree builder as it was before its
distinct-row count and Lloyd step were made cheaper; the reference
singular value thresholding takes a full SVD; the reference tree norm,
tree prox and LSMD loop work node by node and take a second SVD per
iteration for the objective's nuclear norm, and the loop runs on every
column of F, zero columns included; the reference tree cut to a column
subset renumbers one node at a time; and the reference frame
energy builds a tree and runs LSMD for every frame pair, with or without
motion. One entry is no oracle: ``nn_lasso`` codes one instance with the
package's batch kernel, so that criterion 2 and the unit tests check that
kernel against the support enumeration and by ``kkt_residual``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from motion_lsmd import _kernels, errors


# ---------------------------------------------------------------------------
# non-negative lasso: support enumeration
# ---------------------------------------------------------------------------

def active_set_nn_lasso(X: np.ndarray, t: np.ndarray, lam: float):
    """Global optimum of min ||t - X g||^2 + lam*sum(g), g >= 0 by trying
    every support set and solving the stationarity system on it."""
    d, n = X.shape
    best_obj = float(t @ t)  # empty support
    best_g = np.zeros(n)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            Xs = X[:, support]
            # stationarity on the support: 2 Xs'Xs g = 2 Xs't - lam
            A = 2.0 * Xs.T @ Xs
            b = 2.0 * Xs.T @ t - lam
            g_s, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.any(g_s < -1e-12):
                continue
            g_s = np.maximum(g_s, 0.0)
            g = np.zeros(n)
            g[list(support)] = g_s
            r = t - X @ g
            obj = float(r @ r + lam * g.sum())
            if obj < best_obj:
                best_obj, best_g = obj, g
    return best_g, best_obj


# ---------------------------------------------------------------------------
# non-negative lasso, one instance: the package's batch kernel, wrapped
# ---------------------------------------------------------------------------

class BadShape(errors.InputError):
    """X, t or gamma do not fit one instance."""


@dataclass
class SparseCode:
    """Solution of one non-negative lasso instance."""

    gamma: np.ndarray
    objective: float
    iterations: int  # active-set steps, max_iter when capped
    kkt_residual: float


def objective_value(X: np.ndarray, t: np.ndarray, lambda1: float, gamma: np.ndarray) -> float:
    """||t - X gamma||^2 + lambda1 * sum(gamma), the unscaled objective
    (no 1/2 factor)."""
    resid = t - X @ gamma
    return float(resid @ resid + lambda1 * np.sum(gamma))


def kkt_residual(X: np.ndarray, t: np.ndarray, lambda1: float, gamma: np.ndarray) -> float:
    """Max violation of the first-order conditions at a feasible gamma.

    With g_k = -2 x_k.(t - X gamma) + lambda1, a coordinate contributes
    |min(g_k, 0)| when gamma_k = 0 and |g_k| otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if X.ndim != 2 or t.shape != (X.shape[0],) or gamma.shape != (X.shape[1],):
        raise BadShape(f"X {X.shape}, t {t.shape}, gamma {gamma.shape}")
    grad = -2.0 * (X.T @ (t - X @ gamma)) + lambda1
    at_zero = np.abs(np.minimum(grad, 0.0))
    active = np.abs(grad)
    per_coord = np.where(gamma > 0.0, active, at_zero)
    return float(per_coord.max()) if per_coord.size else 0.0


def nn_lasso(
    X: np.ndarray, t: np.ndarray, lambda1: float = 0.01, tol: float = 1e-8, max_iter: int = 500
) -> SparseCode:
    """min ||t - X g||^2 + lambda1 * ||g||_1 subject to g >= 0, by
    ``_kernels.nn_lasso_gram_batch`` on X'X, X't and t't as a batch of
    one: at most max_iter active-set steps, adding a zero coordinate while
    its KKT violation exceeds tol. The objective and KKT residual are then
    taken against X and t."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise BadShape(f"X must be d x n with d,n >= 1, got {X.shape}")
    if t.shape != (X.shape[0],):
        raise BadShape(f"t has shape {t.shape}, expected ({X.shape[0]},)")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(t))):
        raise errors.InputError("X and t must be finite")
    gamma, _resid_sq, steps = _kernels.nn_lasso_gram_batch(
        (X.T @ X)[None], np.zeros(1, dtype=np.intp), (X.T @ t)[None], np.array([float(t @ t)]),
        float(lambda1), float(tol), int(max_iter),
    )
    return SparseCode(
        gamma=gamma[0],
        objective=objective_value(X, t, lambda1, gamma[0]),
        iterations=int(steps[0]),
        kkt_residual=kkt_residual(X, t, lambda1, gamma[0]),
    )


# ---------------------------------------------------------------------------
# scalar soft-threshold: dense grid search
# ---------------------------------------------------------------------------

def scalar_shrink_grid(v: float, tau: float, span: float = 6.0, steps: int = 200001):
    """argmin over a dense grid of 0.5*(z-v)^2 + tau*|z|."""
    zs = np.linspace(-span, span, steps)
    vals = 0.5 * (zs - v) ** 2 + tau * np.abs(zs)
    return float(zs[np.argmin(vals)])


# ---------------------------------------------------------------------------
# prox oracles
# ---------------------------------------------------------------------------

def _tree_groups(tree, tau, lam):
    """Column masks and thresholds: one group per tree node plus one
    singleton group per entry realizing the elementwise l1 term."""
    def masks_for(shape):
        d, n = shape
        groups = []
        for node in tree.nodes:
            m = np.zeros((d, n))
            m[:, node.members] = 1.0
            groups.append((m, tau))
        if lam > 0:
            for i in range(d):
                for j in range(n):
                    m = np.zeros((d, n))
                    m[i, j] = 1.0
                    groups.append((m, tau * lam))
        return groups

    return masks_for


def tree_objective(Z, V, tree, tau, lam):
    val = 0.5 * float(np.sum((Z - V) ** 2))
    for node in tree.nodes:
        val += tau * float(np.linalg.norm(Z[:, node.members]))
    val += tau * lam * float(np.abs(Z).sum())
    return val


def subgradient_descent(V, objective, subgrad, iters=2000):
    """Plain subgradient method with the strongly-convex 1/(t+1) step;
    returns the best iterate seen."""
    z = V.copy()
    best = z.copy()
    best_val = objective(z)
    for t in range(iters):
        g = (z - V) + subgrad(z)
        z = z - g / (t + 1.0)
        val = objective(z)
        if val < best_val:
            best_val = val
            best = z.copy()
    return best


def prox_tree_oracle(V, tree, tau, lam, cycles=20000, tol=1e-13):
    """Numeric prox of tau*(sum_G ||Z_G||_F + lam*||Z||_1).

    A subgradient phase localizes the solution; dual block projections
    (each an exact coordinate minimization of the dual) then converge to
    machine precision. Neither phase uses the closed-form composition.
    """
    def subgrad(Z):
        G = np.zeros_like(Z)
        for node in tree.nodes:
            block = Z[:, node.members]
            nrm = np.linalg.norm(block)
            if nrm > 0:
                G[:, node.members] += tau * block / nrm
        G += tau * lam * np.sign(Z)
        return G

    obj = lambda Z: tree_objective(Z, V, tree, tau, lam)
    z0 = subgradient_descent(V, obj, subgrad, iters=300)

    groups = _tree_groups(tree, tau, lam)(V.shape)
    us = [np.zeros_like(V) for _ in groups]
    Z = V.copy()
    for _ in range(cycles):
        delta = 0.0
        for gi, (mask, tw) in enumerate(groups):
            r = Z + us[gi]
            target = r * mask
            nrm = float(np.linalg.norm(target))
            new_u = target * (tw / nrm) if nrm > tw else target
            delta = max(delta, float(np.abs(new_u - us[gi]).max()))
            Z = r - new_u
            us[gi] = new_u
        if delta < tol:
            break
    # keep whichever point the two phases certify as better
    return Z if obj(Z) <= obj(z0) else z0


def nuclear_objective(Z, V, tau):
    return 0.5 * float(np.sum((Z - V) ** 2)) + tau * float(
        np.linalg.svd(Z, compute_uv=False).sum()
    )


def prox_nuclear_oracle(V, tau, eps_schedule=(1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-13)):
    """Numeric prox of tau*||.||_*: subgradient phase, then quasi-Newton
    minimization of the smoothed objective sum sqrt(sigma^2 + eps^2) with
    eps continuation down to 1e-13.

    The smoothed objective is 1-strongly convex, so ||grad|| bounds the
    distance to its minimizer; the final polish loops until that bound
    certifies 1e-8.
    """
    def subgrad(Z):
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        return tau * U @ Vt

    obj = lambda Z: nuclear_objective(Z, V, tau)
    z = subgradient_descent(V, obj, subgrad, iters=300)

    shape = V.shape

    def smoothed_fg(eps):
        def fg(zvec):
            Z = zvec.reshape(shape)
            U, s, Vt = np.linalg.svd(Z, full_matrices=False)
            sm = np.sqrt(s * s + eps * eps)
            f = 0.5 * np.sum((Z - V) ** 2) + tau * np.sum(sm)
            G = (Z - V) + tau * (U * (s / sm)) @ Vt
            return f, G.reshape(-1)

        return fg

    zf = z.reshape(-1)
    for eps in eps_schedule:
        fg = smoothed_fg(eps)
        for attempt in range(6):
            res = minimize(
                fg, zf, jac=True, method="L-BFGS-B",
                options={"maxiter": 3000, "ftol": 1e-18, "gtol": 1e-14, "maxls": 60},
            )
            zf = res.x
            grad_norm = float(np.linalg.norm(fg(zf)[1]))
            if grad_norm <= 1e-8:
                break
            if attempt % 2 == 1:  # shake off a line-search stall
                zf = zf + 1e-9 * np.random.default_rng(attempt).standard_normal(zf.shape)
    return zf.reshape(shape)


# ---------------------------------------------------------------------------
# proposals: one patch copy at a time
# ---------------------------------------------------------------------------

def reference_extract_proposals(pixels: np.ndarray, patch_size: int, stride: int):
    """(patches, coords) as lists: a copy of each grid patch in raster
    order, and its centre (row, col)."""
    h, w = pixels.shape
    half = patch_size // 2
    patches, coords = [], []
    for r in range(0, h - patch_size + 1, stride):
        for c in range(0, w - patch_size + 1, stride):
            patches.append(pixels[r : r + patch_size, c : c + patch_size].copy())
            coords.append((r + half, c + half))
    return patches, coords


def reference_feature_matrix(patches: list[np.ndarray]) -> np.ndarray:
    """The vectorized patches stacked as columns, each scaled to unit norm."""
    from motion_lsmd.ingest import unit_columns

    return unit_columns(np.stack([p.reshape(-1) for p in patches], axis=1))


def reference_motion_prior(patches: list[np.ndarray]) -> np.ndarray:
    """Each patch's mean, one ``.mean()`` at a time, max-normalized."""
    means = np.array([float(p.mean()) for p in patches])
    top = means.max()
    return means / top if top > 0.0 else np.ones_like(means)


# ---------------------------------------------------------------------------
# warp: per-output-pixel scalar interpolation
# ---------------------------------------------------------------------------

def warp_reference(pixels: np.ndarray, state, out_h: int, out_w: int) -> np.ndarray:
    """One-pixel-at-a-time rendering of the affine warp with bilinear
    interpolation and zero padding, written independently of the
    vectorized implementation."""
    h, w = pixels.shape
    out = np.zeros((out_h, out_w))
    ct, st = math.cos(state.theta), math.sin(state.theta)
    for u in range(out_h):
        gy = -16.0 + u * (32.0 / out_h)
        for v in range(out_w):
            gx = -16.0 + v * (32.0 / out_w)
            sx = state.s * gx
            sy = state.s * state.alpha * gy
            x1 = sx + state.phi * sy
            y1 = sy
            col = state.l_x + ct * x1 - st * y1
            row = state.l_y + st * x1 + ct * y1
            r0, c0 = math.floor(row), math.floor(col)
            fr, fc = row - r0, col - c0
            acc = 0.0
            for (ri, ci, wgt) in (
                (r0, c0, (1 - fr) * (1 - fc)),
                (r0, c0 + 1, (1 - fr) * fc),
                (r0 + 1, c0, fr * (1 - fc)),
                (r0 + 1, c0 + 1, fr * fc),
            ):
                if 0 <= ri < h and 0 <= ci < w:
                    acc += pixels[ri, ci] * wgt
            out[u, v] = acc
    return out


def reference_warp_sample_grids(states, out_h: int, out_w: int):
    """``ingest.warp_sample_grids`` taken over a full (out_h, out_w)
    meshgrid: the row term (sin*phi + cos)*s*alpha*gy and the column term
    sin*s*gx (cos*s*gx for the columns) are formed at every grid point,
    in the same order of operations."""
    from motion_lsmd.ingest import CANONICAL_HALF, CANONICAL_SIZE

    l_x, l_y, theta, s, alpha, phi = np.asarray(states, dtype=np.float64).T[:, :, None, None]
    gy = -CANONICAL_HALF + np.arange(out_h) * (CANONICAL_SIZE / out_h)
    gx = -CANONICAL_HALF + np.arange(out_w) * (CANONICAL_SIZE / out_w)
    gxx, gyy = np.meshgrid(gx, gy)
    ct, st = np.cos(theta), np.sin(theta)
    rows = (l_y + (st * phi + ct) * s * alpha * gyy) + (st * s) * gxx
    cols = (l_x + (ct * phi - st) * s * alpha * gyy) + (ct * s) * gxx
    return rows, cols


def _fetch_corner(pixels, ri, ci):
    """pixels[ri, ci] where (ri, ci) is inside the image, else 0."""
    h, w = pixels.shape
    valid = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
    vals = pixels[np.clip(ri, 0, h - 1), np.clip(ci, 0, w - 1)]
    return np.where(valid, vals, 0.0)


def reference_bilinear_sample(pixels, rows, cols):
    """``_kernels.bilinear_sample`` without the padded frame: each corner
    through its own clip, gather and validity mask, then two lerps along
    the columns and one along the rows."""
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    v00, v01 = _fetch_corner(pixels, r0, c0), _fetch_corner(pixels, r0, c0 + 1)
    v10, v11 = _fetch_corner(pixels, r0 + 1, c0), _fetch_corner(pixels, r0 + 1, c0 + 1)
    top = v00 + fc * (v01 - v00)
    bot = v10 + fc * (v11 - v10)
    return top + fr * (bot - top)


def previous_warp_sample_grids(states, out_h: int, out_w: int):
    """The sample grids as ``ingest.warp_sample_grids`` formed them before
    the affine map was split into a row and a column term: scale, shear,
    rotate and translate, every factor over a full meshgrid."""
    from motion_lsmd.ingest import CANONICAL_HALF, CANONICAL_SIZE

    l_x, l_y, theta, s, alpha, phi = np.asarray(states, dtype=np.float64).T[:, :, None, None]
    gy = -CANONICAL_HALF + np.arange(out_h) * (CANONICAL_SIZE / out_h)
    gx = -CANONICAL_HALF + np.arange(out_w) * (CANONICAL_SIZE / out_w)
    gxx, gyy = np.meshgrid(gx, gy)
    sx = s * gxx
    sy = s * alpha * gyy
    x1 = sx + phi * sy
    y1 = sy
    ct, st = np.cos(theta), np.sin(theta)
    cols = l_x + ct * x1 - st * y1
    rows = l_y + st * x1 + ct * y1
    return rows, cols


def previous_bilinear_sample(pixels, rows, cols):
    """The bilinear sample as ``_kernels.bilinear_sample`` formed it before
    it interpolated by lerps: each corner's value times its row and column
    weights, summed corner by corner."""
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    out = _fetch_corner(pixels, r0, c0) * (1.0 - fr) * (1.0 - fc)
    out = out + _fetch_corner(pixels, r0, c0 + 1) * (1.0 - fr) * fc
    out = out + _fetch_corner(pixels, r0 + 1, c0) * fr * (1.0 - fc)
    out = out + _fetch_corner(pixels, r0 + 1, c0 + 1) * fr * fc
    return out


# ---------------------------------------------------------------------------
# k-means: exhaustive SSE-optimal assignment
# ---------------------------------------------------------------------------

def optimal_sse_partition(points: np.ndarray, k: int):
    """Brute-force minimum within-cluster SSE over all assignments with
    no empty cluster. Returns (best sse, canonical partition frozenset)."""
    n = points.shape[0]
    best_sse = float("inf")
    best_parts = None
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        sse = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assign[i] == c]]
            centroid = members.mean(axis=0)
            sse += float(((members - centroid) ** 2).sum())
        if sse < best_sse - 1e-12:
            best_sse = sse
            best_parts = frozenset(
                frozenset(i for i in range(n) if assign[i] == c) for c in range(k)
            )
    return best_sse, best_parts


def partition_of(assignments: np.ndarray):
    return frozenset(
        frozenset(int(i) for i in np.flatnonzero(assignments == c))
        for c in np.unique(assignments)
    )


# ---------------------------------------------------------------------------
# k-means and index tree: the exact reference for the tree builder
# ---------------------------------------------------------------------------

def reference_kmeans(points: np.ndarray, k: int, seed: int = 0):
    """k-means++ plus Lloyd iterations that count distinct points with
    np.unique(axis=0) and update centroids with one boolean-mask mean per
    cluster. Returns assignments, or None when k exceeds the distinct
    points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    distinct = np.unique(pts, axis=0).shape[0]
    if k > distinct:
        return None

    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = pts[int(np.argmax(d2))]
        else:
            idx = rng.choice(n, p=d2 / total)
            centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        dists = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                cur = dists[np.arange(n), new_assign]
                worst = int(np.argmax(cur))
                new_assign[worst] = c
                dists[worst, :] = np.inf
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[c] = pts[assign == c].mean(axis=0)
    return assign


def reference_index_tree(points: np.ndarray, k: int = 4, seed: int = 0) -> list[dict]:
    """Breadth-first divisive k-means over reference_kmeans. Each node is a
    dict with the keys id, parent, children, members, depth and
    indivisible."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    nodes = [dict(id=0, parent=None, children=[], members=np.arange(n), depth=0, indivisible=False)]
    queue = [0]
    while queue:
        nid = queue.pop(0)
        node = nodes[nid]
        members = node["members"]
        if len(members) < k:
            continue
        sub = pts[members]
        distinct = np.unique(sub, axis=0).shape[0]
        if distinct < 2:
            node["indivisible"] = True
            continue
        keff = min(k, distinct)
        assign = reference_kmeans(sub, keff, seed=seed * 100003 + nid)
        if assign is None:
            node["indivisible"] = True
            continue
        for c in range(keff):
            child = dict(id=len(nodes), parent=nid, children=[], members=members[assign == c],
                         depth=node["depth"] + 1, indivisible=False)
            nodes.append(child)
            node["children"].append(child["id"])
            queue.append(child["id"])
    return nodes


# ---------------------------------------------------------------------------
# tracker observation model: one particle at a time
# ---------------------------------------------------------------------------

def residual_norm(X: np.ndarray, t: np.ndarray, gamma: np.ndarray) -> float:
    """l2 norm of the reconstruction residual t - X gamma."""
    return float(np.linalg.norm(t - X @ gamma))


def reference_local_dict(holistic) -> np.ndarray:
    """``tracker.build_local_dict`` one block at a time: cut each template
    into raster-order blocks and divide each block by its
    ``np.linalg.norm`` (a zero block stays as it is)."""
    from motion_lsmd.tracker import BLOCK

    b = BLOCK
    per_template = []
    for patch in holistic:
        h, w = patch.shape
        grid = np.asarray(patch, dtype=np.float64).reshape(h // b, b, w // b, b).swapaxes(1, 2)
        per_template.append(grid.reshape(-1, b * b))
    P = per_template[0].shape[0]
    out = np.empty((P, b * b, len(holistic)))
    for j, blocks in enumerate(per_template):
        for p in range(P):
            v = blocks[p]
            nrm = np.linalg.norm(v)
            out[p, :, j] = v / nrm if nrm > 0 else v
    return out


def reference_block_coefficients(patches: np.ndarray, templates):
    """``tracker._block_coefficients`` as it was before it coded each
    distinct template once: the product runs over all m template slots,
    copies included, on ``reference_local_dict``."""
    from motion_lsmd.tracker import _block_grid

    local_dict = reference_local_dict(templates.holistic)
    grid = _block_grid(patches)
    n, gh, b, gw, _ = grid.shape
    P = gh * gw
    # pixel-major (b*b, n, P): a sum over axis 0 adds one pixel after another
    y = grid.transpose(2, 4, 0, 1, 3).reshape(b * b, n, P)
    acc = (local_dict.transpose(1, 0, 2)[:, None] * y[..., None]).sum(axis=0)
    nrm = np.sqrt((y * y).sum(axis=0))
    solve = nrm > 0.0
    return acc[solve] / nrm[solve][:, None], solve


def exhaustive_residual(X: np.ndarray, t: np.ndarray, lam: float) -> float:
    """||t - X g|| at the ``active_set_nn_lasso`` optimum over the
    distinct columns of X: a copy of a column changes no optimum, and
    enumerating the supports of copies costs 2^m solves."""
    cols = np.unique(X, axis=1)
    g, _obj = active_set_nn_lasso(cols, t, lam)
    return residual_norm(cols, t, g)


def reference_block_score(residuals, eps_occ):
    """H_g (N,) from block residuals (N, P), one candidate at a time: the
    sum of 1 - residual/eps_occ over the candidate's unoccluded blocks
    alone, divided by P."""
    with np.errstate(over="ignore"):
        terms = 1.0 - residuals / eps_occ
    keep = ~(residuals > eps_occ)
    return np.array([t[k].sum() for t, k in zip(terms, keep)]) / residuals.shape[1]


def reference_particle_scores(frame, states, templates, cfg):
    """Score each particle state of ``score_particles(frame, states,
    templates, cfg)`` on its own: one ``warp_patch``, then one
    ``exhaustive_residual`` per holistic dictionary, on every template
    slot, and per non-empty block, on the slots' ``reference_local_dict``.
    Returns a dict of likelihood (N,), occluded (N, P),
    holistic_residuals (N, 2) and block_residuals (N, P).
    """
    from motion_lsmd.ingest import unit_columns, warp_patch
    from motion_lsmd.tracker import _LOCAL_LAMBDA, BLOCK, AffineState

    lam = cfg.lambda1
    n = len(states)
    b = BLOCK
    local_dict = reference_local_dict(templates.holistic)
    P = local_dict.shape[0]
    has_content = np.any(local_dict != 0.0, axis=(1, 2))
    out = {
        "likelihood": np.empty(n),
        "occluded": np.empty((n, P), dtype=bool),
        "holistic_residuals": np.empty((n, 2)),
        "block_residuals": np.empty((n, P)),
    }
    dictionaries = [
        unit_columns(np.stack([h.reshape(-1) for h in patches], axis=1))
        for patches in (templates.holistic, templates.negatives)
    ]
    for i in range(n):
        cand = warp_patch(frame, AffineState.from_array(states[i]))

        v = cand.reshape(-1)
        nrm = np.linalg.norm(v)
        y = v / nrm if nrm > 0 else v
        for j, dictionary in enumerate(dictionaries):
            out["holistic_residuals"][i, j] = exhaustive_residual(dictionary, y, lam)
        eps_pos, eps_neg = out["holistic_residuals"][i]
        h_d = float(np.clip(np.exp(-(eps_pos - eps_neg) / cfg.sigma_c), 0.0, 1e6))

        h, w = cand.shape
        blocks = cand.reshape(h // b, b, w // b, b).swapaxes(1, 2).reshape(-1, b * b)
        # an empty block is not solved: residual 0, or 1 where the
        # templates have content there
        residuals = np.where(has_content, 1.0, 0.0)
        for p in range(P):
            nrm = np.linalg.norm(blocks[p])
            if nrm > 0.0:
                residuals[p] = exhaustive_residual(local_dict[p], blocks[p] / nrm, _LOCAL_LAMBDA)
        occluded = residuals > cfg.eps_occ
        h_g = float(reference_block_score(residuals[None], cfg.eps_occ)[0])
        out["likelihood"][i] = h_d * h_g
        out["occluded"][i] = occluded
        out["block_residuals"][i] = residuals
    return out


# ---------------------------------------------------------------------------
# LSMD: full-SVD thresholding, node-by-node tree prox and norm, two SVDs
# per iteration
# ---------------------------------------------------------------------------

def reference_prox_nuclear(L, tau):
    """Singular value thresholding through one full SVD (LAPACK gesdd),
    with prox_nuclear's arguments and results: the matrix and its
    thresholded singular values."""
    U, s, Vt = np.linalg.svd(np.asarray(L, dtype=np.float64), full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    X = (U * s) @ Vt
    return X, s


def reference_tree_norm(S, tree) -> float:
    """sum over nodes G of ||S[:, G]||_F, one node at a time."""
    total = 0.0
    for node in tree.nodes:
        total += float(np.linalg.norm(S[:, node.members]))
    return total


def reference_prox_tree_norm(S, tree, tau, lambda_l1=0.0):
    """Elementwise soft threshold, then each node's group shrinkage applied
    to the matrix in turn, deepest nodes first."""
    Z = np.sign(S) * np.maximum(np.abs(S) - tau * lambda_l1, 0.0)
    for node in sorted(tree.nodes, key=lambda nd: -nd.depth):
        cols = node.members
        block = Z[:, cols]
        nrm = float(np.linalg.norm(block))
        if nrm <= tau:
            Z[:, cols] = 0.0
        else:
            Z[:, cols] = block * (1.0 - tau / nrm)
    return Z


def reference_restricted_levels(tree, keep):
    """The level layout (cols, starts, sizes per depth, deepest first) of
    the tree cut to the columns ``keep``, node by node: each node's
    members in ``keep``, renumbered to their positions in ``keep``; a node
    left empty is skipped, and so is a depth left empty."""
    position = {int(c): i for i, c in enumerate(keep)}
    by_depth = {}
    for node in tree.nodes:
        members = [position[int(c)] for c in node.members if int(c) in position]
        if members:
            by_depth.setdefault(node.depth, []).append(members)
    levels = []
    for depth in sorted(by_depth, reverse=True):
        cols, starts, sizes = [], [], []
        for members in by_depth[depth]:
            starts.append(len(cols))
            sizes.append(len(members))
            cols.extend(members)
        levels.append((np.array(cols), np.array(starts), np.array(sizes)))
    return levels


def reference_decompose(data, tree, params):
    """The LSMD loop with a fresh SVD of L for the objective's nuclear norm
    and the node-by-node tree prox. Returns (L, S, objective trace,
    iterations, converged)."""
    def objective(L, S):
        return (
            0.5 * float(np.linalg.norm(data - L - S) ** 2)
            + params.mu_L * float(np.linalg.svd(L, compute_uv=False).sum())
            + params.mu_S * reference_tree_norm(S, tree)
            + params.mu_S * params.lambda_l1 * float(np.abs(S).sum())
        )

    L = np.zeros_like(data)
    S = np.zeros_like(data)
    trace = [objective(L, S)]
    converged = False
    iterations = 0
    for it in range(1, params.max_iter + 1):
        iterations = it
        L, _sv = reference_prox_nuclear(data - S, params.mu_L)
        S = reference_prox_tree_norm(data - L, tree, params.mu_S, params.lambda_l1)
        trace.append(objective(L, S))
        if abs(trace[-2] - trace[-1]) <= params.rel_tol * max(1.0, abs(trace[-2])):
            converged = True
            break
    return L, S, trace, iterations, converged


# ---------------------------------------------------------------------------
# detection: one frame's energy, always through the tree and LSMD
# ---------------------------------------------------------------------------

def reference_frame_energy(frames, t, cfg) -> float:
    """``run_detection``'s energy for frame t without its shortcuts: every
    frame pair builds the clip tree over its own proposal centres (frames
    without motion included), decomposes and scores."""
    from motion_lsmd.detector import frame_activity_energy
    from motion_lsmd.ingest import extract_proposals, feature_matrix, frame_difference
    from motion_lsmd.lsmd import activity_scores, build_index_tree, clustering_points, decompose, motion_prior

    diff = frame_difference(frames[t - 1], frames[t])
    patches, centres = extract_proposals(diff, cfg.patch_size, cfg.stride)
    data = feature_matrix(patches)
    h, w = diff.shape
    tree = build_index_tree(clustering_points(centres, h, w), k=cfg.tree_k, seed=cfg.seed)
    dec = decompose(data, tree, cfg.lsmd)
    scores = activity_scores(dec.S, motion_prior(patches))
    return frame_activity_energy(scores)

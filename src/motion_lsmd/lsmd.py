"""Low-rank + tree-structured-sparse decomposition of a feature matrix.

The column index tree comes from divisive hierarchical k-means (quad
tree, k = 4). Detection builds it once per clip over the proposal
centres (clustering_points), so its groups are spatial neighbourhoods of
the proposal grid. That departs from the feature-driven tree of
structured matrix decomposition (Peng et al., TPAMI 2017), which the
`decompose` command keeps: it clusters each column's position and
feature vector. Either way the prox below is exact, as it is for any
tree-nested groups. The decomposition minimises

    0.5 ||F - L - S||_F^2 + mu_L ||L||_* + mu_S Omega(S) + mu_S l1 ||S||_1

over the pair (L, S), where Omega(S) sums ||S[:, G]||_F over the column
groups G of the tree's nodes. The groups are unweighted: mu_S alone
scales the tree penalty. Minimising out L leaves a function of S whose
smooth part, the Moreau envelope of mu_L ||.||_* at F - S, has a
1-Lipschitz gradient; one proximal gradient step with step 1 is the two
exact proximal steps L = prox_nuclear(F - S) (singular value
thresholding) and S = prox_tree_norm(F - L) (hierarchical group
shrinkage plus elementwise l1). decompose accelerates these steps with
FISTA extrapolation (Beck and Teboulle, SIAM J. Imaging Sci. 2009) and
two adaptive restarts (O'Donoghue and Candes, "Adaptive restart for
accelerated gradient schemes", FoCM 2015):

- function restart: an extrapolated pair whose objective is above the
  last accepted one is dropped, and the step is redone from the accepted
  S without momentum. That plain step minimises over L and then over S,
  so it cannot raise the objective, and the trace is non-increasing by
  construction;
- gradient restart: momentum is reset when the step turns against it,
  so oscillation cannot make one decrease tiny by chance and fire the
  relative-decrease stop early.

decompose solves on F's nonzero columns only, under the index tree
restricted to them (IndexTree.restrict): a zero column of F, such as a
patch of a difference image where nothing moved, is zero in every
iterate, and the rest of L and S is exactly +0.0. An iteration costs one
eigendecomposition of the smaller Gram matrix of the cut F - Y
(prox_nuclear), two after a function restart: the objective's
||L||_* is the sum of the singular values that prox_nuclear has just
thresholded, and its fit term reuses R = F - L, which the sparse step
needs anyway. decompose looks prox_nuclear, prox_tree_norm and tree_norm
up through this module's globals at call time, so a wrapper set there
(perfbench's tracer, a test's call counter) sees every call. The tree
norm and prox work one depth level at a time (IndexTree.levels),
deepest first. Nodes of one depth have disjoint members, so a level is
one segmented sum (np.add.reduceat) over column squared norms and one
vector of group shrink factors; applying the levels children before
parents is the exact prox for tree-nested groups (Jenatton, Mairal,
Obozinski and Bach, "Proximal methods for hierarchical sparse coding",
JMLR 2011).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError


@dataclass
class TreeNode:
    id: int
    parent: int | None
    children: list[int]
    members: np.ndarray  # column indices, ascending
    depth: int
    indivisible: bool = False


class TreeLevel(NamedTuple):
    """The non-empty nodes of one depth, laid out for segmented sums.

    Their members are disjoint, so ``cols`` (each node's members in
    turn) holds every column at most once; the i-th node owns the
    ``sizes[i]`` entries of ``cols`` from ``starts[i]`` on.
    """

    cols: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


@dataclass
class IndexTree:
    """Hierarchy over feature-matrix columns; ids are breadth-first, so
    ``nodes[0]`` is the root and ``nodes[i].id == i``. A node with no
    children is a leaf."""

    nodes: list[TreeNode]

    @cached_property
    def levels(self) -> list[TreeLevel]:
        """One TreeLevel per depth, deepest first; computed on first use,
        so the nodes must not change after it."""
        by_depth: dict[int, list[TreeNode]] = {}
        for node in self.nodes:
            if len(node.members):
                by_depth.setdefault(node.depth, []).append(node)
        levels = []
        for depth in sorted(by_depth, reverse=True):
            group = by_depth[depth]
            sizes = np.array([len(nd.members) for nd in group])
            levels.append(TreeLevel(
                cols=np.concatenate([nd.members for nd in group]),
                starts=np.concatenate([[0], np.cumsum(sizes[:-1])]),
                sizes=sizes,
            ))
        return levels

    @property
    def n_columns(self) -> int:
        return len(self.nodes[0].members)

    def restrict(self, keep: np.ndarray) -> IndexTree:
        """The tree over the columns ``keep`` (ascending indices) of its
        matrix: each node keeps its members in ``keep``, renumbered to
        their positions there. Ids, parents and depths stay, so a node
        left empty stays in ``nodes`` and drops out of ``levels``."""
        pos = np.full(self.n_columns, -1)
        pos[keep] = np.arange(len(keep))
        nodes = []
        for nd in self.nodes:
            members = pos[nd.members]
            nodes.append(TreeNode(
                nd.id, nd.parent, nd.children, members[members >= 0], nd.depth, nd.indivisible
            ))
        return IndexTree(nodes=nodes)


@dataclass
class LsmdParams:
    mu_L: float = 1.0
    mu_S: float = 0.3
    lambda_l1: float = 0.05
    max_iter: int = 200
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.mu_L <= 0 or self.mu_S <= 0:
            raise ValueError("mu_L and mu_S must be > 0")
        if self.lambda_l1 < 0:
            raise ValueError("lambda_l1 must be >= 0")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class Decomposition:
    L: np.ndarray
    S: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# divisive hierarchical k-means
# ---------------------------------------------------------------------------

def _finite_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.all(np.isfinite(pts)):
        raise InputError("clustering points must be finite")
    return pts


def _count_distinct_rows(pts: np.ndarray) -> int:
    """Number of distinct rows of a finite 2-D float64 array, by value.

    Adding 0.0 turns -0.0 into 0.0; each row is then one opaque byte
    string, which np.unique sorts far faster than the one-field-per-column
    structured dtype np.unique(axis=0) would build. Equal bytes mean
    equal values only for finite points, which callers check.
    """
    rows = np.ascontiguousarray(pts + 0.0)
    return np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))).size


def _repair_empty_clusters(assign: np.ndarray, fit: np.ndarray, counts: np.ndarray) -> None:
    """Fill each empty cluster, in index order, with the worst-fit point
    (largest ``fit``, the squared distance to its nearest centroid) among
    the points whose cluster keeps another member.

    ``assign`` and ``counts`` are updated in place. A moved point is alone
    in its new cluster, so it is never picked twice, and no repair empties
    a cluster: with n >= k points some cluster always has a spare member.
    """
    for c in np.flatnonzero(counts == 0):
        worst = int(np.argmax(np.where(counts[assign] > 1, fit, -np.inf)))
        counts[assign[worst]] -= 1
        counts[c] = 1
        assign[worst] = c


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means++ plus Lloyd iterations: per-point cluster
    assignments in range(k), every cluster non-empty.

    Needs 2 <= k <= n points (ValueError otherwise); with fewer than k
    distinct points, centres are seeded on repeated points. Non-finite
    points raise InputError. Nearest-centroid ties break toward the
    lowest centroid index; empty clusters are repaired by moving the
    worst-fit points (``_repair_empty_clusters``).
    """
    pts = _finite_points(points)
    n = pts.shape[0]
    if not 2 <= k <= n:
        raise ValueError(f"kmeans needs 2 <= k <= n points, got k={k}, n={n}")
    # dividing by the power of two that puts max|pts| in [0.5, 1) is exact
    # and keeps the summed squared distances from overflowing
    exp = int(np.frexp(np.max(np.abs(pts)))[1])
    if exp:
        pts = np.ldexp(pts, -exp)

    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is zero; fall back to first unchosen distinct point
            centers[j] = pts[int(np.argmax(d2))]
        else:
            # Generator.choice(n, p=d2 / total) without its checks on p:
            # the same arithmetic and the same draw from the stream
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            centers[j] = pts[int(cdf.searchsorted(rng.random(), side="right"))]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        dists = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)  # ties -> lowest index
        counts = np.bincount(new_assign, minlength=k)
        if not counts.all():
            _repair_empty_clusters(new_assign, dists[np.arange(n), new_assign], counts)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # row-by-row sums, as .mean(axis=0) forms them: a segmented
        # np.add.reduceat sums long clusters pairwise, changing centroid bits
        for c in range(k):
            centers[c] = np.add.reduce(pts[assign == c], axis=0)
        centers /= counts[:, None]
    return assign


def build_index_tree(points: np.ndarray, k: int = 4, seed: int = 0) -> IndexTree:
    """Recursive k-means splits; stops below k members or when a node's
    points are all identical (indivisible). A node with fewer than k
    distinct points splits into as many clusters as it has.

    Points are counted distinct by value (-0.0 equals 0.0); non-finite
    points raise InputError."""
    pts = _finite_points(points)
    n = pts.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    root = TreeNode(id=0, parent=None, children=[], members=np.arange(n), depth=0)
    nodes = [root]
    queue = [0]
    while queue:
        nid = queue.pop(0)
        node = nodes[nid]
        members = node.members
        if len(members) < k:
            continue
        sub = pts[members]
        keff = min(k, _count_distinct_rows(sub))
        if keff < 2:
            node.indivisible = True
            continue
        assign = kmeans(sub, keff, seed=seed * 100003 + nid)
        for c in range(keff):
            mem = members[assign == c]
            child = TreeNode(
                id=len(nodes), parent=nid, children=[], members=mem, depth=node.depth + 1
            )
            nodes.append(child)
            node.children.append(child.id)
            queue.append(child.id)
    return IndexTree(nodes=nodes)


def clustering_points(centres: np.ndarray, height: int, width: int) -> np.ndarray:
    """Per-proposal clustering vector [row/height, col/width]: the
    proposal centres (n, 2) scaled to the frame, over which detection
    builds its clip's index tree."""
    return centres / np.array([height, width], dtype=np.float64)


# ---------------------------------------------------------------------------
# norms and proximal operators
# ---------------------------------------------------------------------------

def _check_tree_shape(S: np.ndarray, tree: IndexTree) -> None:
    if S.ndim != 2 or S.shape[1] != tree.n_columns:
        raise InputError(f"S has {S.shape} columns, tree covers {tree.n_columns}")


def _column_sq_norms(M: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", M, M)


def tree_norm(S: np.ndarray, tree: IndexTree) -> float:
    """Omega(S) = sum over nodes G of ||S[:, G]||_F."""
    S = np.asarray(S, dtype=np.float64)
    _check_tree_shape(S, tree)
    colsq = _column_sq_norms(S)
    total = 0.0
    for level in tree.levels:
        norms = np.sqrt(np.add.reduceat(colsq[level.cols], level.starts))
        total += float(norms.sum())
    return total


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise InputError(f"tau={tau}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def prox_tree_norm(
    S: np.ndarray, tree: IndexTree, tau: float, lambda_l1: float = 0.0
) -> np.ndarray:
    """Prox of tau*(Omega + lambda_l1 * l1): elementwise soft threshold,
    then group shrinkage applied children before parents (exact for
    tree-nested groups).

    Every group shrinkage scales whole columns, so the levels only update
    per-column scales and squared norms; the matrix is scaled once at the
    end. Zeroed groups are set to +0.0.
    """
    if tau < 0 or lambda_l1 < 0:
        raise InputError(f"tau={tau}, lambda_l1={lambda_l1}")
    S = np.asarray(S, dtype=np.float64)
    _check_tree_shape(S, tree)
    Z = soft_threshold(S, tau * lambda_l1)
    colsq = _column_sq_norms(Z)
    scale = np.ones(Z.shape[1])
    for level in tree.levels:
        cols = level.cols
        norms = np.sqrt(np.add.reduceat(colsq[cols], level.starts))
        keep = norms > tau
        factor = np.zeros_like(norms)
        factor[keep] = 1.0 - tau / norms[keep]
        col_factor = np.repeat(factor, level.sizes)
        scale[cols] *= col_factor
        colsq[cols] *= col_factor * col_factor
    Z *= scale
    Z[:, scale == 0.0] = 0.0
    return Z


def nuclear_norm(M: np.ndarray) -> float:
    """Sum of the singular values of M, from one SVD. No stage of the
    program calls it; perfbench's tracer wraps this name, so it stays."""
    return float(np.linalg.svd(M, compute_uv=False).sum())


def prox_nuclear(L: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding, from the eigendecomposition of the
    smaller Gram matrix. Returns the thresholded matrix and its min(m, n)
    singular values in descending order, whose sum is its nuclear norm.

    With A = L, or L^T when L is wide, and A^T A = V diag(lam) V^T, the
    singular values of L are sigma = sqrt(max(lam, 0)). Only the pairs
    with sigma > tau survive the threshold, so the result is
    X = (A V_r) diag(1 - tau / sigma_r) V_r^T (transposed back for a
    wide L): the SVT of Cai, Candes and Shen (SIAM J. Optim. 2010)
    without a full SVD. A is first divided by the smallest power of two
    above max|A|. That is exact, as is scaling the result back, and it
    puts max|A| in [0.5, 1): the Gram entries are then at most
    max(m, n), so squaring can neither overflow nor flush the spectrum
    to zero at any finite scale.

    Error: squaring sets the absolute accuracy of the eigenvalues at
    about eps * sigma_1^2 (eps the unit roundoff), so a singular value
    near tau is off by about eps * sigma_1^2 / tau. The result differs
    from an exact SVT by about eps * sigma_1 * max(1, sigma_1 / tau)
    (a full SVD's error is eps * sigma_1); tests hold it to
    1e-13 * sigma_1 * max(1, sigma_1 / tau) against numpy's SVD.

    When max|A| < 0.5, tau is scaled up with A, and a tau near the float
    limit becomes inf; that zeroes every singular value, as any threshold
    above sigma_1 does.
    """
    L = np.asarray(L, dtype=np.float64)
    top = np.max(np.abs(L), initial=0.0)  # max propagates nan and inf
    if not np.isfinite(top):
        raise InputError("matrix must be finite")
    if tau < 0:
        raise InputError(f"tau={tau}")
    wide = L.shape[0] < L.shape[1]
    A = L.T if wide else L
    exp = int(np.frexp(top)[1])
    A = np.ldexp(A, -exp)
    with np.errstate(over="ignore"):
        t = float(np.ldexp(tau, -exp))
    lam, V = np.linalg.eigh(A.T @ A)  # ascending
    sigma = np.sqrt(np.maximum(lam, 0.0))
    k = int(np.searchsorted(sigma, t, side="right"))  # sigma[k:] > t
    V_r = V[:, k:]
    W = A @ V_r
    W *= 1.0 - t / sigma[k:]
    X = np.ldexp(W @ V_r.T, exp)
    if wide:
        X = X.T
    return X, np.ldexp(np.maximum(sigma[::-1] - t, 0.0), exp)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def check_decomposable(F: np.ndarray) -> np.ndarray:
    """F as a float64 array. Raises InputError unless decompose's
    starting objective, 0.5 ||F||_F^2, is finite: an entry that is not
    finite, or finite entries whose squares sum past the float range,
    would make the objective trace inf or nan."""
    data = np.asarray(F, dtype=np.float64)
    if not np.isfinite(np.vdot(data, data)):
        raise InputError("matrix must be finite, with a finite sum of squares")
    return data


def decompose(
    F: np.ndarray, tree: IndexTree, params: LsmdParams | None = None
) -> Decomposition:
    """Accelerated proximal gradient on S with function and gradient
    restarts (see the module docstring).

    Each iteration extrapolates Y = S + beta (S - S_prev), with
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and beta = (t_k - 1) / t_{k+1},
    and takes L = prox_nuclear(F - Y, mu_L) and
    S = prox_tree_norm(F - L, tree, mu_S, lambda_l1). The
    objective trace holds one accepted pair per iteration and is
    non-increasing; the loop stops when one iteration lowers it by at
    most rel_tol * max(1, |previous|), or after max_iter iterations.
    F is validated by check_decomposable.

    A zero column of F is zero in every iterate: it is zero in F - Y and
    in the thresholded matrix, since no singular vector kept has a
    component there, so also in F - L and in the tree prox, and it adds
    nothing to any term of the objective. So the loop runs on F's
    nonzero columns under the tree restricted to them, and the other
    columns of L and S are +0.0.
    """
    if params is None:
        params = LsmdParams()
    data = check_decomposable(F)
    _check_tree_shape(data, tree)
    keep = np.flatnonzero(data.any(axis=0))
    if len(keep) == data.shape[1]:
        return _solve(data, tree, params)
    # a C-ordered copy: BLAS takes another path on the Fortran-ordered
    # result of fancy indexing, which moves the bits of a solve
    dec = _solve(np.ascontiguousarray(data[:, keep]), tree.restrict(keep), params)
    L, S = np.zeros_like(data), np.zeros_like(data)
    L[:, keep] = dec.L
    S[:, keep] = dec.S
    return Decomposition(L, S, dec.objective_trace, dec.iterations, dec.converged)


def _solve(data: np.ndarray, tree: IndexTree, params: LsmdParams) -> Decomposition:
    """decompose's loop on a validated F and the tree over its columns."""

    def objective(residual: np.ndarray, S: np.ndarray, nuclear: float) -> float:
        # residual = data - L - S; nuclear = ||L||_*. An all-zero S adds 0
        # to the l1 term, also where mu_S * lambda_l1 overflows to inf
        l1 = float(np.abs(S).sum())
        return (
            0.5 * float(np.linalg.norm(residual) ** 2)
            + params.mu_L * nuclear
            + params.mu_S * tree_norm(S, tree)
            + (params.mu_S * params.lambda_l1 * l1 if l1 else 0.0)
        )

    def step(point: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        # the pair (L, S) one proximal gradient step takes from point, and
        # its objective; the prox input data - L becomes the residual in
        # place, and is freed before the next prox_nuclear
        L, sv = prox_nuclear(data - point, params.mu_L)
        R = data - L
        S = prox_tree_norm(R, tree, params.mu_S, params.lambda_l1)
        R -= S
        return L, S, objective(R, S, float(sv.sum()))

    S = S_prev = np.zeros_like(data)
    t = 1.0
    trace = [objective(data, S, 0.0)]
    converged = False
    iterations = 0
    for it in range(1, params.max_iter + 1):
        iterations = it
        t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        beta = (t - 1.0) / t_next
        Y = S + beta * (S - S_prev) if beta > 0.0 else S
        L, S_new, obj = step(Y)
        if beta > 0.0 and obj > trace[-1]:
            # function restart: a plain step from the accepted S
            L, S_new, obj = step(S)
            t_next = 1.0
        elif np.vdot(Y - S_new, S_new - S) > 0.0:
            # gradient restart: the step turned against the momentum
            t_next = 1.0
        S_prev, S, t = S, S_new, t_next
        trace.append(obj)
        prev, cur = trace[-2], trace[-1]
        if abs(prev - cur) <= params.rel_tol * max(1.0, abs(prev)):
            converged = True
            break
    return Decomposition(L=L, S=S, objective_trace=trace, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# per-proposal activity scores
# ---------------------------------------------------------------------------

def motion_prior(patches: np.ndarray) -> np.ndarray:
    """Mean intensity per proposal patch of ``patches`` (n, p, p),
    max-normalized to [0, 1].

    An all-zero prior maps to uniform 1 so it never suppresses scores.
    """
    means = patches.mean(axis=(1, 2))
    top = means.max() if means.size else 0.0
    if top <= 0.0:
        return np.ones_like(means)
    return means / top


def activity_scores(S: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """score_j = prior_j * ||S column j||_2."""
    S = np.asarray(S, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (S.shape[1],):
        raise InputError(f"S {S.shape}, prior {prior.shape}")
    return prior * np.linalg.norm(S, axis=0)

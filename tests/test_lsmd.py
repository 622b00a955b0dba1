import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motion_lsmd import errors, lsmd
from motion_lsmd.detector import DetectorConfig, SynthSpec, frame_activity_energy, synth_sequence
from motion_lsmd.ingest import extract_proposals, feature_matrix, frame_difference
from motion_lsmd.lsmd import (
    IndexTree,
    LsmdParams,
    _count_distinct_rows,
    _repair_empty_clusters,
    activity_scores,
    build_index_tree,
    clustering_points,
    decompose,
    kmeans,
    motion_prior,
    prox_nuclear,
    prox_tree_norm,
    tree_norm,
)

from oracles import (
    nuclear_objective,
    optimal_sse_partition,
    partition_of,
    prox_nuclear_oracle,
    prox_tree_oracle,
    reference_decompose,
    reference_index_tree,
    reference_kmeans,
    reference_prox_nuclear,
    reference_prox_tree_norm,
    reference_restricted_levels,
    reference_tree_norm,
    tree_objective,
)


def check_tree_invariants(tree: IndexTree, n: int, k: int):
    root = tree.nodes[0]
    assert sorted(root.members.tolist()) == list(range(n))
    assert sum(1 for nd in tree.nodes if nd.parent is None) == 1
    for node in tree.nodes:
        assert len(node.children) <= k
        if node.children:
            child_members = np.concatenate([tree.nodes[c].members for c in node.children])
            assert sorted(child_members.tolist()) == sorted(node.members.tolist())
            assert len(set(child_members.tolist())) == len(child_members)
        else:
            assert len(node.members) < k or node.indivisible


def points_with(bad):
    pts = np.arange(24, dtype=np.float64).reshape(8, 3)
    pts[5, 1] = bad
    return pts


def random_tree(seed, n=10, dim=2, k=4):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim)) * 10
    return build_index_tree(pts, k=k, seed=seed), pts


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

class TestKmeans:
    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [8.0, 8.0], [8.2, 8.0]])
        assign = kmeans(pts, 2, seed=42)
        _sse, best = optimal_sse_partition(pts, 2)
        assert partition_of(assign) == best

    def test_k_exceeding_distinct_points(self):
        # k-means only partitions: with fewer distinct points than k it
        # still fills every cluster
        pts = np.array([[0.0], [0.0], [1.0]])
        assert sorted(kmeans(pts, 3, seed=0).tolist()) == [0, 1, 2]
        assert set(kmeans(np.ones((5, 3)), 4, seed=0).tolist()) == {0, 1, 2, 3}

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            kmeans(np.array([[0.0], [0.0], [1.0]]), 4, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.random((30, 3))
        a1 = kmeans(pts, 4, seed=9)
        a2 = kmeans(pts, 4, seed=9)
        assert np.array_equal(a1, a2)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            pts = rng.random((12, 2))
            assign = kmeans(pts, 4, seed=seed)
            assert set(assign.tolist()) == {0, 1, 2, 3}

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            kmeans(np.zeros((3, 2)), 1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(errors.InputError, match="clustering points must be finite"):
            kmeans(points_with(bad), 4, seed=0)

    def test_repair_fills_several_empty_clusters(self):
        # every point in cluster 0: each empty cluster takes a different
        # point, worst fit first, and no cluster is left empty
        assign = np.zeros(4, dtype=np.int64)
        counts = np.bincount(assign, minlength=4)
        _repair_empty_clusters(assign, np.array([0.1, 0.4, 0.3, 0.2]), counts)
        assert assign.tolist() == [0, 1, 2, 3]
        assert counts.tolist() == [1, 1, 1, 1]

    def test_repair_never_empties_a_cluster(self):
        # the worst-fit point is alone in cluster 2, so the next worst
        # point, from cluster 0, fills cluster 1
        assign = np.array([0, 0, 2, 0, 3])
        counts = np.bincount(assign, minlength=4)
        _repair_empty_clusters(assign, np.array([0.5, 0.1, 9.0, 0.2, 0.3]), counts)
        assert assign.tolist() == [1, 0, 2, 0, 3]
        assert counts.tolist() == np.bincount(assign, minlength=4).tolist()


# ---------------------------------------------------------------------------
# index tree
# ---------------------------------------------------------------------------

class TestBuildIndexTree:
    def test_three_points_single_leaf(self):
        tree, _ = random_tree(0, n=3)
        assert len(tree.nodes) == 1
        assert not tree.nodes[0].children

    def test_branching_at_most_four(self):
        for seed in range(10):
            tree, pts = random_tree(seed, n=40, dim=3)
            assert all(len(nd.children) <= 4 for nd in tree.nodes)

    def test_four_separated_pairs(self):
        base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        pts = np.vstack([base, base + [0.3, 0.0]])
        tree = build_index_tree(pts, k=4, seed=1)
        root = tree.nodes[0]
        assert len(root.children) == 4
        got = frozenset(
            frozenset(tree.nodes[c].members.tolist()) for c in root.children
        )
        _sse, best = optimal_sse_partition(pts, 4)
        assert got == best
        assert all(not tree.nodes[c].children for c in root.children)

    def test_partition_invariants_random(self):
        for seed in range(100):
            n = 1 + seed % 37
            tree, _ = random_tree(seed, n=n)
            check_tree_invariants(tree, n, 4)

    def test_determinism(self):
        tree1, pts = random_tree(3, n=25)
        tree2 = build_index_tree(pts, k=4, seed=3)
        for a, b in zip(tree1.nodes, tree2.nodes):
            assert a.id == b.id and a.parent == b.parent
            assert np.array_equal(a.members, b.members)

    def test_depth_bound(self):
        # depth <= ceil(log4 n) + 2 for general-position points
        for seed in range(20):
            n = 20 + seed
            tree, _ = random_tree(seed, n=n)
            bound = int(np.ceil(np.log(n) / np.log(4))) + 2
            assert max(nd.depth for nd in tree.nodes) <= bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(errors.InputError, match="clustering points must be finite"):
            build_index_tree(points_with(bad), k=4, seed=0)

    def test_duplicated_points_terminate(self):
        pts = np.zeros((17, 2))
        tree = build_index_tree(pts, k=4, seed=0)
        assert tree.nodes[0].indivisible
        check_tree_invariants(tree, 17, 4)

    def test_identical_points_indivisible(self):
        tree = build_index_tree(np.ones((5, 3)), k=4, seed=0)
        assert len(tree.nodes) == 1 and tree.nodes[0].indivisible

    def test_fewer_distinct_points_than_k_split_into_that_many(self):
        # 3 distinct rows under k = 4: three children, one per row
        pts = np.array([[0.0], [-0.0], [1.0], [2.0], [1.0]])
        tree = build_index_tree(pts, k=4, seed=0)
        root = tree.nodes[0]
        assert not root.indivisible and len(root.children) == 3
        groups = {frozenset(tree.nodes[c].members.tolist()) for c in root.children}
        assert groups == {frozenset({0, 1}), frozenset({2, 4}), frozenset({3})}
        check_tree_invariants(tree, 5, 4)

    def test_clustering_points_layout(self):
        pts = clustering_points(np.array([(0, 0), (5, 10), (10, 20)]), height=10, width=20)
        assert pts.shape == (3, 2)
        assert np.array_equal(pts, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# the tree builder against its exact reference
# ---------------------------------------------------------------------------

@st.composite
def rows_with_duplicates(draw):
    """Rows picked with repetition from a small pool, so duplicates and
    rows that differ only in the sign of a zero are common."""
    cols = draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 6)), cols), elements=value))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20))
    return pool[picks]


def signed_zero_points(seed, n=40, dim=6):
    """Points on a coarse grid with zeros of both signs and repeated rows."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-1, 2, (n, dim)) * 0.5
    pts = np.where((pts == 0) & (rng.random((n, dim)) < 0.5), -0.0, pts)
    pts[n // 2 : n // 2 + 10] = pts[:10]
    return pts


def assert_same_tree(tree: IndexTree, ref: list[dict]):
    assert len(tree.nodes) == len(ref)
    for node, want in zip(tree.nodes, ref):
        assert node.id == want["id"] and node.parent == want["parent"]
        assert node.children == want["children"]
        assert np.array_equal(node.members, want["members"])
        assert node.depth == want["depth"] and node.indivisible == want["indivisible"]


class TestTreeIdentity:
    @settings(max_examples=300, deadline=None)
    @given(rows_with_duplicates())
    @example(np.array([[0.0], [-0.0], [1.0]]))
    @example(np.array([[-0.0, 2.0, 0.0]]))
    def test_distinct_rows_match_unique(self, pts):
        assert _count_distinct_rows(pts) == np.unique(pts, axis=0).shape[0]

    def test_detection_clip_trees(self):
        # one tree per clip, over the proposal centres of its frame size
        for (h, w), patch_size, stride, seed in (((64, 64), 16, 8, 0), ((64, 64), 16, 8, 3),
                                                  ((48, 48), 16, 8, 1), ((64, 160), 16, 8, 0),
                                                  ((64, 64), 8, 4, 2)):
            _patches, centres = extract_proposals(np.zeros((h, w)), patch_size, stride)
            pts = clustering_points(centres, h, w)
            assert_same_tree(build_index_tree(pts, 4, seed), reference_index_tree(pts, 4, seed))

    def test_decompose_style_trees(self):
        for seed in range(10):
            data = signed_zero_points(seed).T  # duplicate columns, zeros of both signs
            n = data.shape[1]
            pos = (np.arange(n, dtype=np.float64) / (n - 1))[:, None]
            for pts in (np.hstack([pos, data.T]), data.T):
                assert_same_tree(build_index_tree(pts, 4, seed), reference_index_tree(pts, 4, seed))

    def test_criterion_5_point_set_trees(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.random((1 + seed % 53, 3)) * 10
            assert_same_tree(build_index_tree(pts, 4, seed), reference_index_tree(pts, 4, seed))

    def test_kmeans_assignments(self):
        rng = np.random.default_rng(11)
        cases = [signed_zero_points(s, n=30, dim=3) for s in range(20)]
        cases += [rng.random((int(rng.integers(5, 60)), int(rng.integers(1, 5)))) for _ in range(40)]
        cases += [rng.random(25)]  # 1-D points
        for i, pts in enumerate(cases):
            for k in (2, 3, 4, 5):
                # the reference answers None when k exceeds the distinct
                # points, a split the tree builder never asks kmeans for
                want = reference_kmeans(pts, k, seed=i)
                if want is not None:
                    assert np.array_equal(kmeans(pts, k, seed=i), want)


# ---------------------------------------------------------------------------
# norms and proximal operators
# ---------------------------------------------------------------------------

class TestTreeNorm:
    def test_zero(self):
        tree, _ = random_tree(1, n=6)
        assert tree_norm(np.zeros((4, 6)), tree) == 0.0

    def test_single_leaf_is_frobenius(self):
        tree = build_index_tree(np.zeros((3, 1)), k=4, seed=0)
        S = np.random.default_rng(0).standard_normal((5, 3))
        assert np.isclose(tree_norm(S, tree), np.linalg.norm(S))

    def test_positive_homogeneity(self):
        tree, _ = random_tree(2, n=9)
        S = np.random.default_rng(1).standard_normal((4, 9))
        assert np.isclose(tree_norm(2 * S, tree), 2 * tree_norm(S, tree))

    def test_shape_mismatch(self):
        tree, _ = random_tree(3, n=5)
        with pytest.raises(errors.InputError, match="columns, tree covers"):
            tree_norm(np.zeros((2, 4)), tree)


class TestProxTreeNorm:
    def test_tau_zero_identity(self):
        tree, _ = random_tree(4, n=6)
        S = np.random.default_rng(2).standard_normal((3, 6))
        out = prox_tree_norm(S, tree, 0.0, 0.0)
        assert np.array_equal(out, S)

    def test_single_group_shrinkage(self):
        tree = build_index_tree(np.zeros((3, 1)), k=4, seed=0)
        S = np.random.default_rng(3).standard_normal((4, 3))
        S *= 5.0 / np.linalg.norm(S)
        out = prox_tree_norm(S, tree, 1.0, 0.0)
        assert np.allclose(out, S * (4.0 / 5.0))

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            n = int(rng.integers(4, 8))
            tree, _ = random_tree(seed, n=n, k=3)
            S = rng.standard_normal((3, n))
            tau = float(rng.uniform(0.2, 1.0))
            lam = float(rng.choice([0.0, 0.3]))
            got = prox_tree_norm(S, tree, tau, lam)
            want = prox_tree_oracle(S, tree, tau, lam)
            assert np.abs(got - want).max() <= 1e-6
            gap = abs(
                tree_objective(got, S, tree, tau, lam)
                - tree_objective(want, S, tree, tau, lam)
            )
            assert gap <= 1e-5

    def test_non_expansive(self):
        tree, _ = random_tree(6, n=7)
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = rng.standard_normal((4, 7))
            B = rng.standard_normal((4, 7))
            pa = prox_tree_norm(A, tree, 0.5, 0.1)
            pb = prox_tree_norm(B, tree, 0.5, 0.1)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(A - B) + 1e-12

    def test_negative_tau(self):
        tree, _ = random_tree(8, n=4)
        with pytest.raises(errors.InputError, match="tau=-1.0, lambda_l1="):
            prox_tree_norm(np.zeros((2, 4)), tree, -1.0)


def criterion_5_trees():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = rng.random((1 + seed % 53, 3)) * 10
        yield build_index_tree(pts, 4, seed)


def indivisible_trees():
    # duplicate points make indivisible nodes with >= k members, at the
    # root and below it
    yield build_index_tree(np.zeros((17, 2)), 4, 0)
    for seed in range(10):
        base = np.random.default_rng(seed).random((12, 2))
        tree = build_index_tree(np.vstack([base, np.repeat(base[:3], 5, axis=0)]), 4, seed)
        assert sum(nd.indivisible for nd in tree.nodes) == 3
        yield tree


def zero_some_blocks(S, tree, rng):
    """Zero the columns of a random leaf and of a random subtree."""
    leaves = [nd for nd in tree.nodes if not nd.children]
    S[:, leaves[rng.integers(len(leaves))].members] = 0.0
    S[:, tree.nodes[rng.integers(len(tree.nodes))].members] = 0.0
    return S


class TestLevelBatchedTreeProx:
    """The level-batched norm and prox against the node-by-node reference."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(21)
        for i, tree in enumerate(itertools.chain(criterion_5_trees(), indivisible_trees())):
            n = tree.n_columns
            S = rng.standard_normal((5, n)) * rng.uniform(0.1, 3.0, n)
            if i % 2:
                S = zero_some_blocks(S, tree, rng)
            yield tree, S, float(rng.uniform(0.1, 1.5)), (0.0, 0.3)[i % 3 == 0]
        tree = build_index_tree(np.random.default_rng(3).random((20, 2)), 4, 3)
        yield tree, np.zeros((4, 20)), 0.5, 0.3

    def test_tree_norm_matches_reference(self):
        for tree, S, _tau, _lam in self.cases():
            want = reference_tree_norm(S, tree)
            got = tree_norm(S, tree)
            assert abs(got - want) <= 1e-12 * want if want else got == 0.0

    def test_prox_matches_reference(self):
        for tree, S, tau, lam in self.cases():
            want = reference_prox_tree_norm(S, tree, tau, lam)
            got = prox_tree_norm(S, tree, tau, lam)
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(S).max(), 1.0)
            # the same zeros, with the same signs, so written bytes match
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRestrictTree:
    """IndexTree.restrict against the node-by-node cut."""

    @staticmethod
    def trees():
        for seed, k in itertools.product(range(5), (2, 3, 4)):
            rng = np.random.default_rng(seed)
            pts = rng.random((25, 2))
            pts[rng.integers(25, size=8)] = pts[rng.integers(25, size=8)]  # duplicates
            yield build_index_tree(pts, k=k, seed=seed)

    @staticmethod
    def keeps(tree, rng):
        n = tree.n_columns
        yield np.array([], dtype=np.int64)
        yield np.array([rng.integers(n)])
        # empties the subtrees under two children of the root
        first, second = tree.nodes[0].children[:2]
        dropped = np.concatenate([tree.nodes[first].members, tree.nodes[second].members])
        yield np.setdiff1d(np.arange(n), dropped)
        yield np.sort(rng.choice(n, n // 2, replace=False))
        yield np.arange(n)

    @staticmethod
    def assert_same_levels(got, want):
        assert len(got) == len(want)
        for level, ref in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(level, ref))

    def test_levels_match_node_by_node_cut(self):
        rng = np.random.default_rng(24)
        for tree in self.trees():
            for keep in self.keeps(tree, rng):
                cut = tree.restrict(keep)
                assert cut.n_columns == len(keep)
                self.assert_same_levels(cut.levels, reference_restricted_levels(tree, keep))
            self.assert_same_levels(tree.restrict(np.arange(tree.n_columns)).levels, tree.levels)


class TestProxNuclear:
    def test_tau_zero_identity(self):
        M = np.random.default_rng(8).standard_normal((4, 5))
        assert np.allclose(prox_nuclear(M, 0.0)[0], M, atol=1e-9)

    def test_diagonal_example(self):
        out, _sv = prox_nuclear(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)
        again, sv = prox_nuclear(np.diag([3.0, 1.0]), 1.0)
        assert np.array_equal(again, out) and sv.tolist() == [2.0, 0.0]

    def test_matches_numeric_oracle(self):
        # contract tolerance is the 1e-5 objective gap; the point check is
        # a sanity bound at the oracle's own smoothing accuracy
        rng = np.random.default_rng(9)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            V = rng.standard_normal((m, n))
            tau = float(rng.uniform(0.2, 1.5))
            got, _sv = prox_nuclear(V, tau)
            want = prox_nuclear_oracle(V, tau)
            assert abs(nuclear_objective(got, V, tau) - nuclear_objective(want, V, tau)) <= 1e-5
            assert np.abs(got - want).max() <= 1e-5

    def test_non_expansive(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            A = rng.standard_normal((3, 4))
            B = rng.standard_normal((3, 4))
            assert np.linalg.norm(prox_nuclear(A, 0.7)[0] - prox_nuclear(B, 0.7)[0]) <= np.linalg.norm(
                A - B
            ) + 1e-12

    def test_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            M = np.zeros((2, 2))
            M[0, 0] = bad
            with pytest.raises(errors.InputError, match="^matrix must be finite$"):
                prox_nuclear(M, 0.1)


SVT_CASES = {
    # name: (shape, spectrum, sigma_1 / tau or None for tau = 0, scale)
    "tall": ((40, 25), "gauss", 10.0, 1.0),
    "wide": ((25, 40), "gauss", 10.0, 1.0),
    "square": ((30, 30), "gauss", 10.0, 1.0),
    "row": ((1, 9), "gauss", 10.0, 1.0),
    "row-cut": ((1, 9), "gauss", 0.5, 1.0),
    "column": ((9, 1), "gauss", 10.0, 1.0),
    "rank-3-tall": ((40, 30), "rank-3", 10.0, 1.0),
    "rank-3-wide": ((30, 40), "rank-3", 1e6, 1.0),
    "zero": ((5, 4), "zero", 10.0, 1.0),
    "zero-tau-zero": ((5, 4), "zero", None, 1.0),
    "tau-zero-tall": ((40, 25), "gauss", None, 1.0),
    "tau-zero-wide": ((25, 40), "gauss", None, 1.0),
    **{f"ratio-1e{k}": ((60, 45), "spread", 10.0**k, 1.0) for k in range(1, 7)},
    "huge": ((40, 25), "spread", 1e3, 1e300),
    "huge-wide-rank-3": ((25, 40), "rank-3", 1e6, 1e300),
    "tiny": ((40, 25), "spread", 1e3, 1e-300),
    "tiny-wide-rank-3": ((25, 40), "rank-3", 1e6, 1e-300),
}


def svt_case(name):
    """(L, tau) for one SVT_CASES entry. "spread" has singular values
    log-spaced from 1 to 1e-8, so some sit near tau at every ratio; a
    zero matrix takes tau = scale / ratio."""
    (m, n), spectrum, ratio, scale = SVT_CASES[name]
    rng = np.random.default_rng(list(SVT_CASES).index(name))
    if spectrum == "gauss":
        L = rng.standard_normal((m, n))
    elif spectrum == "rank-3":
        L = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    elif spectrum == "spread":
        k = min(m, n)
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        V = np.linalg.qr(rng.standard_normal((n, k)))[0]
        L = (U * np.logspace(0, -8, k)) @ V.T
    else:
        L = np.zeros((m, n))
    L *= scale
    s1 = np.linalg.svd(L, compute_uv=False)[0]
    if ratio is None:
        return L, 0.0
    return L, (s1 if s1 > 0 else scale) / ratio


class TestGramThresholding:
    """prox_nuclear (smaller Gram matrix) against reference_prox_nuclear
    (one full SVD)."""

    @staticmethod
    def tolerance(sv, tau):
        """1e-13 * s1 * max(1, s1 / tau), the Gram route's error bound for
        singular values sv (descending). At tau = 0 nothing is cut, and
        the smallest singular value, the one nearest the threshold, stands
        in for tau."""
        s1 = sv[0]
        if s1 == 0.0:
            return 0.0
        return 1e-13 * s1 * max(1.0, s1 / (tau if tau > 0 else sv[-1]))

    @pytest.mark.parametrize("name", list(SVT_CASES))
    def test_matches_full_svd(self, name):
        L, tau = svt_case(name)
        X, s = prox_nuclear(L, tau)
        X_ref, s_ref = reference_prox_nuclear(L, tau)
        tol = self.tolerance(np.linalg.svd(L, compute_uv=False), tau)
        assert X.shape == L.shape and s.shape == (min(L.shape),)
        assert np.all(np.isfinite(X)) and np.all(np.isfinite(s))
        assert np.all(np.diff(s) <= 0.0)
        assert np.abs(X - X_ref).max() <= tol
        assert np.abs(s - s_ref).max() <= tol

    def test_one_gram_eigendecomposition_no_svd(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def counted(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)

            return counted

        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        rng = np.random.default_rng(18)
        for shape in [(30, 20), (20, 30)]:
            calls.clear()
            prox_nuclear(rng.standard_normal(shape), 1.0)
            assert calls == [("eigh", (20, 20))]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def criterion_4_instance():
    """A rank-2 L0 plus five leaves of +-1 columns S0 (64 x 100), and the
    index tree over the columns."""
    rng = np.random.default_rng(16)
    d, n = 64, 100
    tree = build_index_tree(rng.random((n, 2)) * 10, k=4, seed=16)
    leaves = [nd for nd in tree.nodes if not nd.children and len(nd.members) >= 2]
    cols = np.concatenate([nd.members for nd in leaves[:5]])
    L0 = 2.0 * rng.standard_normal((d, 2)) @ rng.standard_normal((2, n))
    S0 = np.zeros((d, n))
    S0[:, cols] = rng.choice([-1.0, 1.0], size=(d, len(cols)))
    return L0, S0, tree


def detection_frame_instance(feature_tree=False):
    """The feature matrix, clip index tree and LSMD parameters that
    run_detection decomposes at frame 8 of a synthetic burst clip. With
    feature_tree, the tree is the per-frame one detection built before it
    kept one tree per clip: k-means over [centre, feature column], seeded
    by the frame (8)."""
    cfg = DetectorConfig()
    frames = list(synth_sequence(SynthSpec(n_frames=16, events=[(4, 12, "burst")]), seed=5)[0])
    t = 8
    diff = frame_difference(frames[t - 1], frames[t])
    patches, centres = extract_proposals(diff, cfg.patch_size, cfg.stride)
    data = feature_matrix(patches)
    points = clustering_points(centres, *diff.shape)
    if feature_tree:
        tree = build_index_tree(np.hstack([points, data.T]), cfg.tree_k, cfg.seed * 7919 + t)
    else:
        tree = build_index_tree(points, cfg.tree_k, cfg.seed)
    return data, tree, cfg.lsmd


class TestDecompose:
    def test_zero_input(self):
        tree, _ = random_tree(11, n=8)
        dec = decompose(np.zeros((6, 8)), tree)
        assert np.all(dec.L == 0.0) and np.all(dec.S == 0.0)
        assert dec.converged

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_zero_features_decompose_to_exact_zeros_under_any_tree(self, k):
        # why detection may score a frame pair without motion as +0.0
        # without building its tree: the tree never reaches the result
        patches, _centres = extract_proposals(np.zeros((64, 64)), 16, 8)
        F = np.zeros((256, 49))
        assert np.array_equal(feature_matrix(patches), F)
        for seed in range(3):
            points = np.random.default_rng(100 * k + seed).standard_normal((49, 2 + 256))
            dec = decompose(F, build_index_tree(points, k=k, seed=seed))
            assert dec.L.tobytes() == F.tobytes() and dec.S.tobytes() == F.tobytes()
            assert dec.converged and dec.iterations == 1
            energy = frame_activity_energy(activity_scores(dec.S, motion_prior(patches)))
            assert energy.hex() == (0.0).hex()

    def test_zero_columns_come_out_as_positive_zeros(self):
        # tall, as detection's 256 x 49 matrices are: the Gram of a tall
        # matrix spans its columns, and a solve over all of them leaves
        # rounding and -0.0 in the zero ones
        rng = np.random.default_rng(3)
        d, n = 40, 30
        tree = build_index_tree(rng.random((n, 2)) * 10, k=4, seed=3)
        F = 2.0 * rng.standard_normal((d, 2)) @ rng.standard_normal((2, n))
        F[:, rng.choice(n, 5, replace=False)] += rng.choice([-1.0, 1.0], size=(d, 5))
        cols = np.sort(rng.choice(n, 6, replace=False))
        F[:, cols] = 0.0
        F[:, cols[0]] = -0.0
        dec = decompose(F, tree)
        for M in (dec.L, dec.S):
            assert np.all(M[:, cols] == 0.0) and not np.signbit(M[:, cols]).any()
        trace = np.array(dec.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_solver_runs_on_the_nonzero_columns(self, monkeypatch):
        data, tree, params = detection_frame_instance()
        assert np.count_nonzero(~data.any(axis=0)) == 31
        seen = []
        svt = lsmd.prox_nuclear

        def recorded(L, tau):
            seen.append(np.array(L))
            return svt(L, tau)

        monkeypatch.setattr(lsmd, "prox_nuclear", recorded)
        decompose(data, tree, params)
        assert seen
        assert all(L.shape == (256, 18) and L.any(axis=0).all() for L in seen)

    def test_huge_mu_s_limit(self):
        tree, _ = random_tree(12, n=8)
        F = np.random.default_rng(12).standard_normal((6, 8))
        dec = decompose(F, tree, LsmdParams(mu_L=0.5, mu_S=1e6))
        assert np.all(dec.S == 0.0)
        assert np.allclose(dec.L, prox_nuclear(F, 0.5)[0])

    def test_trace_non_increasing(self):
        tree, _ = random_tree(13, n=12)
        F = np.random.default_rng(13).standard_normal((10, 12))
        dec = decompose(F, tree)
        trace = np.array(dec.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_non_convergence_flagged_not_raised(self):
        tree, _ = random_tree(14, n=10)
        F = np.random.default_rng(14).standard_normal((8, 10))
        dec = decompose(F, tree, LsmdParams(max_iter=1, rel_tol=1e-300))
        assert dec.iterations == 1
        assert not dec.converged

    def test_shape_mismatch(self):
        tree, _ = random_tree(15, n=5)
        with pytest.raises(errors.InputError, match="columns, tree covers"):
            decompose(np.zeros((4, 9)), tree)

    def test_overflowing_sum_of_squares(self):
        tree, _ = random_tree(15, n=5)
        F = np.random.default_rng(15).standard_normal((6, 5)) * 1e200
        with pytest.raises(errors.InputError, match="finite sum of squares"):
            decompose(F, tree)

    @staticmethod
    def assert_matches_reference(data, tree, params):
        """decompose stops at an objective no higher than the plain
        alternating loop's (reference_decompose), and no farther than that
        loop from the optimum (L*, S*), which the plain loop reaches at
        rel_tol 1e-13."""
        dec = decompose(data, tree, params)
        L, S, trace, _, _ = reference_decompose(data, tree, params)
        L_opt, S_opt, _, _, converged = reference_decompose(
            data, tree, dataclasses.replace(params, rel_tol=1e-13)
        )
        assert converged
        obj = dec.objective_trace[-1]
        assert obj <= trace[-1] + 1e-9 * max(1.0, abs(obj))
        assert np.abs(dec.L - L_opt).max() <= np.abs(L - L_opt).max()
        assert np.abs(dec.S - S_opt).max() <= np.abs(S - S_opt).max()

    def test_criterion_4_matches_reference(self):
        L0, S0, tree = criterion_4_instance()
        self.assert_matches_reference(L0 + S0, tree, LsmdParams())

    def test_detection_frame_matches_reference(self):
        # on the per-frame feature tree: under the clip tree this frame's
        # rel_tol stop lands 9.4e-8 above the plain loop's, which a stop on
        # the objective's decrease does not rule out
        self.assert_matches_reference(*detection_frame_instance(feature_tree=True))

    @pytest.mark.parametrize("instance", ["criterion-4", "detection-frame"])
    def test_full_svd_thresholding_gives_the_same_run(self, monkeypatch, instance):
        # prox_nuclear against the full-SVD reference inside the solver:
        # the Gram route's last-bit drift must not change the run
        if instance == "criterion-4":
            L0, S0, tree = criterion_4_instance()
            data, params = L0 + S0, LsmdParams()
        else:
            data, tree, params = detection_frame_instance()
        dec = decompose(data, tree, params)
        monkeypatch.setattr(lsmd, "prox_nuclear", reference_prox_nuclear)
        ref = decompose(data, tree, params)
        assert (dec.iterations, dec.converged) == (ref.iterations, ref.converged)
        obj, want = dec.objective_trace[-1], ref.objective_trace[-1]
        assert abs(obj - want) <= 1e-12 * abs(want)
        assert np.abs(dec.L - ref.L).max() <= 1e-9
        assert np.abs(dec.S - ref.S).max() <= 1e-9

    def test_function_restart_keeps_trace_monotone(self, monkeypatch):
        rng = np.random.default_rng(3)
        d, n = 20, 24
        tree = build_index_tree(rng.random((n, 2)) * 10, k=4, seed=3)
        F = 2.0 * rng.standard_normal((d, 2)) @ rng.standard_normal((2, n))
        cols = rng.choice(n, 5, replace=False)
        F[:, cols] += rng.choice([-1.0, 1.0], size=(d, 5))
        calls = []
        svt = lsmd.prox_nuclear

        def counted(*args, **kwargs):
            calls.append(1)
            return svt(*args, **kwargs)

        monkeypatch.setattr(lsmd, "prox_nuclear", counted)
        dec = decompose(F, tree)
        # one SVD per iteration, plus one per function restart
        assert len(calls) > dec.iterations
        trace = np.array(dec.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_params_reject_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            LsmdParams(max_iter=max_iter)

    def test_recovers_planted_structure(self):
        L0, S0, tree = criterion_4_instance()
        dec = decompose(L0 + S0, tree)
        assert np.linalg.norm(dec.L - L0) / np.linalg.norm(L0) <= 0.05
        est = np.abs(dec.S) > 1e-6
        true = np.abs(S0) > 0
        tp = np.sum(est & true)
        f1 = 2 * tp / max(2 * tp + np.sum(est & ~true) + np.sum(~est & true), 1)
        assert f1 >= 0.9


# ---------------------------------------------------------------------------
# activity scores
# ---------------------------------------------------------------------------

class TestActivityScores:
    def test_zero_sparse_part(self):
        scores = activity_scores(np.zeros((4, 3)), np.ones(3))
        assert np.all(scores == 0.0)

    def test_single_nonzero_column_wins(self):
        S = np.zeros((4, 4))
        S[:, 2] = 1.0
        scores = activity_scores(S, np.ones(4))
        assert np.argmax(scores) == 2
        assert np.sum(scores > 0) == 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        S = rng.standard_normal((4, 5))
        prior = rng.random(5)
        base = activity_scores(S, prior)
        perm = rng.permutation(5)
        shuffled = activity_scores(S[:, perm], prior[perm])
        assert np.allclose(shuffled, base[perm])

    def test_shape_mismatch(self):
        with pytest.raises(errors.InputError, match=r"S \(4, 2\), prior \(3,\)"):
            activity_scores(np.zeros((4, 2)), np.ones(3))

    def test_motion_prior_max_normalized(self):
        prior = motion_prior(np.stack([np.full((2, 2), 0.2), np.full((2, 2), 0.8)]))
        assert np.allclose(prior, [0.25, 1.0])

    def test_motion_prior_all_zero_uniform(self):
        assert np.array_equal(motion_prior(np.zeros((3, 2, 2))), np.ones(3))

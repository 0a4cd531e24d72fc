import json
import math

import numpy as np
import pytest

from portopt.hierclust import (
    ClusterError,
    LinkageTree,
    Merge,
    agglomerate,
    cut_k,
    dendrogram_export,
    gap_optimal_k,
    quasi_diagonalize,
)
from portopt.riskstats import DistanceMatrix, corr_to_distance, correlation
from reference_impls import (
    block_return_panel,
    naive_linkage,
    random_distance_matrix,
    random_tree,
)


def _dist(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(str(i) for i in range(values.shape[0]))
    return DistanceMatrix(tuple(labels), values)


# d(A,B)=1, d(A,C)=d(B,C)=4, scaled by 1/4 to fit the [0,1] distance domain;
# linkage heights scale linearly so expectations scale the same way
THREE_POINT = _dist([[0, 0.25, 1], [0.25, 0, 1], [1, 1, 0]], ("A", "B", "C"))


class TestAgglomerate:
    def test_ward_three_point_hand_trace(self):
        tree = agglomerate(THREE_POINT, "ward")
        assert [(m.left, m.right) for m in tree.merges] == [(0, 1), (2, 3)]
        assert tree.merges[0].height * 4 == pytest.approx(1.0, abs=1e-12)
        assert tree.merges[1].height * 4 == pytest.approx(math.sqrt(21), abs=1e-12)

    def test_single_three_point_hand_trace(self):
        tree = agglomerate(THREE_POINT, "single")
        assert [(m.left, m.right) for m in tree.merges] == [(0, 1), (2, 3)]
        assert tree.merges[0].height * 4 == pytest.approx(1.0, abs=1e-12)
        assert tree.merges[1].height * 4 == pytest.approx(4.0, abs=1e-12)

    def test_tie_breaks_on_lowest_pair(self):
        # equilateral: every pair ties, so (0,1) must merge first
        tree = agglomerate(_dist([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]))
        assert (tree.merges[0].left, tree.merges[0].right) == (0, 1)
        assert (tree.merges[1].left, tree.merges[1].right) == (2, 3)

    def test_older_node_id_goes_left(self):
        for rule in ("ward", "single"):
            rng = np.random.default_rng(11)
            for _ in range(20):
                tree = agglomerate(random_distance_matrix(rng, 6), rule)
                for m in tree.merges:
                    assert m.left < m.right

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            dist = random_distance_matrix(rng, n)
            for rule in ("ward", "single"):
                tree = agglomerate(dist, rule)
                for merge, (a, b, h, size) in zip(tree.merges, naive_linkage(dist.values, rule)):
                    assert (merge.left, merge.right, merge.size) == (a, b, size)
                    assert merge.height == pytest.approx(h, abs=1e-9)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ClusterError, match="linkage rule"):
            agglomerate(THREE_POINT, "average")

    def test_needs_two_items(self):
        with pytest.raises(ClusterError, match="at least 2"):
            agglomerate(_dist([[0.0]]))


class TestLinkageTree:
    def test_merge_count_enforced(self):
        with pytest.raises(ClusterError, match="expected 2 merges"):
            LinkageTree(3, (Merge(0, 1, 0.1, 2),))

    def test_child_reuse_rejected(self):
        merges = (Merge(0, 1, 0.1, 2), Merge(0, 3, 0.2, 3))
        with pytest.raises(ClusterError, match="twice"):
            LinkageTree(3, merges)

    def test_bad_size_rejected(self):
        with pytest.raises(ClusterError, match="size"):
            LinkageTree(2, (Merge(0, 1, 0.1, 3),))

    def test_leaves_under_root_covers_all(self):
        rng = np.random.default_rng(9)
        tree = random_tree(rng, 12)
        assert sorted(tree.leaves_under(tree.root)) == list(range(12))


class TestQuasiDiagonalize:
    def test_balanced_four_leaf_fixture(self):
        merges = (Merge(0, 1, 0.1, 2), Merge(2, 3, 0.2, 2), Merge(4, 5, 0.3, 4))
        assert quasi_diagonalize(LinkageTree(4, merges)) == [0, 1, 2, 3]

    def test_caterpillar_four_leaf_fixture(self):
        merges = (Merge(1, 2, 0.1, 2), Merge(0, 4, 0.2, 3), Merge(5, 3, 0.3, 4))
        assert quasi_diagonalize(LinkageTree(4, merges)) == [0, 1, 2, 3]

    def test_is_permutation_on_random_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 65))
            order = quasi_diagonalize(random_tree(rng, n))
            assert sorted(order) == list(range(n))

    def test_single_leaf(self):
        assert quasi_diagonalize(LinkageTree(1, ())) == [0]


class TestCutK:
    def test_balanced_fixture_k2(self):
        merges = (Merge(0, 1, 0.1, 2), Merge(2, 3, 0.2, 2), Merge(4, 5, 0.3, 4))
        cut = cut_k(LinkageTree(4, merges), 2)
        assert cut.labels == (0, 0, 1, 1)

    def test_k1_and_kn_extremes(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, 6)
        assert cut_k(tree, 1).labels == (0,) * 6
        order = quasi_diagonalize(tree)
        labels = cut_k(tree, 6).labels
        # singleton clusters are numbered in leaf order
        assert [labels[leaf] for leaf in order] == list(range(6))

    def test_labels_follow_leaf_order(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tree = random_tree(rng, 10)
            for k in (2, 3, 5):
                labels = cut_k(tree, k).labels
                seen = []
                for leaf in quasi_diagonalize(tree):
                    if labels[leaf] not in seen:
                        seen.append(labels[leaf])
                assert seen == list(range(k))

    def test_k_out_of_range(self):
        tree = LinkageTree(2, (Merge(0, 1, 0.5, 2),))
        with pytest.raises(ClusterError, match="out of range"):
            cut_k(tree, 3)


class TestGapOptimalK:
    def test_recovers_two_blocks(self):
        r = block_return_panel(0, n_blocks=2, per_block=4)
        assert gap_optimal_k(r, b_refs=25, seed=0) == 2

    def test_recovers_three_blocks(self):
        r = block_return_panel(1, n_blocks=3, per_block=3)
        assert gap_optimal_k(r, b_refs=25, seed=1) == 3

    def test_deterministic_for_fixed_seed(self):
        r = block_return_panel(2)
        assert gap_optimal_k(r, b_refs=10, seed=7) == gap_optimal_k(r, b_refs=10, seed=7)

    def test_k_max_validated(self):
        r = block_return_panel(0, n_blocks=2, per_block=2, t=50)
        with pytest.raises(ClusterError, match="k_max"):
            gap_optimal_k(r, k_max=9)


class TestDendrogramExport:
    def test_structure_and_json_round_trip(self):
        tree = agglomerate(THREE_POINT, "ward")
        payload = dendrogram_export(tree, ("A", "B", "C"))
        payload = json.loads(json.dumps(payload))  # must be JSON-serializable
        assert payload["format"] == "dendrogram"
        assert payload["version"] == 1
        assert payload["n_leaves"] == 3
        root = payload["root"]
        assert root["id"] == 4 and root["size"] == 3
        left, right = root["children"]
        assert left["ticker"] == "C"  # leaf 2 merged last, smaller id goes left
        assert [c["ticker"] for c in right["children"]] == ["A", "B"]

    def test_label_count_checked(self):
        tree = agglomerate(THREE_POINT, "ward")
        with pytest.raises(ClusterError, match="3 leaves"):
            dendrogram_export(tree, ("A", "B"))


def test_tree_from_returns_groups_correlated_assets():
    r = block_return_panel(3, n_blocks=2, per_block=2, t=400)
    tree = agglomerate(corr_to_distance(correlation(r)), "ward")
    order = quasi_diagonalize(tree)
    # block members must be adjacent in the leaf order
    assert {tuple(sorted(order[:2])), tuple(sorted(order[2:]))} == {(0, 1), (2, 3)}

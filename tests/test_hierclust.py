import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from portopt import hierclust
from portopt.hierclust import (
    ClusterError,
    LinkageTree,
    agglomerate,
    cut_k,
    dendrogram_export,
    gap_optimal_k,
    quasi_diagonalize,
)
from portopt.riskstats import DistanceMatrix, corr_to_distance, correlation
from reference_impls import (
    block_return_panel,
    caterpillar_tree,
    make_returns,
    naive_cut,
    naive_gap_curves,
    naive_linkage,
    nested_dendrogram,
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
        assert list(zip(tree.left, tree.right)) == [(0, 1), (2, 3)]
        assert tree.height[0] * 4 == pytest.approx(1.0, abs=1e-12)
        assert tree.height[1] * 4 == pytest.approx(math.sqrt(21), abs=1e-12)

    def test_single_three_point_hand_trace(self):
        tree = agglomerate(THREE_POINT, "single")
        assert list(zip(tree.left, tree.right)) == [(0, 1), (2, 3)]
        assert tree.height[0] * 4 == pytest.approx(1.0, abs=1e-12)
        assert tree.height[1] * 4 == pytest.approx(4.0, abs=1e-12)

    def test_tie_breaks_on_lowest_pair(self):
        # equilateral: every pair ties, so (0,1) must merge first
        tree = agglomerate(_dist([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]))
        assert (tree.left[0], tree.right[0]) == (0, 1)
        assert (tree.left[1], tree.right[1]) == (2, 3)

    def test_older_node_id_goes_left(self):
        for rule in ("ward", "single"):
            rng = np.random.default_rng(11)
            for _ in range(20):
                tree = agglomerate(random_distance_matrix(rng, 6), rule)
                for a, b in zip(tree.left, tree.right):
                    assert a < b

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 31))
            dist = random_distance_matrix(rng, n)
            for rule in ("ward", "single"):
                tree = agglomerate(dist, rule)
                for m, (a, b, h, size) in enumerate(naive_linkage(dist.values, rule)):
                    assert (tree.left[m], tree.right[m], tree.size[m]) == (a, b, size)
                    assert tree.height[m] == pytest.approx(h, abs=1e-9)

    def test_tie_heavy_single_linkage_matches_naive_reference(self):
        # distances quantized to {1/4, 1/2, 3/4, 1}: most steps have tied
        # nearest pairs, so the lowest-pair tie-break decides the merges
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 31))
            upper = np.triu(np.ceil(rng.random((n, n)) * 4) / 4, 1)
            values = upper + upper.T
            tree = agglomerate(_dist(values), "single")
            expected = naive_linkage(values, "single")
            assert list(zip(tree.left, tree.right, tree.height, tree.size)) == expected

    @pytest.mark.parametrize("rule", ["ward", "single"])
    def test_columns_are_the_lance_williams_row_bit_for_bit(self, rule):
        # the gap statistic's batched merge histories and a tree share one form
        dist = corr_to_distance(correlation(block_return_panel(7, n_blocks=3, per_block=4)))
        tree = agglomerate(dist, rule)
        row = [column[0].tolist() for column in hierclust._lance_williams(dist.values[None], rule)]
        assert [list(tree.left), list(tree.right), list(tree.size)] == [row[0], row[1], row[3]]
        assert [h.hex() for h in tree.height] == [h.hex() for h in row[2]]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ClusterError, match="linkage rule"):
            agglomerate(THREE_POINT, "average")

    def test_needs_two_items(self):
        with pytest.raises(ClusterError, match="at least 2"):
            agglomerate(_dist([[0.0]]))


class TestLinkageTree:
    def test_merge_count_enforced(self):
        with pytest.raises(ClusterError, match="expected 2 merges"):
            LinkageTree(3, (0,), (1,), (0.1,), (2,))
        with pytest.raises(ClusterError, match="expected 2 merges"):
            LinkageTree(3, (0, 2), (1, 3), (0.1, 0.2), (2,))

    def test_needs_a_leaf(self):
        with pytest.raises(ClusterError, match="at least one leaf"):
            LinkageTree(0, (), (), (), ())

    def test_child_reuse_rejected(self):
        with pytest.raises(ClusterError, match="twice"):
            LinkageTree(3, (0, 0), (1, 3), (0.1, 0.2), (2, 3))

    def test_bad_size_rejected(self):
        with pytest.raises(ClusterError, match="size"):
            LinkageTree(2, (0,), (1,), (0.1,), (3,))

    def test_child_not_yet_formed_rejected(self):
        with pytest.raises(ClusterError, match="unknown node"):
            LinkageTree(4, (0, 1, 3), (4, 2, 4), (0.1, 0.2, 0.3), (2, 2, 4))

    def test_negative_child_rejected(self):
        with pytest.raises(ClusterError, match="unknown node"):
            LinkageTree(3, (-1, 2), (1, 3), (0.1, 0.2), (2, 3))

    @pytest.mark.parametrize("height", [float("nan"), -0.1])
    def test_invalid_height_rejected(self, height):
        with pytest.raises(ClusterError, match="invalid height"):
            LinkageTree(3, (0, 2), (1, 3), (height, 0.2), (2, 3))

    def test_leaves_under_root_covers_all(self):
        rng = np.random.default_rng(9)
        tree = random_tree(rng, 12)
        assert sorted(tree.leaves_under(tree.root)) == list(range(12))


class TestQuasiDiagonalize:
    def test_balanced_four_leaf_fixture(self):
        assert quasi_diagonalize(LinkageTree(4, (0, 2, 4), (1, 3, 5), (0.1, 0.2, 0.3), (2, 2, 4))) == [0, 1, 2, 3]

    def test_caterpillar_four_leaf_fixture(self):
        assert quasi_diagonalize(LinkageTree(4, (1, 0, 5), (2, 4, 3), (0.1, 0.2, 0.3), (2, 3, 4))) == [0, 1, 2, 3]

    def test_is_permutation_on_random_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 65))
            order = quasi_diagonalize(random_tree(rng, n))
            assert sorted(order) == list(range(n))

    def test_single_leaf(self):
        assert quasi_diagonalize(LinkageTree(1, (), (), (), ())) == [0]


class TestCutK:
    def test_balanced_fixture_k2(self):
        assert cut_k(LinkageTree(4, (0, 2, 4), (1, 3, 5), (0.1, 0.2, 0.3), (2, 2, 4)), 2) == (0, 0, 1, 1)

    def test_k1_and_kn_extremes(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, 6)
        assert cut_k(tree, 1) == (0,) * 6
        order = quasi_diagonalize(tree)
        labels = cut_k(tree, 6)
        # singleton clusters are numbered in leaf order
        assert [labels[leaf] for leaf in order] == list(range(6))

    def test_labels_follow_leaf_order(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tree = random_tree(rng, 10)
            for k in (2, 3, 5):
                labels = cut_k(tree, k)
                seen = []
                for leaf in quasi_diagonalize(tree):
                    if labels[leaf] not in seen:
                        seen.append(labels[leaf])
                assert seen == list(range(k))

    def test_partition_matches_naive_cut(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            tree = random_tree(rng, n)
            for k in range(1, n + 1):
                labels = np.array(cut_k(tree, k))
                clusters = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(k)}
                assert clusters == naive_cut(tree, k)

    def test_k_out_of_range(self):
        tree = LinkageTree(2, (0,), (1,), (0.5,), (2,))
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

    def test_unseeded_draw_gives_a_k_in_range(self):
        assert 1 <= gap_optimal_k(block_return_panel(2), k_max=4, b_refs=5, seed=None) <= 4

    def test_k_max_validated(self):
        r = block_return_panel(0, n_blocks=2, per_block=2, t=50)
        with pytest.raises(ClusterError, match="k_max"):
            gap_optimal_k(r, k_max=9)

    @pytest.mark.parametrize(
        "n_assets, kwargs, match",
        [
            (4, {"b_refs": 0}, "b_refs must be at least 1"),
            (1, {}, "need at least 2 assets"),
        ],
    )
    def test_arguments_validated(self, n_assets, kwargs, match):
        r = make_returns(0.01 * np.random.default_rng(3).standard_normal((50, n_assets)))
        with pytest.raises(ClusterError, match=match):
            gap_optimal_k(r, **kwargs)

    def test_k_max_1_draws_no_references(self, monkeypatch):
        monkeypatch.setattr(hierclust, "_gap_curves", None)  # any call would fail
        assert gap_optimal_k(block_return_panel(0, n_blocks=2, per_block=2, t=50), k_max=1) == 1


def _factor_panel(seed, n, t=120):
    """Returns of n assets loading on a few common factors."""
    rng = np.random.default_rng(seed)
    n_factors = int(rng.integers(1, 5))
    factors = rng.standard_normal((t, n_factors))
    loading = rng.integers(0, n_factors, n)
    noise = rng.standard_normal((t, n))
    return make_returns(0.01 * (factors[:, loading] * rng.random(n) + noise))


def _embedding(r):
    return np.asarray(corr_to_distance(correlation(r)).values, dtype=float)


def _tied_panel(n, t=120):
    """Returns of n assets that are exact copies of 6 base series, so the
    embedding has many equal rows and tied distances."""
    rng = np.random.default_rng(n)
    return make_returns(0.01 * rng.standard_normal((t, 6))[:, rng.integers(0, 6, n)])


def _python_square(x):
    try:
        return x**2
    except OverflowError:  # where libm pow returns inf, Python raises
        return math.inf


class TestPySquare:
    def test_matches_python_float_power_bit_for_bit(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [
                rng.random(25_000),
                10.0 * rng.random(25_000),
                10.0 ** rng.uniform(-300.0, 300.0, 25_000),
                [0.0, 5e-324],
                2.2250738585072009e-308 * rng.random(1_000),  # subnormals
            ]
        )
        expected = np.array([_python_square(x) for x in values.tolist()])
        with np.errstate(over="ignore"):
            got = hierclust._py_square(values)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestGapCurves:
    """The batched gap path against one tree per point set, bit for bit."""

    @pytest.mark.parametrize("rule", ["ward", "single"])
    def test_curves_and_k_match_naive_oracle(self, rule, monkeypatch):
        for i in range(40):
            n = 2 + i % 24
            b_refs = 1 if i % 5 == 0 else 2 + i % 3
            r = _factor_panel(i, n)
            k_max = min(n, 10)
            k_hi = min(k_max + 1, n)
            expected = naive_gap_curves(_embedding(r), k_hi, b_refs, i, rule)
            got = hierclust._gap_curves(_embedding(r), k_hi, b_refs, i, rule)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (i, n)
            k = gap_optimal_k(r, k_max=k_max, b_refs=b_refs, seed=i, linkage_rule=rule)
            with monkeypatch.context() as m:
                m.setattr(hierclust, "_gap_curves", lambda *args: expected)
                assert gap_optimal_k(r, k_max=k_max, b_refs=b_refs, seed=i, linkage_rule=rule) == k

    @pytest.mark.parametrize(
        "n, rule, b_refs, panel",
        [
            (40, "ward", 3, _tied_panel),
            (40, "single", 3, _tied_panel),
            (56, "single", 2, _factor_panel),
            (72, "ward", 2, _factor_panel),
            (72, "single", 2, _factor_panel),
        ],
    )
    def test_wide_sectors_match_naive_oracle(self, n, rule, b_refs, panel):
        # clusters of many sizes, and (for _tied_panel) log W_k at the floor
        points = _embedding(panel(n, n) if panel is _factor_panel else panel(n))
        expected = naive_gap_curves(points, 11, b_refs, n, rule)
        got = hierclust._gap_curves(points, 11, b_refs, n, rule)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", [4, 13, 25])
    def test_batch_size_does_not_change_curves(self, n, monkeypatch):
        # 8 sets: batches of 1, of 3 (3 + 3 + 2) and of all 8
        points = _embedding(_factor_panel(n, n))
        matrix_bytes = 8 * (2 * n - 1) ** 2
        for rule in ("ward", "single"):
            default = hierclust._gap_curves(points, min(11, n), 7, 5, rule)
            for per_batch in (1, 3, 8):
                monkeypatch.setattr(hierclust, "_BATCH_BYTES", per_batch * matrix_bytes)
                got = hierclust._gap_curves(points, min(11, n), 7, 5, rule)
                assert np.array_equal(got.view(np.int64), default.view(np.int64))
            monkeypatch.undo()

    def test_memory_stays_bounded_on_a_wide_sector(self):
        # the whole stack of 101 node-id matrices at n = 72 would take ~30 MB
        r = block_return_panel(0, n_blocks=8, per_block=9, t=250)
        tracemalloc.start()
        try:
            gap_optimal_k(r, b_refs=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    def test_unknown_rule_rejected(self):
        with pytest.raises(ClusterError, match="linkage rule"):
            gap_optimal_k(block_return_panel(0), linkage_rule="average")


class TestDendrogramExport:
    def test_structure_and_json_round_trip(self):
        tree = agglomerate(THREE_POINT, "ward")
        payload = json.loads(dendrogram_export(tree, ("A", "B", "C")))
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

    def test_matches_the_nested_oracle_byte_for_byte(self):
        rng = np.random.default_rng(26)
        for _ in range(150):
            n = int(rng.integers(1, 41))
            tree = random_tree(rng, n) if n > 1 else LinkageTree(1, (), (), (), ())
            labels = [f'T{i}"q\\b\u00e9\u4e2d' if i % 3 else f"T{i}" for i in range(n)]
            assert dendrogram_export(tree, labels) == nested_dendrogram(tree, labels)

    def test_a_600_leaf_caterpillar_renders_under_any_recursion_limit(self):
        tree = caterpillar_tree(600)
        labels = [f"T{i}" for i in range(600)]
        text = dendrogram_export(tree, labels)  # under the default limit
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(200)
            assert dendrogram_export(tree, labels) == text
            sys.setrecursionlimit(10_000)  # room for the oracle's recursion
            assert text == nested_dendrogram(tree, labels)
        finally:
            sys.setrecursionlimit(limit)
        # the root's keys sit 4 spaces in and each level's 4 more: 599 merges deep
        assert max(len(line) - len(line.lstrip(" ")) for line in text.splitlines()) == 4 * 600


def test_tree_from_returns_groups_correlated_assets():
    r = block_return_panel(3, n_blocks=2, per_block=2, t=400)
    tree = agglomerate(corr_to_distance(correlation(r)), "ward")
    order = quasi_diagonalize(tree)
    # block members must be adjacent in the leaf order
    assert {tuple(sorted(order[:2])), tuple(sorted(order[2:]))} == {(0, 1), (2, 3)}

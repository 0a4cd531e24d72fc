"""Agglomerative clustering over correlation distances, quasi-diagonal leaf
ordering, flat cluster extraction, and gap-statistic cluster-count selection.

Node ids follow the usual linkage convention: leaves are 0..n-1 and merge k
creates node n+k.  Within a merge the smaller (older) node id is the left
child, and nearest-pair ties break on the lowest (left, right) pair so merge
order is deterministic across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from portopt.riskstats import DistanceMatrix, corr_to_distance, correlation

LINKAGE_RULES = ("ward", "single")


class ClusterError(Exception):
    """Invalid clustering input or malformed tree."""


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: children node ids, linkage height, member count."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class LinkageTree:
    """Full agglomerative merge history over n_leaves items."""

    n_leaves: int
    merges: tuple

    def __post_init__(self):
        n = self.n_leaves
        merges = tuple(self.merges)
        if n < 1:
            raise ClusterError("tree needs at least one leaf")
        if len(merges) != n - 1:
            raise ClusterError(f"expected {n - 1} merges, got {len(merges)}")
        sizes = {i: 1 for i in range(n)}
        used = set()
        for k, merge in enumerate(merges):
            node = n + k
            for child in (merge.left, merge.right):
                if child not in sizes:
                    raise ClusterError(f"merge {k} references unknown node {child}")
                if child in used:
                    raise ClusterError(f"node {child} appears twice as a child")
                used.add(child)
            if merge.height < 0.0 or not math.isfinite(merge.height):
                raise ClusterError(f"merge {k} has invalid height {merge.height}")
            if merge.size != sizes[merge.left] + sizes[merge.right]:
                raise ClusterError(
                    f"merge {k} size {merge.size} does not equal the sum of "
                    "its child sizes"
                )
            sizes[node] = merge.size
        if n > 1 and sizes[2 * n - 2] != n:
            raise ClusterError("root size does not equal the leaf count")
        object.__setattr__(self, "merges", merges)

    @property
    def root(self):
        return 2 * self.n_leaves - 2

    def leaves_under(self, node):
        """Leaf ids under a node, in quasi-diagonal (left-first) order."""
        n = self.n_leaves
        out, stack = [], [node]
        while stack:
            cur = stack.pop()
            if cur < n:
                out.append(cur)
            else:
                merge = self.merges[cur - n]
                stack.append(merge.right)
                stack.append(merge.left)
        return out


@dataclass(frozen=True)
class ClusterAssignment:
    """Flat clustering with k clusters; labels indexed by leaf id."""

    k: int
    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if sorted(set(labels)) != list(range(self.k)):
            raise ClusterError(
                f"labels must use exactly the values 0..{self.k - 1}"
            )
        object.__setattr__(self, "labels", labels)


def _py_square(x):
    """x**2 elementwise with the bits of Python's float power (libm pow),
    which can differ from x * x in the last place."""
    return np.power(x.astype(object), 2).astype(float)


def agglomerate(dist, linkage_rule="ward"):
    """Cluster a DistanceMatrix bottom-up under ward or single linkage.

    Ward heights follow the Lance-Williams recurrence on the supplied
    dissimilarities; single linkage merges at the minimum pairwise distance.
    """
    if linkage_rule not in LINKAGE_RULES:
        raise ClusterError(f"unknown linkage rule {linkage_rule!r}")
    n = len(dist.tickers)
    if n < 2:
        raise ClusterError("need at least 2 items to cluster")

    # one symmetric matrix indexed by node id; the diagonal and retired nodes
    # hold inf, so the row-major argmin is the lowest (height, left, right)
    size = 2 * n - 1
    d = np.full((size, size), np.inf)
    iu = np.triu_indices(n, 1)
    d[iu] = d[iu[::-1]] = dist.values[iu]
    sizes = np.ones(size, dtype=int)
    merges = []

    for step in range(n - 1):
        a, b = divmod(int(np.argmin(d)), size)
        height = float(d[a, b])
        node = n + step
        sa, sb = int(sizes[a]), int(sizes[b])
        ks = np.flatnonzero(np.isfinite(d[a] + d[b]))  # active nodes other than a, b
        if linkage_rule == "ward":
            sk = sizes[ks]
            dak2, dbk2 = _py_square(d[a, ks]), _py_square(d[b, ks])
            ward2 = ((sa + sk) * dak2 + (sb + sk) * dbk2 - sk * height**2) / (sa + sb + sk)
            new = np.sqrt(np.maximum(ward2, 0.0))
        else:
            new = np.minimum(d[a, ks], d[b, ks])
        d[ks, node] = d[node, ks] = new
        d[[a, b], :] = d[:, [a, b]] = np.inf
        sizes[node] = sa + sb
        merges.append(Merge(a, b, height, sa + sb))

    return LinkageTree(n, tuple(merges))


def quasi_diagonalize(tree):
    """Dendrogram leaf order: expand each merge into its children, left first."""
    order = tree.leaves_under(tree.root) if tree.n_leaves > 1 else [0]
    if sorted(order) != list(range(tree.n_leaves)):
        raise ClusterError("malformed tree: leaf expansion is not a permutation")
    return order


def cut_k(tree, k):
    """Cut the tree into k flat clusters by removing the top k-1 merges.

    Labels are assigned in quasi-diagonal leaf order: the cluster holding the
    leftmost leaf gets label 0, and so on.
    """
    n = tree.n_leaves
    if not 1 <= k <= n:
        raise ClusterError(f"k={k} out of range 1..{n}")

    # expand only the top k-1 merge nodes (ids >= 2n-k), left first; each
    # subtree left over is one cluster
    labels = [-1] * n
    next_label = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node >= 2 * n - k:
            merge = tree.merges[node - n]
            stack += [merge.right, merge.left]
        else:
            for leaf in tree.leaves_under(node):
                labels[leaf] = next_label
            next_label += 1
    return ClusterAssignment(k, tuple(labels))


def _pairwise_sq_dists(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _euclidean_distance_matrix(points):
    sq = _pairwise_sq_dists(points)
    values = np.sqrt(np.maximum(sq, 0.0))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    scale = values.max()
    labels = tuple(str(i) for i in range(points.shape[0]))
    # DistanceMatrix requires entries in [0, 1]; rescale (clustering shape
    # and the dispersion statistic are computed on the raw points)
    if scale > 0:
        values = values / scale
    return DistanceMatrix(labels, values)


def _within_dispersion(sq_dists, labels, k):
    """Tibshirani W_k: sum over clusters of pairwise squared distances / (2 n_r)."""
    total = 0.0
    for label in range(k):
        members = [i for i, l in enumerate(labels) if l == label]
        if len(members) < 2:
            continue
        idx = np.ix_(members, members)
        total += sq_dists[idx].sum() / (2.0 * len(members))
    return total


_LOG_FLOOR = 1e-12


def _dispersion_curve(points, k_max, linkage_rule):
    tree = agglomerate(_euclidean_distance_matrix(points), linkage_rule)
    sq = _pairwise_sq_dists(points)
    return [
        math.log(max(_within_dispersion(sq, cut_k(tree, k).labels, k), _LOG_FLOOR))
        for k in range(1, k_max + 1)
    ]


def gap_optimal_k(r, k_max=None, b_refs=100, seed=0, linkage_rule="ward"):
    """Gap-statistic choice of the cluster count for a return panel.

    Each asset is embedded as its row of the correlation-distance matrix.
    Reference datasets are drawn uniformly over each embedding column's
    observed range, and the gap rule picks the smallest k with
    Gap(k) >= Gap(k+1) - s_{k+1}.  Deterministic for a fixed seed.
    """
    n = len(r.tickers)
    if n < 2:
        raise ClusterError("need at least 2 assets")
    if k_max is None:
        k_max = min(10, n - 1)
    if not 1 <= k_max <= n:
        raise ClusterError(f"k_max={k_max} out of range 1..{n}")
    if b_refs < 1:
        raise ClusterError("b_refs must be at least 1")
    if k_max == 1:
        return 1

    points = np.asarray(corr_to_distance(correlation(r)).values, dtype=float)
    # evaluate one k past k_max so the stopping rule can assess k = k_max
    k_hi = min(k_max + 1, n)
    log_w = _dispersion_curve(points, k_hi, linkage_rule)

    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    streams = np.random.SeedSequence(seed).spawn(b_refs)
    ref_logs = np.empty((b_refs, k_hi))
    for b, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        sample = lo + rng.random((n, points.shape[1])) * span
        ref_logs[b] = _dispersion_curve(sample, k_hi, linkage_rule)

    gap = ref_logs.mean(axis=0) - np.asarray(log_w)
    s = ref_logs.std(axis=0, ddof=0) * math.sqrt(1.0 + 1.0 / b_refs)
    for k in range(1, k_hi):
        if gap[k - 1] >= gap[k] - s[k]:
            return k
    return k_max


DENDROGRAM_SCHEMA_VERSION = 1


def dendrogram_export(tree, labels):
    """Serialize a LinkageTree as a nested JSON-ready merge structure.

    Leaves carry {"id", "ticker"}; internal nodes carry {"id", "height",
    "size", "children": [left, right]}.  The schema is versioned and stable.
    """
    labels = list(labels)
    if len(labels) != tree.n_leaves:
        raise ClusterError(
            f"got {len(labels)} labels for {tree.n_leaves} leaves"
        )

    def node(nid):
        if nid < tree.n_leaves:
            return {"id": nid, "ticker": labels[nid]}
        merge = tree.merges[nid - tree.n_leaves]
        return {
            "id": nid,
            "height": merge.height,
            "size": merge.size,
            "children": [node(merge.left), node(merge.right)],
        }

    return {
        "format": "dendrogram",
        "version": DENDROGRAM_SCHEMA_VERSION,
        "n_leaves": tree.n_leaves,
        "root": node(tree.root) if tree.n_leaves > 1 else node(0),
    }

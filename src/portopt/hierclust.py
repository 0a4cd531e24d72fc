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
from functools import partial

import numpy as np

from portopt._pool import pool_map
from portopt.riskstats import check_distances, corr_to_distance, correlation

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
        left, right, size = np.array(
            [(m.left, m.right, m.size) for m in merges], dtype=int
        ).reshape(-1, 3).T[:, None]
        _check_merges(left, right, np.array([[m.height for m in merges]], dtype=float), size)
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
    which can differ from x * x in the last place.  The exponent stays a
    scalar: an array exponent takes numpy's SIMD pow, whose bits differ."""
    return np.float_power(x, 2.0)


def _lance_williams(dist, linkage_rule):
    """Merge histories of a (batch, n, n) stack of distance matrices.

    Each slice keeps one symmetric matrix indexed by node id; the diagonal,
    retired nodes and nodes not yet formed hold inf, so the slice's
    row-major argmin is its lowest (height, left, right) pair.  Returns
    (batch, n-1) arrays of left ids, right ids, heights and sizes.
    """
    batch, n = dist.shape[:2]
    size = 2 * n - 1
    rows = np.arange(batch)
    d = np.full((batch, size, size), np.inf)
    i, j = np.triu_indices(n, 1)
    d[:, i, j] = d[:, j, i] = dist[:, i, j]
    sizes = np.ones((batch, size), dtype=int)
    left = np.empty((batch, n - 1), dtype=int)
    right = np.empty((batch, n - 1), dtype=int)
    height = np.empty((batch, n - 1))

    for step in range(n - 1):
        a, b = np.divmod(d.reshape(batch, -1).argmin(axis=1), size)
        h = d[rows, a, b]
        node = n + step
        sa, sb = sizes[rows, a], sizes[rows, b]
        da, db = d[rows, a], d[rows, b]
        active = np.isfinite(da + db)  # live nodes other than a, b
        new = np.full((batch, size), np.inf)
        if linkage_rule == "ward":
            # the one-matrix recurrence, elementwise over every slice's
            # active entries, so each slice keeps its own bits
            at, sk = np.nonzero(active)[0], sizes[active]
            sa_k, sb_k = sa[at], sb[at]
            ward2 = (
                (sa_k + sk) * _py_square(da[active])
                + (sb_k + sk) * _py_square(db[active])
                - sk * _py_square(h)[at]
            ) / (sa_k + sb_k + sk)
            new[active] = np.sqrt(np.maximum(ward2, 0.0))
        else:
            new[active] = np.minimum(da[active], db[active])
        d[:, node] = d[:, :, node] = new
        d[rows, a] = d[rows, b] = np.inf
        d[rows, :, a] = d[rows, :, b] = np.inf
        sizes[:, node] = sa + sb
        left[:, step], right[:, step], height[:, step] = a, b, h

    return left, right, height, sizes[:, n:]


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
    left, right, height, size = (
        column[0].tolist() for column in _lance_williams(dist.values[None], linkage_rule)
    )
    return LinkageTree(n, tuple(map(Merge, left, right, height, size)))


def quasi_diagonalize(tree):
    """Dendrogram leaf order: expand each merge into its children, left first."""
    return tree.leaves_under(tree.root)


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


# bytes of node-id matrices the gap statistic clusters in one batch
_BATCH_BYTES = 1 << 20
_LOG_FLOOR = 1e-12


def _pairwise_sq_dists(sets):
    """Squared euclidean distances within each point set of a (batch, n, p)
    stack.  Only the upper triangle is computed, one row at a time; float
    subtraction is exactly antisymmetric, so the mirrored lower half is too."""
    batch, n = sets.shape[:2]
    sq = np.zeros((batch, n, n))
    for i in range(n - 1):
        diff = sets[:, i + 1 :] - sets[:, i, None]
        sq[:, i, i + 1 :] = np.einsum("bjk,bjk->bj", diff, diff)
    i, j = np.triu_indices(n, 1)
    sq[:, j, i] = sq[:, i, j]
    return sq


def _unit_distances(sq):
    """Euclidean distances of each (symmetric, zero-diagonal) squared-distance
    slice, scaled into [0, 1] (clustering shape is scale-free; the dispersion
    statistic uses the raw squared distances)."""
    values = np.sqrt(np.maximum(sq, 0.0))
    scale = values.max(axis=(1, 2))
    values /= np.where(scale > 0, scale, 1.0)[:, None, None]
    check_distances(values)
    return values


def _check_merges(left, right, height, size):
    """Validity of a stack of merge histories, (batch, n-1) arrays: each
    child a node formed before its merge, every node but the root a child
    once, heights finite and >= 0, and each size the sum of its children's."""
    n = left.shape[1] + 1
    node = np.arange(n, 2 * n - 1)
    if np.any((left < 0) | (left >= node) | (right < 0) | (right >= node)):
        raise ClusterError("merge history references an unknown node")
    # 2n-2 children below 2n-2: any gap in the sorted ids is a repeat
    if np.any(np.sort(np.concatenate([left, right], axis=1), axis=1) != np.arange(2 * n - 2)):
        raise ClusterError("merge history uses a node twice as a child")
    if not np.all(np.isfinite(height) & (height >= 0.0)):
        raise ClusterError("merge history has an invalid height")
    sizes = np.concatenate([np.ones((len(size), n), dtype=int), size], axis=1)
    if np.any(size != np.take_along_axis(sizes, left, 1) + np.take_along_axis(sizes, right, 1)):
        raise ClusterError("merge size does not equal the sum of its child sizes")


def _log_w_curves(sets, k_hi, linkage_rule):
    """log W_k for k = 1..k_hi of each point set in a (batch, n, p) stack.

    Tibshirani's W_k sums, over the k clusters of the tree cut in cut_k's
    label order, each cluster's pairwise squared distances over 2 n_r.  The
    clusters of cuts 1..k_hi are the root and the children of the top k_hi-1
    merges; each one's term is computed once, from its members in ascending
    order, together with every other cluster of the same size.
    """
    batch, n = sets.shape[:2]
    sq = _pairwise_sq_dists(sets)
    left, right, height, merge_sizes = _lance_williams(_unit_distances(sq), linkage_rule)
    _check_merges(left, right, height, merge_sizes)
    rows = np.arange(batch)
    members = np.zeros((batch, 2 * n - 1, n), dtype=bool)
    members[:, np.arange(n), np.arange(n)] = True
    for step in range(n - 1):
        members[:, n + step] = members[rows, left[:, step]] | members[rows, right[:, step]]
    sizes = np.concatenate([np.ones((batch, n), dtype=int), merge_sizes], axis=1)

    # candidate clusters: the root, then the children of merge node 2n-1-j,
    # which cut j+1 creates; a merge node v is split again by cut 2n-v.
    # start is a node's first position in the quasi-diagonal leaf order, so
    # sorting a cut's clusters by it gives cut_k's labels.
    cand = np.empty((batch, 2 * k_hi - 1), dtype=int)
    cand[:, 0] = 2 * n - 2
    start = np.zeros((batch, 2 * n - 1), dtype=int)
    for j in range(1, k_hi):
        node, a, b = 2 * n - 1 - j, left[:, n - 1 - j], right[:, n - 1 - j]
        cand[:, 2 * j - 1], cand[:, 2 * j] = a, b
        start[rows, a] = start[:, node]
        start[rows, b] = start[:, node] + sizes[rows, a]
    created = np.repeat(np.arange(1, k_hi + 1), 2)[1:]
    split = np.where(cand >= n, 2 * n - cand, n + 1)

    terms = np.zeros(cand.shape)  # singletons add nothing
    at_s, at_c = np.nonzero(cand >= n)
    node = cand[at_s, at_c]
    count = sizes[at_s, node]
    for c in sorted(set(count.tolist())):
        pick = count == c
        s, m = at_s[pick], np.nonzero(members[at_s[pick], node[pick]])[1].reshape(-1, c)
        blocks = sq[s[:, None, None], m[:, :, None], m[:, None, :]]
        terms[s, at_c[pick]] = blocks.reshape(len(s), c * c).sum(axis=1) / (2.0 * c)

    # (batch, k, candidate): each cut's k clusters in label order, then zeros
    k = np.arange(1, k_hi + 1)[:, None]
    present = (created <= k) & (k < split[:, None, :])
    order = np.argsort(np.where(present, start[rows[:, None], cand][:, None, :], n), axis=2)
    ordered = np.take_along_axis(np.where(present, terms[:, None, :], 0.0), order, axis=2)
    w = np.zeros((batch, k_hi))
    for col in range(k_hi):
        w = w + ordered[:, :, col]
    return np.array([[math.log(max(x, _LOG_FLOOR)) for x in row] for row in w.tolist()])


def _batch_curves(points, k_hi, seed, linkage_rule, ids):
    """log W_k curves of the point sets ids (a range): set 0 is the observed
    points, set i >= 1 reference set i.

    Reference set i is drawn uniformly over each column's observed range
    from SeedSequence(seed, spawn_key=(i - 1,)), which is child i - 1 of
    SeedSequence(seed).spawn, so a set has the same bits in any batch.
    """
    lo, hi = points.min(axis=0), points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def point_set(i):
        if i == 0:
            return points
        stream = np.random.SeedSequence(seed, spawn_key=(i - 1,))
        return lo + np.random.default_rng(stream).random(points.shape) * span

    return _log_w_curves(np.stack([point_set(i) for i in ids]), k_hi, linkage_rule)


def _gap_curves(points, k_hi, b_refs, seed, linkage_rule):
    """log W_k curves, k = 1..k_hi: row 0 for the observed points, row b for
    reference set b.

    The sets are clustered in batches of as many as fit _BATCH_BYTES of
    node-id matrices, mapped with pool_map.
    """
    n = points.shape[0]
    if seed is None:  # one entropy for every batch
        seed = np.random.SeedSequence().entropy
    per_batch = max(1, _BATCH_BYTES // (8 * (2 * n - 1) ** 2))
    batches = [
        range(start, min(start + per_batch, b_refs + 1))
        for start in range(0, b_refs + 1, per_batch)
    ]
    curves = pool_map(partial(_batch_curves, points, k_hi, seed, linkage_rule), batches)
    return np.concatenate(curves)


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
    if linkage_rule not in LINKAGE_RULES:
        raise ClusterError(f"unknown linkage rule {linkage_rule!r}")
    if k_max == 1:
        return 1

    points = np.asarray(corr_to_distance(correlation(r)).values, dtype=float)
    # evaluate one k past k_max so the stopping rule can assess k = k_max
    k_hi = min(k_max + 1, n)
    log_w = _gap_curves(points, k_hi, b_refs, seed, linkage_rule)
    ref_logs = log_w[1:]
    gap = ref_logs.mean(axis=0) - log_w[0]
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
        "root": node(tree.root),
    }

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

from portopt._io import render_json
from portopt._pool import pool_map
from portopt.riskstats import check_distances, corr_to_distance, correlation

LINKAGE_RULES = ("ward", "single")
_COLUMNS = ("left", "right", "height", "size")


class ClusterError(Exception):
    """Invalid clustering input or malformed tree."""


@dataclass(frozen=True)
class LinkageTree:
    """The merge history of n_leaves items as the linkage matrix's columns: merge
    m joins left[m] and right[m] at height[m] into node n_leaves + m, of size[m] leaves."""

    n_leaves: int
    left: tuple
    right: tuple
    height: tuple
    size: tuple

    def __post_init__(self):
        n = self.n_leaves
        if n < 1:
            raise ClusterError("tree needs at least one leaf")
        columns = [tuple(getattr(self, name)) for name in _COLUMNS]
        if any(len(column) != n - 1 for column in columns):
            raise ClusterError(f"expected {n - 1} merges, got columns of {list(map(len, columns))}")
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        _check_merges(*(np.array(c, ndmin=2, dtype=t) for c, t in zip(columns, (int, int, float, int))))

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
                stack.append(self.right[cur - n])
                stack.append(self.left[cur - n])
        return out


def _py_square(x):
    """x**2 elementwise with the bits of Python's float power (libm pow),
    which can differ from x * x in the last place.  The exponent stays a
    scalar: an array exponent takes numpy's SIMD pow, whose bits differ."""
    return np.float_power(x, 2.0)


def _lance_williams(dist, linkage_rule):
    """The merge histories of a (batch, n, n) stack of distance matrices.

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
    columns = _lance_williams(dist.values[None], linkage_rule)
    return LinkageTree(n, *(column[0].tolist() for column in columns))


def quasi_diagonalize(tree):
    """Dendrogram leaf order: expand each merge into its children, left first."""
    return tree.leaves_under(tree.root)


def cut_k(tree, k):
    """Cut the tree into k flat clusters by removing the top k-1 merges.

    Returns the labels 0..k-1 as a tuple indexed by leaf id, assigned in
    quasi-diagonal leaf order: the leftmost leaf's cluster gets 0, and so on.
    """
    n = tree.n_leaves
    if not 1 <= k <= n:
        raise ClusterError(f"k={k} out of range 1..{n}")
    *_, clusters = _cuts(tree.left, tree.right, k)
    labels = [0] * n
    for label, node in enumerate(clusters):
        for leaf in tree.leaves_under(node):
            labels[leaf] = label
    return tuple(labels)


def _cuts(left, right, k_hi):
    """Cluster node ids of cuts 1..k_hi of one merge history (its left and
    right child ids by step), each in cut_k's label order: cut 1 is the root,
    and cut k+1 replaces merge node 2n-1-k with its children, left first."""
    n = len(left) + 1
    cut = [2 * n - 2]
    yield tuple(cut)
    for node in range(2 * n - 2, 2 * n - 1 - k_hi, -1):
        at = cut.index(node)
        cut[at : at + 1] = left[node - n], right[node - n]
        yield tuple(cut)


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

    Tibshirani's W_k adds, one at a time in the label order of _cuts, each
    cluster's pairwise squared distances over 2 n_r.  Each cluster's term is
    computed once, from its members in ascending order, together with every
    other cluster of the same size.
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

    # the clusters of cuts 1..k_hi: the root and the children of the top k_hi-1 merges
    top = slice(n - k_hi, n - 1)
    cand = np.concatenate([np.full((batch, 1), 2 * n - 2), left[:, top], right[:, top]], axis=1)
    at_s, node = np.nonzero(cand >= n)[0], cand[cand >= n]
    count = merge_sizes[at_s, node - n]
    terms = np.zeros((batch, 2 * n - 1))  # by node id; singletons add nothing
    for c in sorted(set(count.tolist())):
        s, v = at_s[count == c], node[count == c]
        m = np.nonzero(members[s, v])[1].reshape(-1, c)
        blocks = sq[s[:, None, None], m[:, :, None], m[:, None, :]]
        terms[s, v] = blocks.reshape(len(s), c * c).sum(axis=1) / (2.0 * c)
    log_w = []
    for term, lft, rgt in zip(terms.tolist(), left.tolist(), right.tolist()):
        for cut in _cuts(lft, rgt, k_hi):
            total = 0.0  # not sum(), which compensates from python 3.12
            for v in cut:
                total += term[v]
            log_w.append(math.log(max(total, _LOG_FLOOR)))
    return np.array(log_w).reshape(batch, k_hi)


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
    """The LinkageTree as dendrogram JSON text (render_json's, so any depth).

    Leaves carry {"id", "ticker"}; internal nodes carry {"id", "height",
    "size", "children": [left, right]}.  The schema is versioned and stable.
    """
    n = tree.n_leaves
    nodes = [{"id": i, "ticker": label} for i, label in enumerate(labels)]
    if len(nodes) != n:
        raise ClusterError(f"got {len(nodes)} labels for {n} leaves")
    # a merge's children are older nodes, so they exist before it
    for nid, (a, b, height, size) in enumerate(zip(tree.left, tree.right, tree.height, tree.size), n):
        nodes.append({"children": [nodes[a], nodes[b]], "height": height, "id": nid, "size": size})
    root = nodes[tree.root]
    return render_json(
        {"format": "dendrogram", "n_leaves": n, "root": root, "version": DENDROGRAM_SCHEMA_VERSION}
    )

"""Independent reference implementations and random-instance builders used as
test oracles.  Everything here is deliberately written differently from the
library code (direct formulas, no Lance-Williams recurrence) so agreement is
meaningful.
"""

import datetime as dt
import math

import numpy as np

from portopt.hierclust import LinkageTree, Merge
from portopt.market_data import ReturnMatrix
from portopt.riskstats import CovMatrix, DistanceMatrix


def naive_linkage(values, rule):
    """O(n^3) agglomeration computing every cluster distance from the original
    matrix: single linkage as the minimum cross-pair distance, ward from the
    centroid dispersion formula on squared dissimilarities.

    Returns a list of (left, right, height, size) tuples.
    """
    d = np.asarray(values, dtype=float)
    d2 = d**2
    n = d.shape[0]
    members = {i: [i] for i in range(n)}

    def ward_height(a, b):
        na, nb = len(a), len(b)
        cross = d2[np.ix_(a, b)].sum() / (na * nb)
        within_a = d2[np.ix_(a, a)].sum() / (2.0 * na * na)
        within_b = d2[np.ix_(b, b)].sum() / (2.0 * nb * nb)
        ess_increase = na * nb / (na + nb) * (cross - within_a - within_b)
        return math.sqrt(max(2.0 * ess_increase, 0.0))

    def single_height(a, b):
        return float(d[np.ix_(a, b)].min())

    height_of = ward_height if rule == "ward" else single_height

    merges = []
    for step in range(n - 1):
        ids = sorted(members)
        best = None
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                a, b = ids[x], ids[y]
                key = (height_of(members[a], members[b]), a, b)
                if best is None or key < best:
                    best = key
        height, a, b = best
        node = n + step
        members[node] = members.pop(a) + members.pop(b)
        merges.append((a, b, height, len(members[node])))
    return merges


def naive_cut(tree, k):
    """Flat k-cluster partition as a set of frozensets of leaf ids: union the
    member lists of the first n-k merges, with no tree walk."""
    n = tree.n_leaves
    members = {i: [i] for i in range(n)}
    for step, merge in enumerate(tree.merges[: n - k]):
        members[n + step] = members.pop(merge.left) + members.pop(merge.right)
    return {frozenset(m) for m in members.values()}


def random_distance_matrix(rng, n):
    m = rng.random((n, n))
    values = (m + m.T) / 2.0
    np.fill_diagonal(values, 0.0)
    values = np.clip(values, 0.0, 1.0)
    return DistanceMatrix(tuple(str(i) for i in range(n)), values)


def random_psd_cov(rng, n, scale=0.02):
    """Well-conditioned random covariance via a tall factor loading matrix."""
    a = rng.standard_normal((n + 3, n)) * scale
    values = a.T @ a / (n + 3)
    values = (values + values.T) / 2.0
    return CovMatrix(tuple(str(i) for i in range(n)), values)


def random_tree(rng, n):
    """Arbitrary-topology linkage tree: random merge pairs, increasing heights."""
    active = list(range(n))
    merges = []
    height = 0.0
    for step in range(n - 1):
        i, j = sorted(rng.choice(len(active), size=2, replace=False))
        b = active.pop(int(j))
        a = active.pop(int(i))
        height += float(rng.random()) + 1e-6
        size = _subtree_size(merges, n, a) + _subtree_size(merges, n, b)
        merges.append(Merge(a, b, height, size))
        active.append(n + step)
    return LinkageTree(n, tuple(merges))


def _subtree_size(merges, n, node):
    return 1 if node < n else merges[node - n].size


def make_returns(rows, tickers=None, start=dt.date(2021, 1, 4)):
    rows = np.asarray(rows, dtype=float)
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(rows.shape[1]))
    dates = tuple(start + dt.timedelta(days=i) for i in range(rows.shape[0]))
    return ReturnMatrix(dates, tuple(tickers), rows)


def block_return_panel(seed, n_blocks=3, per_block=3, t=1000, rho=0.9):
    """Synthetic daily returns with equicorrelated blocks and zero cross-block
    correlation (one common factor per block)."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((t, n_blocks))
    noise = rng.standard_normal((t, n_blocks * per_block))
    r = np.empty((t, n_blocks * per_block))
    for b in range(n_blocks):
        for j in range(per_block):
            col = b * per_block + j
            r[:, col] = math.sqrt(rho) * factors[:, b] + math.sqrt(1.0 - rho) * noise[:, col]
    return make_returns(0.01 * r, start=dt.date(2019, 1, 1))

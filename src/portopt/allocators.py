"""Long-only weight allocators: inverse variance, Monte-Carlo mean-variance,
HRP recursive bisection, and HERC top-down risk-contribution allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from portopt._io import csv_line, is_path_component, write_text
from portopt._pool import pool_map
from portopt.hierclust import gap_optimal_k, quasi_diagonalize
from portopt.riskstats import best, check_tickers, sharpe_ratio

RISK_MEASURES = ("std_dev", "variance")
CLUSTER_WEIGHTINGS = ("inverse", "paper_literal")
_FRONTIER_BLOCK_ROWS = 1000  # rows write_frontier_csv renders per write
# Monte-Carlo samples mvp_optimize draws and scores at a time.  BLAS scores a
# matrix-vector product's rows in small groups plus a remainder, each on its
# own path; a power-of-two block starts every block on a group boundary, so
# each row gets the bits of one whole-matrix call.
_MVP_BLOCK_ROWS = 1024
MVP_SAMPLES = 10000  # mvp_optimize's default sample count


class AllocationError(Exception):
    """Allocator received degenerate or mismatched inputs."""


@dataclass(frozen=True)
class WeightVector:
    """Long-only allocation: non-negative weights summing to 1."""

    tickers: tuple
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.tickers),):
            raise AllocationError(
                f"{weights.shape[0] if weights.ndim == 1 else '?'} weights for "
                f"{len(self.tickers)} tickers"
            )
        if not np.all(np.isfinite(weights)):
            raise AllocationError("weights must be finite")
        if np.min(weights, initial=0.0) < -1e-12:
            raise AllocationError(f"negative weight {weights.min()}")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise AllocationError(f"weights sum to {weights.sum()}, expected 1")
        weights = np.maximum(weights, 0.0)
        weights.setflags(write=False)
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class FrontierSample:
    """One random candidate portfolio with its annualized metrics."""

    weights: WeightVector
    annual_return: float
    annual_volatility: float
    sharpe: float | None


@dataclass(frozen=True)
class MvpResult:
    """Monte-Carlo metrics as arrays (sample i scores annual_return[i],
    annual_volatility[i], sharpe[i], nan where undefined), the max-Sharpe and
    min-vol samples, and the sorted indices of the Pareto-nondominated
    frontier.  The weight matrix is not kept: samples redraws it from seed."""

    seed: int
    annual_return: np.ndarray
    annual_volatility: np.ndarray
    sharpe: np.ndarray
    max_sharpe: FrontierSample
    min_vol: FrontierSample
    frontier: np.ndarray

    @property
    def samples(self):
        """The read-only (n_samples, n) weight matrix (row i is sample i),
        drawn anew on each access."""
        weights = _weight_block(self.seed, len(self.max_sharpe.weights.tickers), 0, len(self.sharpe))
        weights.setflags(write=False)
        return weights


@dataclass(frozen=True)
class HercParams:
    """HERC configuration: cluster count, risk measure, and split direction.

    cluster_weighting='inverse' gives the lower-risk subtree the larger
    weight (W1 = 1 - R1/(R1+R2)); 'paper_literal' uses W1 = R1/(R1+R2).
    k='auto' selects the cluster count with the gap statistic, seeded by seed
    and clustering under linkage_rule (the rule the HERC tree was built with).
    """

    k: int | str = "auto"
    risk_measure: str = "std_dev"
    cluster_weighting: str = "inverse"
    gap_k_max: int | None = None
    gap_b_refs: int = 100
    seed: int = 0
    linkage_rule: str = "ward"

    def __post_init__(self):
        if self.k != "auto" and (not isinstance(self.k, int) or self.k < 1):
            raise AllocationError(f"k must be 'auto' or a positive int, got {self.k!r}")
        if self.risk_measure not in RISK_MEASURES:
            raise AllocationError(f"unknown risk measure {self.risk_measure!r}")
        if self.cluster_weighting not in CLUSTER_WEIGHTINGS:
            raise AllocationError(
                f"unknown cluster weighting {self.cluster_weighting!r}"
            )


def _variances(cov, members):
    """Diagonal of cov over members; a zero variance is an error naming its ticker."""
    variances = cov.values[members, members]
    for idx, v in zip(members, variances):
        if v <= 0.0:
            raise AllocationError(f"ticker {cov.tickers[idx]!r} has zero variance")
    return variances


def _asset_count(cov, tree):
    """cov's asset count, which must be tree's leaf count."""
    n = len(cov.tickers)
    if tree.n_leaves != n:
        raise AllocationError(f"tree has {tree.n_leaves} leaves but covariance has {n} assets")
    return n


def cluster_variance(cov, members):
    """Variance of the inverse-variance allocation over a member subset."""
    members = list(members)
    if not members:
        raise AllocationError("empty member set")
    sub = cov.values[np.ix_(members, members)]
    inv = 1.0 / _variances(cov, members)
    w = inv / inv.sum()
    return float(w @ sub @ w)


def hrp_allocate(cov, tree):
    """Hierarchical risk parity via recursive bisection.

    Leaves are taken in quasi-diagonal order and recursively split into two
    contiguous halves (left half = ceil(m/2) leaves); each half's running
    weight scales inversely with its cluster variance.
    """
    n = _asset_count(cov, tree)
    order = quasi_diagonalize(tree)
    weights = np.ones(n)
    groups = [order]
    while groups:
        next_groups = []
        for group in groups:
            if len(group) < 2:
                continue
            half = (len(group) + 1) // 2
            left, right = group[:half], group[half:]
            v_left = cluster_variance(cov, left)
            v_right = cluster_variance(cov, right)
            alpha = 1.0 - v_left / (v_left + v_right)
            weights[left] *= alpha
            weights[right] *= 1.0 - alpha
            next_groups += [left, right]
        groups = next_groups
    return WeightVector(cov.tickers, weights / weights.sum())


def herc_allocate(cov, tree, params=None, returns=None):
    """Hierarchical equal risk contribution allocation.

    Splits weight top-down through the k-1 highest merges in proportion to
    subtree risk (direction per params.cluster_weighting), then applies naive
    risk parity (weights proportional to 1/risk) inside each of the k final
    clusters; final asset weight = cluster weight x naive-parity weight.
    A cluster's risk is the sum of its members' risks.

    returns is required when params.k == 'auto' (the gap statistic runs on
    the training return panel).
    """
    params = params or HercParams()
    n = _asset_count(cov, tree)

    if params.k == "auto":
        if returns is None:
            raise AllocationError("k='auto' needs the return panel for the gap statistic")
        k = gap_optimal_k(
            returns,
            k_max=params.gap_k_max,
            b_refs=params.gap_b_refs,
            seed=params.seed,
            linkage_rule=params.linkage_rule,
        )
    else:
        k = params.k
    if not 1 <= k <= n:
        raise AllocationError(f"k={k} out of range 1..{n}")

    variances = _variances(cov, list(range(n)))
    risks = np.sqrt(variances) if params.risk_measure == "std_dev" else variances
    node_risk = [float(risk) for risk in risks]
    for a, b in zip(tree.left, tree.right):
        node_risk.append(node_risk[a] + node_risk[b])

    # walk the top k-1 merges root-first, splitting weight between subtrees
    cluster_weight = {tree.root: 1.0}
    for m in reversed(range(n - k, n - 1)):
        a, b = tree.left[m], tree.right[m]
        total = cluster_weight.pop(n + m)
        frac = node_risk[a] / (node_risk[a] + node_risk[b])
        if params.cluster_weighting == "inverse":
            frac = 1.0 - frac
        cluster_weight[a] = total * frac
        cluster_weight[b] = total * (1.0 - frac)

    weights = np.zeros(n)
    for node, cw in cluster_weight.items():
        members = tree.leaves_under(node)
        inv = 1.0 / risks[members]
        weights[members] = cw * inv / inv.sum()
    return WeightVector(cov.tickers, weights)


def _block_bounds(n_samples):
    """(start, rows) of each block of _MVP_BLOCK_ROWS samples; the last block
    holds the remainder, or _MVP_BLOCK_ROWS + 1 rows."""
    bounds, start = [], 0
    while start < n_samples:
        left = n_samples - start
        # a lone last row joins its block: a one-row product takes another
        # BLAS path than the last row of a larger matrix
        rows = left if left <= _MVP_BLOCK_ROWS + 1 else _MVP_BLOCK_ROWS
        bounds.append((start, rows))
        start += rows
    return bounds


def _weight_block(seed, n, start, rows):
    """Monte-Carlo weight rows start..start+rows-1, normalised in place.

    The block's uniforms follow the start * n that PCG64(seed) draws before
    them, so stacked blocks have the bits of draws / draws.sum(axis=1,
    keepdims=True) for one (n_samples, n) draw from default_rng(seed).
    """
    bits = np.random.PCG64(seed)
    bits.advance(start * n)
    w = np.random.Generator(bits).random((rows, n))
    w /= w.sum(axis=1, keepdims=True)
    if not (np.all(np.isfinite(w)) and w.min() >= 0.0
            and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9):
        raise AllocationError("sample weights must be finite, non-negative and sum to 1")
    return w


def _picks(sharpe, vols):
    """Indices of the max-Sharpe and of the min-vol sample (riskstats.best)."""
    return best(sharpe)[0], best(vols, lowest=True)[0]


def _score_block(seed, mu_annual, cov, annualization_days, risk_free_rate, bounds):
    """Draw and score one block of samples: its annual returns, volatilities
    and Sharpe ratios, then {sample index: row} of its _picks."""
    start, rows = bounds
    w = _weight_block(seed, len(mu_annual), start, rows)
    # each row scores with the bits of a whole-matrix call (_MVP_BLOCK_ROWS)
    r = w @ mu_annual
    daily_var = np.einsum("ij,jk,ik->i", w, cov, w)
    v = np.sqrt(annualization_days * np.maximum(daily_var, 0.0))
    s = sharpe_ratio(r, v, risk_free_rate)
    return r, v, s, {start + i: w[i].copy() for i in _picks(s, v)}


def mvp_optimize(mu, cov, n_samples=MVP_SAMPLES, risk_free_rate=0.0, seed=0):
    """Monte-Carlo mean-variance search over random simplex weights.

    Draws n_samples weight vectors (independent uniforms normalized by their
    sum), scores each with annualized return, volatility, and Sharpe ratio,
    and reports the max-Sharpe and min-vol samples (_picks over all samples)
    and the Pareto-nondominated frontier.  Deterministic for a fixed int seed
    (None draws one).

    Samples are drawn and scored in blocks of _MVP_BLOCK_ROWS rows, mapped
    with pool_map, so the peak memory is O(block x n) plus about 65 bytes a
    sample: only the metric arrays (24 bytes a sample) and the rows of each
    block's _picks outlive their block, and the Pareto scan adds the rest.
    """
    check_tickers(mu, "return", cov, "covariance", AllocationError)
    if n_samples < 1:
        raise AllocationError("n_samples must be at least 1")
    if seed is None:  # fix the entropy, so that samples can redraw these weights
        seed = np.random.SeedSequence().entropy
    elif not isinstance(seed, (int, np.integer)):
        raise AllocationError("seed must be an int: MvpResult.samples redraws from it")

    score = partial(
        _score_block, seed, mu.mu_annual, cov.values, mu.annualization_days, risk_free_rate
    )
    blocks = pool_map(score, _block_bounds(n_samples))
    rets, vols, sharpe = (np.concatenate([b[i] for b in blocks]) for i in range(3))
    # a pick over all samples is also the first pick of its own block, so
    # its row is among the blocks' rows
    rows = {i: row for b in blocks for i, row in b[3].items()}
    del blocks  # before the Pareto scan, whose temporaries set the peak

    def sample(i):
        s = None if np.isnan(sharpe[i]) else float(sharpe[i])
        return FrontierSample(WeightVector(mu.tickers, rows[i]), float(rets[i]), float(vols[i]), s)

    # Pareto scan: dominated iff another sample has strictly lower volatility
    # and strictly higher return.  In volatility order, a sample is kept iff
    # its return is at least the best return before its equal-volatility
    # group.  Sorted volatilities go once their groups are found.
    order = np.argsort(vols, kind="stable")
    v = vols[order]
    below = np.searchsorted(v, v, side="left") - 1  # the last position before its group
    del v
    r = rets[order]
    best_below = np.maximum.accumulate(r)[below]
    best_below[below < 0] = -np.inf
    frontier = np.sort(order[r >= best_below])

    return MvpResult(seed, rets, vols, sharpe, *map(sample, _picks(sharpe, vols)), frontier)


def write_weights_csv(weights, path):
    """Export a WeightVector as 'ticker,weight' CSV, each row csv_line's."""
    rows = zip(weights.tickers, weights.weights.tolist())
    write_text(path, "ticker,weight\n" + "".join(map(csv_line, rows)))


def read_weights_csv(path):
    """Load a 'ticker,weight' CSV written by write_weights_csv (a UTF-8
    byte-order mark is accepted; only \\n, \\r\\n and \\r end a line).  Each
    ticker names its price CSV, so it must be one path component, listed once."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8-sig").split("\n")  # not splitlines(): a ticker may hold "\x85"
    except (OSError, UnicodeDecodeError) as exc:
        raise AllocationError(f"{path}: cannot read weights file: {exc}") from None
    if not lines or lines[0] != "ticker,weight":
        raise AllocationError(f"{path}: expected 'ticker,weight' header")
    tickers, values = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            ticker, raw = line.split(",", 1)
            values.append(float(raw))
        except ValueError:
            raise AllocationError(f"{path}: line {line_no}: bad row {line!r}") from None
        if not is_path_component(ticker):
            raise AllocationError(
                f"{path}: line {line_no}: ticker {ticker!r} is not one path component"
            )
        if ticker in tickers:
            raise AllocationError(f"{path}: line {line_no}: repeated ticker {ticker!r}")
        tickers.append(ticker)
    return WeightVector(tuple(tickers), np.array(values))


def write_frontier_csv(result, path):
    """Export MVP samples as 'return,volatility,sharpe' CSV (one row per sample).

    An undefined Sharpe ratio is written as an empty cell.
    """
    columns = (result.annual_return, result.annual_volatility, result.sharpe)

    def chunks():
        yield "return,volatility,sharpe\n"
        # one % operation renders a block of rows to csv_line's bytes, a nan
        # Sharpe ratio given as None.  Blocks keep the temporaries' size
        # independent of the sample count.
        for start in range(0, len(columns[0]), _FRONTIER_BLOCK_ROWS):
            values = np.column_stack([c[start:start + _FRONTIER_BLOCK_ROWS] for c in columns])
            body = ("%.12g,%.12g,%.12g\n" * len(values)) % tuple(values.ravel().tolist())
            yield body.replace(",nan\n", ",\n")

    write_text(path, chunks())

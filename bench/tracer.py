"""In-process span tracing of portopt's public functions, from outside src/.

The tracer replaces module attributes with timing wrappers, so it sees
exactly the calls made through those attributes: the names pipeline.py
imports, the linkage and cut calls the gap statistic makes through
``portopt.hierclust``, ``gap_optimal_k`` as herc_allocate reaches it through
``portopt.allocators``, and ``portfolio_metrics`` as evaluate reaches it
through ``portopt.backtest``.  Spans (name, start, end, parent, note) stay in
memory until the run ends; ``layer_metrics`` folds them into per-layer self
times and counts.
"""

import functools
import os
import statistics
from time import perf_counter

# module attribute -> layer metric that its self time feeds
SPAN_LAYER = {
    "load_price_table": "market_data.load_s",
    "split_train_test": "market_data.prep_s",
    "daily_returns": "market_data.prep_s",
    "covariance": "riskstats.stats_s",
    "correlation": "riskstats.stats_s",
    "corr_to_distance": "riskstats.stats_s",
    "expected_returns": "riskstats.stats_s",
    "portfolio_metrics": "riskstats.metrics_s",
    "agglomerate": "hierclust.linkage_s",
    "gap_optimal_k": "hierclust.gap_s",
    "cut_k": "hierclust.cut_s",
    "dendrogram_export": "hierclust.dendrogram_s",
    "mvp_optimize": "allocators.mvp_s",
    "hrp_allocate": "allocators.hrp_s",
    "herc_allocate": "allocators.herc_s",
    "write_weights_csv": "allocators.weights_write_s",
    "write_frontier_csv": "allocators.frontier_write_s",
    "evaluate": "backtest.evaluate_s",
    "summarize": "backtest.summarize_s",
    "summary_to_csv": "backtest.summarize_s",
    "summary_winners_dict": "backtest.summarize_s",
    "write_report_json": "backtest.report_write_s",
    "run_pipeline": "pipeline.self_s",
}

# what a span keeps from its call, for the counts computed after the run
NOTES = {
    "load_price_table": lambda args, kw, res: [str(p) for p in dict(args[0]).values()],
    "agglomerate": lambda args, kw, res: len(args[0].tickers),
    "mvp_optimize": lambda args, kw, res: (len(res.samples), len(res.frontier)),
    "write_frontier_csv": lambda args, kw, res: str(args[1]),
    "write_report_json": lambda args, kw, res: str(args[1]),
}

METRICS = {
    "market_data.load_s": "s",
    "market_data.prep_s": "s",
    "market_data.csv_parses": "count",
    "market_data.unique_parse_ratio": "ratio",
    "market_data.bytes_read": "bytes",
    "riskstats.stats_s": "s",
    "riskstats.metrics_s": "s",
    "hierclust.linkage_s": "s",
    "hierclust.linkage_calls": "count",
    "hierclust.linkage_leaves": "count",
    "hierclust.gap_s": "s",
    "hierclust.gap_calls": "count",
    "hierclust.gap_ref_draws": "count",
    "hierclust.cut_s": "s",
    "hierclust.cut_calls": "count",
    "hierclust.dendrogram_s": "s",
    "allocators.mvp_s": "s",
    "allocators.mvp_samples": "count",
    "allocators.mvp_samples_per_s": "1/s",
    "allocators.mvp_frontier_ratio": "ratio",
    "allocators.hrp_s": "s",
    "allocators.herc_s": "s",
    "allocators.weights_write_s": "s",
    "allocators.frontier_write_s": "s",
    "allocators.frontier_bytes": "bytes",
    "backtest.evaluate_s": "s",
    "backtest.evaluate_calls": "count",
    "backtest.summarize_s": "s",
    "backtest.report_write_s": "s",
    "backtest.report_bytes": "bytes",
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "config.load_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

# measured by run.py outside the traced call
RUN_LEVEL = ("config.load_s", "cli.import_s", "trace.overhead_s")


def targets(portopt):
    """(module, attribute) pairs to wrap, as the program calls through them."""
    pipeline = portopt.pipeline
    pairs = [(pipeline, name) for name in SPAN_LAYER
             if name != "run_pipeline" and callable(getattr(pipeline, name, None))]
    pairs += [(portopt.hierclust, "agglomerate"), (portopt.hierclust, "cut_k"),
              (portopt.allocators, "gap_optimal_k"), (portopt.backtest, "portfolio_metrics")]
    return pairs


class Tracer:
    """Records one span per wrapped call while installed (a context manager)."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.spans = []  # [name, start, end, parent index or -1, note]
        self._stack = []
        self._saved = []

    def _wrap(self, name, func):
        note = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                self._stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def call(self, name, func, *args):
        """Run func(*args) as a root span."""
        return self._wrap(name, func)(*args)

    def __enter__(self):
        for module, attr in self.pairs:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(spans):
    """Per-layer self times and counts from one traced run_pipeline call.

    Self time is a span's duration minus the durations of its direct
    children.  Files named in span notes must still exist.
    """
    child_time = [0.0] * len(spans)
    under_gap = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_gap[i] = under_gap[parent] or spans[parent][0] == "gap_optimal_k"

    out = {name: 0 for name in METRICS if name not in RUN_LEVEL}
    parsed, samples, frontier = [], 0, 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        out[SPAN_LAYER[name]] += end - start - child_time[i]
        if name == "run_pipeline":
            out["pipeline.run_s"] += end - start
        elif name == "load_price_table":
            parsed += note
        elif name == "agglomerate":
            out["hierclust.linkage_calls"] += 1
            out["hierclust.linkage_leaves"] += note
            out["hierclust.gap_ref_draws"] += under_gap[i]
        elif name == "gap_optimal_k":
            out["hierclust.gap_calls"] += 1
        elif name == "cut_k":
            out["hierclust.cut_calls"] += 1
        elif name == "evaluate":
            out["backtest.evaluate_calls"] += 1
        elif name == "mvp_optimize":
            samples += note[0]
            frontier += note[1]
        elif name == "write_frontier_csv":
            out["allocators.frontier_bytes"] += os.path.getsize(note)
        elif name == "write_report_json":
            out["backtest.report_bytes"] += os.path.getsize(note)
    # one linkage per gap call clusters the observed data; the rest are
    # reference draws
    has_refs = {spans[i][3] for i in range(len(spans))
                if under_gap[i] and spans[i][0] == "agglomerate"}
    out["hierclust.gap_ref_draws"] -= len(has_refs)
    out["market_data.csv_parses"] = len(parsed)
    out["market_data.unique_parse_ratio"] = len(set(parsed)) / len(parsed) if parsed else 0.0
    out["market_data.bytes_read"] = sum(os.path.getsize(p) for p in parsed)
    out["allocators.mvp_samples"] = samples
    out["allocators.mvp_samples_per_s"] = (
        samples / out["allocators.mvp_s"] if out["allocators.mvp_s"] > 0 else 0.0)
    out["allocators.mvp_frontier_ratio"] = frontier / samples if samples else 0.0
    return out


def median_metrics(runs):
    """Median of each metric over several layer_metrics results."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}

"""Run configuration: sectors, data locations, date boundaries, and per-method
parameters, loaded from a YAML file.

Schema (all dates ISO YYYY-MM-DD):

    data_dir: path to per-ticker CSVs (<ticker>.csv)
    output_dir: where weights/reports/summaries are written
    train_start / train_end / test_end: study boundaries
    sectors: {name: [tickers...]}   # >= 2 tickers each when hrp or herc runs
                                    # names and tickers: one path component each
    methods:
      mvp:  {n_samples: 10000, seed: 0}
      hrp:  {}
      herc: {k: auto | int, risk_measure: std_dev | variance,
             cluster_weighting: inverse | paper_literal,
             gap_b_refs: 100, gap_k_max: int (<= smallest sector), seed: 0}
             (a fixed k may not exceed the smallest sector either)
    annualization_days: 252     # optional, int >= 1
    risk_free_rate: 0.0         # optional, finite number
    linkage_rule: ward | single # optional
    close_column: Close         # optional
    date_column: Date           # optional
    align: intersect | ffill    # optional
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from portopt.allocators import CLUSTER_WEIGHTINGS, RISK_MEASURES
from portopt.hierclust import LINKAGE_RULES

KNOWN_METHODS = ("mvp", "hrp", "herc")

_METHOD_PARAM_KEYS = {
    "mvp": {"n_samples", "seed"},
    "hrp": set(),
    "herc": {"k", "risk_measure", "cluster_weighting", "gap_b_refs", "gap_k_max", "seed"},
}


class ConfigError(Exception):
    """Configuration file is missing, malformed, or violates an invariant."""


def _check_int(value, key, low=1, high=None):
    """Reject anything but an int in [low, high]; a bool is not an int here."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{key}: expected an int {bound}, got {value!r}")


@dataclass
class RunConfig:
    sectors: dict
    data_dir: Path
    output_dir: Path
    train_start: dt.date
    train_end: dt.date
    test_end: dt.date
    methods: dict = field(default_factory=lambda: {m: {} for m in KNOWN_METHODS})
    annualization_days: int = 252
    risk_free_rate: float = 0.0
    linkage_rule: str = "ward"
    close_column: str = "Close"
    date_column: str = "Date"
    align: str = "intersect"

    def validate(self):
        if not self.sectors:
            raise ConfigError("sectors: at least one sector is required")
        for name, tickers in self.sectors.items():
            for part in (name, *tickers):  # an output directory or a CSV name
                if part in ("", ".", "..") or "/" in part or os.sep in part:
                    raise ConfigError(
                        f"sectors.{name}: {part!r} is not one path component "
                        "(no '/', not '.' or '..')"
                    )
            if not tickers:
                raise ConfigError(f"sectors.{name}: empty ticker list")
            repeated = sorted({t for t in tickers if tickers.count(t) > 1})
            if repeated:
                raise ConfigError(f"sectors.{name}: duplicate ticker(s) {repeated}")
        if not any(len(t) >= 2 for t in self.sectors.values()):
            raise ConfigError("sectors: at least one sector needs >= 2 tickers")
        if not self.train_start < self.train_end < self.test_end:
            raise ConfigError(
                "dates: require train_start < train_end < test_end, got "
                f"{self.train_start} / {self.train_end} / {self.test_end}"
            )
        if not self.methods:
            raise ConfigError("methods: at least one method must be enabled")
        for method, params in self.methods.items():
            if method not in KNOWN_METHODS:
                raise ConfigError(
                    f"methods.{method}: unknown method (expected one of "
                    f"{', '.join(KNOWN_METHODS)})"
                )
            if not isinstance(params, dict):
                raise ConfigError(
                    f"methods.{method}: expected a mapping of parameters, got {params!r}"
                )
            unknown = set(params) - _METHOD_PARAM_KEYS[method]
            if unknown:
                raise ConfigError(
                    f"methods.{method}: unknown parameter(s) {sorted(unknown)}"
                )
            if "seed" in params:
                _check_int(params["seed"], f"methods.{method}.seed", low=0)
        tree_methods = [m for m in ("hrp", "herc") if m in self.methods]
        if tree_methods:
            self.check_clusterable(self.sectors, "/".join(tree_methods))
        herc = self.methods.get("herc", {})
        fewest = min(len(t) for t in self.sectors.values())
        k = herc.get("k", "auto")
        if k != "auto":
            _check_int(k, "methods.herc.k", high=fewest)
        if "gap_b_refs" in herc:
            _check_int(herc["gap_b_refs"], "methods.herc.gap_b_refs")
        if herc.get("gap_k_max") is not None:
            _check_int(herc["gap_k_max"], "methods.herc.gap_k_max", high=fewest)
        if herc.get("risk_measure", "std_dev") not in RISK_MEASURES:
            raise ConfigError(
                f"methods.herc.risk_measure: expected one of {RISK_MEASURES}"
            )
        if herc.get("cluster_weighting", "inverse") not in CLUSTER_WEIGHTINGS:
            raise ConfigError(
                f"methods.herc.cluster_weighting: expected one of {CLUSTER_WEIGHTINGS}"
            )
        if "n_samples" in self.methods.get("mvp", {}):
            _check_int(self.methods["mvp"]["n_samples"], "methods.mvp.n_samples")
        if self.linkage_rule not in LINKAGE_RULES:
            raise ConfigError(f"linkage_rule: expected one of {LINKAGE_RULES}")
        if self.align not in ("intersect", "ffill"):
            raise ConfigError("align: expected 'intersect' or 'ffill'")
        _check_int(self.annualization_days, "annualization_days")
        rate = self.risk_free_rate
        finite = isinstance(rate, (int, float)) and math.isfinite(rate)
        if isinstance(rate, bool) or not finite:
            raise ConfigError(f"risk_free_rate: expected a finite number, got {rate!r}")
        self.risk_free_rate = float(rate)
        return self

    def check_clusterable(self, sectors, what):
        """Reject, by name, any of these sectors with too few tickers for the
        linkage tree that `what` needs."""
        for name in sectors:
            count = len(self.sectors[name])
            if count < 2:
                raise ConfigError(
                    f"sectors.{name}: {what} clustering needs at least 2 tickers, got {count}"
                )

    def echo(self):
        """JSON-ready copy of the configuration, for the run manifest."""
        return {
            "sectors": {name: list(t) for name, t in self.sectors.items()},
            "data_dir": str(self.data_dir),
            "output_dir": str(self.output_dir),
            "train_start": self.train_start.isoformat(),
            "train_end": self.train_end.isoformat(),
            "test_end": self.test_end.isoformat(),
            "methods": {m: dict(p) for m, p in self.methods.items()},
            "annualization_days": self.annualization_days,
            "risk_free_rate": self.risk_free_rate,
            "linkage_rule": self.linkage_rule,
            "close_column": self.close_column,
            "date_column": self.date_column,
            "align": self.align,
        }


def _parse_date(raw, key):
    if isinstance(raw, dt.date):
        return raw
    try:
        return dt.date.fromisoformat(str(raw))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: unparsable date {raw!r} (expected YYYY-MM-DD)") from None


def load_config(path, base_dir=None):
    """Load and validate a RunConfig from a YAML file.

    Relative data_dir/output_dir paths resolve against the config file's
    directory (or base_dir when given).
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")

    base = Path(base_dir) if base_dir is not None else path.parent
    for key in ("sectors", "data_dir", "output_dir", "train_start", "train_end", "test_end"):
        if key not in raw:
            raise ConfigError(f"{key}: required key missing")
    for key in ("data_dir", "output_dir"):
        if not isinstance(raw[key], str):
            raise ConfigError(f"{key}: expected a path string, got {raw[key]!r}")

    sectors = raw["sectors"]
    if not isinstance(sectors, dict) or not all(
        isinstance(v, list) for v in sectors.values()
    ):
        raise ConfigError("sectors: expected a mapping of name -> ticker list")

    methods = raw.get("methods", {m: {} for m in KNOWN_METHODS})
    if isinstance(methods, list):
        methods = {m: {} for m in methods}
    if not isinstance(methods, dict):
        raise ConfigError("methods: expected a mapping or list of method names")
    methods = {m: (p or {}) for m, p in methods.items()}

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    cfg = RunConfig(
        sectors={str(k): [str(t) for t in v] for k, v in sectors.items()},
        data_dir=resolve(raw["data_dir"]),
        output_dir=resolve(raw["output_dir"]),
        train_start=_parse_date(raw["train_start"], "train_start"),
        train_end=_parse_date(raw["train_end"], "train_end"),
        test_end=_parse_date(raw["test_end"], "test_end"),
        methods=methods,
        annualization_days=raw.get("annualization_days", 252),
        risk_free_rate=raw.get("risk_free_rate", 0.0),
        linkage_rule=str(raw.get("linkage_rule", "ward")),
        close_column=str(raw.get("close_column", "Close")),
        date_column=str(raw.get("date_column", "Date")),
        align=str(raw.get("align", "intersect")),
    )
    return cfg.validate()

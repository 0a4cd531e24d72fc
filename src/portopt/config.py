"""Run configuration: sectors, data locations, date boundaries, and per-method
parameters, loaded from a YAML file.

Schema (all dates ISO YYYY-MM-DD):

    data_dir: path to per-ticker CSVs (<ticker>.csv)
    output_dir: where weights/reports/summaries are written
    train_start / train_end / test_end: study boundaries
    sectors: {name: [tickers...]}   # >= 2 tickers each when hrp or herc runs
                                    # names and tickers: strings (quote 0700,
                                    # null, true), one path component each
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

The keys and the defaults of the optional ones are RunConfig's fields.  An
unknown key, at the top level or under methods.<name>, is rejected by name, and
so is a key given twice in one mapping (with its line).
Every ticker needs a price on or before train_start, under either alignment.
"""

from __future__ import annotations

import datetime as dt
import math
from collections.abc import Hashable
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from portopt._io import is_path_component
from portopt.allocators import CLUSTER_WEIGHTINGS, RISK_MEASURES
from portopt.hierclust import LINKAGE_RULES
from portopt.market_data import ALIGN_POLICIES
from portopt.pipeline import TREE_METHODS
from portopt.riskstats import DEFAULT_ANNUALIZATION_DAYS

KNOWN_METHODS = ("mvp", "hrp", "herc")

_METHOD_PARAM_KEYS = {
    "mvp": ("n_samples", "seed"),
    "hrp": (),
    "herc": ("k", "risk_measure", "cluster_weighting", "gap_b_refs", "gap_k_max", "seed"),
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


def _reject_unknown(mapping, known, prefix=""):
    """Reject, by name, the first key of mapping that is not in known."""
    for key in mapping:
        if key not in known:
            expected = f"one of {', '.join(known)}" if known else "no keys"
            raise ConfigError(f"{prefix}{key}: unknown key (expected {expected})")


@dataclass
class RunConfig:
    sectors: dict
    data_dir: Path
    output_dir: Path
    train_start: dt.date
    train_end: dt.date
    test_end: dt.date
    methods: dict = field(default_factory=lambda: {m: {} for m in KNOWN_METHODS})
    annualization_days: int = DEFAULT_ANNUALIZATION_DAYS
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
                if not isinstance(part, str):  # YAML reads 0700 as 448, null as None
                    raise ConfigError(f"sectors.{name}: {part!r} is not a string; quote it")
                if not is_path_component(part):
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
        _reject_unknown(self.methods, KNOWN_METHODS, "methods.")
        for method, params in self.methods.items():
            if not isinstance(params, dict):
                raise ConfigError(
                    f"methods.{method}: expected a mapping of parameters, got {params!r}"
                )
            _reject_unknown(params, _METHOD_PARAM_KEYS[method], f"methods.{method}.")
            if "seed" in params:
                _check_int(params["seed"], f"methods.{method}.seed", low=0)
        tree_methods = [m for m in TREE_METHODS if m in self.methods]
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
        herc_choices = {"risk_measure": RISK_MEASURES, "cluster_weighting": CLUSTER_WEIGHTINGS}
        for key, choices in herc_choices.items():
            if key in herc and herc[key] not in choices:
                raise ConfigError(f"methods.herc.{key}: expected one of {choices}")
        if "n_samples" in self.methods.get("mvp", {}):
            _check_int(self.methods["mvp"]["n_samples"], "methods.mvp.n_samples")
        if self.linkage_rule not in LINKAGE_RULES:
            raise ConfigError(f"linkage_rule: expected one of {LINKAGE_RULES}")
        if self.align not in ALIGN_POLICIES:
            raise ConfigError(f"align: expected one of {ALIGN_POLICIES}")
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

    def make_output_dir(self):
        """Create output_dir with its parents, or raise ConfigError; return it."""
        try:
            Path(self.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: cannot create {self.output_dir}: {exc.strerror}") from None
        return Path(self.output_dir)

    def echo(self):
        """JSON-ready copy of the configuration, for the run manifest."""
        echo = asdict(self)
        for key in ("data_dir", "output_dir"):
            echo[key] = str(echo[key])
        for key in ("train_start", "train_end", "test_end"):
            echo[key] = echo[key].isoformat()
        return echo


def _parse_date(raw, key):
    if type(raw) is dt.date:  # not a YAML timestamp, a datetime
        return raw
    try:
        return dt.date.fromisoformat(str(raw))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: unparsable date {raw!r} (expected YYYY-MM-DD)") from None


class _UniqueKeys:
    """Loader mixin: a key given twice in one mapping is a YAML error naming it
    and its line, not a silent override.  `<<` merges are left to PyYAML."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node in [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]:
            key = self.construct_object(key_node)
            if not isinstance(key, Hashable):
                break  # PyYAML's own unhashable-key error follows
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path):
    """Load and validate a RunConfig from a YAML file.

    Relative data_dir/output_dir paths resolve against the config file's
    directory.
    """
    path = Path(path)
    try:
        # libyaml's parser when PyYAML was built with it: the same documents
        loader = type("Loader", (_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
        raw = yaml.load(path.read_text(encoding="utf-8"), loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")

    keys = fields(RunConfig)
    _reject_unknown(raw, [f.name for f in keys])
    for f in keys:
        if f.name not in raw and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{f.name}: required key missing")
    for key in ("data_dir", "output_dir"):
        if not isinstance(raw[key], str):
            raise ConfigError(f"{key}: expected a path string, got {raw[key]!r}")
    for key in ("linkage_rule", "close_column", "date_column", "align"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{key}: expected a string, got {raw[key]!r}")

    sectors = raw["sectors"]
    if not isinstance(sectors, dict) or not all(
        isinstance(v, list) for v in sectors.values()
    ):
        raise ConfigError("sectors: expected a mapping of name -> ticker list")

    # only the keys present: RunConfig holds the defaults
    values = dict(raw)
    for key in ("data_dir", "output_dir"):
        values[key] = path.parent / raw[key]  # an absolute path replaces the parent
    for key in ("train_start", "train_end", "test_end"):
        values[key] = _parse_date(raw[key], key)
    if "methods" in raw:
        methods = raw["methods"]
        if isinstance(methods, list):
            methods = {str(m): {} for m in methods}  # a mapping entry is unhashable
        if not isinstance(methods, dict):
            raise ConfigError("methods: expected a mapping or list of method names")
        values["methods"] = {m: (p or {}) for m, p in methods.items()}
    return RunConfig(**values).validate()

"""Run configuration: sectors, data locations, date boundaries, and per-method
parameters, loaded from a YAML file.

Schema (all dates ISO YYYY-MM-DD):

    data_dir: path to per-ticker CSVs (<ticker>.csv)
    output_dir: where weights/reports/summaries are written
                # neither holds a NUL or a lone surrogate outside \udc80-\udcff
    train_start / train_end / test_end: study boundaries
    sectors: {name: [tickers...]}   # >= 2 tickers in each a command fits hrp or herc on
                                    # names, tickers: strings (quote 0700, null,
                                    # true), one path component, no NUL, ',', '"',
                                    # line break or lone surrogate; no name of a file
                                    # run writes at the output root; names <= 240 bytes
    methods:
      mvp:  {n_samples: 10000 (<= 10**7), seed: 0}
      hrp:  {}
      herc: {k: auto | int, risk_measure: std_dev | variance,
             cluster_weighting: inverse | paper_literal,
             gap_b_refs: 100 (<= 10**5), gap_k_max: int, seed: 0}
             (gap_k_max and a fixed k may not exceed the smallest sector a command
              fits herc on; a command that fits no method checks neither)
    annualization_days: 252     # optional, int in 1..366
    risk_free_rate: 0.0         # optional, finite number
    linkage_rule: ward | single # optional
    close_column: Close         # optional; no lone surrogate
    date_column: Date           # optional; no ',', line break, lone surrogate or ticker
    align: intersect | ffill    # optional

The keys and the defaults of the optional ones are RunConfig's fields.  An
unknown key, at the top level or under methods.<name>, is rejected by name, and
so is a key given twice in one mapping (with its line).
RunConfig.validate holds every rule on a type or a value, for a hand-built config too.
Every ticker needs a price on or before train_start, under either alignment.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import reprlib
import sys
from collections.abc import Hashable
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from portopt._io import NAME_MAX, TMP_SUFFIX, is_os_path, is_path_component
from portopt.allocators import CLUSTER_WEIGHTINGS, RISK_MEASURES
from portopt.hierclust import LINKAGE_RULES
from portopt.market_data import ALIGN_POLICIES, iso_date
from portopt.pipeline import PRICES_SUFFIX, ROOT_FILES, TREE_METHODS
from portopt.riskstats import DEFAULT_ANNUALIZATION_DAYS

# {method: the keys methods.<method> may hold}; a method with a seed draws random numbers
METHOD_KEYS = {
    "mvp": ("n_samples", "seed"),
    "hrp": (),
    "herc": ("k", "risk_measure", "cluster_weighting", "gap_b_refs", "gap_k_max", "seed"),
}
KNOWN_METHODS = tuple(METHOD_KEYS)

# every message shows a config value through _show, which prints a few levels,
# items and characters: aliases can expand a value 2**30-fold, but not a message
_REPR = reprlib.Repr()  # Repr(**kw) is 3.12+
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 3, 80, 80
# repr() raises ValueError past 4 300 digits (about 14 284 bits): show such an int's size
_REPR.repr_int = lambda x, level: (
    f"<int of {x.bit_length()} bits>" if x.bit_length() > 14_000 else reprlib.Repr.repr_int(_REPR, x, level)
)
_show = _REPR.repr
# 1 000x the paper's 10 000 samples and 100 reference sets: past them a run can
# exhaust a pool worker's memory (a MemoryError traceback, not exit 1)
MAX_MVP_SAMPLES, MAX_GAP_B_REFS = 10**7, 10**5


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
        raise ConfigError(f"{key}: expected an int {bound}, got {_show(value)}{_as_text(value, int)}")


def _as_text(value, kind):
    """For a str holding a finite number, as PyYAML reads 1e-3 and 1e4, a note
    on how to write it as a YAML `kind` (int or float); else ''."""
    try:
        number = float(value) if isinstance(value, str) else math.inf
    except ValueError:
        return ""
    if not math.isfinite(number) or kind is int and not number.is_integer():
        return ""
    text = repr(kind(number))  # YAML reads 1e-05 as text, 1.0e-05 as a float
    if "e" in text and "." not in text:
        text = text.replace("e", ".0e")
    return f" (YAML read it as text: write {text})"


def _name(key):
    """A config key as a message names it: a printable string as it is,
    anything else (a NUL, a line break, an int) through _show."""
    return key if isinstance(key, str) and key.isprintable() else _show(key)


def check_name_bytes(name, key, suffix):
    """Reject name when name + suffix, the longest file name portopt makes of
    it, passes NAME_MAX bytes as os.fsencode counts them."""
    most = NAME_MAX - len(os.fsencode(suffix))
    size = len(name.encode(sys.getfilesystemencoding(), "replace"))  # no error on a lone surrogate
    if size > most:
        raise ConfigError(f"{key}: {_show(name)} is {size} bytes; at most {most} fit before {suffix!r}")


def _check_utf8(text, key):
    """Reject text holding a lone surrogate ("\\ud800" from PyYAML's pure-Python loader)."""
    if any("\ud800" <= c <= "\udfff" for c in text):
        raise ConfigError(f"{key}: {_show(text)} holds a lone surrogate, which UTF-8 cannot encode")


def _reject_unknown(mapping, known, prefix=""):
    """Reject, by name, the first key of mapping that is not in known."""
    for key in mapping:
        if key not in known:
            expected = f"one of {', '.join(known)}" if known else "no keys"
            raise ConfigError(f"{prefix}{_name(key)}: unknown key (expected {expected})")


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

    def validate(self, sector=None, methods=None):
        """Check every field's type and value, normalising each as YAML gives it, then the rules on
        what runs: `sector` and `methods` (None: all; (): none, the names kept); return self."""
        for key in ("data_dir", "output_dir"):
            path = getattr(self, key)
            if not isinstance(path, (str, Path)) or not is_os_path(str(path)):
                raise ConfigError(f"{key}: expected a path string without NUL or lone surrogate, "
                                  f"got {_show(path)}")
        for key in ("linkage_rule", "close_column", "date_column", "align"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key}: expected a string, got {_show(getattr(self, key))}")
        if not isinstance(self.sectors, dict) or not all(
            isinstance(v, (list, tuple)) for v in self.sectors.values()
        ):
            raise ConfigError("sectors: expected a mapping of name -> ticker list")
        for key in ("train_start", "train_end", "test_end"):
            setattr(self, key, _parse_date(getattr(self, key), key))
        if isinstance(self.methods, list):  # other entries by their repr: a mapping is unhashable
            self.methods = {m if isinstance(m, str) else _show(m): {} for m in self.methods}
        if not isinstance(self.methods, dict):
            raise ConfigError("methods: expected a mapping or list of method names")
        self.methods = {m: {} if p is None else p for m, p in self.methods.items()}
        if not self.sectors:
            raise ConfigError("sectors: at least one sector is required")
        for name, tickers in self.sectors.items():
            key = f"sectors.{_name(name)}"
            for part in (name, *tickers):  # a directory or CSV name, and a CSV cell
                if not isinstance(part, str):  # YAML reads 0700 as 448, null as None
                    raise ConfigError(f"{key}: {_show(part)} is not a string; quote it")
                if not is_path_component(part) or any(c in part for c in ',"\r\n'):
                    raise ConfigError(
                        f"{key}: {_show(part)} is not one path component "
                        "(no '/', NUL, ',', '\"' or line break, not '.' or '..')"
                    )
                _check_utf8(part, key)
            if name.removesuffix(TMP_SUFFIX) in ROOT_FILES:  # the run's own files
                raise ConfigError(f"{key}: {_show(name)} names a file run writes in output_dir")
            check_name_bytes(name, key, PRICES_SUFFIX + TMP_SUFFIX)
            if not tickers:
                raise ConfigError(f"{key}: empty ticker list")
            repeated = sorted({t for t in tickers if tickers.count(t) > 1})
            if repeated:
                raise ConfigError(f"{key}: duplicate ticker(s) {_show(repeated)}")
            if self.date_column in tickers:  # ingest's header would name it twice
                raise ConfigError(f"{key}: {_show(self.date_column)} is also date_column")
        if not self.train_start < self.train_end < self.test_end:
            raise ConfigError(
                "dates: require train_start < train_end < test_end, got "
                f"{self.train_start} / {self.train_end} / {self.test_end}"
            )
        if not self.methods:
            raise ConfigError("methods: at least one method must be enabled")
        _reject_unknown(self.methods, KNOWN_METHODS, "methods.")
        for name, params in self.methods.items():
            if not isinstance(params, dict):
                raise ConfigError(
                    f"methods.{name}: expected a mapping of parameters, got {_show(params)}"
                )
            _reject_unknown(params, METHOD_KEYS[name], f"methods.{name}.")
            if "seed" in params:
                _check_int(params["seed"], f"methods.{name}.seed", low=0)
        herc = self.methods.get("herc", {})
        if "gap_b_refs" in herc:
            _check_int(herc["gap_b_refs"], "methods.herc.gap_b_refs", high=MAX_GAP_B_REFS)
        herc_choices = {"risk_measure": RISK_MEASURES, "cluster_weighting": CLUSTER_WEIGHTINGS}
        for key, choices in herc_choices.items():
            if key in herc and herc[key] not in choices:
                raise ConfigError(f"methods.herc.{key}: expected one of {choices}")
        if "n_samples" in self.methods.get("mvp", {}):
            _check_int(self.methods["mvp"]["n_samples"], "methods.mvp.n_samples", high=MAX_MVP_SAMPLES)
        if self.linkage_rule not in LINKAGE_RULES:
            raise ConfigError(f"linkage_rule: expected one of {LINKAGE_RULES}")
        if self.align not in ALIGN_POLICIES:
            raise ConfigError(f"align: expected one of {ALIGN_POLICIES}")
        for key in ("close_column", "date_column"):  # CSV header cells
            _check_utf8(getattr(self, key), key)
        if any(c in self.date_column for c in ",\r\n"):  # ingest's first header cell
            raise ConfigError(f"date_column: {_show(self.date_column)} holds a ',' or line break")
        if self.close_column == self.date_column:
            raise ConfigError(f"close_column: {_show(self.close_column)} is also date_column")
        _check_int(self.annualization_days, "annualization_days", high=366)
        rate, big = self.risk_free_rate, sys.float_info.max
        finite = isinstance(rate, (int, float)) and -big <= rate <= big  # no float() of a huge int
        if isinstance(rate, bool) or not finite:
            got = f"{_show(rate)}{_as_text(rate, float)}"
            raise ConfigError(f"risk_free_rate: expected a finite number, got {got}")
        self.risk_free_rate = float(rate)
        runs = self.methods if methods is None else {m: self.methods.get(m, {}) for m in methods}
        _reject_unknown(runs, KNOWN_METHODS, "methods.")
        self.methods = runs or self.methods  # () fits none but keeps the names: report reads them
        if sector is not None and sector not in self.sectors:
            raise ConfigError(f"unknown sector {sector!r}")
        self.sectors = self.sectors if sector is None else {sector: self.sectors[sector]}
        tree_methods = [m for m in TREE_METHODS if m in runs]
        if tree_methods:
            self.check_clusterable("/".join(tree_methods))
        herc, fewest = runs.get("herc", {}), min(map(len, self.sectors.values()))
        if herc.get("k", "auto") != "auto":
            _check_int(herc["k"], "methods.herc.k", high=fewest)
        if herc.get("gap_k_max") is not None:
            _check_int(herc["gap_k_max"], "methods.herc.gap_k_max", high=fewest)
        return self

    def seeds(self):
        """{method: seed} for the enabled methods that draw random numbers."""
        return {m: p.get("seed", 0) for m, p in self.methods.items() if "seed" in METHOD_KEYS[m]}

    def check_clusterable(self, what):
        """Reject, by name, any sector with too few tickers for the linkage
        tree that `what` needs."""
        for name in self.sectors:
            count = len(self.sectors[name])
            if count < 2:
                raise ConfigError(
                    f"sectors.{_name(name)}: {what} clustering needs at least 2 tickers, got {count}"
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
        return iso_date(raw)  # TypeError unless raw is text
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: unparsable date {_show(raw)} (expected YYYY-MM-DD)") from None


class _Strict:
    """Loader mixin: a key given twice in one mapping is a YAML error naming it
    and its line, not a silent override (`<<` merges are left to PyYAML), and so
    is a scalar its tag cannot read (2020-02-30, !!float abc, !!timestamp abc)."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, AttributeError):  # PyYAML's !!timestamp abc: AttributeError
            tag = node.tag.rpartition(":")[2]
            raise yaml.constructor.ConstructorError(
                None, None, f"{_show(node.value)} is not a valid {tag}", node.start_mark) from None

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node in [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]:
            key = self.construct_object(key_node)
            if not isinstance(key, Hashable):
                break  # PyYAML's own unhashable-key error follows
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {_show(key)}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def _check_depth(stream, loader, path):
    """Reject a value nested past 100 collections (a valid config nests 4), by
    its top-level key, from the parser's events: the composers recurse once a
    level, and libyaml's, in C, can crash the interpreter.  The cap is small
    because both scanners slow down with depth."""
    depth, key = 0, None
    for ev in yaml.parse(stream, loader):
        depth += isinstance(ev, yaml.CollectionStartEvent) - isinstance(ev, yaml.CollectionEndEvent)
        if depth > 100:
            under = "" if key is None else f" {key}:"
            raise ConfigError(f"{path}:{under} value nested too deeply")
        if depth == 1 and isinstance(ev, yaml.ScalarEvent):
            key = ev.value  # a top-level key, or its value before the next key


def _read_yaml(path):
    """The YAML mapping in the file at path, or ConfigError."""
    try:
        # libyaml's parser when PyYAML was built with it: the same documents
        loader = type("Loader", (_Strict, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
        with path.open(encoding="utf-8") as stream:  # so YAML's marks name the file
            _check_depth(stream, loader, path)
            stream.seek(0)
            raw = yaml.load(stream, loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (yaml.YAMLError, RecursionError) as exc:  # PyYAML's own composer recurses
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return raw


def load_config(path, sector=None, methods=None):
    """Load and validate a RunConfig from a YAML file, for `sector` and `methods` as validate takes them.

    Relative data_dir/output_dir paths resolve against the config file's
    directory.
    """
    path = Path(path)
    raw = _read_yaml(path)
    keys = fields(RunConfig)
    _reject_unknown(raw, [f.name for f in keys])
    for f in keys:
        if f.name not in raw and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{f.name}: required key missing")
    cfg = RunConfig(**raw).validate(sector, methods)  # only the keys present: RunConfig holds the defaults
    # an absolute path replaces the parent
    cfg.data_dir, cfg.output_dir = path.parent / cfg.data_dir, path.parent / cfg.output_dir
    return cfg

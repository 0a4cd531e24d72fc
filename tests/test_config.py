import copy
import dataclasses
import datetime as dt
import inspect
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from portopt.allocators import HercParams, hrp_allocate, mvp_optimize
from portopt.config import METHOD_KEYS, ConfigError, RunConfig, load_config

MINIMAL = """\
data_dir: data
output_dir: out
train_start: 2020-01-01
train_end: 2021-06-30
test_end: 2021-12-31
sectors:
  alpha: [AAA, AAB]
"""
DEEP = "[" * 2000 + "]" * 2000


def _anchors(n, link):
    """A flow list of n anchored lists, each holding `link` aliases of the one
    before; expanded, the last holds 2**(n - 1) lists (link 2) or nests n deep (link 1)."""
    items = ["&a0 [x]"] + [f"&a{i} [{', '.join([f'*a{i - 1}'] * link)}]" for i in range(1, n)]
    return f"[{', '.join(items)}]"


DOUBLING = _anchors(30, 2)  # about 2**30 lists once expanded, from 531 bytes
LINEAR = _anchors(1200, 1)  # 1 200 lists deep once expanded, 2 as parsed


def _write(tmp_path, text):
    path = tmp_path / "config.yaml"
    # a lone surrogate in text writes as that raw byte: a non-UTF-8 file
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.train_start == dt.date(2020, 1, 1)
        assert set(cfg.methods) == {"mvp", "hrp", "herc"}
        assert cfg.annualization_days == 252
        assert cfg.risk_free_rate == 0.0
        assert cfg.linkage_rule == "ward"
        assert cfg.align == "intersect"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL))
        assert cfg.data_dir == tmp_path / "data"
        assert cfg.output_dir == tmp_path / "out"

    def test_absolute_paths_are_kept(self, tmp_path):
        data = tmp_path / "elsewhere" / "data"
        cfg = load_config(_write(tmp_path, MINIMAL.replace("data_dir: data", f"data_dir: {data}")))
        assert cfg.data_dir == data

    def test_methods_list_form(self, tmp_path):
        cfg = load_config(_write(tmp_path, MINIMAL + "methods: [hrp, herc]\n"))
        assert cfg.methods == {"hrp": {}, "herc": {}}

    def test_method_params_pass_through(self, tmp_path):
        text = MINIMAL + (
            "methods:\n  mvp: {n_samples: 500, seed: 3}\n"
            "  herc: {k: 2, risk_measure: variance, gap_b_refs: 1, gap_k_max: 2, seed: 0}\n"
        )
        cfg = load_config(_write(tmp_path, text))
        assert cfg.methods["mvp"] == {"n_samples": 500, "seed": 3}
        assert cfg.methods["herc"]["k"] == 2
        assert cfg.methods["herc"]["gap_k_max"] == 2  # the sector's ticker count

    def test_missing_key_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="test_end"):
            load_config(_write(tmp_path, MINIMAL.replace("test_end: 2021-12-31\n", "")))

    def test_bad_date_is_named(self, tmp_path):
        bad = MINIMAL.replace("2021-06-30", "yesterday")
        with pytest.raises(ConfigError, match="train_end"):
            load_config(_write(tmp_path, bad))

    def test_date_ordering_enforced(self, tmp_path):
        bad = MINIMAL.replace("test_end: 2021-12-31", "test_end: 2020-06-30")
        with pytest.raises(ConfigError, match="train_start < train_end < test_end"):
            load_config(_write(tmp_path, bad))

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.cvar"):
            load_config(_write(tmp_path, MINIMAL + "methods: [cvar]\n"))

    def test_unknown_method_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.hrp"):
            load_config(_write(tmp_path, MINIMAL + "methods:\n  hrp: {shrink: 0.1}\n"))

    def test_bad_herc_k_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods.herc.k"):
            load_config(_write(tmp_path, MINIMAL + "methods:\n  herc: {k: -2}\n"))

    @pytest.mark.parametrize(
        "method, params, key",
        [
            ("herc", "{gap_b_refs: 0}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_b_refs: true}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_b_refs: 2.5}", "methods.herc.gap_b_refs"),
            ("herc", "{gap_k_max: 0}", "methods.herc.gap_k_max"),
            ("herc", "{gap_k_max: 3}", "methods.herc.gap_k_max"),  # sector has 2
            ("herc", "{gap_k_max: 99}", "methods.herc.gap_k_max"),
            ("herc", "{gap_k_max: true}", "methods.herc.gap_k_max"),
            ("herc", "{seed: -2}", "methods.herc.seed"),
            ("herc", "{seed: false}", "methods.herc.seed"),
            ("herc", "{k: true}", "methods.herc.k"),
            ("mvp", "{seed: -1}", "methods.mvp.seed"),
            ("mvp", "{seed: '3'}", "methods.mvp.seed"),
            ("mvp", "{n_samples: true}", "methods.mvp.n_samples"),
            ("mvp", "{n_samples: 0}", "methods.mvp.n_samples"),
        ],
    )
    def test_bad_method_param_rejected_by_name(self, tmp_path, method, params, key):
        text = MINIMAL + f"methods:\n  {method}: {params}\n"
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("test_end", "annualization_days: abc\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: true\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: 2.7\ntest_end", "annualization_days"),
            ("test_end", "annualization_days: 0\ntest_end", "annualization_days"),
            ("test_end", "risk_free_rate: abc\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: .nan\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: .inf\ntest_end", "risk_free_rate"),
            ("test_end", "risk_free_rate: true\ntest_end", "risk_free_rate"),
            ("test_end", "methods:\n  hrp: 5\ntest_end", "methods.hrp"),
            # only a bare `hrp:` means no parameters
            ("test_end", "methods:\n  hrp: 0\ntest_end", r"^methods\.hrp: expected a mapping"),
            ("test_end", "methods:\n  hrp: false\ntest_end", r"^methods\.hrp: expected a mapping"),
            ("test_end", "methods:\n  hrp: ''\ntest_end", r"^methods\.hrp: expected a mapping"),
            ("test_end", "methods:\n  hrp: []\ntest_end", r"^methods\.hrp: expected a mapping"),
            ("test_end", "methods:\n  mvp: [n_samples]\ntest_end", "methods.mvp"),
            ("data_dir: data", "data_dir: null", "data_dir"),
            ("data_dir: data", "data_dir: 5", "data_dir"),
            ("output_dir: out", "output_dir: [out]", "output_dir"),
            ("test_end", "methods:\n  herc: {k: 3}\ntest_end", "methods.herc.k"),  # sector has 2
            ("test_end", "methods:\n  herc: {k: 99}\ntest_end", "methods.herc.k"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB, AAA]", "sectors.alpha"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, 0700]", r"^sectors\.alpha: 448 is not a str"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, null]", r"^sectors\.alpha: None is not a str"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  true: [AAC, AAD]", r"^sectors\.True: "),
            ("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]", "sectors.solo"),
            (
                "alpha: [AAA, AAB]",
                "alpha: [AAA, AAB]\n  solo: [AAC]\nmethods: [mvp, hrp]",
                "sectors.solo",
            ),
            ("train_start: 2020-01-01", "train_start: 2020-01-01 00:00:00", "train_start"),
            ("test_end: 2021-12-31", "test_end: 2021-12-31T09:30:00Z", "test_end"),
            ("sectors:", "# caf\udce9\nsectors:", "config.yaml"),
            ("test_end", "risk_free_rat: 0.05\ntest_end", "^risk_free_rat: unknown key"),
            ("test_end", "1: x\ntest_end", "^1: unknown key"),
            ("test_end", "methods: [{mvp: 1}]\ntest_end", "^methods.{'mvp': 1}: unknown key"),
            # a repeated key is named with its line, not silently overridden
            ("test_end", "train_end: 2020-01-10\ntest_end", r"duplicate key 'train_end'\n.*line 5,"),
            (
                "alpha: [AAA, AAB]",
                "alpha: [AAA, AAB]\n  alpha: [AAC, AAD]",
                r"duplicate key 'alpha'\n.*line 8,",
            ),
            ("test_end", "methods:\n  herc: {k: 2, k: 3}\ntest_end", r"duplicate key 'k'\n.*line 6,"),
            # a name or ticker is an unquoted CSV cell in the weights, summary and
            # ingest files, so it may hold no ',' or line break
            ("alpha: [AAA, AAB]", 'alpha: [AAA, "A,B"]', r"^sectors\.alpha: 'A,B' is not"),
            ("alpha: [AAA, AAB]", 'alpha: [AAA, "A\\nB"]', r"^sectors\.alpha: 'A\\nB' is not"),
            ("alpha: [AAA, AAB]", 'alpha: [AAA, "A\\rB"]', r"^sectors\.alpha: 'A\\rB' is not"),
            ("alpha: [AAA, AAB]", """alpha: [AAA, 'A"B']""", r"""^sectors\.alpha: 'A"B' is not"""),
            ("alpha: [AAA, AAB]", '"al,pha": [AAA, AAB]', r"^sectors\.al,pha: 'al,pha' is not"),
            # date_column heads ingest's wide CSVs, so it is one cell, not a ticker's
            ("test_end", 'date_column: "Da,te"\ntest_end', r"^date_column: 'Da,te' holds"),
            ("test_end", 'date_column: "Da\\nte"\ntest_end', r"^date_column: 'Da\\nte' holds"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, Date]", r"^sectors\.alpha: 'Date' is also date_co"),
            # 1 000x the paper's sizes; a larger one exhausted a pool worker's memory
            (
                "test_end",
                "methods:\n  mvp: {n_samples: 10000001}\ntest_end",
                r"^methods\.mvp\.n_samples: expected an int in 1\.\.10000000, got 10000001$",
            ),
            (
                "test_end",
                "methods:\n  herc: {gap_b_refs: 100001}\ntest_end",
                r"^methods\.herc\.gap_b_refs: expected an int in 1\.\.100000, got 100001$",
            ),
            # a daily calendar has at most 366 days a year
            ("test_end", "annualization_days: 367\ntest_end", "^annualization_days: .* 1..366"),
            ("test_end", f"annualization_days: {'9' * 401}\ntest_end", "^annualization_days: "),
            # too large for a float: a message, not an OverflowError from the check
            (
                "test_end",
                f"risk_free_rate: {'9' * 310}\ntest_end",
                "^risk_free_rate: expected a finite number, got 9",
            ),
            # date.fromisoformat takes these on python >= 3.11, not on 3.10
            ("train_start: 2020-01-01", "train_start: 20200101", "^train_start: unparsable"),
            ("train_start: 2020-01-01", "train_start: 2020-W01-3", "^train_start: unparsable"),
            # a scalar PyYAML's constructors refuse is invalid YAML at its line
            (
                "train_start: 2020-01-01",
                "train_start: 2020-02-30",
                r"config\.yaml: invalid YAML: '2020-02-30' is not a valid timestamp\n.*line 3,",
            ),
            ("train_start: 2020-01-01", "train_start: 2020-13-01", r"'2020-13-01' is not .*\n.*line 3,"),
            ("alpha: [AAA, AAB]", "alpha: [AAA, 2020-02-30]", r"'2020-02-30' is not .*\n.*line 7,"),
            ("test_end", "risk_free_rate: !!float abc\ntest_end", r"'abc' is not a valid float\n.*line 5,"),
            ("test_end", "annualization_days: !!int abc\ntest_end", r"'abc' is not a valid int\n.*line 5,"),
            ("train_start: 2020-01-01", "train_start: !!timestamp abc", r"'abc' is not a valid timest"),
            ("sectors:\n  alpha: [AAA, AAB]", "sectors: {}", "^sectors: at least one sector is required"),
            ("sectors:\n  alpha: [AAA, AAB]", "sectors: [AAA]", "^sectors: expected a mapping of name -> "),
            ("test_end", "methods: {}\ntest_end", "^methods: at least one method must be enabled"),
            ("test_end", "methods: 5\ntest_end", "^methods: expected a mapping or list of method names"),
            (
                "test_end",
                "methods:\n  herc: {risk_measure: cubic}\ntest_end",
                r"^methods\.herc\.risk_measure: expected one of",
            ),
            ("test_end", "align: sideways\ntest_end", "^align: expected one of"),
            # a complex key: PyYAML names the unhashable key after the repeat check stops
            ("test_end", "? [a]\n: b\ntest_end", r"(?s)config\.yaml: invalid YAML: .*found unhashable key"),
            # a message's repr of a value nested this deeply would exceed the recursion limit
            pytest.param(
                "test_end",
                f"close_column: {DEEP}\ntest_end",
                r"config\.yaml: close_column: value nested too deeply$",
                id="deep_close_column",
            ),
            pytest.param(
                "alpha: [AAA, AAB]",
                f"alpha: [AAA, {DEEP}]",
                r"config\.yaml: sectors: value nested too deeply$",
                id="deep_ticker",
            ),
            pytest.param(
                "test_end",
                f"methods: [mvp, {DEEP}]\ntest_end",
                r"config\.yaml: methods: value nested too deeply$",
                id="deep_methods_list",
            ),
            pytest.param(
                "test_end",
                f"risk_free_rate: {DEEP}\ntest_end",
                r"config\.yaml: risk_free_rate: value nested too deeply$",
                id="deep_risk_free_rate",
            ),
        ],
    )
    def test_bad_value_rejected_by_name(self, tmp_path, old, new, key):
        text = MINIMAL.replace(old, new, 1)
        assert text != MINIMAL
        with pytest.raises(ConfigError, match=key):
            load_config(_write(tmp_path, text))

    def test_empty_sector_rejected(self, tmp_path):
        bad = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: []")
        with pytest.raises(ConfigError, match="sectors.alpha"):
            load_config(_write(tmp_path, bad))

    def test_mvp_only_accepts_one_ticker_sector(self, tmp_path):
        text = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]")
        cfg = load_config(_write(tmp_path, text + "methods: [mvp]\n"))
        assert cfg.sectors["solo"] == ["AAC"]

    def test_one_ticker_sectors_alone_need_an_mvp_only_config(self, tmp_path):
        lone = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA]")
        named = r"^sectors\.alpha: hrp/herc clustering needs at least 2 tickers, got 1$"
        with pytest.raises(ConfigError, match=named):
            load_config(_write(tmp_path, lone))
        assert load_config(_write(tmp_path, lone + "methods: [mvp]\n")).sectors == {"alpha": ["AAA"]}

    def test_narrowed_to_a_sector_and_a_method_the_size_rules_read_only_those(self, tmp_path):
        text = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]")
        path = _write(tmp_path, text + "methods:\n  mvp: {seed: 1}\n  herc: {k: 2}\n")
        with pytest.raises(ConfigError, match=r"^sectors\.solo: herc clustering needs at least 2"):
            load_config(path)  # the whole file, as a library caller gets it
        cfg = load_config(path, sector="alpha", methods=("herc",))
        assert (cfg.sectors, cfg.methods) == ({"alpha": ["AAA", "AAB"]}, {"herc": {"k": 2}})
        assert load_config(path, methods=("mvp",)).methods == {"mvp": {"seed": 1}}
        assert load_config(path, sector="alpha", methods=("hrp",)).methods == {"hrp": {}}
        with pytest.raises(ConfigError, match=r"^unknown sector 'beta'$"):
            load_config(path, sector="beta")
        with pytest.raises(ConfigError, match=r"^methods\.zzz: unknown key"):
            load_config(path, methods=("zzz",))
        bad = path.read_text() + "linkage_rule: nope\n"  # a file error before an unknown sector
        with pytest.raises(ConfigError, match=r"^linkage_rule: "):
            load_config(_write(tmp_path, bad), sector="beta")

    def test_fitting_no_method_checks_no_method_rule_and_keeps_the_names(self, tmp_path):
        text = MINIMAL.replace("alpha: [AAA, AAB]", "alpha: [AAA, AAB]\n  solo: [AAC]")
        path = _write(tmp_path, text + "methods:\n  mvp: {seed: 1}\n  herc: {k: abc}\n")
        cfg = load_config(path, methods=())
        assert cfg.methods == {"mvp": {"seed": 1}, "herc": {"k": "abc"}}
        assert load_config(path, sector="solo", methods=()).sectors == {"solo": ["AAC"]}
        with pytest.raises(ConfigError, match=r"^sectors\.solo: herc clustering needs at least 2"):
            load_config(path, methods=("herc",))
        with pytest.raises(ConfigError, match=r"^methods\.herc\.k: expected an int in 1\.\.2, got 'abc'$"):
            load_config(path, sector="alpha", methods=("herc",))

    @pytest.mark.parametrize(
        "line, text, written",
        [
            ("risk_free_rate: {}", "1e-3", "0.001"),
            ("risk_free_rate: {}", "-1E-30", "-1.0e-30"),
            ("risk_free_rate: {}", "'0.05'", "0.05"),
            ("annualization_days: {}", "2.52e2", "252"),
            ("methods:\n  mvp: {{n_samples: {}}}", "1e4", "10000"),
            # no note for text that is not a finite number of the key's kind
            ("risk_free_rate: {}", "abc", None),
            ("risk_free_rate: {}", "1e400", None),
            ("annualization_days: {}", "2.5e0", None),
        ],
        ids=["rate", "rate_tiny", "rate_quoted", "days", "n_samples", "word", "inf", "fraction"],
    )
    def test_a_number_yaml_reads_as_text_is_named_in_a_form_it_reads(self, tmp_path, line, text, written):
        # YAML 1.1 reads a float only with a '.' and a signed exponent: PyYAML reads 1e-3 as a str
        note = "" if written is None else f" (YAML read it as text: write {written})"
        got = repr(text.strip("'"))  # YAML's quotes are not part of the value
        with pytest.raises(ConfigError, match=re.escape(f"got {got}{note}") + "$"):
            load_config(_write(tmp_path, MINIMAL + line.format(text) + "\n"))
        if written is not None:  # the form the note names loads
            load_config(_write(tmp_path, MINIMAL + line.format(written) + "\n"))

    def test_bad_linkage_rule_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="linkage_rule"):
            load_config(_write(tmp_path, MINIMAL + "linkage_rule: centroid\n"))

    @pytest.mark.parametrize("value", ["null", "1", "[Close]", "{a: b}", "2020-01-01"])
    @pytest.mark.parametrize("key", ["close_column", "date_column", "linkage_rule", "align"])
    def test_non_string_setting_rejected_by_name(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: expected a string"):
            load_config(_write(tmp_path, MINIMAL + f"{key}: {value}\n"))

    @pytest.mark.parametrize(
        "columns",
        ["close_column: Date", "date_column: Close", "close_column: Day\ndate_column: Day"],
        ids=["close_is_date", "date_is_close", "both_day"],
    )
    def test_close_column_may_not_be_the_date_column(self, tmp_path, columns):
        # else every close would be parsed from the date field, a data error
        with pytest.raises(ConfigError, match="^close_column: '(Date|Close|Day)' is also date_column"):
            load_config(_write(tmp_path, MINIMAL + columns + "\n"))

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    def test_both_yaml_loaders_read_the_same_config(self, tmp_path, monkeypatch, loader):
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        text = MINIMAL + "methods:\n  mvp: {n_samples: 500, seed: 3}\n  herc: {k: 2}\nalign: ffill\n"
        bom_crlf = tmp_path / "bom_crlf.yaml"
        bom_crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        cfg = load_config(_write(tmp_path, text))
        assert load_config(bom_crlf).echo() == cfg.echo()
        assert cfg.methods == {"mvp": {"n_samples": 500, "seed": 3}, "herc": {"k": 2}}
        assert (cfg.align, cfg.train_end) == ("ffill", dt.date(2021, 6, 30))
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(_write(tmp_path, "sectors: [unclosed\n"))
        # either parser's events show a deep value before a composer recurses on it
        with pytest.raises(ConfigError, match=r"config\.yaml: close_column: value nested"):
            load_config(_write(tmp_path, MINIMAL + f"close_column: {DEEP}\n"))
        # the mark names the file, not "<unicode string>"
        with pytest.raises(ConfigError, match=r'duplicate key \'align\'\n  in ".*config\.yaml", line 12,'):
            load_config(_write(tmp_path, text + "align: intersect\n"))
        # a key given after a << merge overrides the merged one: not a repeat
        merged = MINIMAL + "methods:\n  mvp: {<<: {n_samples: 500, seed: 1}, seed: 3}\n"
        assert load_config(_write(tmp_path, merged)).methods == {"mvp": {"n_samples": 500, "seed": 3}}

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("alpha:", '"\\ud800":', "sectors.'\\ud800': '\\ud800'"),
            ("alpha:", '"a\\udc80":', "sectors.'a\\udc80': 'a\\udc80'"),
            ("AAB]", '"\\ud800"]', "sectors.alpha: '\\ud800'"),
            ("AAB]", '"A\\udfffB"]', "sectors.alpha: 'A\\udfffB'"),
            ("test_end", 'date_column: "\\ud800"\ntest_end', "date_column: '\\ud800'"),
            ("test_end", 'close_column: "C\\udc80"\ntest_end', "close_column: 'C\\udc80'"),
        ],
        ids=["sector", "sector_low", "ticker", "ticker_low", "date_column", "close_column"],
    )
    def test_a_lone_surrogate_is_rejected_by_name(self, tmp_path, monkeypatch, loader, old, new, named):
        # PyYAML's pure-Python loader reads the escape; libyaml rejects it as YAML
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        match = re.escape(f"{named} holds a lone surrogate") if loader == "python" else "invalid YAML"
        with pytest.raises(ConfigError, match=match):
            load_config(_write(tmp_path, MINIMAL.replace(old, new, 1)))

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize("key", ["data_dir", "output_dir"])
    def test_a_path_open_cannot_take_is_rejected_by_name(self, tmp_path, monkeypatch, loader, key):
        # os.fsencode takes "\udc80" to "\udcff", the bytes os.fsdecode escapes,
        # and no other lone surrogate; libyaml rejects either escape as YAML
        if loader == "python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")

        def config(value):  # a YAML escape, in place of the key's value
            return _write(tmp_path, MINIMAL.replace(f"{key}: ", f'{key}: "{value}"  # ', 1))

        named = re.escape(f"{key}: expected a path string without NUL or lone surrogate, got 'a\\ud800'")
        with pytest.raises(ConfigError, match=f"^{named}$" if loader == "python" else "invalid YAML"):
            load_config(config("a\\ud800"))
        if loader == "python":
            assert getattr(load_config(config("a\\udcff")), key) == tmp_path / "a\udcff"

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    def test_a_25000_deep_value_exits_1_under_both_loaders(self, tmp_path, loader):
        # in a fresh interpreter: libyaml's composer, recursing in C, would crash this one
        if loader == "libyaml" and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        deep = "[" * 25_000 + "]" * 25_000
        config = _write(tmp_path, MINIMAL + f"close_column: {deep}\n")
        drop = "del yaml.CSafeLoader; " if loader == "python" else ""
        script = f"import sys, yaml; {drop}from portopt.cli import main; sys.exit(main())"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["-c", script, "run", "--config", str(config), "--out", str(tmp_path / "out")]
        out = subprocess.run(
            [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 1, out.stderr
        assert out.stderr == f"configuration error: {config}: close_column: value nested too deeply\n"

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("test_end", f"close_column: {DOUBLING}\ntest_end", "close_column"),
            ("data_dir: data", f"data_dir: {DOUBLING}", "data_dir"),
            ("train_end: 2021-06-30", f"train_end: {DOUBLING}", "train_end"),
            ("test_end", f"risk_free_rate: {DOUBLING}\ntest_end", "risk_free_rate"),
            ("alpha: [AAA, AAB]", f"alpha: [AAA, {DOUBLING}]", "sectors.alpha"),
            ("test_end", f"methods: [mvp, {DOUBLING}]\ntest_end", "methods."),
            ("test_end", f"methods:\n  mvp: {DOUBLING}\ntest_end", "methods.mvp"),
            ("test_end", f"methods:\n  mvp: {{n_samples: {DOUBLING}}}\ntest_end", "methods.mvp.n_samples"),
            ("test_end", f"close_column: {LINEAR}\ntest_end", "close_column"),
        ],
        ids=["close_column", "data_dir", "train_end", "risk_free_rate", "ticker", "methods_list",
             "methods_mvp", "methods_mvp_n_samples", "linear_close_column"],
    )
    def test_an_aliased_value_exits_1_with_a_short_message(self, tmp_path, loader, old, new, key):
        # in a fresh interpreter with a capped address space: a message showing
        # the expanded value would take minutes and gigabytes
        import resource

        if loader == "libyaml" and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        config = _write(tmp_path, MINIMAL.replace(old, new, 1))
        drop = "del yaml.CSafeLoader; " if loader == "python" else ""
        script = f"import sys, yaml; {drop}from portopt.cli import main; sys.exit(main())"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=20,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )
        assert out.returncode == 1, out.stderr[-1000:]
        message = out.stderr.removeprefix("configuration error: ").removeprefix(f"{config}: ")
        assert message.startswith(key) and "Traceback" not in message
        assert len(out.stderr.encode()) < 1024

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(_write(tmp_path, "sectors: [unclosed\n"))

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(_write(tmp_path, "- a\n- b\n"))

    def test_echo_is_json_ready(self, tmp_path):
        import json

        cfg = load_config(_write(tmp_path, MINIMAL))
        payload = json.loads(json.dumps(cfg.echo()))
        assert payload["train_start"] == "2020-01-01"
        assert payload["sectors"] == {"alpha": ["AAA", "AAB"]}


# MINIMAL's fields, as a library caller would build them
HAND_BUILT = dict(
    sectors={"alpha": ["AAA", "AAB"]},
    data_dir="data",
    output_dir="out",
    train_start=dt.date(2020, 1, 1),
    train_end=dt.date(2021, 6, 30),
    test_end=dt.date(2021, 12, 31),
)
# a value of each type YAML reads, with its edges: a huge int, nan, a date's text, a datetime
SWAPS = [
    None, True, 0, 10**400, 1.5, float("nan"), "", "x", "2020-01-01",
    dt.date(2020, 1, 1), dt.datetime(2020, 1, 1), [], ["x"], {}, {"a": 1},
]
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def _validate_swapped(swap):
    """RunConfig of HAND_BUILT with `swap`'s fields replaced, validated, or
    the ConfigError that validate raised; any other exception propagates."""
    try:
        return RunConfig(**copy.deepcopy({**HAND_BUILT, **swap})).validate()
    except ConfigError as exc:
        return exc


def _assert_passes_or_names(result, keys):
    """A ConfigError names one of keys (or the date order); a valid config
    is normalised as load_config's YAML gives it, and stays valid."""
    if isinstance(result, ConfigError):
        assert str(result).startswith(("dates: ", *keys)), result
        return
    assert all(type(getattr(result, k)) is dt.date for k in ("train_start", "train_end", "test_end"))
    assert all(type(params) is dict for params in result.methods.values())
    assert type(result.risk_free_rate) is float
    assert result.validate() is result


class TestHandBuiltConfig:
    @pytest.mark.parametrize("key", FIELDS)
    def test_every_type_swap_passes_or_raises_config_error_naming_the_key(self, key):
        for value in SWAPS:
            _assert_passes_or_names(_validate_swapped({key: value}), [key])

    def test_seeded_pair_swaps_pass_or_raise_config_error_naming_a_key(self):
        rng = random.Random(0)
        for _ in range(300):
            keys = rng.sample(FIELDS, 2)
            result = _validate_swapped({k: rng.choice(SWAPS) for k in keys})
            _assert_passes_or_names(result, keys)

    @pytest.mark.parametrize(
        "swap, key",
        [
            ({"date_column": 5}, "date_column: expected a string"),
            ({"close_column": 5}, "close_column: expected a string"),
            ({"data_dir": 5}, "data_dir: expected a path string"),
            ({"sectors": {"a": None}}, "sectors: expected a mapping of name -> ticker list"),
            # a string of tickers is not read as one-letter tickers
            ({"sectors": {"a": "XY"}}, "sectors: expected a mapping of name -> ticker list"),
            ({"risk_free_rate": 10**400}, "risk_free_rate: expected a finite number"),
            ({"train_start": "2020-1-1"}, "train_start: unparsable date"),
            # repr() of an int over 4 300 digits raises ValueError, so the message shows its size
            ({"annualization_days": 10**5000}, r"annualization_days: .*, got <int of 16610 bits>$"),
            ({"methods": {"mvp": {"n_samples": 10**4400}}}, r"methods\.mvp\.n_samples: .*, got <int of"),
        ],
        ids=["date_column", "close_column", "data_dir", "null_tickers", "string_tickers",
             "huge_rate", "short_date", "huge_days", "huge_samples"],
    )
    def test_bad_type_raises_config_error_naming_the_key(self, swap, key):
        with pytest.raises(ConfigError, match=f"^{key}"):
            RunConfig(**{**HAND_BUILT, **swap}).validate()

    @pytest.mark.parametrize(
        "swap, key",
        [
            ({"sectors": {"\ud800": ["AAA", "AAB"]}}, "sectors.'\\ud800'"),
            ({"sectors": {"alpha": ["AAA", "A\udc80"]}}, "sectors.alpha"),
            ({"date_column": "D\udfff"}, "date_column"),
            ({"close_column": "\udc80"}, "close_column"),
        ],
        ids=["sector", "ticker", "date_column", "close_column"],
    )
    def test_a_lone_surrogate_raises_config_error_naming_the_key(self, swap, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .* holds a lone surrogate"):
            RunConfig(**{**HAND_BUILT, **swap}).validate()

    @pytest.mark.parametrize("method", sorted(METHOD_KEYS))
    def test_each_method_key_is_a_parameter_of_its_allocator(self, method):
        # fit_method passes methods.<method> through unchanged: one name per setting
        takes = {
            "mvp": inspect.signature(mvp_optimize).parameters,
            "hrp": inspect.signature(hrp_allocate).parameters,
            "herc": [f.name for f in dataclasses.fields(HercParams)],
        }
        assert set(METHOD_KEYS[method]) <= set(takes[method])

    def test_normalised_as_yaml_does(self, tmp_path):
        cfg = RunConfig(**{**HAND_BUILT, "methods": ["mvp"], "train_start": "2020-01-01"}).validate()
        from_yaml = load_config(_write(tmp_path, MINIMAL + "methods: [mvp]\n"))
        assert cfg.methods == from_yaml.methods == {"mvp": {}}
        assert cfg.train_start == from_yaml.train_start == dt.date(2020, 1, 1)
        cfg = RunConfig(**{**HAND_BUILT, "methods": {"hrp": None}, "risk_free_rate": 0}).validate()
        assert cfg.methods == {"hrp": {}} and type(cfg.risk_free_rate) is float

    def test_tuple_tickers_pass(self):
        cfg = RunConfig(**{**HAND_BUILT, "sectors": {"alpha": ("AAA", "AAB")}}).validate()
        assert cfg.sectors == {"alpha": ("AAA", "AAB")}

    def test_seeds_are_the_enabled_methods_that_draw_random_numbers(self):
        cfg = RunConfig(**{**HAND_BUILT, "methods": {"herc": {"seed": 4}, "hrp": {}, "mvp": {}}})
        assert cfg.validate().seeds() == {"herc": 4, "mvp": 0}

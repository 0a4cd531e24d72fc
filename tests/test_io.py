import ast
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import test_allocators
from portopt._io import csv_line, render_json, write_json, write_text
from portopt.allocators import write_frontier_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "portopt"


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "x.csv"
    write_text(path, (f"{i},é\n" for i in range(5)))
    assert path.read_bytes() == "".join(f"{i},é\n" for i in range(5)).encode("utf-8")
    write_text(path, "one string\n")
    assert path.read_bytes() == b"one string\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_json_matches_json_dumps(tmp_path):
    payload = {"b": [1.5, None], "a": {"z": "ü", "y": 2}}
    path = tmp_path / "x.json"
    write_json(path, payload)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert render_json(payload) == expected
    assert path.read_text(encoding="utf-8") == expected


_SCALARS = (
    lambda rng: rng.random(),
    lambda rng: np.float64(rng.uniform(-1e300, 1e300)),
    lambda rng: rng.choice([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]),
    lambda rng: rng.choice([0, -7, 2**70, -(2**63)]),
    lambda rng: rng.choice([True, False, None]),
    lambda rng: rng.choice(
        ["", "a", 'q"\\', "line\nbreak\t", "\x00\x1f", "\u00e9\u2013\U0001f4c8"]
    ),
)
_KEYS = ("", "a", "b", "Z", "10", "2", 'k"\\', "\n", "\u00e9", "\u2013", "\U0001f4c8")


def _payload(rng, depth=0):
    """A random JSON payload: scalars of every kind, lists, tuples and str-keyed
    dicts, empty ones too, nested up to 5 deep."""
    kind = rng.random()
    if depth >= 5 or kind < 0.4:
        return rng.choice(_SCALARS)(rng)
    members = range(rng.randrange(5))
    if kind < 0.6:
        return [_payload(rng, depth + 1) for _ in members]
    if kind < 0.7:
        return tuple(_payload(rng, depth + 1) for _ in members)
    return {rng.choice(_KEYS): _payload(rng, depth + 1) for _ in members}


def test_render_json_matches_json_dumps_on_random_payloads():
    rng = random.Random(0)
    for _ in range(2000):
        payload = _payload(rng)
        assert render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"k": v, "a": 1}], ids=["list", "dict"])
def test_render_json_any_depth(wrap):
    payload = 0.5
    for _ in range(1000):
        payload = wrap(payload)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        sys.setrecursionlimit(200)
        assert render_json(payload) == expected
    finally:
        sys.setrecursionlimit(limit)


class TestFailedWrite:
    """A failed write leaves no temp file and the old target's bytes."""

    def _check(self, tmp_path, text, error):
        path = tmp_path / "x.json"
        path.write_bytes(b"old contents\n")
        with pytest.raises(error):
            write_text(path, text)
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]

    def test_unencodable_text(self, tmp_path):
        self._check(tmp_path, '{"a": "\ud800"}\n', UnicodeEncodeError)

    def test_chunk_iterator_raising_part_way(self, tmp_path):
        def chunks():
            yield "first chunk\n" * 10_000
            raise RuntimeError("render failed")

        self._check(tmp_path, chunks(), RuntimeError)

    def test_missing_target_stays_missing(self, tmp_path):
        path = tmp_path / "new.csv"
        with pytest.raises(UnicodeEncodeError):
            write_text(path, ["a\n", "\udfff\n"])
        assert list(tmp_path.iterdir()) == []


class TestCsvLine:
    EDGES = test_allocators.TestFrontierCsvBytes.EDGES + [math.nan, 0.1, -1e16, 123456789.123456789]

    def test_a_str_cell_is_written_as_it_is(self):
        assert csv_line(["nan", "inf", "a b", "", "é\u2028"]) == "nan,inf,a b,,é\u2028\n"

    def test_none_is_an_empty_cell(self):
        assert csv_line([None]) == "\n"
        assert csv_line(["x", None, 0.5, None]) == "x,,0.5,\n"

    def test_an_int_count_is_written_like_str(self):
        for n in (*range(1000), 10**12 - 1):
            assert csv_line(["Overall", n]) == f"Overall,{n}\n"

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_a_float_is_its_12_significant_digits(self, kind):
        for x in self.EDGES:
            assert csv_line([kind(x)]) == format(x, ".12g") + "\n"
        assert csv_line(map(kind, self.EDGES)) == ",".join(format(x, ".12g") for x in self.EDGES) + "\n"

    def test_a_frontier_row_is_csv_lines_with_an_undefined_sharpe_as_none(self, tmp_path):
        edges = np.array(self.EDGES)
        for shift in range(3):
            ret, vol, sharpe = (np.roll(edges, shift + i) for i in range(3))
            path = tmp_path / "frontier.csv"
            write_frontier_csv(SimpleNamespace(annual_return=ret, annual_volatility=vol, sharpe=sharpe), path)
            rows = zip(ret, vol, (None if math.isnan(s) else s for s in sharpe))
            assert path.read_text(encoding="utf-8") == "return,volatility,sharpe\n" + "".join(map(csv_line, rows))


def _function_lines(path, name):
    """The line numbers of the top-level function `name` in path."""
    node = next(n for n in ast.parse(path.read_text(encoding="utf-8")).body if getattr(n, "name", None) == name)
    return range(node.lineno, node.end_lineno + 1)


def test_the_csv_cell_format_has_one_home():
    # csv_line, and write_frontier_csv's block renderer, which gives its bytes
    homes = {"_io.py": _function_lines(SRC / "_io.py", "csv_line"),
             "allocators.py": _function_lines(SRC / "allocators.py", "write_frontier_csv")}
    elsewhere = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "12g" in line and i not in homes.get(path.name, ())
    ]
    assert elsewhere == []

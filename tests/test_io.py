import json

import pytest

from portopt._io import render_json, write_json, write_text


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

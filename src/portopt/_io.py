"""Atomic artifact writes: every output file goes through write_text."""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_text(path, text):
    """Write UTF-8 text to a sibling temp file, then rename it over path."""
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path, payload):
    """Write payload as indented, key-sorted JSON with a trailing newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

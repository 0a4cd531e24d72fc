"""Atomic artifact writes: every output file goes through write_text.  A name
that becomes part of a file path must pass is_path_component."""

from __future__ import annotations

import json
import os
from pathlib import Path


def is_path_component(name):
    """Whether name is one path component: no '/', not empty, '.' or '..'."""
    return name not in ("", ".", "..") and "/" not in name and os.sep not in name


def write_text(path, text):
    """Write UTF-8 text to a sibling temp file, then rename it over path.

    text is a str or an iterable of str chunks, written in order, so a large
    file need not be held in memory whole.  If writing fails, the temp file
    is removed, path keeps its old contents, and the error propagates.
    """
    tmp = Path(str(path) + ".tmp")
    chunks = (text,) if isinstance(text, str) else text
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def render_json(payload):
    """payload as indented, key-sorted JSON with a trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload):
    """Write render_json(payload) to path."""
    write_text(path, render_json(payload))

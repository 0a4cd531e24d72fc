"""Atomic artifact writes and the JSON and CSV formats: every output file goes
through write_text, every JSON artifact is render_json's text, and every CSV line
is csv_line's.  A name in a path must pass is_path_component, a given path is_os_path."""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

# exact member types that make a container one call of json's encoder
_SCALAR_TYPES = {str, int, float, bool, type(None)}
# the most bytes in one file name (Linux NAME_MAX), and write_text's temp-file suffix
NAME_MAX, TMP_SUFFIX = 255, ".tmp"


def is_path_component(name):
    """Whether name is one path component: no '/' or NUL, not empty, '.' or '..'."""
    return name not in ("", ".", "..") and not any(c in name for c in ("/", os.sep, "\0"))


def is_os_path(text):
    """Whether open() takes text as a path: no NUL, and os.fsencode encodes it."""
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        return False
    return "\0" not in text


def write_text(path, text):
    """Write UTF-8 text to a sibling temp file, then rename it over path.

    text is a str or an iterable of str chunks, written in order, so a large
    file need not be held in memory whole.  If writing fails, the temp file
    is removed, path keeps its old contents, and the error propagates.
    """
    tmp = Path(str(path) + TMP_SUFFIX)
    chunks = (text,) if isinstance(text, str) else text
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_line(cells):
    """One CSV line: a str cell as it is, None empty, else format(x, ".12g")."""
    text = (c if isinstance(c, str) else "" if c is None else format(c, ".12g") for c in cells)
    return ",".join(text) + "\n"


def render_json(payload):
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", at any depth: the
    payload is walked with an explicit stack, and a container whose members'
    types are all in _SCALAR_TYPES is one call of json's C encoder, its newline
    and indent in the item separator (json escapes a newline in a string).  A
    dict that holds a container must have str keys."""
    out = []
    stack = ["\n", (payload, "\n")]  # text, or (value, newline + its indent)
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, nl = item
        inner = nl + "  "
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))) or not value:
            out.append(json.dumps(value))
        elif set(map(type, value.values() if is_dict else value)) <= _SCALAR_TYPES:
            text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
            out += (text[0], inner, text[1:-1], nl, text[-1])
        else:
            keys = sorted(value) if is_dict else range(len(value))
            opening, closing = "{}" if is_dict else "[]"
            stack.append(nl + closing)
            for i in range(len(keys) - 1, -1, -1):
                head = encode_basestring_ascii(keys[i]) + ": " if is_dict else ""
                stack += [(value[keys[i]], inner), ("," if i else opening) + inner + head]
    return "".join(out)


def write_json(path, payload):
    """Write render_json(payload) to path."""
    write_text(path, render_json(payload))

"""Price panel ingestion, cleaning, train/test splitting, and daily returns.

Input data is one CSV per ticker (date column plus a close column; a UTF-8
byte-order mark and CRLF line ends are accepted).  A plain file (ASCII, LF or
CRLF lines of equal field count, YYYY-MM-DD dates) is parsed in one numpy pass
over its bytes; anything else, valid or not, falls back to a csv.DictReader
row loop, which gives the same arrays and words every error.  load_price_table
takes a parse_csvs mapping of every source path, or parses the sources itself.

After loading, all tickers share one calendar: by default the intersection of
each ticker's dates; a forward-fill mode is available for callers that prefer
to carry the last known price across gaps.  A cleaned panel can be exported as
one wide CSV (date column plus one close column per ticker); nothing reads
that format back.  The parse keeps dates as int32 datetime64[D] day numbers;
tables and return matrices hold them as one read-only datetime64[D] array
(as_dates), sliced as views and rendered as text once per calendar (iso_texts).
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from portopt._io import csv_line, write_text


ALIGN_POLICIES = ("intersect", "ffill")


class DataError(Exception):
    """Price data could not be parsed or violates a panel invariant."""


def iso_date(text):
    """date.fromisoformat of strictly YYYY-MM-DD text on every python, or ValueError."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not YYYY-MM-DD: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_date(raw, path, line_no, column):
    try:
        return iso_date(str(raw).strip())
    except ValueError:
        raise DataError(
            f"{path}: line {line_no}, column {column!r}: "
            f"unparsable date {raw!r} (expected YYYY-MM-DD)"
        ) from None


def _parse_price(raw, path, line_no, column):
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise DataError(
            f"{path}: line {line_no}, column {column!r}: unparsable price {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0.0:
        raise DataError(
            f"{path}: line {line_no}, column {column!r}: "
            f"price must be positive and finite, got {raw!r}"
        )
    return value


def as_dates(dates):
    """dates (datetime.date objects, ISO texts or datetime64 values) as a
    read-only datetime64[D] array; a view of one already in that form."""
    dates = np.asarray(dates, dtype="datetime64[D]")
    dates.setflags(write=False)
    return dates


def iso_texts(dates):
    """The YYYY-MM-DD texts of dates as a tuple.  Every report of one period
    shares its calendar, so the texts of the last 8 calendars are kept."""
    return _iso_texts(as_dates(dates).tobytes())


@functools.lru_cache(maxsize=8)
def _iso_texts(days):
    return tuple(np.datetime_as_string(np.frombuffer(days, dtype="datetime64[D]")).tolist())


def _panel(panel, name, what):
    """Freeze panel's dates and tickers, and return its `name` matrix as
    floats once it has one row per date and one column per ticker."""
    dates, tickers = as_dates(panel.dates), tuple(panel.tickers)
    object.__setattr__(panel, "dates", dates)
    object.__setattr__(panel, "tickers", tickers)
    values = np.asarray(getattr(panel, name), dtype=float)
    if values.shape != (*dates.shape, len(tickers)):
        raise DataError(
            f"{what} matrix shape {values.shape} does not match "
            f"{dates.size} dates x {len(tickers)} tickers"
        )
    return values


@dataclass(frozen=True)
class PriceTable:
    """Date-aligned close-price panel: one row per date, one column per ticker."""

    dates: np.ndarray
    tickers: tuple
    closes: np.ndarray

    def __post_init__(self):
        closes = _panel(self, "closes", "close")
        if len(set(self.tickers)) != len(self.tickers):
            raise DataError("duplicate tickers in price table")
        unordered = np.flatnonzero(~(self.dates[1:] > self.dates[:-1]))  # NaT compares false
        if unordered.size:
            a, b = self.dates[unordered[0] : unordered[0] + 2]
            raise DataError(f"dates not strictly increasing at {a} -> {b}")
        if closes.size and (not np.all(np.isfinite(closes)) or np.any(closes <= 0.0)):
            raise DataError("all prices must be strictly positive and finite")
        closes.setflags(write=False)
        object.__setattr__(self, "closes", closes)

    @property
    def n_dates(self):
        return len(self.dates)

    def restrict(self, start=None, end=None):
        """Return the sub-panel with start <= date <= end."""
        keep = slice(
            None if start is None else self.dates.searchsorted(np.datetime64(start, "D")),
            None if end is None else self.dates.searchsorted(np.datetime64(end, "D"), "right"),
        )
        if not self.dates[keep].size:
            raise DataError(f"no dates remain in range [{start}, {end}]")
        return PriceTable(self.dates[keep], self.tickers, self.closes[keep])


@dataclass(frozen=True)
class ReturnMatrix:
    """Daily simple returns; row t is the return from date t to date t+1."""

    dates: np.ndarray
    tickers: tuple
    returns: np.ndarray

    def __post_init__(self):
        returns = _panel(self, "returns", "return")
        if returns.size and (not np.all(np.isfinite(returns)) or np.any(returns <= -1.0)):
            raise DataError("all returns must be finite and greater than -1")
        returns.setflags(write=False)
        object.__setattr__(self, "returns", returns)


def _bulk_series(data, date_column, close_column):
    """The row loop's unfrozen (int32 datetime64[D] day numbers, closes) for a
    plain CSV's bytes in one numpy pass, or None for any other file, valid or
    not: quotes, NULs, bare CRs, ragged lines, odd dates, bad or repeated values."""
    # the row loop skips blank lines, so trailing ones may go
    data = data.removeprefix(b"\xef\xbb\xbf").replace(b"\r\n", b"\n").rstrip(b"\n") + b"\n"
    if not data.isascii() or b"\r" in data or b'"' in data or b"\0" in data:
        return None
    header = data[: data.index(b"\n")].decode().split(",")
    index = {name: i for i, name in enumerate(header)}
    n = len(header)
    text = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    if date_column not in index or close_column not in index or seps.size % n or seps.size == n:
        return None
    # one row per line: commas between the fields and a newline after the last
    grid = seps.reshape(-1, n)
    if (text[grid[:, :-1]] != ord(",")).any() or (text[grid[:, -1]] != ord("\n")).any():
        return None
    limit = csv.field_size_limit()
    if text.size > limit and np.diff(seps, prepend=-1).max() > limit + 1:
        return None  # a field csv.reader refuses
    di, ci = index[date_column], index[close_column]
    starts = (grid[:-1, -1] if di == 0 else grid[1:, di - 1]) + 1
    if (grid[1:, di] - starts != 10).any():
        return None
    # the date fields as (rows, 10) bytes: digits, with a '-' at 4 and at 7
    stamps = np.ndarray((text.size - 9, 10), np.uint8, data, 0, (1, 1))[starts]
    chars = stamps - np.frombuffer(b"0000-00-00", dtype=np.uint8)
    if (chars > 9).any() or chars[:, [4, 7]].any():
        return None
    try:
        days = stamps.view("S10").ravel().astype("datetime64[D]")
    except ValueError:
        return None  # a month or day out of range
    if (days < np.datetime64("0001-01-01")).any():
        return None  # year 0000, which numpy reads and date.fromisoformat refuses
    # the builtin float on each close field accepts what the row loop does
    fields = data[:-1].replace(b"\n", b",").split(b",")
    try:
        closes = np.fromiter(map(float, fields[n + ci :: n]), dtype=float, count=len(days))
    except ValueError:
        return None
    if not (np.isfinite(closes) & (closes > 0.0)).all():
        return None
    # int32 holds every day of years 1-9999 and keeps a run's shared series small
    order = np.argsort(days)
    days, closes = days[order].astype(np.int32), closes[order]
    if (days[1:] == days[:-1]).any():
        return None
    return days, closes


def _row_series(data, path, date_column, close_column):
    """Parse one per-ticker CSV's bytes row by row with csv.DictReader into
    unfrozen sorted (int32 datetime64[D] day numbers, closes), or raise a
    DataError naming the first fault."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start] + b"x").splitlines())
        bad = exc.object[exc.start]
        raise DataError(f"{path}: line {line}: not UTF-8 text (byte 0x{bad:02x})") from None
    rows = csv.DictReader(io.StringIO(text, newline=""))
    series = {}
    try:
        if rows.fieldnames is None:
            raise DataError(f"{path}: empty file (header row required)")
        for column in (date_column, close_column):
            if column not in rows.fieldnames:
                raise DataError(f"{path}: missing column {column!r} (found {rows.fieldnames})")
        for row in rows:
            line_no = rows.line_num
            date = _parse_date(row[date_column], path, line_no, date_column)
            if date in series:
                raise DataError(f"{path}: line {line_no}: duplicate date {date}")
            series[date] = _parse_price(row[close_column], path, line_no, close_column)
    except csv.Error as exc:  # DictReader's own line_num still names the row before
        raise DataError(f"{path}: line {rows.reader.line_num}: {exc}") from None
    if not series:
        raise DataError(f"{path}: no data rows")
    dates = sorted(series)
    days = np.array(dates, dtype="datetime64[D]").astype(np.int32)
    return days, np.array([series[date] for date in dates], dtype=float)


def _read_close_series(path, date_column, close_column):
    """Parse one per-ticker CSV into sorted (int32 datetime64[D] day numbers,
    closes) arrays: in one pass when the file is plain, else row by row."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc}") from None
    series = _bulk_series(data, date_column, close_column)
    if series is None:
        series = _row_series(data, path, date_column, close_column)
    # shared between the loads of one run; nothing may write to them
    for array in series:
        array.setflags(write=False)
    return series


def parse_csvs(paths, *, date_column="Date", close_column="Close"):
    """Parse each CSV once: the {path: (int32 datetime64[D] day numbers, closes)
    or the DataError it raised} mapping that load_price_table takes as parsed."""
    parsed = {}
    for path in dict.fromkeys(paths):
        try:
            parsed[path] = _read_close_series(path, date_column, close_column)
        except DataError as exc:
            parsed[path] = exc
    return parsed


def load_price_table(
    sources,
    *,
    date_column="Date",
    close_column="Close",
    align="intersect",
    require_start=None,
    parsed=None,
):
    """Load per-ticker CSVs into a single aligned PriceTable.

    sources maps ticker -> CSV path.  Column order follows the source order.
    align='intersect' keeps only dates present for every ticker;
    align='ffill' keeps the union of dates and forward-fills gaps.  The table
    starts at require_start when it is given (earlier dates are dropped), else
    at the calendar's first date, and a ticker with no price on or before that
    day is rejected by name (insufficient history is a data-curation problem,
    not something to patch silently).

    parsed is a parse_csvs mapping made with the same columns that holds
    every source path, or None to parse the sources here; a recorded error
    is raised, and parsed itself is never changed.
    """
    if not sources:
        raise DataError("no price sources given")
    if align not in ALIGN_POLICIES:
        raise DataError(f"unknown alignment policy {align!r}")
    if parsed is None:
        parsed = parse_csvs(sources.values(), date_column=date_column, close_column=close_column)

    per_ticker = {}
    for ticker, path in sources.items():
        series = parsed[path]
        if isinstance(series, DataError):
            raise series.with_traceback(None)
        per_ticker[ticker] = series

    all_days = [days for days, _ in per_ticker.values()]
    if align == "intersect":
        days = all_days[0]
        for own in all_days[1:]:
            days = np.intersect1d(days, own, assume_unique=True)
    else:
        # sort and drop repeats by hand: np.unique imports numpy.ma (~0.5 MB)
        days = np.sort(np.concatenate(all_days))
        days = days[np.append(True, days[1:] != days[:-1])]
    if require_start is not None:
        days = days[days >= np.datetime64(require_start, "D").astype(int)]
    if not days.size:
        since = "" if require_start is None else f" on or after {require_start}"
        raise DataError(f"no common dates across tickers ({', '.join(per_ticker)}){since}")
    start = np.datetime64(int(days[0]) if require_start is None else require_start, "D")
    for ticker, own in zip(per_ticker, all_days):
        first = np.datetime64(int(own[0]), "D")
        if first > start:
            raise DataError(
                f"ticker {ticker!r} has no price on or before {start} (first date {first})"
            )

    # the last own date on or before each calendar date: the date itself
    # under intersect, the last known close under ffill
    closes = np.empty((len(days), len(per_ticker)))
    for j, (own, own_closes) in enumerate(per_ticker.values()):
        closes[:, j] = own_closes[np.searchsorted(own, days, side="right") - 1]
    return PriceTable(days.astype("datetime64[D]"), tuple(per_ticker), closes)


def write_wide_csv(table, path, *, date_column="Date"):
    """Export a PriceTable as a wide CSV; output is bit-identical across runs."""
    rows = ((date, *row) for date, row in zip(iso_texts(table.dates), table.closes.tolist()))
    write_text(path, map(csv_line, itertools.chain([(date_column, *table.tickers)], rows)))


def split_train_test(table, boundary):
    """Split a PriceTable at a boundary date: dates <= boundary vs dates after."""
    if table.n_dates < 2:
        raise DataError("price table too short to split")
    first, last = table.dates[0], table.dates[-1]
    day = np.datetime64(boundary, "D")
    if day < first or day >= last:
        raise DataError(
            f"boundary {boundary} must lie strictly inside [{first}, {last}]"
        )
    return table.restrict(None, day), table.restrict(day + 1, None)


def daily_returns(table):
    """Daily simple returns r[t][i] = closes[t+1][i] / closes[t][i] - 1."""
    if table.n_dates < 2:
        raise DataError("need at least 2 dates to compute returns")
    returns = table.closes[1:, :] / table.closes[:-1, :] - 1.0
    return ReturnMatrix(table.dates[1:], table.tickers, returns)

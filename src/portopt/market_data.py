"""Price panel ingestion, cleaning, train/test splitting, and daily returns.

Input data is one CSV per ticker (date column plus a close column; a UTF-8
byte-order mark and CRLF line ends are accepted).  A plain file (ASCII, LF or
CRLF lines of equal field count, YYYY-MM-DD dates) is parsed in one numpy pass
over its bytes; anything else, valid or not, falls back to a csv.reader row
loop, which gives the same arrays and words every error.

After loading, all tickers share one calendar: by default the intersection of
each ticker's dates; a forward-fill mode is available for callers that prefer
to carry the last known price across gaps.  A cleaned panel can be exported as
one wide CSV (date column plus one close column per ticker); nothing reads
that format back.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from portopt._io import write_text


ALIGN_POLICIES = ("intersect", "ffill")


class DataError(Exception):
    """Price data could not be parsed or violates a panel invariant."""


def _parse_date(raw, path, line_no, column):
    try:
        return dt.date.fromisoformat(str(raw).strip())
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


@dataclass(frozen=True)
class PriceTable:
    """Date-aligned close-price panel: one row per date, one column per ticker."""

    dates: tuple
    tickers: tuple
    closes: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        tickers = tuple(self.tickers)
        closes = np.asarray(self.closes, dtype=float)
        if closes.shape != (len(dates), len(tickers)):
            raise DataError(
                f"close matrix shape {closes.shape} does not match "
                f"{len(dates)} dates x {len(tickers)} tickers"
            )
        if len(set(tickers)) != len(tickers):
            raise DataError("duplicate tickers in price table")
        for a, b in zip(dates, dates[1:]):
            if not a < b:
                raise DataError(f"dates not strictly increasing at {a} -> {b}")
        if closes.size and (not np.all(np.isfinite(closes)) or np.any(closes <= 0.0)):
            raise DataError("all prices must be strictly positive and finite")
        closes.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "tickers", tickers)
        object.__setattr__(self, "closes", closes)

    @property
    def n_dates(self):
        return len(self.dates)

    def restrict(self, start=None, end=None):
        """Return the sub-panel with start <= date <= end."""
        keep = [
            i
            for i, d in enumerate(self.dates)
            if (start is None or d >= start) and (end is None or d <= end)
        ]
        if not keep:
            raise DataError(f"no dates remain in range [{start}, {end}]")
        return PriceTable(
            tuple(self.dates[i] for i in keep), self.tickers, self.closes[keep, :]
        )


@dataclass(frozen=True)
class ReturnMatrix:
    """Daily simple returns; row t is the return from date t to date t+1."""

    dates: tuple
    tickers: tuple
    returns: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        tickers = tuple(self.tickers)
        returns = np.asarray(self.returns, dtype=float)
        if returns.shape != (len(dates), len(tickers)):
            raise DataError(
                f"return matrix shape {returns.shape} does not match "
                f"{len(dates)} dates x {len(tickers)} tickers"
            )
        if returns.size and (
            not np.all(np.isfinite(returns)) or np.any(returns <= -1.0)
        ):
            raise DataError("all returns must be finite and greater than -1")
        returns.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "tickers", tickers)
        object.__setattr__(self, "returns", returns)


# days before each month of a common year and its length, indexed by month
_DAYS_BEFORE_MONTH = np.array([0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334])
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# place values of YYYY-MM-DD's characters in its year, month and day
_DATE_PLACES = np.array([[1e3, 100, 10, 1] + [0] * 6, [0] * 5 + [10, 1, 0, 0, 0], [0] * 8 + [10, 1]])


def _bulk_series(data, date_column, close_column):
    """The row loop's unfrozen (day ordinals, closes) for a plain CSV's bytes,
    parsed in one numpy pass, or None for any other file, valid or not: quotes,
    NULs, bare CRs, ragged lines, other date forms, bad or repeated values."""
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
    # the date fields as (rows, 10) digits, with 0 at each '-' and anything else > 9
    windows = np.ndarray((text.size - 9, 10), np.uint8, data, 0, (1, 1))
    chars = windows[starts] - np.frombuffer(b"0000-00-00", dtype=np.uint8)
    if (chars > 9).any() or chars[:, [4, 7]].any():
        return None
    year, month, day = (_DATE_PLACES @ chars.T).astype(int)  # small integers: exact
    if not ((year >= 1) & (month >= 1) & (month <= 12)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if ((day < 1) | (day > _DAYS_IN_MONTH[month] + (leap & (month == 2)))).any():
        return None
    y = year - 1  # proleptic Gregorian ordinals, as date.toordinal()
    days = y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[month] + day
    days += leap & (month > 2)
    # the builtin float on each close field accepts what the row loop does
    fields = data[:-1].replace(b"\n", b",").split(b",")
    try:
        closes = np.fromiter(map(float, fields[n + ci :: n]), dtype=float, count=len(days))
    except ValueError:
        return None
    if not (np.isfinite(closes) & (closes > 0.0)).all():
        return None
    # int32 holds every date ordinal and keeps a run's shared series small
    order = np.argsort(days)
    days, closes = days[order].astype(np.int32), closes[order]
    if (days[1:] == days[:-1]).any():
        return None
    return days, closes


def _row_series(data, path, date_column, close_column):
    """Parse one per-ticker CSV's bytes row by row into unfrozen sorted (day
    ordinals, closes) arrays, or raise a DataError naming the first fault.

    Rows are read as csv.DictReader would: blank lines are skipped, a header
    name given twice means its last column, and a field missing from a short
    row reads as None.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start] + b"x").splitlines())
        bad = exc.object[exc.start]
        raise DataError(f"{path}: line {line}: not UTF-8 text (byte 0x{bad:02x})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    series = {}
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file (header row required)")
        index = {name: i for i, name in enumerate(header)}
        for column in (date_column, close_column):
            if column not in index:
                raise DataError(f"{path}: missing column {column!r} (found {header})")
        di, ci = index[date_column], index[close_column]
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            raw_date = row[di] if di < len(row) else None
            day = _parse_date(raw_date, path, line_no, date_column).toordinal()
            if day in series:
                raise DataError(
                    f"{path}: line {line_no}: duplicate date {dt.date.fromordinal(day)}"
                )
            raw_close = row[ci] if ci < len(row) else None
            series[day] = _parse_price(raw_close, path, line_no, close_column)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not series:
        raise DataError(f"{path}: no data rows")
    days = np.fromiter(series, dtype=np.int32, count=len(series))
    closes = np.fromiter(series.values(), dtype=float, count=len(series))
    order = np.argsort(days)
    return days[order], closes[order]


def _read_close_series(path, date_column, close_column):
    """Parse one per-ticker CSV into sorted (day ordinals, closes) arrays:
    in one pass when the file is plain, else row by row."""
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
    """Parse each CSV once: the {path: (day ordinals, closes) or the DataError
    the file raised} mapping that load_price_table takes as parsed."""
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
    align='ffill' keeps the union of dates and forward-fills gaps, rejecting
    tickers whose history starts after the first date of the union calendar.
    When require_start is given, any ticker whose history begins after that
    date is rejected (insufficient history is a data-curation problem, not
    something to patch silently).

    parsed, when given, is a parse_csvs mapping made with the same columns:
    a path found there is not read again, and a recorded error is raised.
    Paths it lacks are parsed here; parsed itself is never changed.
    """
    if not sources:
        raise DataError("no price sources given")
    if align not in ALIGN_POLICIES:
        raise DataError(f"unknown alignment policy {align!r}")
    parsed = {} if parsed is None else parsed
    fresh = parse_csvs(
        [path for path in sources.values() if path not in parsed],
        date_column=date_column,
        close_column=close_column,
    )

    per_ticker = {}
    for ticker, path in sources.items():
        series = fresh[path] if path in fresh else parsed[path]
        if isinstance(series, DataError):
            raise series.with_traceback(None)
        first = dt.date.fromordinal(int(series[0][0]))
        if require_start is not None and first > require_start:
            raise DataError(
                f"ticker {ticker!r} has no history on or before {require_start} "
                f"(first date {first})"
            )
        per_ticker[ticker] = series

    all_days = [days for days, _ in per_ticker.values()]
    if align == "intersect":
        days = all_days[0]
        for own in all_days[1:]:
            days = np.intersect1d(days, own, assume_unique=True)
        if not days.size:
            raise DataError(
                "no common dates across tickers "
                f"({', '.join(per_ticker)}); empty overlap"
            )
    else:
        # sort and drop repeats by hand: np.unique imports numpy.ma (~0.5 MB)
        days = np.sort(np.concatenate(all_days))
        days = days[np.append(True, days[1:] != days[:-1])]
        for ticker, own in zip(per_ticker, all_days):
            if own[0] > days[0]:
                raise DataError(
                    f"ticker {ticker!r} has no price on or before "
                    f"{dt.date.fromordinal(int(days[0]))}; "
                    "insufficient history for forward-fill alignment"
                )

    # the last own date on or before each calendar date: the date itself
    # under intersect, the last known close under ffill
    closes = np.empty((len(days), len(per_ticker)))
    for j, (own, own_closes) in enumerate(per_ticker.values()):
        closes[:, j] = own_closes[np.searchsorted(own, days, side="right") - 1]
    dates = tuple(map(dt.date.fromordinal, days.tolist()))
    return PriceTable(dates, tuple(per_ticker), closes)


def write_wide_csv(table, path, *, date_column="Date"):
    """Export a PriceTable as a wide CSV; output is bit-identical across runs."""
    header = ",".join([date_column, *table.tickers]) + "\n"
    rows = (
        ",".join([date.isoformat(), *(format(x, ".12g") for x in row)]) + "\n"
        for date, row in zip(table.dates, table.closes)
    )
    write_text(path, itertools.chain([header], rows))


def split_train_test(table, boundary):
    """Split a PriceTable at a boundary date: dates <= boundary vs dates after."""
    if table.n_dates < 2:
        raise DataError("price table too short to split")
    first, last = table.dates[0], table.dates[-1]
    if boundary < first or boundary >= last:
        raise DataError(
            f"boundary {boundary} must lie strictly inside [{first}, {last}]"
        )
    cut = sum(1 for d in table.dates if d <= boundary)
    if cut == 0 or cut == table.n_dates:
        raise DataError(f"boundary {boundary} leaves one side of the split empty")
    head = PriceTable(table.dates[:cut], table.tickers, table.closes[:cut, :])
    tail = PriceTable(table.dates[cut:], table.tickers, table.closes[cut:, :])
    return head, tail


def daily_returns(table):
    """Daily simple returns r[t][i] = closes[t+1][i] / closes[t][i] - 1."""
    if table.n_dates < 2:
        raise DataError("need at least 2 dates to compute returns")
    returns = table.closes[1:, :] / table.closes[:-1, :] - 1.0
    return ReturnMatrix(table.dates[1:], table.tickers, returns)

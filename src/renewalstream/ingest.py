"""Event-stream ingestion: log parsing, inter-arrival extraction, downsampling.

Timestamps are integer seconds. Sub-second inputs are rejected rather than
truncated so that same-second events (zero inter-arrivals) stay an explicit,
visible feature of the data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import (
    EmptyStreamError,
    InsufficientDataError,
    InvalidConfigError,
    ParseError,
    StreamAnalysisError,
)

_EPOCH_RE = re.compile(r"[+-]?\d+")
_ISO_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}")

# Bytes per batch of the vectorized checks: bounds their temporaries.
_PARSE_BATCH_BYTES = 1 << 20
# 18 digits stay below 2**63, so a plain epoch line cannot overflow int64.
_EPOCH_MAX_DIGITS = 18
_ZERO, _NEWLINE = ord("0"), ord("\n")
# A fixed-width row's template: a "0" takes any digit, any other byte only itself.
_ISO_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00\n", dtype=np.uint8)


@dataclass
class EventStream:
    """Sorted absolute event times, in integer seconds.

    ``times`` is non-decreasing; duplicates mark same-second events.
    """

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)

    @property
    def m(self) -> int:
        return int(self.times.size)

    @property
    def span(self) -> int:
        """Seconds between the first and the last event."""
        return int(self.times[-1]) - int(self.times[0]) if self.m >= 2 else 0

    @property
    def rate(self) -> float:
        """Average events per second, (m - 1) / span."""
        if self.m < 2:
            raise InsufficientDataError("rate needs at least 2 events")
        if self.span <= 0:
            raise InsufficientDataError("rate undefined for a zero-span stream")
        return (self.m - 1) / self.span


@dataclass
class InterArrivals:
    """Differences between consecutive event times; zeros are preserved,
    and a negative value is rejected."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.min(initial=0) < 0:
            raise InvalidConfigError("inter-arrivals must not be negative")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> int:
        return int(self.values.sum())

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise InsufficientDataError("no inter-arrivals")
        return float(self.values.mean())

    @property
    def rate(self) -> float:
        """Events per second of the originating stream."""
        if self.total <= 0:
            raise InsufficientDataError("rate undefined: zero total span")
        return self.n / self.total


def _parse_line(line: str, line_no: int) -> int:
    if _EPOCH_RE.fullmatch(line):
        value = int(line)
        if not -(2**63) <= value < 2**63:
            raise ParseError(line_no, line, "epoch seconds outside the int64 range")
        return value
    if _ISO_RE.fullmatch(line):
        try:
            dt = datetime.strptime(line, "%Y-%m-%dT%H:%M:%S")
        except ValueError:
            raise ParseError(line_no, line, "invalid calendar date/time") from None
        return int(dt.replace(tzinfo=timezone.utc).timestamp())
    raise ParseError(
        line_no, line, "expected integer epoch seconds or YYYY-MM-DDTHH:MM:SS"
    )


def _parse_lines(text: str) -> np.ndarray:
    """Times of a log, one line at a time; the only parser that reports errors."""
    times = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        times.append(_parse_line(line, line_no))
    return np.asarray(times, dtype=np.int64)


def _fixed_width_times(buf: np.ndarray, template: np.ndarray, convert):
    """Times of a buffer of rows shaped like ``template``, or None.

    Batch by batch, the rows are copied into one contiguous column per byte
    position, less its template byte, and every column is checked at once:
    a digit column must hold only 0-9, any other column only 0. Then
    ``convert(rows, columns, out)`` fills the batch's times, or returns False
    to refuse it. Temporaries are O(batch) beyond the output.
    """
    if buf.size % template.size:
        return None
    rows = buf.reshape(-1, template.size)
    limit = np.where(template == _ZERO, 9, 0)
    times = np.empty(rows.shape[0], dtype=np.int64)
    step = max(1, _PARSE_BATCH_BYTES // template.size)
    for start in range(0, rows.shape[0], step):
        batch = rows[start : start + step]
        columns = np.array(batch.T, order="C")  # a copy even for one row
        columns -= template[:, None]
        if (columns.max(axis=1) > limit).any():
            return None
        if not convert(batch, columns, times[start : start + step]):
            return None
    return times


def _epoch_rows(rows, columns, out) -> bool:
    """Horner's rule over the digit columns, two digits per step."""
    width = columns.shape[0] - 1  # the last column is the line feed
    head = 2 - width % 2  # one or two leading digits, then pairs
    out[:] = columns[0] if head == 1 else columns[0] * 10 + columns[1]
    for i in range(head, width, 2):
        out *= 100
        out += columns[i] * 10 + columns[i + 1]
    return True


def _iso_rows(rows, columns, out) -> bool:
    """numpy's datetime64 parse of the rows, where strptime takes each one."""
    stamps = np.ascontiguousarray(rows[:, :-1]).view("S19")
    try:  # numpy rejects a field out of its calendar range, as strptime does
        out.view("datetime64[s]")[:] = stamps[:, 0]
    except ValueError:
        return False
    # numpy also takes year 0, which strptime rejects
    return out.view("datetime64[s]").min() >= np.datetime64("0001-01-01")


def _vectorized_times(text: str | bytes) -> np.ndarray | None:
    """Times of a log of plain epoch lines or of ISO lines, parsed by numpy;
    None for any other log, a mixed one too.

    It takes only ASCII whose lines end in a line feed and hold no space,
    sign, comment or blank line; text is encoded first, bytes are read as
    they are. The first line picks the form. Fixed-width lines, ISO or
    epoch lines of one digit count, go through one row check and one
    conversion per batch; epoch lines of varying widths are checked and
    handed to ``np.fromstring``. The per-line parser reads every other log,
    with the same times for the lines this takes.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    data = text if text.endswith(b"\n") else text + b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    width = data.index(b"\n")
    if width == _ISO_TEMPLATE.size - 1:
        return _fixed_width_times(buf, _ISO_TEMPLATE, _iso_rows)
    if not 1 <= width <= _EPOCH_MAX_DIGITS:
        return None
    template = np.full(width + 1, _ZERO, dtype=np.uint8)
    template[-1] = _NEWLINE
    times = _fixed_width_times(buf, template, _epoch_rows)
    if times is not None:
        return times
    # Lines of 1-18 digits, of varying widths. Unchecked, np.fromstring would
    # take signs, spaces and blank lines, and clamp 19 digits to 2**63 - 1.
    start = lines = 0
    while start < buf.size:
        chunk = buf[start : start + _PARSE_BATCH_BYTES]
        ends = np.flatnonzero(chunk == _NEWLINE)
        if not ends.size:
            return None  # a line longer than a batch
        chunk = chunk[: ends[-1] + 1]
        widths = np.diff(ends, prepend=-1) - 1
        if widths.min() < 1 or widths.max() > _EPOCH_MAX_DIGITS:
            return None
        if np.count_nonzero((chunk - _ZERO) > 9) != ends.size:  # "\n" wraps too
            return None
        start += chunk.size
        lines += ends.size
    return np.fromstring(data, dtype=np.int64, count=lines, sep="\n")


def parse_stream(text: str | bytes) -> EventStream:
    """Parse a one-timestamp-per-line log into a sorted :class:`EventStream`.

    ``text`` is a ``str`` or UTF-8 ``bytes``; both give the same stream or
    the same error. Accepted line forms: integer epoch seconds, or an
    ISO-8601 datetime with one-second resolution (interpreted as UTC). Lines
    starting with ``#`` and blank lines are skipped. Input order does not
    matter; duplicates are kept.
    """
    times = _vectorized_times(text)
    if times is None:
        times = _parse_lines(text if isinstance(text, str) else text.decode("utf-8"))
    if not times.size:
        raise EmptyStreamError("no events in input")
    times.sort(kind="stable")  # every parser returns a fresh array
    return EventStream(times)


def serialize_stream(stream: EventStream) -> str:
    """Render a stream in the log format; inverse of :func:`parse_stream`."""
    return "".join([f"{t}\n" for t in stream.times.tolist()])


def inter_arrivals(stream: EventStream) -> InterArrivals:
    """Consecutive time differences of a stream (length m - 1)."""
    if stream.m < 2:
        raise InsufficientDataError(
            f"need at least 2 events for inter-arrivals, got {stream.m}"
        )
    # compare neighbours, not their differences: np.diff of unsorted times
    # can wrap in int64
    times = stream.times
    if np.any(times[1:] < times[:-1]):
        raise InvalidConfigError("event times must not decrease")
    # times are sorted, so no gap wraps in int64 once the whole span fits
    if stream.span > np.iinfo(np.int64).max:
        raise StreamAnalysisError(
            f"stream spans {stream.span} seconds, beyond the int64 range"
        )
    return InterArrivals(np.diff(times))


def downsample(
    arrivals: InterArrivals, group_min: int, group_max: int, seed: int
) -> InterArrivals:
    """Replace runs of consecutive inter-arrivals by their sums.

    Each run length is drawn uniformly from [group_min, group_max]; a trailing
    partial run is emitted as its sum, so the total duration is preserved for
    every seed.
    """
    if group_min < 1:
        raise InvalidConfigError(f"group_min must be >= 1, got {group_min}")
    if group_max < group_min:
        raise InvalidConfigError(
            f"group_max must be >= group_min, got {group_min}..{group_max}"
        )
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    if arrivals.n == 0:
        raise InsufficientDataError("cannot downsample an empty sequence")

    # one batched draw gives the same sizes as one draw per group; ceil(n /
    # group_min) sizes always cover n, and a size clipped to n still ends
    # the last group
    values = arrivals.values
    rng = np.random.default_rng(seed)
    sizes = rng.integers(group_min, group_max + 1, size=-(-values.size // group_min))
    ends = np.cumsum(np.minimum(sizes, values.size))
    starts = np.concatenate([[0], ends[ends < values.size]])
    return InterArrivals(np.add.reduceat(values, starts))

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
# Bytes minus the template: a digit's value in a digit column, 0 for the
# right separator or line feed, and otherwise past the column's maximum.
_ISO_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00\n", dtype=np.uint8)
_ISO_MAX = np.where(_ISO_TEMPLATE == _ZERO, 9, 0).astype(np.uint8)


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
    """Differences between consecutive event times; zeros are preserved."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)

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


def _iso_times(buf: np.ndarray) -> np.ndarray | None:
    """Epoch seconds of lines of YYYY-MM-DDTHH:MM:SS that strptime takes, or None."""
    if buf.size % _ISO_TEMPLATE.size:
        return None
    rows = buf.reshape(-1, _ISO_TEMPLATE.size)
    times = np.empty(rows.shape[0], dtype="datetime64[s]")
    step = _PARSE_BATCH_BYTES // _ISO_TEMPLATE.size
    for start in range(0, rows.shape[0], step):
        batch = rows[start : start + step]
        if ((batch - _ISO_TEMPLATE) > _ISO_MAX).any():
            return None
        stamps = np.ascontiguousarray(batch[:, :-1]).view("S19")
        try:  # numpy rejects a field out of its calendar range, as strptime does
            times[start : start + step] = stamps[:, 0]
        except ValueError:
            return None
    # numpy also takes year 0, which strptime rejects
    return None if times.min() < np.datetime64("0001-01-01") else times.view(np.int64)


def _vectorized_times(text: str) -> np.ndarray | None:
    """Times of a log of plain epoch lines or of ISO lines, parsed by numpy;
    None for any other log, a mixed one too.

    It takes only ASCII text whose lines end in a line feed and hold no
    space, sign, comment or blank line. The per-line parser reads every
    other log, with the same times for the lines this takes. Bytes are
    checked in batches: temporaries are O(batch) beyond the copy and output.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    if data.index(b"\n") == _ISO_TEMPLATE.size - 1:  # the first line picks
        return _iso_times(buf)
    # Lines of 1-18 digits. Unchecked, np.fromstring would take signs, spaces
    # and blank lines, and clamp 19 digits to 2**63 - 1.
    start = lines = 0
    while start < buf.size:
        chunk = buf[start : start + _PARSE_BATCH_BYTES]
        ends = np.flatnonzero(chunk == _NEWLINE)
        if not ends.size:
            return None  # a line longer than a batch
        chunk = chunk[: ends[-1] + 1]
        width = np.diff(ends, prepend=-1) - 1
        if width.min() < 1 or width.max() > _EPOCH_MAX_DIGITS:
            return None
        if np.count_nonzero((chunk - _ZERO) > 9) != ends.size:  # "\n" wraps too
            return None
        start += chunk.size
        lines += ends.size
    return np.fromstring(data, dtype=np.int64, count=lines, sep="\n")


def parse_stream(text: str) -> EventStream:
    """Parse a one-timestamp-per-line log into a sorted :class:`EventStream`.

    Accepted line forms: integer epoch seconds, or an ISO-8601 datetime with
    one-second resolution (interpreted as UTC). Lines starting with ``#`` and
    blank lines are skipped. Input order does not matter; duplicates are kept.
    """
    times = _vectorized_times(text)
    if times is None:
        times = _parse_lines(text)
    if not times.size:
        raise EmptyStreamError("no events in input")
    return EventStream(np.sort(times, kind="stable"))


def serialize_stream(stream: EventStream) -> str:
    """Render a stream in the log format; inverse of :func:`parse_stream`."""
    return "".join([f"{t}\n" for t in stream.times.tolist()])


def inter_arrivals(stream: EventStream) -> InterArrivals:
    """Consecutive time differences of a stream (length m - 1)."""
    if stream.m < 2:
        raise InsufficientDataError(
            f"need at least 2 events for inter-arrivals, got {stream.m}"
        )
    # times are sorted, so no gap wraps in int64 once the whole span fits
    if stream.span > np.iinfo(np.int64).max:
        raise StreamAnalysisError(
            f"stream spans {stream.span} seconds, beyond the int64 range"
        )
    return InterArrivals(np.diff(stream.times))


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

import tracemalloc
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalstream import ingest
from renewalstream.errors import (
    EmptyStreamError,
    InsufficientDataError,
    InvalidConfigError,
    ParseError,
    StreamAnalysisError,
)
from renewalstream.ingest import (
    EventStream,
    InterArrivals,
    downsample,
    inter_arrivals,
    parse_stream,
    serialize_stream,
)


class TestParseStream:
    def test_sorts_and_keeps_duplicates(self):
        stream = parse_stream("10\n12\n10\n")
        assert stream.times.tolist() == [10, 10, 12]
        assert stream.m == 3

    def test_iso_lines_become_epoch_seconds(self):
        stream = parse_stream("2011-07-01T00:00:00\n2011-07-01T00:00:05\n")
        assert stream.times.tolist() == [1309478400, 1309478405]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_stream("abc\n")

    def test_error_line_number_skips_nothing(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_stream("10\n# comment\noops\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyStreamError):
            parse_stream("")
        with pytest.raises(EmptyStreamError):
            parse_stream("# only a comment\n\n")

    def test_comments_and_blank_lines_skipped(self):
        stream = parse_stream("# header\n5\n\n7\n")
        assert stream.times.tolist() == [5, 7]
        assert parse_stream("5\n\n7\n\n").times.tolist() == [5, 7]

    def test_subsecond_inputs_rejected(self):
        with pytest.raises(ParseError):
            parse_stream("10.5\n")
        with pytest.raises(ParseError):
            parse_stream("2011-07-01T00:00:00.5\n")

    def test_invalid_calendar_date_rejected(self):
        with pytest.raises(ParseError):
            parse_stream("2011-13-01T00:00:00\n")

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
    def test_roundtrip_through_serialization(self, times):
        stream = EventStream(np.sort(np.asarray(times, dtype=np.int64)))
        again = parse_stream(serialize_stream(stream))
        assert again.times.tolist() == stream.times.tolist()

    def test_serialization_is_bit_exact_for_epoch_input(self):
        text = "3\n5\n10\n"
        assert serialize_stream(parse_stream(text)) == text

    def test_epoch_beyond_int64_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2: epoch seconds outside"):
            parse_stream("5\n99999999999999999999\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_stream(f"-{2**63 + 1}\n")

    def test_nineteen_digit_epoch_left_to_line_loop(self):
        # 19 digits can pass 2**63; the whole-buffer parse must not wrap them
        with pytest.raises(ParseError, match="line 2: epoch seconds outside"):
            parse_stream("5\n9999999999999999999\n")
        assert parse_stream("5\n1000000000000000000\n").times[-1] == 10**18

    def test_int64_extremes_accepted(self):
        stream = parse_stream(f"{2**63 - 1}\n{-(2**63)}\n")
        assert stream.times.tolist() == [-(2**63), 2**63 - 1]


def iso_line(year, month, day, hour, minute, second):
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}"


valid_iso = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: iso_line(d.year, d.month, d.day, d.hour, d.minute, d.second)
)
# ISO-shaped lines at and past the edges of each calendar field
edge_iso = st.builds(
    iso_line,
    st.sampled_from([0, 1, 1900, 2000, 2011, 2012, 9999]),
    st.sampled_from([0, 1, 2, 12, 13, 99]),
    st.sampled_from([0, 1, 28, 29, 30, 31, 32]),
    st.sampled_from([0, 23, 24]),
    st.sampled_from([0, 59, 60]),
    st.sampled_from([0, 59, 60, 61]),
)
fixed_epoch = st.integers(10**9, 10**10 - 1).map(str)
any_epoch = st.integers(0, 10**18 - 1).map(str)
odd_lines = st.sampled_from(
    [
        "", " ", "#c", "# 5", " 5", "5 ", "\t7", "+5", "-5", "007", "\u0663",
        "12\u0663", "1.5", "abc", "99999999999999999999", "9223372036854775808",
        "2011-07-01T00:00:00.5", "2011-07-01 00:00:00", "2011-07-01T00:00:00Z",
        "\u00a05", "5\x0c", "2011/07/01T00:00:00", "2011-07-01T00;00:00",
    ]
)
line_kinds = {
    "fixed": fixed_epoch,
    "epoch": any_epoch,
    "iso": st.one_of(valid_iso, valid_iso, edge_iso),
    "gaps": st.one_of(fixed_epoch, any_epoch, valid_iso, st.sampled_from(["", "#"])),
    "mixed": st.one_of(fixed_epoch, any_epoch, valid_iso, edge_iso, odd_lines),
}


def epochs_of_width(width):
    """Lines of exactly ``width`` digits, leading zeros and all nines too."""
    values = st.integers(0, 10**width - 1)
    edges = st.sampled_from([0, 1, 10**width - 1])
    return st.one_of(values, edges).map(lambda v: f"{v:0{width}d}")


line_lists = {kind: st.lists(lines, max_size=40) for kind, lines in line_kinds.items()}
# one digit count per log, so every line is a row of the same width
line_lists["width"] = st.integers(1, 18).flatmap(
    lambda width: st.lists(epochs_of_width(width), max_size=40)
)


@st.composite
def logs(draw):
    kind = draw(st.sampled_from(sorted(line_lists)))
    lines = draw(line_lists[kind])
    sep = draw(st.sampled_from(["\n"] * 5 + ["\r\n", "\r", "\x0b", "\x1c", "\u2028"]))
    end = sep if lines and draw(st.booleans()) else ""
    return sep.join(lines) + end


def parse_outcome(text):
    try:
        return parse_stream(text).times.tolist()
    except StreamAnalysisError as exc:
        return type(exc), str(exc)


class TestVectorizedParse:
    """The whole-buffer parse against the per-line loop it stands in for."""

    @settings(max_examples=400)
    @given(text=logs(), batch=st.sampled_from([20, 64, 1 << 20]))
    def test_same_times_or_same_error_as_line_loop(self, text, batch):
        with mock.patch.object(ingest, "_PARSE_BATCH_BYTES", batch):
            fast = parse_outcome(text)
            assert parse_outcome(text.encode("utf-8")) == fast
        with mock.patch.object(ingest, "_vectorized_times", lambda text: None):
            assert fast == parse_outcome(text)

    @pytest.mark.parametrize("width", [1, 2, 9, 10, 17, 18])
    @pytest.mark.parametrize("batch", [20, 64, 1 << 20])
    def test_fixed_width_kernel_reads_every_digit(self, monkeypatch, width, batch):
        monkeypatch.setattr(ingest, "_PARSE_BATCH_BYTES", batch)
        rng = np.random.default_rng(width)
        values = rng.integers(0, 10**width, 500, dtype=np.int64)
        values[:3] = 0, 1, 10**width - 1
        text = "".join(f"{v:0{width}d}\n" for v in values.tolist())
        assert ingest._vectorized_times(text).tolist() == values.tolist()
        assert ingest._vectorized_times(text.encode()).tolist() == values.tolist()

    @pytest.mark.parametrize(
        "line",
        [
            "2011-02-29T00:00:00", "2011-02-30T00:00:00", "0000-01-01T00:00:00",
            "2011-01-01T24:00:00", "2011-01-01T00:60:00", "2011-01-01T00:00:60",
            "2011-00-01T00:00:00", "2011-13-01T00:00:00", "2011-04-31T00:00:00",
        ],
    )
    def test_invalid_calendar_fields_fall_back_and_fail(self, line):
        text = "2012-02-29T23:59:59\n" + line + "\n"
        assert ingest._vectorized_times(text) is None
        with pytest.raises(ParseError, match="line 2: invalid calendar"):
            parse_stream(text)

    @pytest.mark.parametrize(
        "line", ["2011/07/01T00:00:00", "2011-07-01U00:00:00", "2011-07-01T00;00:00"]
    )
    def test_near_miss_separators_fall_back_and_fail(self, line):
        text = "2012-02-29T23:59:59\n" + line + "\n"
        assert ingest._vectorized_times(text) is None
        with pytest.raises(ParseError, match="line 2: expected integer epoch"):
            parse_stream(text)

    def test_calendar_edges_accepted(self):
        lines = ["0001-01-01T00:00:00", "2000-02-29T12:00:00", "9999-12-31T23:59:59"]
        fast = ingest._vectorized_times("\n".join(lines))
        expected = [
            int((datetime.fromisoformat(line) - datetime(1970, 1, 1)).total_seconds())
            for line in lines
        ]
        assert fast.tolist() == expected

    @pytest.mark.parametrize("batch", [64, 1 << 20])
    def test_fast_path_runs_on_benchmark_shaped_lines(self, monkeypatch, batch):
        def per_line(line, line_no):
            raise AssertionError(f"per-line parser ran on line {line_no}")

        monkeypatch.setattr(ingest, "_parse_line", per_line)
        monkeypatch.setattr(ingest, "_PARSE_BATCH_BYTES", batch)
        rng = np.random.default_rng(7)
        times = 1_325_376_000 + np.cumsum(rng.integers(0, 500, 3000))
        stamps = np.datetime_as_string(times.astype("datetime64[s]"), unit="s")
        epoch = "".join(f"{t}\n" for t in rng.permutation(times))
        iso = "".join(f"{s}\n" for s in stamps)
        shifted = "".join(f"{t}\n" for t in times - times[0])  # 1 to 7 digits
        for text in (epoch, iso, shifted, iso.rstrip("\n")):
            assert len(parse_stream(text).times) == times.size
        assert parse_stream(iso).times.tolist() == times.tolist()

        def no_fromstring(*args, **kwargs):
            raise AssertionError("np.fromstring ran on fixed-width lines")

        with monkeypatch.context() as patch:  # the kernel, not a quiet fallback
            patch.setattr(np, "fromstring", no_fromstring)
            assert parse_stream(epoch).times.tolist() == times.tolist()
            assert parse_stream(epoch.encode()).times.tolist() == times.tolist()
        fromstring = np.fromstring
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fromstring(*args, **kwargs)

        monkeypatch.setattr(np, "fromstring", counted)
        assert parse_stream(shifted).times.tolist() == (times - times[0]).tolist()
        assert len(calls) == 1


@pytest.mark.parametrize(
    "line",
    [
        "2011-07-01 00:00:00", "+011-07-01T00:00:00", "-011-07-01T00:00:00",
        "   2011-07-01T00:00", "2011-07-01T00:00+01", "2011-07-01T00:00.00",
    ],
)
def test_iso_width_lines_numpy_reads_fall_back_and_fail(line):
    # numpy's datetime64 parser reads each of these; the byte check must not
    text = "2012-02-29T23:59:59\n" + line + "\n"
    assert ingest._vectorized_times(text) is None
    with pytest.raises(ParseError, match="line 2: expected integer epoch"):
        parse_stream(text)


@pytest.mark.parametrize("form", ["epoch", "iso"])
def test_vectorized_parse_peak_memory(monkeypatch, form):
    """The fast path's peak: the output and O(batch) more, plus the byte
    copy of a str; bytes are parsed with no copy."""
    batch = 1 << 16
    monkeypatch.setattr(ingest, "_PARSE_BATCH_BYTES", batch)
    rng = np.random.default_rng(3)
    times = 1_325_376_000 + np.cumsum(rng.integers(0, 5, 200_000))
    lines = times
    if form == "iso":
        lines = np.datetime_as_string(times.astype("datetime64[s]"), unit="s")
    text = "".join(f"{line}\n" for line in lines)
    assert len(text) >= 8 * batch
    for log, copy in ((text, len(text)), (text.encode(), 0)):
        tracemalloc.start()
        try:
            parsed = ingest._vectorized_times(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tolist() == times.tolist()
        # the hand-rolled digit parse this replaced peaked at 4.6 (epoch) and
        # 7.1 (ISO) batches beyond the byte copy and the output
        assert peak <= copy + 8 * times.size + 8 * batch


def test_parse_stream_sorts_in_place(monkeypatch):
    """parse_stream's peak: the times and O(batch) more, as the parse alone;
    sorting a copy of the times would add 8 bytes a line."""
    batch = 1 << 12
    monkeypatch.setattr(ingest, "_PARSE_BATCH_BYTES", batch)
    times = 1_325_376_000 + np.random.default_rng(5).permutation(50_000)
    data = "".join(f"{t}\n" for t in times).encode()
    tracemalloc.start()
    try:
        stream = parse_stream(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.times.tolist() == sorted(times.tolist())
    assert peak <= 8 * times.size + 8 * batch


class TestEventStream:
    def test_rate(self):
        stream = EventStream(np.asarray([0, 5, 10]))
        assert stream.rate == pytest.approx(2 / 10)

    def test_rate_needs_two_events(self):
        with pytest.raises(InsufficientDataError):
            EventStream(np.asarray([3])).rate

    def test_rate_undefined_for_zero_span(self):
        with pytest.raises(InsufficientDataError):
            EventStream(np.asarray([3, 3, 3])).rate


class TestInterArrivals:
    def test_zeros_preserved(self):
        stream = EventStream(np.asarray([10, 10, 12]))
        assert inter_arrivals(stream).values.tolist() == [0, 2]

    def test_constant_gaps(self):
        stream = EventStream(np.asarray([0, 5, 10, 15]))
        assert inter_arrivals(stream).values.tolist() == [5, 5, 5]

    def test_single_event_rejected(self):
        with pytest.raises(InsufficientDataError):
            inter_arrivals(EventStream(np.asarray([1])))

    def test_span_beyond_int64_rejected(self):
        # every time fits int64, but the first gap would wrap in np.diff
        low = np.iinfo(np.int64).min
        stream = EventStream(np.asarray([low, *range(0, 18000, 3)]))
        assert stream.span == 17997 - low
        with pytest.raises(StreamAnalysisError, match=f"spans {17997 - low} seconds"):
            inter_arrivals(stream)

    def test_decreasing_times_rejected(self):
        stream = EventStream(np.asarray([0, 5, 4, 9]))
        with pytest.raises(InvalidConfigError, match="must not decrease"):
            inter_arrivals(stream)

    def test_decreasing_extreme_times_rejected(self):
        # np.diff wraps min - max to +1, so only the neighbours tell
        info = np.iinfo(np.int64)
        stream = EventStream(np.asarray([info.max, info.min]))
        assert np.diff(stream.times).tolist() == [1]
        with pytest.raises(InvalidConfigError, match="must not decrease"):
            inter_arrivals(stream)

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidConfigError, match="must not be negative"):
            InterArrivals([3, -1, 2])

    def test_span_of_int64_max_still_differenced(self):
        stream = EventStream(np.asarray([0, np.iinfo(np.int64).max]))
        assert inter_arrivals(stream).values.tolist() == [2**63 - 1]

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=100)
    )
    def test_telescoping_sum_and_shape(self, times):
        stream = EventStream(np.sort(np.asarray(times, dtype=np.int64)))
        arrivals = inter_arrivals(stream)
        assert arrivals.n == stream.m - 1
        assert np.all(arrivals.values >= 0)
        assert arrivals.total == stream.times[-1] - stream.times[0]


def downsample_loop(arrivals, group_min, group_max, seed):
    """The per-group loop that downsample replaced: one draw per group."""
    rng = np.random.default_rng(seed)
    values = arrivals.values
    out = []
    i = 0
    while i < values.size:
        g = int(rng.integers(group_min, group_max + 1))
        out.append(int(values[i : i + g].sum()))
        i += g
    return out


class TestSerializeStream:
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50))
    def test_same_text_as_per_element_format(self, times):
        stream = EventStream(np.asarray(times, dtype=np.int64))
        assert serialize_stream(stream) == "".join(f"{t}\n" for t in stream.times)


class TestDownsample:
    def test_forced_grouping(self):
        grouped = downsample(InterArrivals([1, 2, 3, 4]), 2, 2, seed=0)
        assert grouped.values.tolist() == [3, 7]

    def test_whole_sequence_as_one_group(self):
        grouped = downsample(InterArrivals([1, 2, 3]), 3, 3, seed=0)
        assert grouped.values.tolist() == [6]

    def test_unit_groups_are_identity(self):
        grouped = downsample(InterArrivals([4, 0, 7]), 1, 1, seed=5)
        assert grouped.values.tolist() == [4, 0, 7]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidConfigError):
            downsample(InterArrivals([1]), 0, 2, seed=0)
        with pytest.raises(InvalidConfigError):
            downsample(InterArrivals([1]), 3, 2, seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientDataError):
            downsample(InterArrivals([]), 1, 2, seed=0)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(InvalidConfigError, match=r"^seed must be >= 0, got -1$"):
            downsample(InterArrivals([1, 2]), 1, 2, seed=-1)

    def test_deterministic_under_seed(self):
        arrivals = InterArrivals(np.arange(40))
        a = downsample(arrivals, 1, 5, seed=9)
        b = downsample(arrivals, 1, 5, seed=9)
        assert a.values.tolist() == b.values.tolist()

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200
        ),
        lo=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sum_preserved_for_every_seed_and_range(self, values, lo, extra, seed):
        arrivals = InterArrivals(values)
        grouped = downsample(arrivals, lo, lo + extra, seed=seed)
        assert grouped.total == arrivals.total
        assert 1 <= grouped.n <= arrivals.n

    @settings(max_examples=300)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300
        ),
        lo=st.integers(min_value=1, max_value=12),
        extra=st.one_of(
            st.integers(min_value=0, max_value=12), st.sampled_from([2**32, 2**40])
        ),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    def test_same_groups_as_per_group_loop(self, values, lo, extra, seed):
        arrivals = InterArrivals(values)
        grouped = downsample(arrivals, lo, lo + extra, seed=seed)
        expected = downsample_loop(arrivals, lo, lo + extra, seed)
        assert grouped.values.tolist() == expected

    @pytest.mark.parametrize(
        "lo,hi", [(2, 4), (1, 1), (1, 1000), (3, 3), (1, 2**40), (1, 2**62)]
    )
    def test_same_groups_as_per_group_loop_on_long_input(self, lo, hi):
        arrivals = InterArrivals(np.random.default_rng(1).integers(0, 100, 20_000))
        grouped = downsample(arrivals, lo, hi, seed=11)
        assert grouped.values.tolist() == downsample_loop(arrivals, lo, hi, 11)

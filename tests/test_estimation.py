import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from renewalstream import estimation
from renewalstream.errors import (
    EmptyDensityError,
    InsufficientDataError,
    InvalidConfigError,
)
from renewalstream.estimation import (
    EstimationConfig,
    _autocorrelation,
    _bin_lags,
    _beyond_order_k,
    _lag_bins,
    _lag_histogram_fft,
    _pair_counts,
    _power_sum,
    RenewalDensityEstimate,
    convolution_grid_end,
    convolution_rd,
    empirical_grid_end,
    empirical_rd,
    estimate_stream,
    first_order_pdf,
    partial_sums,
)
from renewalstream.histogram import Density, bin_count
from renewalstream.ingest import EventStream, InterArrivals, inter_arrivals
from renewalstream.synth import gen_cluster, gen_poisson, inject_periodic
from test_histogram import build_histogram, float_first_order_pdf


def brute_force_partial_sums(values, k):
    """Sliding-window enumeration, one dict of order -> list of sums."""
    n = len(values)
    table = {j: [] for j in range(1, k + 1)}
    for start in range(n - k):
        acc = 0
        for j in range(1, k + 1):
            acc += values[start + j - 1]
            table[j].append(acc)
    return table


def order_counts_loop(table, bin_width, n_bins):
    """Reference counts: one float-binned histogram of the sums per order."""
    grid_end = n_bins * bin_width
    for j in range(1, table.k + 1):
        sums = table.order(j)
        idx = np.floor(sums / bin_width).astype(np.int64)
        in_range = (sums < grid_end) & (idx >= 0) & (idx < n_bins)
        yield np.bincount(idx[in_range], minlength=n_bins)


def empirical_rd_loop(table, bin_width, t_max):
    """Reference r(t): the per-order histograms, each over the windows, summed."""
    n_bins = bin_count(t_max, bin_width, origin=0.0)
    mass = np.zeros(n_bins)
    for counts in order_counts_loop(table, bin_width, n_bins):
        mass += counts / table.n_windows
    return mass / bin_width


def convolution_rd_loop(f1, k):
    """Reference r'(t): the k - 1 successive truncated convolutions."""
    n_bins = f1.n_bins
    term = f1.values.copy()
    total = term.copy()
    for _ in range(2, k + 1):
        term = np.maximum(fftconvolve(term, f1.values)[:n_bins], 0.0)
        total += term
    return total / f1.bin_width


def doubling(f, k, convolve):
    """f + f^2 + ... + f^k by binary doubling, each truncated product
    convolve(a, b) and each term clipped at 0 as it joins the sum."""
    total, power = f.copy(), f.copy()
    bits = bin(k)[3:]
    for i, bit in enumerate(bits):
        total = total + np.maximum(convolve(power, total), 0.0)
        if bit == "1" or i < len(bits) - 1:
            power = convolve(power, power)
        if bit == "1":
            power = convolve(power, f)
            total = total + np.maximum(power, 0.0)
    return total


def power_sum_per_product(f, k):
    """Reference power sum: the same doubling, with both operands of every
    product transformed anew (one truncated convolution per product)."""

    def convolve(a, b):
        size = 1 << (a.size + b.size - 2).bit_length()
        out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
        return out[: f.size]

    return doubling(f, k, convolve)


def power_sum_direct(f, k):
    """Reference power sum: the same doubling by np.convolve, O(N^2) per
    product and no transforms."""
    return doubling(f, k, lambda a, b: np.convolve(a, b)[: f.size])


def offsets(gaps):
    return np.concatenate([[0], np.cumsum(gaps, dtype=np.int64)])


def pairs_brute_force(t, lmax):
    """Pairs a < b of the events at times t per lag t[b] - t[a] < lmax."""
    lags = (t[None, :] - t[:, None])[np.triu_indices(t.size, 1)]
    return np.bincount(lags[lags < lmax], minlength=lmax)


def tail_pairs_chunked(t, k, lmax):
    """Pairs that start in the last k events per lag below lmax, one lag
    vector per order."""
    tail = t[t.size - 1 - k :]
    return _bin_lags((tail[j:] - tail[:-j] for j in range(1, k + 1)), 1, lmax)


def lags_direct(t, k, lmax):
    """Direct-path pair counts per second below lmax."""
    w = t.size - 1 - k
    return _bin_lags((t[j : j + w] - t[:w] for j in range(1, k + 1)), 1, lmax)


def lags_fft(t, k, lmax):
    """FFT-path pair counts per second below lmax."""
    return _lag_histogram_fft(t, k, lmax, *_beyond_order_k(t, k, lmax))


def fft_ran(t, k, lmax):
    return _pair_counts(t, k, 1.0, lmax)[1]


def sparse_detect_stream(m, seed):
    """The detection regime: 240 s gaps and three trains of 12,000 s period."""
    stream = gen_poisson(240.0, m, seed=seed)
    span = stream.times[-1] - stream.times[0]
    for i in range(3):
        stream, _ = inject_periodic(
            stream, 12_000.0, count=int(span // 12_000), seed=10 + i
        )
    return stream


def refilled(chunks):
    """The chunks, each written into one array that the next overwrites."""
    buf = np.empty(max(c.size for c in chunks), dtype=np.int64)
    for c in chunks:
        view = buf[: c.size]
        view[:] = c
        yield view


@pytest.fixture(scope="module")
def sparse_grid():
    """Table and 1 s grid of a 20,000-event sparse stream at k = 150."""
    table = partial_sums(inter_arrivals(sparse_detect_stream(20_000, 1)), 150)
    return table, bin_count(empirical_grid_end(table, 1.0), 1.0, origin=0.0)


class TestPartialSums:
    def test_hand_traced_example(self):
        table = partial_sums(InterArrivals([1, 2, 3, 4]), 2)
        assert table.order(1).tolist() == [1, 2]
        assert table.order(2).tolist() == [3, 5]
        assert table.order(2).dtype == np.int64

    def test_constant_sequence(self):
        table = partial_sums(InterArrivals([3] * 10), 4)
        for j in range(1, 5):
            assert np.all(table.order(j) == 3 * j)

    def test_order_k_equal_n_rejected(self):
        with pytest.raises(InsufficientDataError):
            partial_sums(InterArrivals([1, 2, 3]), 3)

    def test_order_above_n_rejected(self):
        with pytest.raises(InsufficientDataError):
            partial_sums(InterArrivals([1, 2]), 5)

    def test_order_zero_rejected(self):
        with pytest.raises(InvalidConfigError):
            partial_sums(InterArrivals([1, 2]), 0)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, min(n, 11)))
            values = rng.integers(0, 20, n)
            table = partial_sums(InterArrivals(values), k)
            expected = brute_force_partial_sums(values.tolist(), k)
            assert table.n_windows == n - k
            for j in range(1, k + 1):
                assert table.order(j).tolist() == expected[j]

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=100), min_size=2, max_size=60
        ),
        k=st.integers(min_value=1, max_value=59),
    )
    def test_window_count_and_monotone_orders(self, values, k):
        if k >= len(values):
            return
        table = partial_sums(InterArrivals(values), k)
        prev = None
        for j in range(1, k + 1):
            sums = table.order(j)
            assert sums.size == len(values) - k
            if prev is not None:
                assert np.all(sums >= prev)
                assert min(sums) >= min(prev)
            prev = sums


class TestEmpiricalRd:
    def test_deterministic_gaps_spike_at_multiples(self):
        table = partial_sums(InterArrivals([4] * 50), 3)
        est = empirical_rd(table, 1.0, 16.0)
        expected = np.zeros(16)
        expected[[4, 8, 12]] = 1.0
        assert est.values.tolist() == expected.tolist()

    def test_single_order_matches_first_order_histogram(self):
        values = np.asarray([0, 2, 2, 5, 1, 3, 2, 0, 4, 2])
        table = partial_sums(InterArrivals(values), 1)
        est = empirical_rd(table, 1.0, 6.0)
        # order 1 holds one realization per window, i.e. all but the last gap
        window_values = values[:-1]
        expected = np.asarray(
            [np.sum(window_values == t) for t in range(6)]
        ) / window_values.size
        assert est.values == pytest.approx(expected / 1.0)

    def test_partial_coverage_orders_stay_true_to_scale(self):
        # order 2 lies mostly beyond the grid; its in-range contribution must
        # stay a tail probability, not get inflated to unit mass
        values = [10, 10, 10, 10, 0, 10, 10, 10, 10, 10]
        table = partial_sums(InterArrivals(values), 2)
        est = empirical_rd(table, 1.0, 15.0)
        mass = est.values * est.bin_width
        # windows: 8; order-2 sums: 20 except two 10s around the zero gap
        assert mass[10] == pytest.approx((7 + 2) / 8)

    def test_invalid_grid(self):
        table = partial_sums(InterArrivals([1, 2, 3]), 1)
        with pytest.raises(InvalidConfigError):
            empirical_rd(table, 0.0, 5.0)

    def test_lag_range_beyond_budget_is_counted_directly(self):
        # wide bins keep the grid small, but the lags span 2e7 seconds: more
        # than a 1 s histogram may hold, so the direct path bins them
        gaps = [10_000_000, 3, 10_000_000, 0, 10_000_000, 7] * 40
        table = partial_sums(InterArrivals(gaps), 3)
        assert not fft_ran(table.offsets, 3, 20_000_002)
        est = empirical_rd(table, 1e6, 2e7 + 1.0)
        expected = empirical_rd_loop(table, 1e6, 2e7 + 1.0)
        assert expected.max() > 0
        assert np.max(np.abs(est.values - expected)) <= 1e-12 * expected.max()

    @pytest.mark.parametrize("width", [2.0**63, 1e300])
    def test_integral_width_beyond_int64_bins_in_floats(self, width):
        table = partial_sums(InterArrivals([3, 0, 5, 2, 4, 1]), 2)
        est = empirical_rd(table, width, width)
        assert est.values.tolist() == [2.0 / width]

    # about 2 pair lags per second of span at k = 5 and 17 at k = 40
    @pytest.mark.parametrize("k, fft", [(5, False), (40, True)])
    @pytest.mark.parametrize("width", [1.0, 3.0, 0.7, 2.5])
    def test_matches_per_order_loop(self, width, k, fft):
        rng = np.random.default_rng(int(width * 10))
        gaps = rng.geometric(0.3, 3000) - 1  # 30% of the gaps are 0
        table = partial_sums(InterArrivals(gaps), k)
        t_max = empirical_grid_end(table, width)
        n_bins = bin_count(t_max, width, origin=0.0)
        assert _pair_counts(table.offsets, k, width, n_bins)[1] == fft
        est = empirical_rd(table, width, t_max)
        expected = empirical_rd_loop(table, width, t_max)
        assert np.max(np.abs(est.values - expected)) <= 1e-12 * expected.max()

    def test_sparse_regime_counts_match_per_order_loop(self, sparse_grid):
        table, n_bins = sparse_grid
        counts, fft = _pair_counts(table.offsets, table.k, 1.0, n_bins)
        assert not fft
        # the low orders lie wholly on the grid and the high ones run past
        # its end, so both kinds of order are counted
        tops = [table.order(j).max() for j in range(1, table.k + 1)]
        assert min(tops) < n_bins <= max(tops)
        assert np.array_equal(counts, sum(order_counts_loop(table, 1.0, n_bins)))


gap_lists = st.lists(
    st.one_of(
        st.just(0),  # runs of same-second events
        st.integers(min_value=0, max_value=3),  # bursts
        st.integers(min_value=0, max_value=400),
    ),
    min_size=2,
    max_size=150,
)


class TestLagHistograms:
    @given(gaps=gap_lists, k_frac=st.floats(0, 1), lmax_frac=st.floats(0, 1.5))
    def test_fft_equals_direct(self, gaps, k_frac, lmax_frac):
        t = offsets(gaps)
        k = 1 + int(k_frac * (len(gaps) - 2))  # up to n - 1
        lmax = 1 + int(lmax_frac * (t[-1] + 10))  # up to past the span
        assert np.array_equal(lags_direct(t, k, lmax), lags_fft(t, k, lmax))

    def test_fft_equals_direct_across_batches(self, monkeypatch):
        import renewalstream.estimation as estimation

        monkeypatch.setattr(estimation, "_FFT_BATCH_POINTS", 256)
        monkeypatch.setattr(estimation, "_BINCOUNT_CHUNK", 64)
        rng = np.random.default_rng(5)
        gaps = np.where(rng.random(4000) < 0.2, 0, rng.integers(1, 5, 4000))
        t = offsets(gaps)
        for k, lmax in [(1, 7), (30, 60), (200, 300), (3999, 12000)]:
            assert np.array_equal(lags_direct(t, k, lmax), lags_fft(t, k, lmax))

    def test_brute_force_pairs(self):
        t = offsets([0, 0, 2, 1, 0, 5, 1])
        k, lmax = 3, 6
        expected = np.zeros(lmax, dtype=np.int64)
        w = t.size - 1 - k
        for a in range(w):
            for b in range(a + 1, a + k + 1):
                if t[b] - t[a] < lmax:
                    expected[t[b] - t[a]] += 1
        assert np.array_equal(lags_direct(t, k, lmax), expected)
        assert np.array_equal(lags_fft(t, k, lmax), expected)

    # B is lmax - 1 rounded up to a power of two: at 2, 3, 5, 9, 17 and 1025
    # the top lag reaches exactly one block on, at 1026 B doubles
    @pytest.mark.parametrize("lmax", [1, 2, 3, 5, 9, 17, 1025, 1026])
    @pytest.mark.parametrize("batch", [64, 256, None])
    @pytest.mark.parametrize("end", [4095, 4096, 4097])
    def test_autocorrelation_matches_brute_force(self, monkeypatch, lmax, batch, end):
        # a span of several blocks and batches (both powers of two, so the
        # last event lies on a block edge, just before or just after one),
        # 30% same-second gaps and one burst of 40 events in one second
        if batch is not None:
            monkeypatch.setattr(estimation, "_FFT_BATCH_POINTS", batch)
        rng = np.random.default_rng(lmax)
        gaps = np.where(rng.random(1200) < 0.3, 0, rng.integers(1, 7, 1200))
        gaps[600:640] = 0
        t = offsets(gaps)
        t = t[t < end]
        t = np.append(t, end)
        assert np.array_equal(_autocorrelation(t, lmax), pairs_brute_force(t, lmax))

    @pytest.mark.parametrize("k", [1, 2, 30, 499])
    @pytest.mark.parametrize("lmax", [1, 7, 60, 3000])
    def test_tail_term_is_autocorrelation_of_last_events(self, k, lmax):
        rng = np.random.default_rng(k)
        t = offsets(np.where(rng.random(500) < 0.2, 0, rng.integers(1, 9, 500)))
        tail = t[t.size - 1 - k :]
        expected = tail_pairs_chunked(t, k, lmax)
        assert np.array_equal(_autocorrelation(tail - tail[0], lmax), expected)

    @pytest.mark.parametrize(
        "name, expected",
        [("sparse-detect", "direct"), ("large", "fft"), ("bursty-iso", "fft")],
    )
    def test_path_selection_on_benchmark_regimes(self, name, expected):
        # the benchmark workloads at 1e5 events: the pair lags per second,
        # k * n_windows / span, do not depend on the event count
        if name == "sparse-detect":
            stream, k = sparse_detect_stream(100_000, 1), 150
        elif name == "large":
            stream, k = gen_poisson(2.0, 100_000, seed=1), 1000
        else:
            stream, k = gen_cluster(10.0, 3.0, 1.0, 100_000, seed=1), 1000
        table = partial_sums(inter_arrivals(stream), k)
        lmax = int(np.ceil(empirical_grid_end(table, 1.0)))
        assert fft_ran(table.offsets, k, lmax) == (expected == "fft")

    def test_lag_histogram_beyond_budget_takes_direct_path(self, monkeypatch):
        import renewalstream.estimation as estimation

        t = offsets(np.ones(3500, dtype=np.int64))
        assert fft_ran(t, 20, 20)
        monkeypatch.setattr(estimation, "MAX_GRID_BINS", 10)
        assert fft_ran(t, 20, 10)
        assert not fft_ran(t, 20, 20)

    def test_long_same_second_burst_takes_direct_path(self):
        # 3000 events in one second, k = 20: the pairs of order above k that
        # the FFT path would subtract outnumber the direct path's pairs
        burst = np.concatenate([np.zeros(3000, dtype=np.int64), np.ones(500)])
        assert not fft_ran(offsets(burst), 20, 5)
        steady = np.ones(3500, dtype=np.int64)
        assert fft_ran(offsets(steady), 20, 5)

    @pytest.mark.parametrize("width", [1.0, 3.0, 0.7, 2.5])
    @pytest.mark.parametrize("n_bins", [5, 500])
    def test_bin_lags_counts_do_not_depend_on_chunk_size(
        self, monkeypatch, width, n_bins
    ):
        rng = np.random.default_rng(3)
        t = offsets(np.where(rng.random(3000) < 0.2, 0, rng.integers(1, 40, 3000)))
        k = 60
        w = t.size - 1 - k
        lags = [t[j : j + w] - t[:w] for j in range(1, k + 1)]
        idx = np.floor(np.concatenate(lags) / width).astype(np.int64)
        expected = np.bincount(idx[idx < n_bins], minlength=n_bins)
        for chunk in (1, 7, 4096, 1 << 18):
            monkeypatch.setattr(estimation, "_BINCOUNT_CHUNK", chunk)
            assert np.array_equal(_bin_lags(iter(lags), width, n_bins), expected)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
    @pytest.mark.parametrize("width", [1.0, 3.0, 0.7, 2.5])
    @pytest.mark.parametrize("n_bins", [5, 500])
    def test_bin_lags_match_one_bincount(self, monkeypatch, n_bins, width, chunk):
        monkeypatch.setattr(estimation, "_BINCOUNT_CHUNK", chunk)
        rng = np.random.default_rng(n_bins)
        top = int(np.ceil(n_bins * width))  # the lowest integer lag off the grid
        chunks = [np.empty(0, dtype=np.int64)]
        for size in (3, n_bins - 1, n_bins, 2 * n_bins + 5):
            chunks += [
                np.append(rng.integers(0, top, size - 1), top - 1),  # on the grid
                np.append(rng.integers(0, 3 * top, size - 1), top),  # both
                rng.integers(top, 3 * top, size),  # wholly past the end
            ]
        chunks = [chunks[i] for i in rng.permutation(len(chunks))]
        lags = np.concatenate(chunks)
        idx = np.floor(lags / width).astype(np.int64)
        keep = (lags < n_bins * width) & (idx < n_bins)
        expected = np.bincount(idx[keep], minlength=n_bins)
        assert np.array_equal(_bin_lags(iter(chunks), width, n_bins), expected)
        assert np.array_equal(_bin_lags(refilled(chunks), width, n_bins), expected)
        # as the FFT path rebins its 1 s histogram: the distinct lags are
        # sorted, so the kept ones are a prefix, weighted by their counts
        per_second = np.bincount(lags)
        distinct = np.flatnonzero(per_second)
        idx = _lag_bins(distinct, width, n_bins)
        assert np.array_equal(idx, np.floor(distinct[: idx.size] / width))
        assert not keep[np.isin(lags, distinct[idx.size :])].any()
        weights = per_second[distinct[: idx.size]]
        assert np.array_equal(np.bincount(idx, weights, n_bins), expected)

    def test_direct_path_peak_memory(self, sparse_grid):
        # the counts and one bincount of the grid, the index buffer, two lag
        # vectors and one mask over them: a copy of the lags more, or a list
        # of them, breaks the bound
        table, n_bins = sparse_grid
        w = table.n_windows
        pending = max(n_bins, estimation._BINCOUNT_CHUNK)
        bound = 8 * (2 * n_bins + pending + 2 * w) + w
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert not _pair_counts(table.offsets, table.k, 1.0, n_bins)[1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_fft_path_peak_memory_does_not_grow_with_span(self):
        # the same n, k and lmax with a quiet gap of 1e6 s inserted: the
        # span (already a few batches) grows 12 times, and a count series
        # held whole would add 8 MB; batches keep the peak where it was
        gaps = np.random.default_rng(9).integers(0, 10, 20_000)
        k, lmax = 1000, 500
        peaks = []
        for quiet in (0, 1_000_000):
            t = offsets(np.concatenate([gaps[:10_000], [quiet], gaps[10_000:]]))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert _pair_counts(t, k, 1.0, lmax)[1]
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 65_536


class TestFirstOrderPdf:
    def test_masses(self):
        density = first_order_pdf(InterArrivals([0, 0, 2]), 1.0, 3.0)
        assert density.values == pytest.approx([2 / 3, 0.0, 1 / 3])

    def test_boundary_goes_right(self):
        density = first_order_pdf(InterArrivals([1]), 1.0, 3.0)
        assert density.values.tolist() == [0.0, 1.0, 0.0]

    def test_off_grid_gaps_keep_their_share(self):
        density = first_order_pdf(InterArrivals([0, 3, 5, 1]), 1.0, 3.0)
        assert density.values.tolist() == [0.25, 0.25, 0.0]

    def test_all_out_of_range_rejected(self):
        with pytest.raises(EmptyDensityError):
            first_order_pdf(InterArrivals([5, 7]), 1.0, 3.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_grid_end_must_be_positive(self, t_max):
        with pytest.raises(InvalidConfigError, match="t_max must be positive"):
            first_order_pdf(InterArrivals([1, 2]), 1.0, t_max)

    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
    def test_bad_width_rejected(self, width):
        with pytest.raises(InvalidConfigError, match="bin width"):
            first_order_pdf(InterArrivals([1, 2]), width, 3.0)

    @pytest.mark.parametrize("width", [1.0, 2.0, 3.0, 0.7, 2.5, 1 / 3])
    def test_bit_identical_to_float_histogram(self, width):
        # grid ends of whole bins, as every pipeline caller passes
        rng = np.random.default_rng(int(width * 30))
        for _ in range(300):
            gaps = rng.integers(0, int(rng.integers(1, 60)), int(rng.integers(1, 80)))
            n_bins = int(rng.integers(1, 40))
            t_max = n_bins * width
            try:
                expected = float_first_order_pdf(gaps, width, t_max)
            except EmptyDensityError:
                with pytest.raises(EmptyDensityError):
                    first_order_pdf(InterArrivals(gaps), width, t_max)
                continue
            got = first_order_pdf(InterArrivals(gaps), width, t_max)
            assert got.values.tolist() == expected.tolist()

    def test_partial_last_bin_covers_whole_bin(self):
        # an end of 1.0 s at width 0.7 gives 2 bins, [0, 0.7) and [0.7, 1.4):
        # the gap of 1 s lands in bin 1, where the float histogram it
        # replaced cut the grid at 1.0 and counted the gap off the grid
        gaps = [0, 1]
        assert float_first_order_pdf(gaps, 0.7, 1.0).tolist() == [0.5, 0.0]
        density = first_order_pdf(InterArrivals(gaps), 0.7, 1.0)
        assert density.values.tolist() == [0.5, 0.5]

    @given(
        values=st.lists(st.integers(0, 50), min_size=1, max_size=60),
        width=st.sampled_from([1.0, 3.0, 0.7, 2.5]),
        n_bins=st.integers(1, 30),
    )
    def test_conservation(self, values, width, n_bins):
        on = sum(v < n_bins * width and int(v / width) < n_bins for v in values)
        if on == 0:
            return
        density = first_order_pdf(InterArrivals(values), width, n_bins * width)
        assert density.n_bins == n_bins
        assert density.values.sum() * len(values) == pytest.approx(on)

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=50
        )
    )
    def test_masses_sum_to_one(self, values):
        density = first_order_pdf(InterArrivals(values), 1.0, 10.0)
        assert density.values.sum() == pytest.approx(1.0)


def long_grid_convolution(arrivals, k, width):
    """r'(t) on a grid that reaches past the largest gap, with f1 normalized
    by the gaps on the grid: every gap, so no gap's share depends on where
    the grid ends."""
    end = max(1.5 * k * arrivals.mean, float(arrivals.values.max()) + width)
    n_bins = max(1, int(np.ceil(end / width)))
    idx = np.floor(arrivals.values / width).astype(np.int64)
    counts = np.bincount(idx, minlength=n_bins)
    expected, overflow = build_histogram(arrivals.values, width, n_bins * width)
    assert counts.tolist() == expected.tolist() and overflow == 0
    return convolution_rd(Density(width, counts / arrivals.n), k)


def one_long_gap_stream():
    times = gen_poisson(10_000.0, 300, seed=3).times.astype(np.int64)
    times[150:] += 20_000_000
    return EventStream(times)


SHORT_GRID_STREAMS = {
    "poisson": lambda: gen_poisson(10.0, 3000, seed=5),
    "cluster": lambda: gen_cluster(10.0, 3.0, 1.0, 3000, seed=6),
    "one_long_gap": one_long_gap_stream,
}


DOUBLING_BINS = [300, 4996]  # rfft sizes 1,024 and 16,384
DOUBLING_ORDERS = [1, 2, 3, 7, 64, 1000]


def decaying_f1(n_bins):
    """A geometric first-order density with 5% of its mass at lag 0."""
    lattice = np.arange(n_bins)
    values = np.exp(-lattice / (0.1 * n_bins))
    values[0] = 0.05 * values.sum()  # same-second gaps: mass at lag 0
    return Density(2.0, values / values.sum())


class TestConvolutionRd:
    @pytest.mark.parametrize(
        "name, k, width",
        [
            ("poisson", 2, 1.0),
            ("poisson", 3, 0.01),
            ("cluster", 2, 1.0),
            ("cluster", 5, 0.01),
            ("one_long_gap", 2, 10_000.0),
            ("one_long_gap", 5, 100.0),
        ],
    )
    def test_short_grid_is_start_of_long_grid(self, name, k, width):
        # the largest gap lies past the short grid, so f1 is a share of all
        # gaps there and r'(t) is the in-grid part of the long-grid estimate
        arrivals = inter_arrivals(SHORT_GRID_STREAMS[name]())
        end = convolution_grid_end(arrivals, k, width)
        short = convolution_rd(first_order_pdf(arrivals, width, end), k)
        long = long_grid_convolution(arrivals, k, width)
        assert short.n_bins < long.n_bins
        assert short.n_bins == np.ceil(1.5 * k * arrivals.mean / width)
        head = long.values[: short.n_bins]
        assert np.max(np.abs(short.values - head)) <= 1e-12 * long.values.max()

    def test_delta_spikes_at_multiples(self):
        f1 = Density(1.0, np.zeros(16))
        f1.values[4] = 1.0
        est = convolution_rd(f1, 3)
        expected = np.zeros(16)
        expected[[4, 8, 12]] = 1.0
        assert est.values.tolist() == expected.tolist()

    @pytest.mark.parametrize("n_bins", DOUBLING_BINS)
    @pytest.mark.parametrize("k", DOUBLING_ORDERS)
    def test_doubling_matches_successive_convolutions(self, n_bins, k):
        f1 = decaying_f1(n_bins)
        est = convolution_rd(f1, k)
        expected = convolution_rd_loop(f1, k)
        assert np.max(np.abs(est.values - expected)) <= 1e-12 * expected.max()

    @pytest.mark.parametrize("n_bins", DOUBLING_BINS)
    @pytest.mark.parametrize("k", DOUBLING_ORDERS)
    def test_power_sum_bit_identical_to_one_call_per_product(self, n_bins, k):
        # each operand transformed once per step gives the same bits as
        # every product transforming both of its operands
        f = decaying_f1(n_bins).values
        assert _power_sum(f, k).tolist() == power_sum_per_product(f, k).tolist()

    @pytest.mark.parametrize(
        "n_bins, k", [(300, k) for k in DOUBLING_ORDERS] + [(2967, 1000)]
    )
    def test_power_sum_matches_direct_doubling(self, n_bins, k):
        # 2,967 bins at k = 1000 is the r'(t) grid of the large benchmark
        f = decaying_f1(n_bins).values
        expected = power_sum_direct(f, k)
        assert np.max(np.abs(_power_sum(f, k) - expected)) <= 1e-12 * expected.max()

    def test_power_sum_round_off_adds_no_mass(self):
        # the large benchmark's f1: 1 s bins, mean gap 2 s, about 20 non-empty
        # bins. E sums r(t) - r'(t), so a bias in r'(t) grows along the grid;
        # clipping every power at 0 would put 2.8e-10 of the maximum here
        arrivals = inter_arrivals(gen_poisson(2.0, 10_000, seed=1))
        end = convolution_grid_end(arrivals, 1000, 1.0)
        f = first_order_pdf(arrivals, 1.0, end).values
        expected = power_sum_direct(f, 1000)
        drift = np.cumsum(_power_sum(f, 1000) - expected)
        assert np.max(np.abs(drift)) <= 1e-10 * expected.max()

    def test_single_order_is_f1_over_width(self):
        f1 = Density(0.5, [0.2, 0.3, 0.5])
        est = convolution_rd(f1, 1)
        assert est.values == pytest.approx(f1.values / 0.5)

    def test_invalid_order(self):
        with pytest.raises(InvalidConfigError):
            convolution_rd(Density(1.0, [1.0]), 0)

    def test_matches_monte_carlo_partial_sum_oracle(self):
        # oracle: sample gaps from the discretized first-order law, sum them
        # directly into partial sums of orders 1..k, and histogram; the
        # convolution route must agree within 3 empirical standard errors
        rng = np.random.default_rng(11)
        samples = rng.exponential(1.0, 100_000)
        width = 0.1
        k = 50
        f1 = Density(width, float_first_order_pdf(samples, width, t_max=80.0))
        est = convolution_rd(f1, k)
        expected_mass = est.values * width  # sum over orders of P(S_n = bin)

        n_paths = 200_000
        chunk_size = 5_000
        oracle_rng = np.random.default_rng(28)
        hits = np.zeros(f1.n_bins)
        hits_sq = np.zeros(f1.n_bins)
        for _ in range(n_paths // chunk_size):
            draws = oracle_rng.choice(f1.n_bins, size=(chunk_size, k), p=f1.values)
            path_sums = np.cumsum(draws, axis=1)  # lattice index partial sums
            rows, cols = np.nonzero(path_sums < f1.n_bins)
            counts = np.zeros((chunk_size, f1.n_bins))
            np.add.at(counts, (rows, path_sums[rows, cols]), 1.0)
            hits += counts.sum(axis=0)
            hits_sq += (counts**2).sum(axis=0)
        mean = hits / n_paths
        var = hits_sq / n_paths - mean**2
        se_empirical = np.sqrt(np.maximum(var, 0.0) / n_paths)
        # near-empty bins can get zero empirical spread; fall back to the
        # Poisson standard error implied by the expected mass itself
        se_model = np.sqrt(expected_mass / n_paths)
        se = np.maximum(se_empirical, se_model)
        assert np.all(np.abs(expected_mass - mean) <= 3.0 * se + 1e-9)


class TestEstimateStream:
    def test_shared_width_and_grid_intersection(self):
        stream = gen_poisson(2.0, 20_000, seed=5)
        emp, conv = estimate_stream(stream, EstimationConfig(k=50))
        assert emp.bin_width == conv.bin_width
        assert emp.kind == "empirical"
        assert conv.kind == "convolution"
        assert emp.k == conv.k == 50

    def test_grid_end_stays_within_covered_range(self):
        stream = gen_poisson(2.0, 20_000, seed=6)
        from renewalstream.ingest import inter_arrivals

        arrivals = inter_arrivals(stream)
        table = partial_sums(arrivals, 50)
        end = empirical_grid_end(table, 1.0)
        top = table.order(50)
        assert end <= np.quantile(top, 0.011)
        assert end >= 1.0

    @pytest.mark.parametrize("width", [1.0, 3.0, 0.7, 13.37])
    def test_grid_end_equals_float_copy_quantile(self, width):
        # the quantile of the int64 sums gives the float-copy quantile's end
        rng = np.random.default_rng(int(width * 100))
        for _ in range(200):
            n = int(rng.integers(2, 300))
            k = int(rng.integers(1, n))
            scale = 10 ** int(rng.integers(1, 12))  # gaps up to 1e11 s
            gaps = rng.integers(0, scale, n)
            table = partial_sums(InterArrivals(gaps), k)
            top = table.order(k).astype(np.float64)
            end = float(np.quantile(top, estimation.DEFAULT_GRID_QUANTILE))
            expected = float(max(1.0, np.floor(end / width)) * width)
            assert empirical_grid_end(table, width) == expected

    def test_one_very_long_gap_still_estimated(self):
        # a 2e7 s gap: width 1 s would need more than MAX_GRID_BINS bins to
        # cover it, so the width search skips that candidate
        stream = one_long_gap_stream()
        emp, conv = estimate_stream(stream)
        assert emp.bin_width > 1.0
        # the convolution grid ends at 1.5 k mean gaps; the 2e7 s gap is
        # off it and counts as overflow, so f1 holds the other gaps' share
        arrivals = inter_arrivals(stream)
        width = conv.bin_width
        assert conv.n_bins == np.ceil(1.5 * conv.k * arrivals.mean / width)
        f1 = first_order_pdf(arrivals, width, conv.t_max)
        n = arrivals.n
        assert f1.values.sum() == pytest.approx((n - 1) / n, rel=1e-12)
        assert np.all(np.isfinite(emp.values)) and emp.values.max() > 0
        assert np.all(np.isfinite(conv.values)) and conv.values.max() > 0

    @pytest.mark.parametrize("fault", ["swapped", "negative"])
    def test_decreasing_times_rejected(self, fault):
        times = gen_poisson(2.0, 20_000, seed=4).times.copy()
        if fault == "swapped":
            times[[9_000, 9_001]] = times[[9_001, 9_000]]
            assert times[9_000] != times[9_001]
        else:
            times[10_000] = -10
        with pytest.raises(InvalidConfigError, match="must not decrease"):
            estimate_stream(EventStream(times))

    def test_too_large_order_rejected(self):
        stream = gen_poisson(2.0, 30, seed=1)
        with pytest.raises(InsufficientDataError):
            estimate_stream(stream, EstimationConfig(k=29))

    def test_convolution_skipped_when_not_asked(self, monkeypatch):
        stream = gen_poisson(2.0, 5_000, seed=8)
        config = EstimationConfig(k=40)
        emp, _ = estimate_stream(stream, config)

        def unused(*args, **kwargs):
            raise AssertionError("convolution estimate built")

        monkeypatch.setattr(estimation, "first_order_pdf", unused)
        monkeypatch.setattr(estimation, "convolution_rd", unused)
        alone, conv = estimate_stream(stream, config, convolution=False)
        assert conv is None
        assert alone.values.tolist() == emp.values.tolist()


def test_estimate_csv_layout():
    est = RenewalDensityEstimate(0.5, [0.25, 2.0, 1e-20], k=3, kind="empirical")
    assert est.to_csv() == "t,value\n0.0,0.25\n0.5,2.0\n1.0,1e-20\n"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy is a test-only dependency: the CLI must load none of it. Nor
    # may it load a numpy module that `import numpy` does not, such as
    # numpy.fft, which the FFT paths load when they first run
    code = (
        "import sys, numpy; before = set(sys.modules); import renewalstream.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]

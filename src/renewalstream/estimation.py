"""Renewal-density estimation.

Two estimators of the arrival intensity at lag t are provided:

* the empirical estimate, built by histogramming sliding-window partial sums
  of each order up to k and summing the per-order densities, and
* the convolution estimate, built by repeatedly convolving the first-order
  inter-arrival density with itself, which by construction sees only
  first-order (memoryless) structure.

Both are expressed as per-second densities so a memoryless stream with mean
gap g reads flat at 1/g, and both use one shared bin width so their
difference is bin-aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidConfigError
from .histogram import (
    Density,
    bin_count,
    bins_to_csv,
    build_histogram,
    MAX_GRID_BINS,
    check_bin_width,
    normalize,
    optimal_bin_width,
)
from .ingest import EventStream, InterArrivals, inter_arrivals

DEFAULT_MAX_ORDER = 1000
DEFAULT_ORDER_FRACTION = 10
DEFAULT_GRID_QUANTILE = 0.01
DEFAULT_CONV_SPAN_FACTOR = 1.5

# The FFT path of r(t) costs O(span log lmax) and the direct path
# O(k * n_windows); the measured crossover is about 15 pair lags per second
# of span.
FFT_MIN_LAGS_PER_SECOND = 15
# Points per FFT batch of the count series: bounds the FFT path's memory.
_FFT_BATCH_POINTS = 1 << 16
# Bin indices gathered before one bincount (more when the grid has more
# bins). Only chunks of fewer indices than the grid has bins are gathered;
# a larger chunk is counted as it is. Filling one 2 MB buffer, rather than
# listing the indices and concatenating them, keeps the direct path's peak
# memory and its allocations small.
_BINCOUNT_CHUNK = 1 << 18


class PartialSumTable:
    """Sliding-window partial sums of orders 1..k.

    For n inter-arrivals and maximum order k < n there are n - k windows;
    window i contributes one realization of each order j, namely
    values[i] + ... + values[i + j - 1]. Realizations are derived on demand
    from the integer event offsets, so large tables stay cheap.
    """

    def __init__(self, values: np.ndarray, k: int, source_rate: float | None):
        self.k = int(k)
        self.n_windows = int(values.size - k)
        self.source_rate = source_rate
        # seconds from the first event to each event; every partial sum is
        # a difference of two offsets
        self.offsets = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])

    def order(self, j: int) -> np.ndarray:
        """All realizations of the order-j partial sum, one per window."""
        if not 1 <= j <= self.k:
            raise InvalidConfigError(f"order must be in 1..{self.k}, got {j}")
        w = self.n_windows
        return (self.offsets[j : j + w] - self.offsets[:w]).astype(np.float64)


def partial_sums(arrivals: InterArrivals, k: int) -> PartialSumTable:
    """Build the order-1..k partial-sum table over all n - k windows."""
    if k < 1:
        raise InvalidConfigError(f"max order must be >= 1, got {k}")
    n = arrivals.n
    if k >= n:
        raise InsufficientDataError(
            f"max order {k} leaves no windows for {n} inter-arrivals"
        )
    rate = None
    if arrivals.total > 0:
        rate = arrivals.rate
    return PartialSumTable(arrivals.values, k, rate)


@dataclass
class RenewalDensityEstimate:
    """Binned per-second arrival density on [0, n_bins * bin_width)."""

    bin_width: float
    values: np.ndarray
    k: int
    kind: str  # "empirical" or "convolution"
    source_rate: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return int(self.values.size)

    @property
    def t_max(self) -> float:
        return self.n_bins * self.bin_width

    def to_csv(self) -> str:
        return bins_to_csv("t,value", self.bin_width, self.values)


def _bin_lags(chunks, bin_width: float, n_bins: int) -> np.ndarray:
    """Counts of the integer lags in the chunks on n_bins bins of bin_width.

    Lag L lands in bin floor(L / bin_width) if L < n_bins * bin_width. An
    integral width divides in integers, which is exact and several times
    faster than the float division other widths need; the integer path
    needs the grid end to fit int64. Per chunk:

    * at an integral width, the L < end mask runs only if the chunk's
      largest lag reaches the end, and the division only above width 1 (at
      width 1 a lag is its own bin); a float width always masks and divides,
    * a chunk of at least n_bins indices is bincounted as it is; smaller
      ones are copied into one buffer of at least n_bins indices and counted
      when it fills, so no bincount costs more than O(lags).

    No chunk is read after the next one is asked for, so the chunks may all
    be one array refilled in place.
    """
    whole = float(bin_width).is_integer() and n_bins * bin_width < 2**63
    if whole:
        bin_width = int(bin_width)
    end = n_bins * bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    pending = np.empty(max(n_bins, _BINCOUNT_CHUNK), dtype=np.int64)
    size = 0
    for lags in chunks:
        # one name for the lags and then their bin indices, so no chunk's
        # arrays outlive it while the next chunk is made
        if not whole:
            lags = (lags[lags < end] / bin_width).astype(np.int64)
            lags = lags[lags < n_bins]
        elif lags.max(initial=0) >= end:
            lags = lags[lags < end]
        if whole and bin_width != 1:
            lags = lags // bin_width
        if lags.size >= n_bins:
            counts += np.bincount(lags, minlength=n_bins)
            continue
        if size + lags.size > pending.size:
            counts += np.bincount(pending[:size], minlength=n_bins)
            size = 0
        pending[size : size + lags.size] = lags
        size += lags.size
    counts += np.bincount(pending[:size], minlength=n_bins)
    return counts


def _beyond_order_k(t: np.ndarray, k: int, lmax: int):
    """Starts a and counts of the pairs (a, b), b - a > k, with lag < lmax.

    Pairs from one start are contiguous in b, so a search finds them all.
    """
    start = np.flatnonzero(t[k + 1 :] - t[: t.size - k - 1] < lmax)
    extra = np.searchsorted(t, t[start] + lmax) - (start + k + 1)
    return start, extra


def _beyond_lags(t: np.ndarray, k: int, start: np.ndarray, extra: np.ndarray):
    """Lags of the pairs _beyond_order_k found, one vector per order above k.

    The set of starts shrinks as the run of pairs from each start ends.
    """
    for i in range(1, int(extra.max(initial=0)) + 1):
        keep = extra >= i
        start, extra = start[keep], extra[keep]
        yield t[start + k + i] - t[start]


def _autocorrelation(t: np.ndarray, lmax: int) -> np.ndarray:
    """Event pairs a < b with t[b] - t[a] = L, for every lag L < lmax.

    The per-second count series c is cut into blocks x_b of B >= lmax - 1
    seconds (a power of two), each transformed once in 2B points. No lag
    below lmax reaches past the next block, so the spectrum is the sum of
    conj(X_b) (X_b + (-1)^f X_b+1), (-1)^f being a shift by B. Blocks are
    counted a batch at a time, the last spectrum carried into the next
    batch, so memory does not grow with the span. Lag 0 counts same-second
    pairs, sum c(c-1)/2.
    """
    block = 1 << (lmax - 2).bit_length()
    n_blocks = -(-(int(t[-1]) + 1) // block)
    per_batch = min(n_blocks, max(1, _FFT_BATCH_POINTS // (2 * block)))
    rows = np.zeros((per_batch, 2 * block))
    power, cross, last = np.zeros((3, block + 1), dtype=np.complex128)
    for first in range(0, n_blocks, per_batch):
        n = min(per_batch, n_blocks - first)
        lo, hi = np.searchsorted(t, [first * block, (first + n) * block])
        counts = np.bincount(t[lo:hi] - first * block, minlength=n * block)
        rows[:n, :block] = counts.reshape(n, block)
        x = np.fft.rfft(rows[:n])
        power += (x.conj() * x).sum(axis=0)
        cross += last.conj() * x[0] + (x[:-1].conj() * x[1:]).sum(axis=0)
        last = x[-1]
    cross[1::2] *= -1.0
    corr = np.rint(np.fft.irfft(power + cross, 2 * block)[:lmax]).astype(np.int64)
    corr[0] = (corr[0] - t.size) // 2
    return corr


def _lag_histogram_fft(t: np.ndarray, k: int, lmax: int, start, extra) -> np.ndarray:
    """Order-1..k pair lags L < lmax, counted per second, as all pairs minus
    the pairs the direct path leaves out.

    All pairs at lags below lmax come from the autocorrelation. The direct
    path leaves out the pairs of order above k (few: the grid ends at a low
    quantile of the order-k sums), given by _beyond_order_k as start and
    extra, and the pairs that start in the last k events, which have no
    full window: all pairs among the last k + 1 events.
    """
    tail = t[t.size - 1 - k :]
    return (
        _autocorrelation(t, lmax)
        - _bin_lags(_beyond_lags(t, k, start, extra), 1, lmax)
        - _autocorrelation(tail - tail[0], lmax)
    )


def _pair_counts(
    t: np.ndarray, k: int, bin_width: float, n_bins: int
) -> tuple[np.ndarray, bool]:
    """Order-1..k pair lags on n_bins bins of bin_width; whether FFT ran.

    The direct path bins one vector of lags per order, O(k * n_windows),
    each subtracted into the same n_windows buffer; _bin_lags says when a
    vector is masked, divided or copied.
    The FFT path counts the lags per second, O(span log lmax), and then
    rebins them; it runs once a second of span holds enough pair lags and
    its 1 s histogram fits the grid budget. It must also subtract every pair
    of order above k below lmax; a same-second burst much longer than k can
    make those outnumber the direct path's own pairs, and then the direct
    path runs.
    """
    w = t.size - 1 - k
    grid_end = n_bins * bin_width
    lmax = min(int(np.ceil(grid_end)), int(t[-1]) + 1)
    if k * w >= FFT_MIN_LAGS_PER_SECOND * int(t[-1]) and lmax <= MAX_GRID_BINS:
        start, extra = _beyond_order_k(t, k, lmax)
        if extra.sum() <= k * w:
            hist = _lag_histogram_fft(t, k, lmax, start, extra)
            lags = np.flatnonzero(hist)
            idx = np.floor(lags / bin_width).astype(np.int64)
            keep = (lags < grid_end) & (idx < n_bins)
            weights = hist[lags[keep]]
            return np.bincount(idx[keep], weights=weights, minlength=n_bins), True
    lags = np.empty(w, dtype=t.dtype)
    chunks = (np.subtract(t[j : j + w], t[:w], out=lags) for j in range(1, k + 1))
    return _bin_lags(chunks, bin_width, n_bins), False


def empirical_rd(
    table: PartialSumTable, bin_width: float, t_max: float
) -> RenewalDensityEstimate:
    """Sum the per-order partial-sum densities on a common grid.

    Each order's histogram is normalized by the window count (not by its
    in-range mass): an order whose sums lie mostly beyond t_max then
    contributes only its true in-range tail instead of being inflated to
    full unit mass, which would distort the top of the grid.

    Timestamps are integer seconds, so every partial sum is an integer lag;
    the order-1..k sums are counted together (see _pair_counts).
    """
    if t_max <= 0:
        raise InvalidConfigError("t_max must be positive")
    if table.n_windows < 1:
        raise InsufficientDataError("partial-sum table holds no windows")

    n_bins = bin_count(t_max, bin_width, origin=0.0)
    counts, _ = _pair_counts(table.offsets, table.k, bin_width, n_bins)
    return RenewalDensityEstimate(
        bin_width=bin_width,
        values=counts / table.n_windows / bin_width,
        k=table.k,
        kind="empirical",
        source_rate=table.source_rate,
    )


def first_order_pdf(
    arrivals: InterArrivals, bin_width: float, t_max: float
) -> Density:
    """Histogram of the raw inter-arrival values, each bin a share of all gaps."""
    hist = build_histogram(arrivals.values, bin_width, t_max)
    return normalize(hist)


def _power_sum(f: np.ndarray, k: int) -> np.ndarray:
    """f + f^2 + ... + f^k under convolution, truncated to len(f) terms.

    Binary doubling over the bits of k, with S_m the sum of the first m
    powers and P_m = f^m: S_2m = S_m + P_m S_m, P_2m = P_m P_m and
    S_m+1 = S_m + P_m f. Truncation commutes with the products (no term
    below len(f) depends on a dropped one), so this is exact algebra in
    O(log k) products, each O(N log N) in the N = len(f) bins: rfft
    spectra sized to avoid wrap-around, each operand transformed once per
    step and f once. Each term added to the sum is clipped at 0 against
    round-off. The powers are not: clipped round-off is biased upwards,
    and every squaring would double the bias.
    """
    n_bins = f.size
    size = 1 << (2 * n_bins - 2).bit_length()

    def product(a, b):
        return np.fft.irfft(a * b, size)[:n_bins]

    total, power = f.copy(), f.copy()
    f_spectrum = np.fft.rfft(f, size)
    bits = bin(k)[3:]
    for i, bit in enumerate(bits):
        p_spectrum = np.fft.rfft(power, size)
        term = product(p_spectrum, np.fft.rfft(total, size))
        total = total + np.maximum(term, 0.0)
        if bit == "1" or i < len(bits) - 1:
            power = product(p_spectrum, p_spectrum)
        if bit == "1":
            power = product(np.fft.rfft(power, size), f_spectrum)
            total = total + np.maximum(power, 0.0)
    return total


def convolution_rd(
    f1: Density, k: int, source_rate: float | None = None
) -> RenewalDensityEstimate:
    """Sum of the 1..k fold self-convolutions of the first-order density.

    Every term is truncated to the grid of f1. Truncation is exact for the
    in-grid bins: a partial sum below t_max is built only from gaps below
    t_max, and f1 holds their share of all gaps whatever the grid's length.
    """
    if k < 1:
        raise InvalidConfigError(f"max order must be >= 1, got {k}")
    if f1.n_bins == 0:
        raise InsufficientDataError("first-order density is empty")
    return RenewalDensityEstimate(
        bin_width=f1.bin_width,
        values=_power_sum(f1.values, k) / f1.bin_width,
        k=k,
        kind="convolution",
        source_rate=source_rate,
    )


@dataclass
class EstimationConfig:
    """Knobs for the paired-estimate pipeline; None means auto."""

    k: int | None = None
    bin_width: float | None = None


def default_max_order(n_arrivals: int) -> int:
    """min(1000, n/10), clamped so at least one window remains."""
    k = min(DEFAULT_MAX_ORDER, n_arrivals // DEFAULT_ORDER_FRACTION)
    return max(1, min(k, n_arrivals - 1))


def empirical_grid_end(
    table: PartialSumTable, bin_width: float, quantile: float = DEFAULT_GRID_QUANTILE
) -> float:
    """Grid end for the empirical estimate: a low quantile of the top order.

    Beyond the lower tail of the order-k sums the truncated estimator rolls
    off (orders above k are missing), so the grid stops where coverage by
    the first k orders is still essentially complete.
    """
    top = table.order(table.k)
    end = float(np.quantile(top, quantile))
    # no int(): bin_count rejects an end past the grid budget, infinite too
    return float(max(1.0, np.floor(end / bin_width)) * bin_width)


def convolution_grid_end(
    arrivals: InterArrivals,
    k: int,
    bin_width: float,
    factor: float = DEFAULT_CONV_SPAN_FACTOR,
) -> float:
    """Grid end for the convolution estimate: factor * k * mean gap in whole
    bins. f1 is a share of all gaps, so the grid need not reach the largest."""
    return float(max(1.0, np.ceil(factor * k * arrivals.mean / bin_width)) * bin_width)


def estimate_stream(
    stream: EventStream,
    config: EstimationConfig | None = None,
    convolution: bool = True,
) -> tuple[RenewalDensityEstimate, RenewalDensityEstimate | None]:
    """Run the estimators on a stream with one shared bin width.

    Returns (empirical, convolution). With convolution=False the second is
    None and the first-order density and its self-convolutions are skipped:
    detection reads only the empirical estimate. The shared width comes from
    the first-order inter-arrivals unless overridden in the config.
    """
    config = config or EstimationConfig()
    arrivals = inter_arrivals(stream)
    if arrivals.total <= 0:
        raise InsufficientDataError("stream spans zero seconds")
    k = config.k if config.k is not None else default_max_order(arrivals.n)
    if k >= arrivals.n:
        raise InsufficientDataError(
            f"max order {k} needs more than {arrivals.n} inter-arrivals"
        )
    width = config.bin_width
    if width is None:
        width = optimal_bin_width(arrivals.values)
    check_bin_width(width)
    table = partial_sums(arrivals, k)
    emp = empirical_rd(table, width, empirical_grid_end(table, width))
    if not convolution:
        return emp, None
    f1 = first_order_pdf(arrivals, width, convolution_grid_end(arrivals, k, width))
    return emp, convolution_rd(f1, k, source_rate=arrivals.rate)

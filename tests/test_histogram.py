import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalstream.errors import EmptyDensityError, InvalidConfigError
from renewalstream.histogram import (
    MAX_GRID_BINS,
    Density,
    bin_count,
    bins_to_csv,
    default_width_grid,
    optimal_bin_width,
    shimazaki_cost,
)


def build_histogram(samples, bin_width, t_max):
    """Oracle: the float histogram layer first_order_pdf replaced. Counts
    of floor(x / bin_width) over bin_count(t_max, bin_width) bins for the
    samples in [0, t_max), and the number of the others."""
    if t_max <= 0:
        raise InvalidConfigError(f"t_max must be positive, got {t_max}")
    samples = np.asarray(samples, dtype=np.float64)
    n_bins = bin_count(t_max, bin_width, 0.0)
    idx = np.floor(samples / bin_width).astype(np.int64)
    on = (samples >= 0) & (samples < t_max) & (idx >= 0) & (idx < n_bins)
    return np.bincount(idx[on], minlength=n_bins), int(samples.size - on.sum())


def normalize(counts, overflow=0):
    """Oracle: each bin's share of all samples, those off the grid too."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() < 1:
        raise EmptyDensityError("histogram holds no in-range samples")
    return counts / float(counts.sum() + overflow)


def float_first_order_pdf(gaps, bin_width, t_max):
    """Oracle f1: the float histogram of the gaps, normalized."""
    return normalize(*build_histogram(gaps, bin_width, t_max))


def brute_force_cost(samples, width):
    """Independent two-pass evaluation of the bin-count cost."""
    samples = np.asarray(samples, dtype=np.float64)
    t_max = (np.floor(samples.max() / width) + 1.0) * width
    edges = np.arange(0.0, t_max + width / 2, width)
    counts = np.histogram(samples, bins=edges)[0]
    mean = sum(counts) / len(counts)
    var = sum((mean - c) ** 2 for c in counts) / len(counts)
    return (2 * mean - var) / width**2


class TestBuildHistogram:
    """The oracle's own known answers."""

    def test_basic_binning(self):
        counts, overflow = build_histogram([0, 0, 2], 1.0, 3.0)
        assert counts.tolist() == [2, 0, 1]
        assert overflow == 0

    def test_out_of_range_goes_to_overflow(self):
        counts, overflow = build_histogram([5], 1.0, 3.0)
        assert counts.tolist() == [0, 0, 0]
        assert overflow == 1

    def test_fractional_samples(self):
        counts, _ = build_histogram([0.5, 1.5, 2.5], 1.0, 3.0)
        assert counts.tolist() == [1, 1, 1]

    def test_boundary_goes_right(self):
        counts, _ = build_histogram([1.0], 1.0, 3.0)
        assert counts.tolist() == [0, 1, 0]

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            build_histogram([1], 0.0, 3.0)
        with pytest.raises(InvalidConfigError):
            build_histogram([1], 1.0, 0.0)

    @settings(max_examples=200)
    @given(
        samples=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), max_size=100
        ),
        width=st.floats(min_value=0.1, max_value=10),
        t_max=st.floats(min_value=0.5, max_value=120),
    )
    def test_conservation(self, samples, width, t_max):
        counts, overflow = build_histogram(samples, width, t_max)
        assert counts.sum() + overflow == len(samples)
        assert np.all(counts >= 0)


class TestShimazakiCost:
    def test_constant_counts(self):
        assert shimazaki_cost([2, 2, 2], 3, 1.0) == pytest.approx(4.0)

    def test_high_variance_cancels(self):
        assert shimazaki_cost([0, 4], 2, 2.0) == pytest.approx(0.0)

    @given(
        c=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        width=st.floats(min_value=0.1, max_value=10),
    )
    def test_constant_histogram_closed_form(self, c, n, width):
        cost = shimazaki_cost([c] * n, n, width)
        assert cost == pytest.approx(2 * c / width**2)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50)
    )
    def test_matches_two_pass_computation(self, counts):
        got = shimazaki_cost(counts, len(counts), 1.0)
        mean = sum(counts) / len(counts)
        var = sum((mean - c) ** 2 for c in counts) / len(counts)
        assert got == pytest.approx(2 * mean - var, rel=1e-12, abs=1e-12)

    @given(
        counts=st.lists(st.integers(0, 100), min_size=1, max_size=50),
        width=st.floats(min_value=0.1, max_value=10),
    )
    def test_empty_bins_may_be_left_out(self, counts, width):
        dense = shimazaki_cost(counts, len(counts), width)
        nonempty = [c for c in counts if c > 0]
        got = shimazaki_cost(nonempty, len(counts), width)
        assert got == pytest.approx(dense, rel=1e-12, abs=1e-12)


@st.composite
def width_search_inputs(draw):
    """Integer gaps with runs of zeros, maybe one huge gap, maybe negative
    and float samples; the default candidate grid or an explicit one.

    Drawn floats and explicit widths are multiples of 1/8, so each x / width
    and each bin edge of brute_force_cost is exact and both bin a sample the
    same way. The width 2**-30 always needs more than MAX_GRID_BINS bins.
    """
    runs = st.tuples(st.integers(1, 60), st.integers(0, 6))
    samples = [
        x
        for gap, zeros in draw(st.lists(runs, min_size=2, max_size=40))
        for x in [gap] + [0] * zeros
    ]
    if draw(st.booleans()):
        samples.append(draw(st.integers(1_000, 10_000)))
    if draw(st.booleans()):
        eighths = st.integers(-400, 800).map(lambda i: i / 8)
        samples += draw(st.lists(eighths, min_size=1, max_size=20))
    samples = np.asarray(draw(st.permutations(samples)), dtype=np.float64)
    candidates = None
    if draw(st.booleans()):
        widths = st.one_of(st.just(2.0**-30), st.integers(1, 400).map(lambda i: i / 8))
        candidates = draw(st.lists(widths, min_size=1, max_size=10))
    return samples, candidates


class TestOptimalBinWidth:
    @settings(max_examples=200, deadline=None)
    @given(inputs=width_search_inputs())
    def test_matches_dense_brute_force(self, inputs):
        samples, candidates = inputs
        grid = default_width_grid(samples) if candidates is None else candidates
        top = samples.max()
        kept = [w for w in np.sort(grid) if np.floor(top / w) + 1 < MAX_GRID_BINS]
        if not kept:
            with pytest.raises(InvalidConfigError, match="every candidate"):
                optimal_bin_width(samples, candidates)
            return
        costs = [brute_force_cost(samples, w) for w in kept]
        want = kept[int(np.argmin(costs))]
        got = optimal_bin_width(samples, candidates)
        if got != want:
            # only a near-tie that the two summation orders split
            best = min(costs)
            assert abs(costs[kept.index(got)] - best) <= 1e-12 * abs(best)

    def test_search_on_one_huge_gap_allocates_no_grid(self):
        # gaps of the log 0, 5, 6, 999999999999999999: covering the last
        # gap takes up to 2**24 bins per candidate width
        gaps = np.diff([0, 5, 6, 999_999_999_999_999_999])
        tracemalloc.start()
        try:
            optimal_bin_width(gaps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_single_candidate(self):
        assert optimal_bin_width([1.0, 2.0, 5.0], [0.7]) == 0.7

    def test_matches_brute_force_on_exponential_sample(self):
        rng = np.random.default_rng(42)
        samples = rng.exponential(1.0, 10_000)
        grid = np.geomspace(0.1, 10, 30)
        best = optimal_bin_width(samples, grid)
        costs = [brute_force_cost(samples, w) for w in grid]
        assert best == pytest.approx(grid[int(np.argmin(costs))])

    def test_tie_breaks_toward_smaller_width(self):
        # four samples at 1.0 give counts [0, 4] under both widths, and
        # 2*mean - var = 2*2 - 4 = 0 exactly, so both costs are exactly 0
        samples = [1.0, 1.0, 1.0, 1.0]
        w_small, w_large = 2.0 / 3.0, 1.0
        assert brute_force_cost(samples, w_small) == 0.0
        assert brute_force_cost(samples, w_large) == 0.0
        assert optimal_bin_width(samples, [w_large, w_small]) == w_small

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfigError):
            optimal_bin_width([1, 2], [])

    def test_candidates_beyond_grid_budget_skipped(self):
        # covering a 2e7 s sample at width 1 needs more than 2**24 bins
        samples = [1.0, 2.0, 3.0, 2e7]
        assert optimal_bin_width(samples, [1.0, 1e6]) == 1e6
        with pytest.raises(InvalidConfigError, match="every candidate"):
            optimal_bin_width(samples, [1.0])

    def test_needs_two_samples(self):
        with pytest.raises(InvalidConfigError):
            optimal_bin_width([1.0])

    def test_integer_samples_get_integer_widths(self):
        grid = default_width_grid(np.arange(0, 2000, 7))
        assert np.all(grid == np.rint(grid))

    def test_duplicated_sample_set_keeps_argmin(self):
        # Duplicating every sample rescales the counts; on this sample the
        # selected width must not move (checked against brute force).
        rng = np.random.default_rng(3)
        samples = rng.exponential(1.0, 4000)
        grid = np.geomspace(0.2, 5, 15)
        base = optimal_bin_width(samples, grid)
        doubled = optimal_bin_width(np.concatenate([samples, samples]), grid)
        costs = [brute_force_cost(np.concatenate([samples, samples]), w) for w in grid]
        assert doubled == pytest.approx(grid[int(np.argmin(costs))])
        assert base == pytest.approx(doubled)


class TestNormalize:
    """The oracle's own known answers."""

    def test_masses(self):
        assert normalize([2, 0, 2]).tolist() == [0.5, 0.0, 0.5]

    def test_single_bin(self):
        assert normalize([5]).tolist() == [1.0]

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyDensityError):
            normalize([0, 0])

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40)
    )
    def test_masses_sum_to_one(self, counts):
        if sum(counts) == 0:
            return
        assert normalize(counts).sum() == pytest.approx(1.0, abs=1e-9)


def test_density_csv_layout():
    density = Density(2.0, normalize([1, 3]))
    text = bins_to_csv("bin_start,value", density.bin_width, density.values)
    assert text == "bin_start,value\n0.0,0.25\n2.0,0.75\n"

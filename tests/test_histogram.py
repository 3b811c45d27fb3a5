import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalstream.errors import EmptyDensityError, InvalidConfigError
from renewalstream.histogram import (
    Histogram,
    bins_to_csv,
    build_histogram,
    default_width_grid,
    normalize,
    optimal_bin_width,
    shimazaki_cost,
)


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
    def test_basic_binning(self):
        hist = build_histogram([0, 0, 2], 1.0, 3.0)
        assert hist.counts.tolist() == [2, 0, 1]
        assert hist.overflow == 0

    def test_out_of_range_goes_to_overflow(self):
        hist = build_histogram([5], 1.0, 3.0)
        assert hist.counts.tolist() == [0, 0, 0]
        assert hist.overflow == 1

    def test_fractional_samples(self):
        hist = build_histogram([0.5, 1.5, 2.5], 1.0, 3.0)
        assert hist.counts.tolist() == [1, 1, 1]

    def test_boundary_goes_right(self):
        hist = build_histogram([1.0], 1.0, 3.0)
        assert hist.counts.tolist() == [0, 1, 0]

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
        hist = build_histogram(samples, width, t_max)
        assert hist.total + hist.overflow == len(samples)
        assert np.all(hist.counts >= 0)


class TestShimazakiCost:
    def test_constant_counts(self):
        assert shimazaki_cost(Histogram(1.0, [2, 2, 2])) == pytest.approx(4.0)

    def test_high_variance_cancels(self):
        assert shimazaki_cost(Histogram(2.0, [0, 4])) == pytest.approx(0.0)

    @given(
        c=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        width=st.floats(min_value=0.1, max_value=10),
    )
    def test_constant_histogram_closed_form(self, c, n, width):
        cost = shimazaki_cost(Histogram(width, [c] * n))
        assert cost == pytest.approx(2 * c / width**2)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50)
    )
    def test_matches_two_pass_computation(self, counts):
        got = shimazaki_cost(Histogram(1.0, counts))
        mean = sum(counts) / len(counts)
        var = sum((mean - c) ** 2 for c in counts) / len(counts)
        assert got == pytest.approx(2 * mean - var, rel=1e-12, abs=1e-12)


class TestOptimalBinWidth:
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
    def test_masses(self):
        density = normalize(Histogram(1.0, [2, 0, 2]))
        assert density.values.tolist() == [0.5, 0.0, 0.5]

    def test_single_bin(self):
        assert normalize(Histogram(1.0, [5])).values.tolist() == [1.0]

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyDensityError):
            normalize(Histogram(1.0, [0, 0]))

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40)
    )
    def test_masses_sum_to_one(self, counts):
        if sum(counts) == 0:
            return
        density = normalize(Histogram(0.5, counts))
        assert density.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_density_csv_layout():
    density = normalize(Histogram(2.0, [1, 3]))
    text = bins_to_csv("bin_start,value", density.bin_width, density.values)
    assert text == "bin_start,value\n0.0,0.25\n2.0,0.75\n"

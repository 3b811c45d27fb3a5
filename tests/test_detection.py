import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammainc

import renewalstream.detection as detection
from renewalstream.detection import (
    DetectionConfig,
    chi_square_cdf,
    chi_square_stat,
    detect,
    normalize_rd,
    split_subdensities,
    trimmed_mean_smooth,
)
from renewalstream.errors import (
    DegenerateBinError,
    EmptyDensityError,
    InsufficientDataError,
    InvalidConfigError,
)
from renewalstream.estimation import RenewalDensityEstimate


def make_estimate(values, width=1.0, k=10):
    return RenewalDensityEstimate(
        bin_width=width, values=np.asarray(values, dtype=float), k=k,
        kind="empirical", source_rate=1.0,
    )


def trimmed_mean_smooth_loop(sub, half_window, trim_fraction):
    """Per-bin reference for trimmed_mean_smooth: one sorted window per bin."""
    sub = np.asarray(sub, dtype=np.float64)
    out = np.empty_like(sub)
    for t in range(sub.size):
        lo = max(0, t - half_window)
        hi = min(sub.size, t + half_window + 1)
        window = np.concatenate([sub[lo:t], sub[t + 1 : hi]])
        trim = int(trim_fraction * window.size)
        kept = np.sort(window)[trim : window.size - trim]
        out[t] = kept.mean() if kept.size else window.mean()
    return out


def trimmed_mean_smooth_per_block(sub, half_window, trim_fraction):
    """The former one-sub-density smoother, kept as a bit-for-bit oracle."""
    n = sub.size
    reach = min(half_window, n - 1)
    offsets = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    columns = np.arange(offsets.size)
    idx = np.arange(n)[:, None] + offsets
    valid = (idx >= 0) & (idx < n)
    window = np.sort(np.where(valid, sub[idx.clip(0, n - 1)], np.inf), axis=1)
    size = valid.sum(axis=1)
    trim = (trim_fraction * size).astype(np.int64)
    kept = (columns >= trim[:, None]) & (columns < (size - trim)[:, None])
    return np.where(kept, window, 0.0).sum(axis=1) / (size - 2 * trim)


def chi_square_stat_per_block(sub, smoothed):
    """The former one-sub-density statistic, kept as a bit-for-bit oracle."""
    diff2 = np.zeros_like(sub)
    np.divide((sub - smoothed) ** 2, smoothed, out=diff2, where=smoothed != 0.0)
    return float(diff2.sum())


def detect_per_block(estimate, config):
    """The former detect loop, one sub-density per call of each step, as
    benchmark/spans.py replays it; returns (chi2, p, flag) per sub-density
    and the dropped bins."""
    values = np.asarray(estimate.values, dtype=np.float64)
    if config.exclude_origin_bin and values.size > 1:
        values = values[1:]
    normalized = normalize_rd(make_estimate(values))
    blocks, dropped = split_subdensities(normalized, config.n_sub)
    n_bins = blocks[0].size
    half_window = config.half_window or max(1, n_bins // 2)
    rows = []
    for block in blocks:
        smoothed = trimmed_mean_smooth(block, half_window, config.trim_fraction)
        chi2 = chi_square_stat(block, smoothed)
        p = chi_square_cdf(chi2, n_bins)
        rows.append((chi2, p, p > 1.0 - config.p_fa))
    return rows, dropped


def lower_gamma_40_digits(a, x):
    """P(a, x) from mpmath at 40 digits: x**a e**-x / Gamma(a + 1) 1F1(1; a + 1; x)."""
    with mpmath.workdps(40):
        a, x = mpmath.mpf(float(a)), mpmath.mpf(float(x))
        power = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
        return power * mpmath.hyp1f1(1, a + 1, x, maxterms=10**7)


def cdf_oracle_grid():
    """(dof, x): dof from 1 to 30,000, x/2 from a e**-3 to a e**1.5 and at
    a + j sqrt(a) for j in -8..8, where a = dof / 2."""
    dofs, xs = [], []
    for dof in np.unique(np.geomspace(1, 30_000, 120).round().astype(int)):
        a = dof / 2.0
        ratios = np.exp(np.linspace(-3.0, 1.5, 25))
        half_x = np.concatenate([a * ratios, a + np.arange(-8, 9) * math.sqrt(a)])
        half_x = half_x[half_x >= 0]
        dofs += [dof] * half_x.size
        xs += (2.0 * half_x).tolist()
    return np.asarray(dofs), np.asarray(xs)


def chi2_cdf_quadrature(x, dof, n=200_001):
    """Numerical integration of the chi-square density, via t = u**2."""
    if x <= 0:
        return 0.0
    u = np.linspace(0.0, math.sqrt(x), n)
    log_norm = (dof / 2.0) * math.log(2.0) + math.lgamma(dof / 2.0)
    integrand = np.zeros_like(u)
    positive = u > 0
    integrand[positive] = 2.0 * np.exp(
        (dof - 1) * np.log(u[positive]) - u[positive] ** 2 / 2.0 - log_norm
    )
    if dof == 1:
        integrand[0] = 2.0 * math.exp(-log_norm)
    return float(np.trapezoid(integrand, u))


class TestNormalizeRd:
    def test_peak_becomes_ten(self):
        out = normalize_rd(make_estimate([1.0, 2.0, 5.0]))
        assert out.tolist() == [2.0, 4.0, 10.0]

    def test_constant_maps_to_constant_ten(self):
        out = normalize_rd(make_estimate([3.0, 3.0, 3.0]))
        assert out.tolist() == [10.0, 10.0, 10.0]

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60
        )
    )
    def test_max_is_exactly_ten(self, values):
        if max(values) <= 0:
            return
        assert normalize_rd(make_estimate(values)).max() == 10.0

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyDensityError):
            normalize_rd(make_estimate([0.0, 0.0]))


class TestSplitSubdensities:
    def test_even_split(self):
        blocks, dropped = split_subdensities(np.arange(10), 2)
        assert [b.tolist() for b in blocks] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        assert dropped == 0

    def test_remainder_dropped_and_reported(self):
        blocks, dropped = split_subdensities(np.arange(11), 2)
        assert len(blocks) == 2 and all(b.size == 5 for b in blocks)
        assert dropped == 1

    def test_single_block_identity(self):
        blocks, dropped = split_subdensities(np.arange(7), 1)
        assert blocks[0].tolist() == list(range(7))
        assert dropped == 0

    def test_oversplit_rejected(self):
        with pytest.raises(InvalidConfigError):
            split_subdensities(np.arange(3), 4)


class TestTrimmedMeanSmooth:
    def test_constant_is_fixed_point(self):
        for half_window in (1, 2, 5):
            for trim in (0.0, 0.2, 0.35, 0.49):
                out = trimmed_mean_smooth(np.full(9, 4.2), half_window, trim)
                assert out == pytest.approx(np.full(9, 4.2))

    def test_left_edge_clips_window(self):
        out = trimmed_mean_smooth(np.asarray([0.0, 10.0, 0.0, 0.0, 0.0]), 2, 0.0)
        assert out[0] == pytest.approx(5.0)  # mean of {10, 0}

    def test_spike_trimmed_out_everywhere(self):
        # hand-enumerated: every window around the spike either trims it
        # (floor(0.25 * n) >= 1) or does not contain it, so the baseline is 1
        sub = np.asarray([1, 1, 1, 1, 9, 1, 1, 1, 1, 1], dtype=float)
        out = trimmed_mean_smooth(sub, 3, 0.25)
        assert out == pytest.approx(np.ones(10))

    def test_no_trim_keeps_spike_in_neighbors(self):
        sub = np.asarray([1, 1, 1, 1, 9, 1, 1, 1, 1, 1], dtype=float)
        out = trimmed_mean_smooth(sub, 3, 0.0)
        assert out[3] == pytest.approx((1 + 1 + 1 + 9 + 1 + 1) / 6)

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            trimmed_mean_smooth(np.asarray([1.0]), 1, 0.2)

    @given(
        sub=st.lists(
            st.floats(min_value=0, max_value=100), min_size=2, max_size=40
        ),
        half_window=st.integers(min_value=1, max_value=50),
        trim=st.floats(min_value=0, max_value=0.49),
    )
    def test_matches_per_bin_loop(self, sub, half_window, trim):
        out = trimmed_mean_smooth(np.asarray(sub), half_window, trim)
        expected = trimmed_mean_smooth_loop(sub, half_window, trim)
        assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, max(sub))

    def test_row_batches_match_per_bin_loop(self, monkeypatch):
        monkeypatch.setattr(detection, "_SMOOTH_BATCH", 50)
        sub = np.random.default_rng(3).random(101) * 10.0
        out = trimmed_mean_smooth(sub, 12, 0.35)
        expected = trimmed_mean_smooth_loop(sub, 12, 0.35)
        assert np.max(np.abs(out - expected)) <= 1e-12 * 10.0

    @given(
        sub=st.lists(
            st.floats(min_value=0, max_value=100), min_size=2, max_size=40
        ),
        half_window=st.integers(min_value=1, max_value=50),
        trim=st.floats(min_value=0, max_value=0.49),
    )
    def test_one_row_has_the_per_block_bits(self, sub, half_window, trim):
        sub = np.asarray(sub)
        out = trimmed_mean_smooth(sub, half_window, trim)
        expected = trimmed_mean_smooth_per_block(sub, half_window, trim)
        assert out.tolist() == expected.tolist()

    @pytest.mark.parametrize("batch", [7, 50, 1 << 17])
    def test_matrix_rows_have_the_one_row_bits(self, monkeypatch, batch):
        # small batches split a sub-density between two batches
        monkeypatch.setattr(detection, "_SMOOTH_BATCH", batch)
        rows = np.random.default_rng(4).random((9, 23)) * 10.0
        out = trimmed_mean_smooth(rows, 6, 0.35)
        assert out.shape == rows.shape
        for row, smoothed in zip(rows, out):
            assert smoothed.tolist() == trimmed_mean_smooth(row, 6, 0.35).tolist()

    @given(
        sub=st.lists(
            st.floats(min_value=0, max_value=100), min_size=2, max_size=40
        ),
        half_window=st.integers(min_value=1, max_value=25),
        trim=st.floats(min_value=0, max_value=0.49),
    )
    def test_baseline_within_window_range(self, sub, half_window, trim):
        sub = np.asarray(sub)
        out = trimmed_mean_smooth(sub, half_window, trim)
        assert np.all(out >= sub.min() - 1e-9)
        assert np.all(out <= sub.max() + 1e-9)


class TestChiSquareStat:
    def test_identical_vectors_give_zero(self):
        sub = np.asarray([1.0, 2.0, 3.0])
        assert chi_square_stat(sub, sub) == 0.0

    def test_direct_evaluation(self):
        assert chi_square_stat(np.asarray([2.0, 2.0]), np.asarray([1.0, 1.0])) == 2.0

    def test_zero_zero_bins_contribute_nothing(self):
        stat = chi_square_stat(np.asarray([0.0, 2.0]), np.asarray([0.0, 1.0]))
        assert stat == 1.0

    def test_degenerate_bin_rejected(self):
        with pytest.raises(DegenerateBinError):
            chi_square_stat(np.asarray([1.0]), np.asarray([0.0]))

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(2)
        sub = rng.random(64) + 0.5
        smoothed = trimmed_mean_smooth(sub, 8, 0.2)
        expected = 0.0
        for o, e in zip(sub.tolist(), smoothed.tolist()):
            expected += (o - e) ** 2 / e
        assert chi_square_stat(sub, smoothed) == pytest.approx(expected, rel=1e-12)

    def test_matrix_rows_have_the_per_block_bits(self):
        rows = np.random.default_rng(5).random((12, 37)) + 0.25
        smoothed = trimmed_mean_smooth(rows, 9, 0.3)
        stats = chi_square_stat(rows, smoothed)
        assert stats.tolist() == [
            chi_square_stat_per_block(r, b) for r, b in zip(rows, smoothed)
        ]
        assert stats.tolist() == [chi_square_stat(r, b) for r, b in zip(rows, smoothed)]

    def test_degenerate_bin_in_any_row_rejected(self):
        rows = np.ones((3, 4))
        baseline = np.ones((3, 4))
        baseline[2, 1] = 0.0
        with pytest.raises(DegenerateBinError):
            chi_square_stat(rows, baseline)

    @given(
        sub=st.lists(
            st.floats(min_value=0, max_value=50), min_size=2, max_size=30
        )
    )
    def test_nonnegative(self, sub):
        sub = np.asarray(sub)
        baseline = np.full_like(sub, 1.0)
        assert chi_square_stat(sub, baseline) >= 0.0


class TestChiSquareCdf:
    def test_zero_statistic(self):
        for dof in (1, 5, 32):
            assert chi_square_cdf(0.0, dof) == 0.0

    def test_limit_is_one(self):
        assert chi_square_cdf(1e6, 3) == pytest.approx(1.0)

    def test_textbook_95th_percentile(self):
        assert chi_square_cdf(3.84, 1) == pytest.approx(0.95, abs=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(InvalidConfigError):
            chi_square_cdf(-0.1, 3)

    def test_matches_quadrature_oracle_at_twenty_points(self):
        points = [
            (0.1, 1), (0.5, 1), (3.84, 1), (9.0, 1),
            (0.8, 2), (5.99, 2), (1.2, 3), (7.81, 3),
            (2.0, 5), (11.07, 5), (4.0, 9), (16.9, 9),
            (10.0, 16), (26.3, 16), (20.0, 32), (46.19, 32),
            (50.0, 64), (83.7, 64), (90.0, 100), (124.3, 100),
        ]
        assert len(points) == 20
        for x, dof in points:
            expected = chi2_cdf_quadrature(x, dof)
            assert chi_square_cdf(x, dof) == pytest.approx(expected, abs=1e-3)

    def test_monotone_in_statistic(self):
        grid = np.linspace(0, 60, 200)
        values = [chi_square_cdf(x, 12) for x in grid]
        assert np.all(np.diff(values) >= 0)

    def test_matches_scipy_on_grid(self):
        dof, x = cdf_oracle_grid()
        assert x.size >= 3900 and dof.min() == 1 and dof.max() == 30_000
        ours = chi_square_cdf(x, dof)
        ref = gammainc(dof / 2.0, x / 2.0)
        assert np.max(np.abs(ours - ref)) <= 1e-14
        # scipy takes a ln x - x - lgamma(a) directly when |x - a| > 0.4 a,
        # which loses up to ~6e-12 relative at a of a few thousand (26 grid
        # points). Where the two differ by more than 1e-12, the 40-digit
        # value must be within 1e-12 of ours and nearer ours than scipy's.
        big = np.flatnonzero(ref >= 1e-300)
        rel = np.abs(ours[big] - ref[big]) / ref[big]
        for i in big[rel > 1e-12]:
            exact = lower_gamma_40_digits(dof[i] / 2.0, x[i] / 2.0)
            assert abs(ours[i] - exact) <= 1e-12 * exact
            assert abs(ours[i] - exact) < abs(ref[i] - exact)

    def test_scalar_call_has_the_array_bits(self):
        dof, x = cdf_oracle_grid()
        ours = chi_square_cdf(x, dof)
        assert chi_square_cdf(x[::-1], dof[::-1]).tolist() == ours[::-1].tolist()
        # every fifth point keeps the one-call-per-point loop near a second
        points = zip(x[::5].tolist(), dof[::5].tolist())
        assert [chi_square_cdf(v, k) for v, k in points] == ours[::5].tolist()

    def test_array_edges(self):
        out = chi_square_cdf(np.asarray([0.0, np.inf, np.nan, 3.84]), 1)
        assert out[:2].tolist() == [0.0, 1.0] and math.isnan(out[2])
        assert out[3] == chi_square_cdf(3.84, 1)
        with pytest.raises(InvalidConfigError):
            chi_square_cdf(np.asarray([1.0, -0.1]), 3)
        with pytest.raises(InvalidConfigError):
            chi_square_cdf(1.0, np.asarray([3, 0]))


class TestDetect:
    def test_constant_density_never_flags(self):
        report = detect(make_estimate(np.full(64, 3.0)), DetectionConfig(n_sub=4))
        assert all(s.chi2 == 0.0 and s.p == 0.0 and not s.flag for s in report.subs)
        assert not report.detected

    def test_scale_invariance_exact_for_powers_of_two(self):
        rng = np.random.default_rng(8)
        values = rng.random(128) + 0.2
        base = detect(make_estimate(values), DetectionConfig(n_sub=4))
        scaled = detect(make_estimate(values * 4.0), DetectionConfig(n_sub=4))
        assert [s.chi2 for s in base.subs] == [s.chi2 for s in scaled.subs]
        assert [s.flag for s in base.subs] == [s.flag for s in scaled.subs]

    def test_scale_invariance_to_tolerance_for_odd_scales(self):
        rng = np.random.default_rng(9)
        values = rng.random(128) + 0.2
        base = detect(make_estimate(values), DetectionConfig(n_sub=4))
        scaled = detect(make_estimate(values * 3.7), DetectionConfig(n_sub=4))
        for a, b in zip(base.subs, scaled.subs):
            assert b.chi2 == pytest.approx(a.chi2, rel=1e-9)
            assert b.flag == a.flag
        assert scaled.detected == base.detected

    def test_spike_increases_sub_chi2(self):
        rng = np.random.default_rng(10)
        for seed in range(20):
            values = np.random.default_rng(seed).random(96) + 1.0
            plain = detect(make_estimate(values), DetectionConfig(n_sub=3))
            spiked = values.copy()
            spiked[10] += 50.0
            hit = detect(make_estimate(spiked), DetectionConfig(n_sub=3))
            assert hit.subs[0].chi2 > plain.subs[0].chi2

    def test_exclude_origin_bin(self):
        values = np.ones(65)
        values[0] = 100.0
        cfg = DetectionConfig(n_sub=4, exclude_origin_bin=True)
        report = detect(make_estimate(values), cfg)
        # with the origin spike removed the rest is constant: nothing to flag
        assert not report.detected
        assert all(s.chi2 == 0.0 for s in report.subs)

    def test_dof_equals_sub_density_length(self):
        values = np.random.default_rng(3).random(100) + 1.0
        report = detect(make_estimate(values), DetectionConfig(n_sub=4))
        assert report.n_bins == 25
        assert report.dropped_bins == 0
        for s in report.subs:
            assert s.p == pytest.approx(chi_square_cdf(s.chi2, 25))

    def test_report_json_schema(self):
        import json

        report = detect(make_estimate(np.full(16, 2.0)), DetectionConfig(n_sub=2))
        data = json.loads(report.to_json())
        assert set(data) == {
            "n_sub",
            "n_bins",
            "p_fa",
            "subs",
            "detected",
            "dropped_bins",
        }
        assert set(data["subs"][0]) == {"index", "chi2", "p", "flag"}

    @pytest.mark.parametrize(
        "n_values, config, batch",
        [
            # many narrow sub-densities, as on the sparse-detect workload
            (1283, DetectionConfig(n_sub=40), None),
            (1283, DetectionConfig(n_sub=40, exclude_origin_bin=True), None),
            # wide sub-densities at the default n_sub; 3 bins dropped
            (4003, DetectionConfig(), None),
            (400, DetectionConfig(n_sub=16, half_window=3, trim_fraction=0.2), None),
            # a batch holds 4 neighbor rows, so batches split sub-densities
            (400, DetectionConfig(n_sub=16), 100),
        ],
    )
    def test_matches_the_per_block_loop_bit_for_bit(
        self, monkeypatch, n_values, config, batch
    ):
        if batch is not None:
            monkeypatch.setattr(detection, "_SMOOTH_BATCH", batch)
        rng = np.random.default_rng(n_values)
        values = rng.exponential(1.0, n_values) + 0.1
        values[0] = 40.0
        values[::37] += 3.0  # a periodic comb for some sub-densities to flag
        estimate = make_estimate(values)
        report = detect(estimate, config)
        rows, dropped = detect_per_block(estimate, config)
        assert [(s.chi2, s.p, s.flag) for s in report.subs] == rows
        assert report.dropped_bins == dropped
        assert report.detected == any(flag for _, _, flag in rows)
        assert all(type(s.chi2) is float and type(s.p) is float for s in report.subs)

    def test_invalid_configs_rejected(self):
        est = make_estimate(np.ones(16))
        with pytest.raises(InvalidConfigError):
            detect(est, DetectionConfig(n_sub=0))
        with pytest.raises(InvalidConfigError):
            detect(est, DetectionConfig(trim_fraction=0.5))
        with pytest.raises(InvalidConfigError):
            detect(est, DetectionConfig(p_fa=0.0))

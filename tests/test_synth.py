import numpy as np
import pytest
from scipy import stats

from renewalstream.errors import InvalidConfigError
from renewalstream.ingest import inter_arrivals, parse_stream, serialize_stream
from renewalstream.synth import (
    GeneratorSpec,
    gen_cluster,
    gen_poisson,
    inject_periodic,
    labels_to_csv,
)


def lag1_autocorr(values):
    x = values.astype(float) - values.mean()
    return float((x[:-1] * x[1:]).mean() / (x * x).mean())


class TestGenPoisson:
    def test_deterministic_under_seed(self):
        a = gen_poisson(2.0, 5000, seed=3)
        b = gen_poisson(2.0, 5000, seed=3)
        assert a.times.tolist() == b.times.tolist()
        c = gen_poisson(2.0, 5000, seed=4)
        assert a.times.tolist() != c.times.tolist()

    def test_sample_mean_within_three_sigma(self):
        mean_gap = 2.0
        m = 100_000
        stream = gen_poisson(mean_gap, m, seed=1)
        gaps = inter_arrivals(stream).values
        # exponential std equals the mean; rounding adds < 1/12 variance
        tolerance = 3.0 * mean_gap / np.sqrt(m - 1)
        assert abs(gaps.mean() - mean_gap) < tolerance + 0.05

    def test_exponential_gaps_pass_ks_prerounding(self):
        # mirror the generator's draw sequence before integer rounding
        for seed in range(5):
            rng = np.random.default_rng(seed)
            raw = rng.exponential(3.0, 9_999)
            p_value = stats.kstest(raw, "expon", args=(0, 3.0)).pvalue
            assert p_value > 0.01

    def test_invalid_parameters(self):
        with pytest.raises(InvalidConfigError):
            gen_poisson(0.0, 100, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_poisson(1.0, 1, seed=0)

    @pytest.mark.parametrize("mean_gap", [np.nan, np.inf])
    def test_non_finite_mean_gap_rejected(self, mean_gap):
        with pytest.raises(InvalidConfigError, match="finite"):
            gen_poisson(mean_gap, 100, seed=0)

    def test_out_of_range_rejected_before_drawing(self):
        with pytest.raises(InvalidConfigError, match="would span"):
            gen_poisson(1e300, 5, seed=0)
        with pytest.raises(InvalidConfigError, match="m <= 16777216"):
            gen_poisson(1.0, 10**12, seed=0)

    def test_zero_gaps_present_at_high_rate(self):
        stream = gen_poisson(0.8, 10_000, seed=2)
        gaps = inter_arrivals(stream).values
        assert np.sum(gaps == 0) > 0


class TestGenCluster:
    def test_deterministic_under_seed(self):
        a = gen_cluster(6.0, 3.0, 1.0, 3000, seed=7)
        b = gen_cluster(6.0, 3.0, 1.0, 3000, seed=7)
        assert a.times.tolist() == b.times.tolist()

    def test_burst_size_one_matches_poisson_statistics(self):
        stream = gen_cluster(5.0, 1.0, 1.0, 50_000, seed=3)
        gaps = inter_arrivals(stream).values
        assert abs(gaps.mean() - 5.0) / 5.0 < 0.05
        assert abs(lag1_autocorr(gaps)) < 0.02

    def test_positive_lag1_autocorrelation_at_defaults(self):
        stream = gen_cluster(6.0, 3.0, 1.0, 100_000, seed=1)
        gaps = inter_arrivals(stream).values
        assert lag1_autocorr(gaps) > 0.05

    def test_mean_rate_matches_formula_within_five_percent(self):
        trigger, burst_mean, intra, idle = 6.0, 3.0, 1.0, 3.0
        expected_gap = ((burst_mean - 1) * intra + idle * trigger) / (
            burst_mean - 1 + idle
        )
        stream = gen_cluster(trigger, burst_mean, intra, 100_000, seed=2, idle_run=idle)
        gaps = inter_arrivals(stream).values
        assert abs(gaps.mean() - expected_gap) / expected_gap < 0.05

    def test_invalid_parameters(self):
        with pytest.raises(InvalidConfigError):
            gen_cluster(0.0, 3.0, 1.0, 100, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_cluster(5.0, 0.5, 1.0, 100, seed=0)
        with pytest.raises(InvalidConfigError):
            gen_cluster(5.0, 2.0, 1.0, 100, seed=0, idle_run=0.5)

    @pytest.mark.parametrize(
        "trigger_gap, burst_mean, intra_gap",
        [(np.nan, 3.0, 1.0), (np.inf, 3.0, 1.0), (5.0, np.nan, 1.0),
         (5.0, 3.0, np.nan), (5.0, 3.0, np.inf)],
    )
    def test_non_finite_parameters_rejected(self, trigger_gap, burst_mean, intra_gap):
        with pytest.raises(InvalidConfigError):
            gen_cluster(trigger_gap, burst_mean, intra_gap, 100, seed=0)

    def test_out_of_range_rejected_before_drawing(self):
        with pytest.raises(InvalidConfigError, match="would span"):
            gen_cluster(1e300, 3.0, 1.0, 5, seed=0)
        with pytest.raises(InvalidConfigError, match="m <= 16777216"):
            gen_cluster(10.0, 3.0, 1.0, 10**12, seed=0)
        for burst_mean, idle_run in [(1e15, 3.0), (np.inf, 3.0), (3.0, 1e15)]:
            with pytest.raises(InvalidConfigError, match="would draw about"):
                gen_cluster(10.0, burst_mean, 1.0, 5, seed=0, idle_run=idle_run)


class TestInjectPeriodic:
    def test_count_zero_is_identity(self):
        base = gen_poisson(2.0, 500, seed=1)
        merged, labels = inject_periodic(base, 50.0, count=0, seed=2)
        assert merged.times.tolist() == base.times.tolist()
        assert set(labels) == {"background"}

    def test_pure_train_has_exact_period(self):
        base = gen_poisson(1e9, 2, seed=1)  # two far-apart anchor events
        merged, labels = inject_periodic(
            base, 100.0, jitter=0.0, count=50, start=1000.0, seed=3
        )
        injected_times = merged.times[labels == "injected"]
        assert injected_times.tolist() == [1000 + 100 * n for n in range(50)]

    def test_label_conservation(self):
        base = gen_poisson(3.0, 2000, seed=5)
        merged, labels = inject_periodic(base, 40.0, fraction=0.05, seed=6)
        assert merged.m == base.m + int(round(0.05 * base.m))
        assert int(np.sum(labels == "injected")) == int(round(0.05 * base.m))
        assert int(np.sum(labels == "background")) == base.m

    def test_merged_stream_is_sorted(self):
        base = gen_poisson(2.0, 1000, seed=7)
        merged, _ = inject_periodic(base, 30.0, jitter=5.0, fraction=0.1, seed=8)
        assert np.all(np.diff(merged.times) >= 0)

    def test_jitter_bounded(self):
        base = gen_poisson(1e9, 2, seed=1)
        merged, labels = inject_periodic(
            base, 100.0, jitter=10.0, count=200, start=5000.0, seed=9
        )
        injected = merged.times[labels == "injected"]
        offsets = injected - (5000.0 + 100.0 * np.arange(200))
        assert np.all(np.abs(offsets) <= 10.5)  # rounding adds half a second

    def test_parameter_validation(self):
        base = gen_poisson(2.0, 100, seed=1)
        with pytest.raises(InvalidConfigError):
            inject_periodic(base, 0.0, count=5)
        with pytest.raises(InvalidConfigError):
            inject_periodic(base, 10.0)  # neither count nor fraction
        with pytest.raises(InvalidConfigError):
            inject_periodic(base, 10.0, count=5, fraction=0.1)
        with pytest.raises(InvalidConfigError):
            inject_periodic(base, 10.0, count=-1)
        for period, jitter in [(np.nan, 0.0), (np.inf, 0.0), (10.0, np.nan),
                               (10.0, np.inf)]:
            with pytest.raises(InvalidConfigError, match="finite"):
                inject_periodic(base, period, jitter=jitter, count=5)

    def test_out_of_range_rejected_before_casting(self):
        base = gen_poisson(2.0, 100, seed=1)
        with pytest.raises(InvalidConfigError, match="would reach"):
            inject_periodic(base, 1e300, count=5)
        with pytest.raises(InvalidConfigError, match="would reach"):
            inject_periodic(base, 1.0, count=2, start=-1e19)
        for fraction in (np.nan, np.inf, 1e300, -0.5):
            with pytest.raises(InvalidConfigError, match="gives a train of"):
                inject_periodic(base, 10.0, fraction=fraction)
        with pytest.raises(InvalidConfigError, match="count <= 16777216"):
            inject_periodic(base, 10.0, count=10**12)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_poisson(2.0, 100, seed=seed),
        lambda seed: gen_cluster(5.0, 3.0, 1.0, 100, seed=seed),
        lambda seed: inject_periodic(gen_poisson(2.0, 100, seed=1), 10.0, count=5,
                                     seed=seed),
        lambda seed: GeneratorSpec(kind="periodic", m=100, seed=seed).generate(),
    ],
)
def test_negative_seed_rejected_naming_it(make):
    with pytest.raises(InvalidConfigError, match=r"^seed must be >= 0, got -1$"):
        make(-1)
    make(0)


class TestGeneratorSpec:
    def test_round_trips_through_ingest_format(self):
        for kind in ("poisson", "cluster", "periodic"):
            spec = GeneratorSpec(kind=kind, m=500, seed=11, mean_gap=3.0)
            stream, labels = spec.generate()
            again = parse_stream(serialize_stream(stream))
            assert again.times.tolist() == stream.times.tolist()
            assert labels.size == stream.m

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError):
            GeneratorSpec(kind="weird", m=10, seed=0).generate()

    def test_labels_csv_matches_per_element_loop(self):
        stream, labels = GeneratorSpec(kind="periodic", m=2000, seed=4).generate()
        lines = ["time,label"]  # the loop labels_to_csv replaced: numpy scalars
        for t, label in zip(stream.times, labels):
            lines.append(f"{t},{label}")
        assert labels_to_csv(stream, labels) == "\n".join(lines) + "\n"

    def test_labels_csv(self):
        spec = GeneratorSpec(kind="poisson", m=3, seed=1, mean_gap=5.0)
        stream, labels = spec.generate()
        text = labels_to_csv(stream, labels)
        lines = text.strip().split("\n")
        assert lines[0] == "time,label"
        assert len(lines) == 4

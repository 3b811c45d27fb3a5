import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from renewalstream.characterization import (
    DEFAULT_THRESHOLDS,
    ZoneThresholds,
    characterize,
    classify_zone,
    difference,
)
from renewalstream.errors import GridMismatchError, InvalidConfigError
from renewalstream.estimation import RenewalDensityEstimate


def make_estimate(values, width=1.0, kind="empirical"):
    return RenewalDensityEstimate(
        bin_width=width, values=np.asarray(values, dtype=float), k=10, kind=kind,
        source_rate=1.0,
    )


class TestDifference:
    def test_identical_estimates_give_zero_curves(self):
        est = make_estimate([1.0, 2.0, 3.0])
        curves = difference(est, est)
        assert curves.e.tolist() == [0.0, 0.0, 0.0]
        assert curves.E.tolist() == [0.0, 0.0, 0.0]

    def test_running_sum(self):
        curves = difference(
            make_estimate([2.0, 0.0, 1.0]), make_estimate([1.0, 1.0, 1.0])
        )
        assert curves.e.tolist() == [1.0, -1.0, 0.0]
        assert curves.E.tolist() == [1.0, 0.0, 0.0]

    def test_grid_intersection(self):
        curves = difference(make_estimate([1.0] * 5), make_estimate([1.0] * 3))
        assert curves.e.size == 3

    def test_mismatched_widths_rejected(self):
        with pytest.raises(GridMismatchError):
            difference(make_estimate([1.0]), make_estimate([1.0], width=2.0))

    @given(
        e_emp=st.lists(
            st.floats(min_value=-10, max_value=10), min_size=1, max_size=50
        )
    )
    def test_running_sum_reconstruction(self, e_emp):
        emp = make_estimate(e_emp)
        conv = make_estimate([0.0] * len(e_emp))
        curves = difference(emp, conv)
        rebuilt = np.empty_like(curves.e)
        acc = 0.0
        for i, value in enumerate(curves.e.tolist()):
            acc += value
            rebuilt[i] = acc
        assert np.max(np.abs(rebuilt - curves.E)) <= 1e-12
        assert curves.E[0] == curves.e[0]


class TestCharacterize:
    def test_null_case(self):
        est = make_estimate([1.0, 1.0, 1.0])
        curves = difference(est, est)
        result = characterize(curves, k=10, source_rate=2.0)
        assert result.e_max_norm == 0.0
        assert result.zone == "low"

    def test_direct_evaluation(self):
        curves = difference(
            make_estimate([1.0, 2.0, -1.0]), make_estimate([0.0, 0.0, 0.0])
        )
        # E = [1, 3, 2]; max 3 at index 1
        result = characterize(curves, k=10, source_rate=2.0)
        assert result.e_max_norm == pytest.approx(0.3)
        assert result.position_tweets == pytest.approx(2.0)

    def test_argmax_tie_resolves_to_earliest(self):
        curves = difference(
            make_estimate([1.0, 0.0, 1.0, -1.0]), make_estimate([0.0] * 4)
        )
        # E = [1, 1, 2, 1] has a unique max; build a plateau instead
        curves = difference(
            make_estimate([1.0, 0.0, 0.0]), make_estimate([0.0, 0.0, 0.0])
        )
        # E = [1, 1, 1]
        result = characterize(curves, k=1, source_rate=1.0)
        assert result.position_tweets == 0.0

    def test_negative_maximum_reported_as_is(self):
        curves = difference(
            make_estimate([-1.0, -2.0]), make_estimate([0.0, 0.0])
        )
        result = characterize(curves, k=5, source_rate=1.0)
        assert result.e_max_norm == pytest.approx(-0.2)
        assert result.zone == "low"

    def test_invalid_parameters(self):
        est = make_estimate([1.0, 1.0])
        curves = difference(est, est)
        with pytest.raises(InvalidConfigError):
            characterize(curves, k=0, source_rate=1.0)
        with pytest.raises(InvalidConfigError):
            characterize(curves, k=1, source_rate=0.0)

    def test_json_schema(self):
        est = make_estimate([1.0, 1.0])
        result = characterize(difference(est, est), k=1, source_rate=1.0)
        data = json.loads(result.to_json())
        assert set(data) == {"e_max_norm", "position_tweets", "zone"}


class TestClassifyZone:
    def test_three_zones(self):
        thresholds = ZoneThresholds(low=1.0, high=2.0)
        assert classify_zone(0.5, thresholds) == "low"
        assert classify_zone(1.0, thresholds) == "middle"  # left-closed
        assert classify_zone(1.5, thresholds) == "middle"
        assert classify_zone(2.0, thresholds) == "high"
        assert classify_zone(5.0, thresholds) == "high"

    def test_negative_values_are_low(self):
        assert classify_zone(-3.0, DEFAULT_THRESHOLDS) == "low"

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(InvalidConfigError):
            classify_zone(1.0, ZoneThresholds(low=2.0, high=1.0))
        with pytest.raises(InvalidConfigError):
            classify_zone(1.0, ZoneThresholds(low=-1.0, high=1.0))

    @given(value=st.floats(min_value=-100, max_value=100))
    def test_exactly_one_zone(self, value):
        zone = classify_zone(value, DEFAULT_THRESHOLDS)
        assert zone in {"low", "middle", "high"}


def test_curves_csv_layout():
    curves = difference(
        make_estimate([2.0, 0.0, 0.3], width=0.5),
        make_estimate([1.0, 1.0, 0.1], width=0.5),
    )
    assert curves.to_csv() == (
        "t,e,E\n0.0,1.0,1.0\n0.5,-1.0,0.0\n1.0,0.19999999999999998,0.19999999999999998\n"
    )

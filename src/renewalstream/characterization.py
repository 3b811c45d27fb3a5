"""Inter-arrival memory characterization.

The pointwise difference e(t) between the empirical and the convolution
estimates, and its running sum E(t), measure how far a stream departs from
memoryless behavior: both estimators share the same first-order density, so
any excess of the empirical estimate at low lags reflects higher-order
correlation. The maximum of E(t), normalized by the number of orders used,
is the scalar correlation score; its position converts to event counts via
the average data rate so streams of different rates are comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InsufficientOverlapError,
    InvalidConfigError,
)
from .estimation import RenewalDensityEstimate
from .histogram import bins_to_csv

ZONE_LOW = "low"
ZONE_MIDDLE = "middle"
ZONE_HIGH = "high"


@dataclass(frozen=True)
class ZoneThresholds:
    low: float
    high: float

    def validate(self) -> None:
        if not 0 <= self.low < self.high:
            raise InvalidConfigError(
                f"need 0 <= low < high, got {self.low}, {self.high}"
            )


# Calibrated at max order 100 on the synthetic suite
# (scripts/calibrate_zone_thresholds.py, 20 seeds, m = 1e5): iid streams
# score below 6e-4, mild clustering lands in 2.9e-3..4.2e-3 and strong
# clustering above 2.7e-2. Thresholds sit at the geometric midpoints.
DEFAULT_THRESHOLDS = ZoneThresholds(low=1.3e-3, high=1.0e-2)


@dataclass
class DifferenceCurves:
    """e(t) = empirical - convolution on the common grid; E(t) = running sum."""

    bin_width: float
    e: np.ndarray
    E: np.ndarray

    def to_csv(self) -> str:
        return bins_to_csv("t,e,E", self.bin_width, self.e, self.E)


@dataclass
class CharacterizationResult:
    e_max_norm: float
    position_tweets: float
    zone: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "e_max_norm": self.e_max_norm,
                "position_tweets": self.position_tweets,
                "zone": self.zone,
            }
        )


def difference(
    r_emp: RenewalDensityEstimate, r_conv: RenewalDensityEstimate
) -> DifferenceCurves:
    """Pointwise difference and running sum on the grid intersection."""
    if r_emp.bin_width != r_conv.bin_width:
        raise GridMismatchError(
            f"bin widths differ: {r_emp.bin_width} vs {r_conv.bin_width}"
        )
    n = min(r_emp.n_bins, r_conv.n_bins)
    if n < 1:
        raise InsufficientOverlapError("estimates share no grid bins")
    e = r_emp.values[:n] - r_conv.values[:n]
    return DifferenceCurves(bin_width=r_emp.bin_width, e=e, E=np.cumsum(e))


def classify_zone(value: float, thresholds: ZoneThresholds) -> str:
    """low below thresholds.low, middle in [low, high), high otherwise."""
    thresholds.validate()
    if value < thresholds.low:
        return ZONE_LOW
    if value < thresholds.high:
        return ZONE_MIDDLE
    return ZONE_HIGH


def characterize(
    curves: DifferenceCurves,
    k: int,
    source_rate: float,
    thresholds: ZoneThresholds = DEFAULT_THRESHOLDS,
) -> CharacterizationResult:
    """Score the cumulative difference and classify the stream.

    The score is max(E) divided by the number of orders k; the position is
    the earliest argmax converted to seconds and then to expected event
    counts via the source rate.
    """
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if source_rate <= 0:
        raise InvalidConfigError(f"source_rate must be positive, got {source_rate}")
    peak = float(np.max(curves.E))
    arg = int(np.argmax(curves.E))
    score = peak / k
    return CharacterizationResult(
        e_max_norm=score,
        position_tweets=arg * curves.bin_width * source_rate,
        zone=classify_zone(score, thresholds),
    )

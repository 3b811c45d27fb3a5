"""Periodic-event detection on a renewal-density estimate.

Pipeline: scale the density so its maximum is 10, split it into equal-length
sub-densities, build a per-bin baseline with a center-excluded trimmed mean,
and score each sub-density with a Pearson chi-square statistic against that
baseline. A sub-density is flagged when the chi-square CDF at its statistic
exceeds 1 - P_FA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc

from .errors import (
    DegenerateBinError,
    EmptyDensityError,
    InsufficientDataError,
    InvalidConfigError,
)
from .estimation import RenewalDensityEstimate

NORMALIZED_PEAK = 10.0
MIN_CONVERGED_EVENTS = 5000
# Neighbor-matrix elements per batch of trimmed_mean_smooth: bounds memory.
_SMOOTH_BATCH = 1 << 20


@dataclass
class DetectionConfig:
    """Detection parameters.

    half_window is the smoothing half-window T in bins; None selects
    N_bins // 2 per sub-density. trim_fraction is the share of the window
    removed from each end before averaging.
    """

    n_sub: int = 8
    half_window: int | None = None
    trim_fraction: float = 0.35
    p_fa: float = 0.05
    exclude_origin_bin: bool = False

    def validate(self) -> None:
        if self.n_sub < 1:
            raise InvalidConfigError(f"n_sub must be >= 1, got {self.n_sub}")
        if self.half_window is not None and self.half_window < 1:
            raise InvalidConfigError("half_window must be >= 1")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise InvalidConfigError(
                f"trim_fraction must be in [0, 0.5), got {self.trim_fraction}"
            )
        if not 0.0 < self.p_fa < 1.0:
            raise InvalidConfigError(f"p_fa must be in (0, 1), got {self.p_fa}")


@dataclass
class SubDensityResult:
    index: int
    chi2: float
    p: float
    flag: bool


@dataclass
class DetectionReport:
    n_sub: int
    n_bins: int
    p_fa: float
    subs: list[SubDensityResult] = field(default_factory=list)
    detected: bool = False
    dropped_bins: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sub": self.n_sub,
                "n_bins": self.n_bins,
                "p_fa": self.p_fa,
                "subs": [
                    {"index": s.index, "chi2": s.chi2, "p": s.p, "flag": s.flag}
                    for s in self.subs
                ],
                "detected": self.detected,
                "dropped_bins": self.dropped_bins,
            }
        )


def normalize_rd(estimate: RenewalDensityEstimate) -> np.ndarray:
    """Scale density values so the maximum is exactly 10."""
    values = np.asarray(estimate.values, dtype=np.float64)
    peak = values.max() if values.size else 0.0
    if peak <= 0:
        raise EmptyDensityError("cannot normalize an all-zero density")
    # divide before scaling so the peak bin becomes exactly 10.0
    return values / peak * NORMALIZED_PEAK


def split_subdensities(values: np.ndarray, n_sub: int) -> tuple[list[np.ndarray], int]:
    """Split into n_sub equal contiguous blocks; returns (blocks, dropped)."""
    values = np.asarray(values)
    if n_sub < 1:
        raise InvalidConfigError(f"n_sub must be >= 1, got {n_sub}")
    if n_sub > values.size:
        raise InvalidConfigError(
            f"cannot split {values.size} bins into {n_sub} sub-densities"
        )
    n_bins = values.size // n_sub
    used = n_sub * n_bins
    blocks = [values[i * n_bins : (i + 1) * n_bins] for i in range(n_sub)]
    return blocks, int(values.size - used)


def trimmed_mean_smooth(
    sub: np.ndarray, half_window: int, trim_fraction: float
) -> np.ndarray:
    """Center-excluded trimmed-mean baseline of a sub-density.

    For each bin, up to half_window neighbors on each side (clipped at the
    sub-density edges, never the bin itself) are sorted and the top and
    bottom floor(trim_fraction * n) values removed; the baseline is the mean
    of the remainder. Since trim_fraction < 0.5, at least one value remains.

    All bins are handled at once: one row of neighbors per bin, with the
    clipped positions sorted to the end of the row and masked out.
    """
    sub = np.asarray(sub, dtype=np.float64)
    if sub.size < 2:
        raise InsufficientDataError("sub-density must have at least 2 bins")
    if half_window < 1:
        raise InvalidConfigError("half_window must be >= 1")
    if not 0.0 <= trim_fraction < 0.5:
        raise InvalidConfigError("trim_fraction must be in [0, 0.5)")

    n = sub.size
    reach = min(half_window, n - 1)  # neighbors further out never exist
    offsets = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    columns = np.arange(offsets.size)
    out = np.empty_like(sub)
    rows = max(1, _SMOOTH_BATCH // offsets.size)
    for first in range(0, n, rows):
        idx = np.arange(first, min(n, first + rows))[:, None] + offsets
        valid = (idx >= 0) & (idx < n)
        window = np.sort(np.where(valid, sub[idx.clip(0, n - 1)], np.inf), axis=1)
        size = valid.sum(axis=1)
        trim = (trim_fraction * size).astype(np.int64)
        kept = (columns >= trim[:, None]) & (columns < (size - trim)[:, None])
        out[first : first + rows] = np.where(kept, window, 0.0).sum(axis=1) / (
            size - 2 * trim
        )
    return out


def chi_square_stat(sub: np.ndarray, smoothed: np.ndarray) -> float:
    """Pearson statistic sum((sub - smoothed)**2 / smoothed) over the bins."""
    sub = np.asarray(sub, dtype=np.float64)
    smoothed = np.asarray(smoothed, dtype=np.float64)
    if sub.shape != smoothed.shape:
        raise InvalidConfigError("sub-density and baseline lengths differ")
    zero = smoothed == 0.0
    if np.any(zero & (sub != 0.0)):
        raise DegenerateBinError("baseline is zero where the density is not")
    diff2 = np.zeros_like(sub)
    np.divide((sub - smoothed) ** 2, smoothed, out=diff2, where=~zero)
    return float(diff2.sum())


def chi_square_cdf(x: float, dof: int) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma function."""
    if x < 0:
        raise InvalidConfigError(f"chi-square statistic must be >= 0, got {x}")
    if dof < 1:
        raise InvalidConfigError(f"degrees of freedom must be >= 1, got {dof}")
    return float(gammainc(dof / 2.0, x / 2.0))


def detect(
    estimate: RenewalDensityEstimate, config: DetectionConfig | None = None
) -> DetectionReport:
    """Run the full detection pipeline on one density estimate."""
    config = config or DetectionConfig()
    config.validate()

    values = np.asarray(estimate.values, dtype=np.float64)
    if config.exclude_origin_bin and values.size > 1:
        values = values[1:]
    normalized = normalize_rd(replace(estimate, values=values))
    blocks, dropped = split_subdensities(normalized, config.n_sub)
    n_bins = blocks[0].size

    report = DetectionReport(
        n_sub=config.n_sub,
        n_bins=n_bins,
        p_fa=config.p_fa,
        dropped_bins=dropped,
    )
    half_window = (
        config.half_window if config.half_window is not None else max(1, n_bins // 2)
    )
    for i, block in enumerate(blocks):
        smoothed = trimmed_mean_smooth(block, half_window, config.trim_fraction)
        chi2 = chi_square_stat(block, smoothed)
        p = chi_square_cdf(chi2, n_bins)
        flag = p > 1.0 - config.p_fa
        report.subs.append(SubDensityResult(index=i, chi2=chi2, p=p, flag=flag))
    report.detected = any(s.flag for s in report.subs)
    return report

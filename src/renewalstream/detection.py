"""Periodic-event detection on a renewal-density estimate.

Pipeline: scale the density so its maximum is 10, split it into equal-length
sub-densities, build a per-bin baseline with a center-excluded trimmed mean,
and score each sub-density with a Pearson chi-square statistic against that
baseline. A sub-density is flagged when the chi-square CDF at its statistic
exceeds 1 - P_FA.

The sub-densities are the rows of one matrix, and each step below takes one
row or a matrix of rows; a row's result does not depend on the other rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

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
_SMOOTH_BATCH = 1 << 17


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


def split_subdensities(values: np.ndarray, n_sub: int) -> tuple[np.ndarray, int]:
    """Split into n_sub equal contiguous blocks; returns (blocks, dropped).

    blocks is an (n_sub, n_bins) matrix whose rows are the sub-densities.
    """
    values = np.asarray(values)
    if n_sub < 1:
        raise InvalidConfigError(f"n_sub must be >= 1, got {n_sub}")
    if n_sub > values.size:
        raise InvalidConfigError(
            f"cannot split {values.size} bins into {n_sub} sub-densities"
        )
    n_bins = values.size // n_sub
    used = n_sub * n_bins
    return values[:used].reshape(n_sub, n_bins), int(values.size - used)


def trimmed_mean_smooth(
    sub: np.ndarray, half_window: int, trim_fraction: float
) -> np.ndarray:
    """Center-excluded trimmed-mean baseline of a sub-density or of each row.

    For each bin, up to half_window neighbors on each side (clipped at the
    sub-density edges, never the bin itself) are sorted and the top and
    bottom floor(trim_fraction * n) values removed; the baseline is the mean
    of the remainder. Since trim_fraction < 0.5, at least one value remains.

    sub is one sub-density or a matrix with one per row; the result has its
    shape. All bins of all rows are handled at once: one row of neighbors
    per (sub-density, bin), with the clipped positions sorted to the end of
    the row and masked out, in batches of _SMOOTH_BATCH elements.
    """
    sub = np.asarray(sub, dtype=np.float64)
    n = sub.shape[-1] if sub.ndim else 0
    if n < 2:
        raise InsufficientDataError("sub-density must have at least 2 bins")
    if half_window < 1:
        raise InvalidConfigError("half_window must be >= 1")
    if not 0.0 <= trim_fraction < 0.5:
        raise InvalidConfigError("trim_fraction must be in [0, 0.5)")

    flat = sub.ravel()
    reach = min(half_window, n - 1)  # neighbors further out never exist
    offsets = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    columns = np.arange(offsets.size)
    out = np.empty_like(flat)
    rows = max(1, _SMOOTH_BATCH // offsets.size)
    for first in range(0, flat.size, rows):
        row = np.arange(first, min(flat.size, first + rows))
        bin_ = row % n
        pos = bin_[:, None] + offsets
        valid = (pos >= 0) & (pos < n)
        idx = (row - bin_)[:, None] + pos.clip(0, n - 1)
        window = np.sort(np.where(valid, flat[idx], np.inf), axis=1)
        size = valid.sum(axis=1)
        trim = (trim_fraction * size).astype(np.int64)
        kept = (columns >= trim[:, None]) & (columns < (size - trim)[:, None])
        out[first : first + rows] = np.where(kept, window, 0.0).sum(axis=1) / (
            size - 2 * trim
        )
    return out.reshape(sub.shape)


def chi_square_stat(sub: np.ndarray, smoothed: np.ndarray) -> float | np.ndarray:
    """Pearson statistic sum((sub - smoothed)**2 / smoothed) over the bins.

    One float for one sub-density, one per row for a matrix of them.
    """
    sub = np.asarray(sub, dtype=np.float64)
    smoothed = np.asarray(smoothed, dtype=np.float64)
    if sub.shape != smoothed.shape:
        raise InvalidConfigError("sub-density and baseline lengths differ")
    rows, base = np.atleast_2d(sub, smoothed)
    zero = base == 0.0
    if np.any(zero & (rows != 0.0)):
        raise DegenerateBinError("baseline is zero where the density is not")
    diff2 = np.zeros_like(rows)
    np.divide((rows - base) ** 2, base, out=diff2, where=~zero)
    stats = diff2.sum(axis=1)  # row by row: the same sums for one row or many
    return float(stats[0]) if sub.ndim == 1 else stats


def chi_square_cdf(x, dof) -> float | np.ndarray:
    """Chi-square CDF via the regularized lower incomplete gamma function.

    x and dof broadcast; scalar x and dof give a float. Each element is computed
    on its own, so it has the same bits in a scalar call and in any array.
    """
    x = np.asarray(x, dtype=np.float64)
    dof = np.asarray(dof)
    if np.any(x < 0):
        raise InvalidConfigError(f"chi-square statistic must be >= 0, got {x.min()}")
    if np.any(dof < 1):
        raise InvalidConfigError(f"degrees of freedom must be >= 1, got {dof.min()}")
    a, half_x = np.broadcast_arrays(dof / 2.0, x / 2.0)
    p = _lower_gamma_regularized(a.ravel(), half_x.ravel()).reshape(a.shape)
    return float(p) if p.ndim == 0 else p


# The regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
# for a > 0 and x >= 0: the power series for x < a + 1 and Lentz's continued
# fraction for Q = 1 - P otherwise (Numerical Recipes, 3rd ed., 6.2). Both
# share the factor D = x**a e**-x / Gamma(a + 1), whose logarithm is taken
# in the centred form of DiDonato & Morris (ACM TOMS 12, 1986). Each element
# runs its own iterations to its own convergence test, so its bits do not
# depend on the other elements of the call.

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's series for stirlerr: 1/12, -1/360, 1/1260, -1/1680, 1/1188
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_ATANH_TERMS = 17  # y**35 / 35 < 1e-18 for |y| <= 1/3


def _lower_gamma_regularized(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    p = np.where(x == np.inf, 1.0, np.where(x == 0.0, 0.0, np.nan))
    live = np.flatnonzero((x > 0.0) & (x < np.inf))
    a, x = a[live], x[live]
    factor = np.exp(_log_power_factor(a, x))
    s = x < a + 1.0
    p[live[s]] = factor[s] * _gamma_series(a[s], x[s])
    f = ~s
    p[live[f]] = 1.0 - a[f] * factor[f] * _gamma_fraction(a[f], x[f])
    return p


def _log_power_factor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln(x**a e**-x / Gamma(a + 1)) for x > 0.

    Written as a * (ln r - r + 1) - ln(2 pi a) / 2 - stirlerr(a) with
    r = x / a, which avoids the cancellation between a ln x, x and
    lgamma(a + 1) at large a. For r in [1/2, 2], x - a is exact (Sterbenz)
    and ln r - r + 1 = log1pmx((x - a) / a) is summed without cancellation.
    """
    r = x / a
    deviation = np.log(r) - r + 1.0
    near = np.flatnonzero((x >= 0.5 * a) & (x <= 2.0 * a))
    deviation[near] = _log1pmx((x[near] - a[near]) / a[near])
    return a * deviation - (_HALF_LOG_2PI + 0.5 * np.log(a)) - _stirlerr(a)


def _log1pmx(t: np.ndarray) -> np.ndarray:
    """ln(1 + t) - t for t in [-1/2, 1].

    With y = t / (2 + t), ln(1 + t) = 2 atanh(y) and 2y - t = -t y, so the
    value is -t y + 2 (y**3/3 + y**5/5 + ...), with |y| <= 1/3 and no
    cancellation.
    """
    y = t / (2.0 + t)
    y2 = y * y
    series = 1.0 / (2 * _ATANH_TERMS + 1)
    for k in range(_ATANH_TERMS - 1, 0, -1):
        series = series * y2 + 1.0 / (2 * k + 1)
    return -t * y + 2.0 * (y * y2) * series


def _stirlerr(a: np.ndarray) -> np.ndarray:
    """lgamma(a + 1) - (a ln a - a + ln(2 pi a) / 2), Stirling's error:
    its series above a = 15, math.lgamma below."""
    inv2 = 1.0 / (a * a)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * inv2 + c
    small = np.flatnonzero(a <= 15.0)
    out = series / a
    b = a[small]
    lgamma = np.array([math.lgamma(v) for v in (b + 1.0).tolist()])
    out[small] = lgamma - (b * np.log(b) - b + (_HALF_LOG_2PI + 0.5 * np.log(b)))
    return out


def _gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sum over n >= 0 of x**n / ((a + 1) ... (a + n)), to the first
    term below eps of the sum."""
    total = np.ones_like(x)
    term = np.ones_like(x)
    live = np.ones(x.shape, dtype=bool)
    n = 0.0
    while live.any():
        n += 1.0
        t = term * (x / (a + n))
        s = total + t
        term = np.where(live, t, term)
        total = np.where(live, s, total)
        live &= t > s * _EPS
    return total


def _gamma_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) Gamma(a) x**-a e**x by modified Lentz, to the first factor
    within eps of 1."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d
    live = np.ones(x.shape, dtype=bool)
    i = 0.0
    while live.any():
        i += 1.0
        an = -i * (i - a)
        b = b + 2.0
        dn = an * d + b
        dn = 1.0 / np.where(np.abs(dn) < _TINY, _TINY, dn)
        cn = b + an / c
        cn = np.where(np.abs(cn) < _TINY, _TINY, cn)
        delta = dn * cn
        d = np.where(live, dn, d)
        c = np.where(live, cn, c)
        h = np.where(live, h * delta, h)
        live &= np.abs(delta - 1.0) > _EPS
    return h


def detect(
    estimate: RenewalDensityEstimate, config: DetectionConfig | None = None
) -> DetectionReport:
    """Run the full detection pipeline on one density estimate.

    The sub-densities are scored together as the rows of one matrix; each
    row gets the bits the one-row calls give it.
    """
    config = config or DetectionConfig()
    config.validate()

    values = np.asarray(estimate.values, dtype=np.float64)
    if config.exclude_origin_bin and values.size > 1:
        values = values[1:]
    normalized = normalize_rd(replace(estimate, values=values))
    blocks, dropped = split_subdensities(normalized, config.n_sub)
    n_bins = blocks.shape[1]

    half_window = (
        config.half_window if config.half_window is not None else max(1, n_bins // 2)
    )
    smoothed = trimmed_mean_smooth(blocks, half_window, config.trim_fraction)
    chi2 = chi_square_stat(blocks, smoothed)
    p = chi_square_cdf(chi2, n_bins)
    flag = p > 1.0 - config.p_fa
    subs = [
        SubDensityResult(index=i, chi2=c, p=q, flag=f)
        for i, (c, q, f) in enumerate(zip(chi2.tolist(), p.tolist(), flag.tolist()))
    ]
    return DetectionReport(
        n_sub=config.n_sub,
        n_bins=n_bins,
        p_fa=config.p_fa,
        subs=subs,
        detected=bool(flag.any()),
        dropped_bins=dropped,
    )

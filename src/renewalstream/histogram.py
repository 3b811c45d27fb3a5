"""Uniform grids: bin-width selection, the grid budget, binned densities.

The bin width is chosen by minimizing the mean/variance cost
``C = (2*kbar - v) / width**2`` over an explicit candidate grid, where
``kbar`` and ``v`` are the mean and biased variance of the per-bin counts.
The histograms themselves are counted in ``estimation``: one rule,
``_lag_bins``, bins the whole-second lags of r(t) and the gaps of f1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

DEFAULT_GRID_SIZE = 50

# Largest grid any estimate may allocate: 2**24 bins is 134 MB of float64,
# or 194 days of lag at 1 s bins.
MAX_GRID_BINS = 1 << 24


@dataclass
class Density:
    """Probability mass per bin on a uniform grid."""

    bin_width: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return int(self.values.size)


def check_bin_width(bin_width: float) -> None:
    """Reject a width that is not finite or is below 1 / MAX_GRID_BINS:
    timestamps are whole seconds, so a narrower grid reaches no positive lag
    within the budget, and the density of k lags per window in one bin,
    k / width, can overflow."""
    if not (np.isfinite(bin_width) and bin_width >= 1 / MAX_GRID_BINS):
        raise InvalidConfigError(
            f"bin width must be finite and at least 1/{MAX_GRID_BINS} s, "
            f"got {bin_width}"
        )


def bin_count(t_max: float, bin_width: float, origin: float) -> int:
    """Bins of bin_width covering [origin, t_max), checked against the budget."""
    check_bin_width(bin_width)
    # Snap near-integer ratios so t_max = n * width gives exactly n bins.
    ratio = (t_max - origin) / bin_width
    if ratio > MAX_GRID_BINS:
        raise InvalidConfigError(
            f"a grid of {ratio:.3g} bins exceeds the budget of "
            f"{MAX_GRID_BINS} bins; use a wider bin width or a smaller k"
        )
    n = int(np.floor(ratio + 1e-9))
    if ratio - n > 1e-9:
        n += 1
    return max(n, 1)


def _bin_indices(samples: np.ndarray, bin_width: float, t_max: float):
    """Bin index floor(x / bin_width) of each sample (a boundary value goes
    right), whether the sample lies on the grid [0, t_max), and the bin count."""
    if t_max <= 0:
        raise InvalidConfigError(f"t_max must be positive, got {t_max}")
    n_bins = bin_count(t_max, bin_width, 0.0)
    idx = np.floor(samples / bin_width).astype(np.int64)
    in_range = (samples >= 0) & (samples < t_max) & (idx >= 0) & (idx < n_bins)
    return idx, in_range, n_bins


def shimazaki_cost(counts, n_bins: int, bin_width: float) -> float:
    """Cost (2*kbar - v) / width**2 over n_bins bins, v the biased variance;
    counts may list only the non-empty bins, as each empty one adds kbar**2."""
    counts = np.asarray(counts, dtype=np.float64)
    kbar = counts.sum() / n_bins
    v = (np.sum((kbar - counts) ** 2) + (n_bins - counts.size) * kbar**2) / n_bins
    return float((2.0 * kbar - v) / bin_width**2)


def default_width_grid(samples, size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Log-spaced candidate widths between 1 s and max(samples)/20.

    For integer-valued samples (the native 1-second timestamp lattice) the
    candidates are rounded to whole seconds: a fractional width drifts across
    the lattice and imprints a sawtooth on the binned densities.
    """
    samples = np.asarray(samples, dtype=np.float64)
    upper = float(samples.max()) / 20.0
    if upper <= 1.0:
        return np.asarray([1.0])
    grid = np.geomspace(1.0, upper, size)
    if np.all(samples == np.floor(samples)):
        grid = np.unique(np.rint(grid))
    return grid


def optimal_bin_width(samples, candidates=None) -> float:
    """Candidate width minimizing the count-statistics cost; ties go small.

    Each candidate's grid covers every sample; one whose grid would reach
    MAX_GRID_BINS is skipped (one very long gap must not end the search).
    The distinct samples ascend, so a non-empty bin is one run of them.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise InvalidConfigError("bin-width selection needs at least 2 samples")
    values, multiplicity = np.unique(samples, return_counts=True)
    if candidates is None:
        candidates = default_width_grid(values)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.size == 0:
        raise InvalidConfigError("empty candidate grid")
    if np.any(candidates <= 0):
        raise InvalidConfigError("candidate widths must be positive")

    top = float(values[-1])
    best_width = None
    best_cost = np.inf
    for width in np.sort(candidates):
        n_bins = np.floor(top / width) + 1.0
        if n_bins >= MAX_GRID_BINS:
            continue
        idx, on, n_bins = _bin_indices(values, width, n_bins * width)
        starts = np.flatnonzero(np.diff(idx[on], prepend=-1))
        cost = shimazaki_cost(np.add.reduceat(multiplicity[on], starts), n_bins, width)
        if cost < best_cost:
            best_cost = cost
            best_width = float(width)
    if best_width is None:
        raise InvalidConfigError(
            f"every candidate width needs at least {MAX_GRID_BINS} bins"
        )
    return best_width


def bins_to_csv(header: str, bin_width: float, *columns) -> str:
    """Serialize per-bin columns as CSV rows: the bin start, then one value
    from each column.

    Values go through ``tolist``: Python floats print exactly as NumPy
    float64 scalars do, and faster.
    """
    row = ",".join(["{}"] * (len(columns) + 1))
    columns = [np.asarray(c).tolist() for c in columns]
    lines = (row.format(i * bin_width, *v) for i, v in enumerate(zip(*columns)))
    return "\n".join([header, *lines]) + "\n"

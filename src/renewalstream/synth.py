"""Seeded synthetic event-stream generators.

These provide ground truth for the test suite: a memoryless stream, a
burst/cluster stream with positively correlated gaps, and a periodic overlay
for planting spam-like trains in a background stream. All draws go through
numpy's seeded Generator, so parameters plus a seed fully determine the
output.

Gaps are rounded to integer seconds after generation, matching the
one-second resolution of real timestamp feeds; at high rates this produces
zero gaps and the corresponding spike at the origin of the gap histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .ingest import EventStream

LABEL_BACKGROUND = "background"
LABEL_INJECTED = "injected"


def gen_poisson(mean_gap: float, m: int, seed: int) -> EventStream:
    """Memoryless stream: iid exponential gaps with the given mean."""
    if not 0 < mean_gap < np.inf:
        raise InvalidConfigError(
            f"mean_gap must be finite and positive, got {mean_gap}"
        )
    if m < 2:
        raise InvalidConfigError(f"need m >= 2 events, got {m}")
    rng = np.random.default_rng(seed)
    gaps = np.rint(rng.exponential(mean_gap, m - 1)).astype(np.int64)
    times = np.concatenate([[0], np.cumsum(gaps)])
    return EventStream(times)


def gen_cluster(
    trigger_gap: float,
    burst_mean: float,
    intra_gap: float,
    m: int,
    seed: int,
    idle_run: float = 3.0,
) -> EventStream:
    """Burst stream with positively correlated gaps.

    Gaps alternate between runs: a burst of geometric(1/burst_mean) events
    contributes burst_mean - 1 expected short exponential(intra_gap) gaps,
    then a geometric(1/idle_run) run of long exponential(trigger_gap) gaps
    follows. Because both run kinds persist for several gaps, short gaps
    follow short gaps and long follow long, which a single isolated trigger
    gap between bursts would not achieve (with one long gap per burst and
    geometric sizes the gap sequence is an iid mixture).

    burst_mean = 1 degenerates to iid exponential(trigger_gap) gaps.
    Expected mean gap:
    ((burst_mean - 1) * intra_gap + idle_run * trigger_gap)
    / (burst_mean - 1 + idle_run).
    """
    if not (0 < trigger_gap < np.inf and 0 <= intra_gap < np.inf):
        raise InvalidConfigError(
            "trigger_gap must be positive, intra_gap >= 0, both finite"
        )
    if not burst_mean >= 1:
        raise InvalidConfigError(f"burst_mean must be >= 1, got {burst_mean}")
    if idle_run < 1:
        raise InvalidConfigError(f"idle_run must be >= 1, got {idle_run}")
    if m < 2:
        raise InvalidConfigError(f"need m >= 2 events, got {m}")

    rng = np.random.default_rng(seed)
    gaps_per_cycle = (burst_mean - 1.0) + idle_run
    n_cycles = int(np.ceil(1.5 * m / gaps_per_cycle)) + 16

    gaps = np.empty(0)
    while gaps.size < m - 1:
        n_intra = rng.geometric(1.0 / burst_mean, n_cycles) - 1
        if burst_mean == 1.0:
            n_intra = np.zeros(n_cycles, dtype=np.int64)
        n_idle = rng.geometric(1.0 / idle_run, n_cycles)
        intra_vals = rng.exponential(intra_gap, int(n_intra.sum()))
        idle_vals = rng.exponential(trigger_gap, int(n_idle.sum()))
        # interleave the runs cycle by cycle
        keys = np.concatenate(
            [
                np.repeat(np.arange(n_cycles) * 2, n_intra),
                np.repeat(np.arange(n_cycles) * 2 + 1, n_idle),
            ]
        )
        vals = np.concatenate([intra_vals, idle_vals])
        gaps = np.concatenate([gaps, vals[np.argsort(keys, kind="stable")]])
    rounded = np.rint(gaps[: m - 1]).astype(np.int64)
    times = np.concatenate([[0], np.cumsum(rounded)])
    return EventStream(times)


def inject_periodic(
    base: EventStream,
    period: float,
    jitter: float = 0.0,
    count: int | None = None,
    fraction: float | None = None,
    start: float | None = None,
    seed: int = 0,
) -> tuple[EventStream, np.ndarray]:
    """Merge a periodic train into a stream; returns (merged, labels).

    Train events sit at start + n * period + uniform(-jitter, jitter),
    rounded to integer seconds. Exactly one of count and fraction selects
    the train length; fraction is relative to the base event count. The
    labels array marks each merged event as background or injected.
    """
    if not 0 < period < np.inf:
        raise InvalidConfigError(f"period must be finite and positive, got {period}")
    if not 0 <= jitter < np.inf:
        raise InvalidConfigError(f"jitter must be finite and >= 0, got {jitter}")
    if base.m == 0:
        raise InvalidConfigError("base stream is empty")
    if (count is None) == (fraction is None):
        raise InvalidConfigError("give exactly one of count and fraction")
    if count is None:
        if not 0 <= fraction:
            raise InvalidConfigError(f"fraction must be >= 0, got {fraction}")
        count = int(round(fraction * base.m))
    if count < 0:
        raise InvalidConfigError(f"count must be >= 0, got {count}")

    rng = np.random.default_rng(seed)
    if start is None:
        start = float(base.times[0]) + float(rng.uniform(0, period))
    if count == 0:
        return EventStream(base.times.copy()), np.asarray(
            [LABEL_BACKGROUND] * base.m
        )

    offsets = rng.uniform(-jitter, jitter, count)
    injected = np.rint(start + np.arange(count) * period + offsets).astype(np.int64)

    merged = np.concatenate([base.times, injected])
    labels = np.asarray([LABEL_BACKGROUND] * base.m + [LABEL_INJECTED] * count)
    order = np.argsort(merged, kind="stable")
    return EventStream(merged[order]), labels[order]


def labels_to_csv(stream: EventStream, labels: np.ndarray) -> str:
    """Sidecar CSV pairing each event time with its label."""
    lines = ["time,label"]
    for t, lab in zip(stream.times, labels):
        lines.append(f"{t},{lab}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative generator description used by the CLI."""

    kind: str  # "poisson", "cluster" or "periodic"
    m: int
    seed: int
    mean_gap: float = 1.0
    trigger_gap: float = 10.0
    burst_mean: float = 3.0
    intra_gap: float = 1.0
    period: float = 100.0
    jitter: float = 0.0
    fraction: float = 0.05

    def generate(self) -> tuple[EventStream, np.ndarray]:
        if self.kind == "poisson":
            stream = gen_poisson(self.mean_gap, self.m, self.seed)
            return stream, np.asarray([LABEL_BACKGROUND] * stream.m)
        if self.kind == "cluster":
            stream = gen_cluster(
                self.trigger_gap, self.burst_mean, self.intra_gap, self.m, self.seed
            )
            return stream, np.asarray([LABEL_BACKGROUND] * stream.m)
        if self.kind == "periodic":
            base = gen_poisson(self.mean_gap, self.m, self.seed)
            return inject_periodic(
                base,
                self.period,
                jitter=self.jitter,
                fraction=self.fraction,
                seed=self.seed + 1,
            )
        raise InvalidConfigError(f"unknown generator kind: {self.kind!r}")

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

# Most events a generator draws at once: 2**24 int64 times are 134 MB.
MAX_EVENTS = 1 << 24
# Generated times stay below 2**62 s in magnitude. A float sum of at most
# MAX_EVENTS rounded gaps is within a relative 2**-29 of the exact sum, so
# a stream checked against this bound cannot overflow int64 when summed.
MAX_TIME = 2.0**62


def _check_m(m: int) -> None:
    if not 2 <= m <= MAX_EVENTS:
        raise InvalidConfigError(f"need 2 <= m <= {MAX_EVENTS} events, got {m}")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _stream_from_gaps(gaps: np.ndarray) -> EventStream:
    """Round gaps to whole seconds and accumulate them from time 0."""
    rounded = np.rint(gaps)
    with np.errstate(over="ignore"):  # a sum that overflows is rejected below
        span = rounded.sum()
    if not span < MAX_TIME:
        raise InvalidConfigError(
            f"the stream would span {span:.3g} s, more than {MAX_TIME:.3g} s"
        )
    return EventStream(np.concatenate([[0], np.cumsum(rounded.astype(np.int64))]))


def gen_poisson(mean_gap: float, m: int, seed: int) -> EventStream:
    """Memoryless stream: iid exponential gaps with the given mean."""
    if not 0 < mean_gap < np.inf:
        raise InvalidConfigError(
            f"mean_gap must be finite and positive, got {mean_gap}"
        )
    _check_m(m)
    rng = _rng(seed)
    return _stream_from_gaps(rng.exponential(mean_gap, m - 1))


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

    burst_mean = 1 degenerates to iid exponential(trigger_gap) gaps. Each
    round draws about 1.5 m + 16 (burst_mean - 1 + idle_run) gaps, which
    may not pass 2 * MAX_EVENTS.
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
    _check_m(m)

    rng = _rng(seed)
    gaps_per_cycle = (burst_mean - 1.0) + idle_run
    n_cycles = int(np.ceil(1.5 * m / gaps_per_cycle)) + 16
    draw = n_cycles * gaps_per_cycle
    if not draw <= 2 * MAX_EVENTS:
        raise InvalidConfigError(
            f"burst_mean {burst_mean} and idle_run {idle_run} would draw about "
            f"{draw:.3g} gaps at once, more than {2 * MAX_EVENTS}"
        )

    gaps = np.empty(0)
    while gaps.size < m - 1:
        n_intra = rng.geometric(1.0 / burst_mean, n_cycles) - 1
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
    return _stream_from_gaps(gaps[: m - 1])


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
        size = fraction * base.m
        if not 0 <= size <= MAX_EVENTS:
            raise InvalidConfigError(
                f"fraction {fraction} gives a train of {size:.3g} events; "
                f"need 0 to {MAX_EVENTS}"
            )
        count = int(round(size))
    if not 0 <= count <= MAX_EVENTS:
        raise InvalidConfigError(f"need 0 <= count <= {MAX_EVENTS}, got {count}")

    rng = _rng(seed)
    if start is None:
        start = float(base.times[0]) + float(rng.uniform(0, period))
    if count == 0:
        return EventStream(base.times.copy()), np.asarray(
            [LABEL_BACKGROUND] * base.m
        )

    offsets = rng.uniform(-jitter, jitter, count)
    injected = np.rint(start + np.arange(count) * period + offsets)
    reach = np.abs(injected).max()
    if not reach < MAX_TIME:
        raise InvalidConfigError(
            f"the train would reach {reach:.3g} s, more than {MAX_TIME:.3g} s"
        )
    injected = injected.astype(np.int64)

    merged = np.concatenate([base.times, injected])
    labels = np.asarray([LABEL_BACKGROUND] * base.m + [LABEL_INJECTED] * count)
    order = np.argsort(merged, kind="stable")
    return EventStream(merged[order]), labels[order]


def labels_to_csv(stream: EventStream, labels: np.ndarray) -> str:
    """Sidecar CSV pairing each event time with its label."""
    pairs = zip(stream.times.tolist(), labels.tolist())
    return "time,label\n" + "".join([f"{t},{label}\n" for t, label in pairs])


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

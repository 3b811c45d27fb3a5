"""Benchmark workloads: seeded input generation and the CLI call for each.

Every workload is one ``renewalstream`` CLI command on one generated log
file. The seed fully determines the log and the flags; the program only
ever sees the generated file. See README.md in this directory for why
each workload exists.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"  # inputs and outputs, removed after each run


def use_checkout_source() -> None:
    """Import ``renewalstream`` from this checkout's ``src`` and nowhere else.

    Raises RuntimeError when the checkout holds no source, so the benchmark
    never measures some other installed copy of the package.
    """
    if not (SRC / "renewalstream" / "__init__.py").is_file():
        raise RuntimeError(f"no renewalstream source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import renewalstream

    found = Path(renewalstream.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"renewalstream imported from {found}, not {SRC}")


# 2012-01-01T00:00:00Z: logs carry realistic epoch seconds, not times near 0.
BASE_EPOCH = 1_325_376_000

# Warm-up calls and the benchmark's own tests use the same workload at
# this event count: same command, flags and code paths, a fraction of the
# cost.
SCALED_M = 10_000

# sparse-detect: the detection regime of acceptance criteria 4 and 5.
DET_MEAN_GAP = 240.0
DET_PERIOD = 50 * DET_MEAN_GAP
DET_TRAINS = 3
DET_K = 150
DET_SUB_BINS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    m: int
    expected_exit: int
    k: int | None  # --k flag; None leaves the CLI default


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense", "analyze", 100_000, 0, 100),
        Workload("sparse-detect", "detect", 100_000, 2, DET_K),
        Workload("large", "analyze", 1_000_000, 0, None),
        Workload("bursty-iso", "characterize", 100_000, 0, None),
    )
}


@dataclass
class Instance:
    """One generated input and the CLI argument vector that analyzes it."""

    workload: Workload
    seed: int
    m: int
    text: str
    flags: list[str]
    expect: dict  # seed-specific facts the output checks rely on

    def argv(self, input_path: Path, out_dir: Path) -> list[str]:
        return [
            self.workload.command,
            str(input_path),
            *self.flags,
            "--out-dir",
            str(out_dir),
        ]

    def to_json(self) -> dict:
        """Everything but the text, for a process that reads the input file."""
        return {
            "name": self.workload.name,
            "seed": self.seed,
            "m": self.m,
            "flags": self.flags,
            "expect": self.expect,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        return cls(
            WORKLOADS[data["name"]], data["seed"], data["m"], "",
            data["flags"], data["expect"],
        )


def _epoch_lines(times) -> str:
    return "".join(f"{int(t) + BASE_EPOCH}\n" for t in times)


def _iso_lines(times) -> str:
    import numpy as np

    stamps = (np.asarray(times, dtype=np.int64) + BASE_EPOCH).astype("datetime64[s]")
    return "".join(f"{s}\n" for s in np.datetime_as_string(stamps, unit="s"))


def _sparse_detect_stream(m: int, seed: int):
    from renewalstream.synth import gen_poisson, inject_periodic

    base = gen_poisson(DET_MEAN_GAP, m, seed)
    per_train = int((base.times[-1] - base.times[0]) // DET_PERIOD)
    merged = base
    for i in range(DET_TRAINS):
        merged, _ = inject_periodic(
            merged, DET_PERIOD, count=per_train, seed=seed * 10 + i
        )
    return merged


def _empirical_bins(stream, k: int, bin_width: float) -> int:
    from renewalstream.estimation import empirical_grid_end, partial_sums
    from renewalstream.histogram import bin_count
    from renewalstream.ingest import inter_arrivals

    table = partial_sums(inter_arrivals(stream), k)
    return bin_count(empirical_grid_end(table, bin_width), bin_width, 0.0)


def make_instance(name: str, seed: int, m: int | None = None) -> Instance:
    """Generate the workload's log text and flags for a seed.

    ``m`` overrides the event count (the scaled-down instance).
    """
    from renewalstream.estimation import default_max_order
    from renewalstream.synth import gen_cluster, gen_poisson

    workload = WORKLOADS[name]
    m = workload.m if m is None else m
    flags = [] if workload.k is None else ["--k", str(workload.k)]
    expect: dict = {"k": workload.k or default_max_order(m - 1)}
    if name in ("dense", "large"):
        text = _epoch_lines(gen_poisson(2.0, m, seed).times)
        expect["flat_level"] = 1.0 / 2.0
    elif name == "sparse-detect":
        stream = _sparse_detect_stream(m, seed)
        text = _epoch_lines(stream.times)
        # n_sub is fixed from the grid the program will build, before timing
        n_bins = _empirical_bins(stream, DET_K, 1.0)
        n_sub = max(1, n_bins // DET_SUB_BINS)
        flags += ["--delta", "1", "--n-sub", str(n_sub)]
        expect.update(n_sub=n_sub, sub_bins=n_bins // n_sub, period_bins=DET_PERIOD)
    elif name == "bursty-iso":
        text = _iso_lines(gen_cluster(10.0, 3.0, 1.0, m, seed).times)
    else:
        raise KeyError(name)
    return Instance(workload, seed, m, text, flags, expect)

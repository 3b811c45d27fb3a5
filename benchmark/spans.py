"""In-memory spans and the traced replay of a CLI call.

The program itself carries no instrumentation. The replay calls the public
function of each module in the order the CLI handler calls it, with a span
around each call, and writes the same outputs the CLI writes; the worker
checks that they are byte-identical, which shows the stage split describes
the same computation.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from renewalstream.characterization import DEFAULT_THRESHOLDS, characterize, difference
from renewalstream.detection import (
    DetectionConfig,
    DetectionReport,
    SubDensityResult,
    chi_square_cdf,
    chi_square_stat,
    normalize_rd,
    split_subdensities,
    trimmed_mean_smooth,
)
from renewalstream.estimation import (
    DEFAULT_CONV_SPAN_FACTOR,
    DEFAULT_GRID_QUANTILE,
    RenewalDensityEstimate,
    convolution_grid_end,
    convolution_rd,
    default_max_order,
    empirical_grid_end,
    empirical_rd,
    first_order_pdf,
    partial_sums,
)
from renewalstream.histogram import default_width_grid, optimal_bin_width
from renewalstream.ingest import inter_arrivals, parse_stream

MAIN_SPAN = "cli"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``run`` tags the spans of one replay."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        self_time = self_times(self.spans)
        rows = [asdict(s) | {"self": self_time[s.id]} for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


@dataclass
class Replay:
    """What one traced replay produced: the CLI's outputs plus counts."""

    code: int
    stdout: str
    counts: dict


def _estimate(tr: Tracer, stream, k, bin_width, counts: dict, with_convolution: bool):
    """The body of ``estimate_stream`` / ``empirical_only``, span by span."""
    with tr.span("ingest.inter_arrivals"):
        arrivals = inter_arrivals(stream)
    k = k if k is not None else default_max_order(arrivals.n)
    width = bin_width
    if width is None:
        with tr.span("histogram.bin_width"):
            width = optimal_bin_width(arrivals.values)
    with tr.span("estimation.partial_sums"):
        table = partial_sums(arrivals, k)
    with tr.span("estimation.grid_end"):
        end = empirical_grid_end(table, width, DEFAULT_GRID_QUANTILE)
    with tr.span("estimation.empirical"):
        emp = empirical_rd(table, width, end)
    conv = None
    if with_convolution:
        with tr.span("estimation.grid_end"):
            conv_end = convolution_grid_end(arrivals, k, width, DEFAULT_CONV_SPAN_FACTOR)
        with tr.span("estimation.first_order"):
            f1 = first_order_pdf(arrivals, width, conv_end)
        with tr.span("estimation.convolution"):
            conv = convolution_rd(f1, k, source_rate=arrivals.rate)
    counts.update(
        arrivals=arrivals,
        searched=bin_width is None,
        table=table,
        emp=emp,
        conv=conv,
    )
    return emp, conv


def _write(out_dir: Path, files: dict[str, str]) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
        written += len(text.encode("utf-8"))
    return written


def _analyze(tr, stream, k, bin_width, out_dir, counts, write_all: bool):
    """``_cmd_analyze`` (write_all) or ``_cmd_characterize``, span by span."""
    emp, conv = _estimate(tr, stream, k, bin_width, counts, with_convolution=True)
    with tr.span("characterization.difference"):
        curves = difference(emp, conv)
    with tr.span("characterization.characterize"):
        result = characterize(curves, emp.k, stream.rate, DEFAULT_THRESHOLDS)
    with tr.span("cli.serialize"):
        if not write_all:
            counts["output_bytes"] = _write(out_dir, {"e.csv": curves.to_csv()})
            return 0, result.to_json() + "\n"
        summary = {
            "rate": stream.rate,
            "m": stream.m,
            "k": emp.k,
            "delta": emp.bin_width,
            "e_max_norm": result.e_max_norm,
            "position_tweets": result.position_tweets,
            "zone": result.zone,
        }
        counts["output_bytes"] = _write(
            out_dir,
            {
                "rd_empirical.csv": emp.to_csv(),
                "rd_convolution.csv": conv.to_csv(),
                "e.csv": curves.to_csv(),
                "summary.json": json.dumps(summary, indent=2) + "\n",
            },
        )
        return 0, json.dumps(summary) + "\n"


def _detect(tr, stream, k, bin_width, out_dir, counts, n_sub):
    """The body of ``_cmd_detect`` and ``detect``, span by span."""
    emp, _ = _estimate(tr, stream, k, bin_width, counts, with_convolution=False)
    config = DetectionConfig(n_sub=min(n_sub, max(1, emp.n_bins // 2)))
    config.validate()
    with tr.span("detection.normalize"):
        normalized = normalize_rd(
            RenewalDensityEstimate(
                bin_width=emp.bin_width,
                values=emp.values,
                k=emp.k,
                kind=emp.kind,
                source_rate=emp.source_rate,
            )
        )
    with tr.span("detection.split"):
        blocks, dropped = split_subdensities(normalized, config.n_sub)
    n_bins = blocks[0].size
    report = DetectionReport(
        n_sub=config.n_sub, n_bins=n_bins, p_fa=config.p_fa, dropped_bins=dropped
    )
    half_window = max(1, n_bins // 2)
    for i, block in enumerate(blocks):
        with tr.span("detection.smooth"):
            smoothed = trimmed_mean_smooth(block, half_window, config.trim_fraction)
        with tr.span("detection.chi2"):
            chi2 = chi_square_stat(block, smoothed)
            p = chi_square_cdf(chi2, n_bins)
        report.subs.append(
            SubDensityResult(index=i, chi2=chi2, p=p, flag=p > 1.0 - config.p_fa)
        )
    report.detected = any(s.flag for s in report.subs)
    with tr.span("cli.serialize"):
        text = report.to_json()
        counts["output_bytes"] = _write(out_dir, {"detection.json": text + "\n"})
        stdout = text + "\n"
    counts["report"] = report
    return (2 if report.detected else 0), stdout


def _option(flags: list[str], name: str):
    return flags[flags.index(name) + 1] if name in flags else None


def replay(
    tr: Tracer, command: str, input_path: Path, flags: list[str], out_dir: Path
) -> Replay:
    """Run one workload call as the CLI would, with a span around each stage."""
    k = _option(flags, "--k")
    k = None if k is None else int(k)
    bin_width = _option(flags, "--delta")
    bin_width = None if bin_width is None else float(bin_width)
    counts: dict = {}
    with tr.span(MAIN_SPAN):
        with tr.span("cli.read"):
            text = Path(input_path).read_text(encoding="utf-8")
        with tr.span("ingest.parse"):
            stream = parse_stream(text)
        if command in ("analyze", "characterize"):
            write_all = command == "analyze"
            code, stdout = _analyze(tr, stream, k, bin_width, out_dir, counts, write_all)
        elif command == "detect":
            n_sub = int(_option(flags, "--n-sub"))
            code, stdout = _detect(tr, stream, k, bin_width, out_dir, counts, n_sub)
        else:
            raise KeyError(command)
    counts["stream"] = stream
    counts["output_bytes"] += len(stdout.encode("utf-8"))
    return Replay(code, stdout, _count_metrics(counts))


def _count_metrics(c: dict) -> dict:
    """Per-layer counts, read from the public results of one replay."""
    arrivals, table, emp, conv = c["arrivals"], c["table"], c["emp"], c["conv"]
    report = c.get("report")
    return {
        "ingest.events": c["stream"].m,
        "ingest.zero_gap_frac": float((arrivals.values == 0).mean()),
        "histogram.candidates": (
            int(default_width_grid(arrivals.values).size) if c["searched"] else 0
        ),
        "histogram.delta": emp.bin_width,
        "estimation.k": table.k,
        "estimation.n_windows": table.n_windows,
        "estimation.pair_sums": table.k * table.n_windows,
        "estimation.emp_bins": emp.n_bins,
        "estimation.conv_bins": conv.n_bins if conv is not None else 0,
        "estimation.emp_useful_frac": float(emp.values.sum() * emp.bin_width / emp.k),
        "detection.n_sub": report.n_sub if report else 0,
        "detection.sub_bins": report.n_bins if report else 0,
        "detection.smoothed_bins": report.n_sub * report.n_bins if report else 0,
        "detection.dropped_bins": report.dropped_bins if report else 0,
        "detection.flagged": sum(s.flag for s in report.subs) if report else 0,
        "cli.output_bytes": c["output_bytes"],
    }

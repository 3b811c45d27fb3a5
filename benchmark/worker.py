"""Run one workload's CLI calls in a process of its own.

    python benchmark/worker.py SPEC.json

``run.py`` writes the input files and SPEC.json, then starts this process,
so the process's peak RSS belongs to the workload's calls alone. After one
untimed warm-up call on the scaled-down instance, it repeats the call for
about ``seconds`` and prints one JSON object on stdout:

* untraced (``trace`` false): the median wall and CPU time of the calls;
* traced: per-layer metrics from a replay after each call (see spans.py),
  which must reproduce the call's outputs byte for byte.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

from workloads import Instance, use_checkout_source

use_checkout_source()

from renewalstream import cli  # noqa: E402

import spans  # noqa: E402
from checks import CallResult, check_call, load_references  # noqa: E402


def cli_call(argv: list[str], out_dir: Path) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crash is a failed call, not a failed benchmark
            traceback.print_exc()
            code = None
    return CallResult(code, out.getvalue(), err.getvalue(), out_dir)


def empty(out_dir: Path) -> None:
    """Remove a previous call's outputs, so checks see only this call's files."""
    shutil.rmtree(out_dir, ignore_errors=True)


def timed_call(argv: list[str], out_dir: Path) -> tuple[CallResult, float, float]:
    empty(out_dir)
    gc.collect()
    wall, cpu = perf_counter(), process_time()
    call = cli_call(argv, out_dir)
    return call, perf_counter() - wall, process_time() - cpu


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())} if path.is_dir() else {}


def replay_mismatch(
    call: CallResult, replayed: spans.Replay, replay_dir: Path
) -> list[str]:
    problems = []
    if replayed.code != call.code:
        problems.append(f"replay exit code {replayed.code}, CLI {call.code}")
    if replayed.stdout != call.stdout:
        problems.append("replay stdout differs from the CLI's")
    cli_files, replay_files = _tree(call.out_dir), _tree(replay_dir)
    if cli_files != replay_files:
        differ = sorted(
            n for n in cli_files.keys() | replay_files.keys()
            if cli_files.get(n) != replay_files.get(n)
        )
        problems.append(f"replay output files differ: {differ}")
    return problems


class Worker:
    def __init__(self, spec: dict):
        self.work = Path(spec["work"])
        self.seconds = float(spec["seconds"])
        self.full = Instance.from_json(spec["full"])
        self.warm = Instance.from_json(spec["warm"])
        self.references = load_references()
        self.problems: list[str] = []
        self.failed = 0

    def paths(self, instance: Instance, tag: str) -> tuple[Path, Path]:
        name = "warm" if instance is self.warm else "full"
        return self.work / f"{name}.log", self.work / f"{name}-{tag}"

    def record(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def calls(self):
        """Yield call indices while one more call fits in the time, at least one.

        A call is predicted to take the mean time of those before it, so a
        run ends near ``seconds`` rather than up to one slow call beyond it.
        """
        start = perf_counter()
        i = 0
        while True:
            yield i
            i += 1
            now = perf_counter()
            if now + (now - start) / i > start + self.seconds:
                return

    def untraced(self) -> dict:
        path, out = self.paths(self.warm, "out")
        warm_call = cli_call(self.warm.argv(path, out), out)
        self.problems += check_call(self.warm, warm_call, self.references)
        path, out = self.paths(self.full, "out")
        argv = self.full.argv(path, out)
        walls, cpus = [], []
        for i in self.calls():
            call, wall, cpu = timed_call(argv, out)
            walls.append(wall)
            cpus.append(cpu)
            self.record(f"call {i}", check_call(self.full, call, self.references))
        return {
            "metrics": {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
            },
            "walls": walls,
        }

    def traced(self, spans_out: Path) -> dict:
        warm_tracer = spans.Tracer()
        path, out = self.paths(self.warm, "out")
        _, replay_out = self.paths(self.warm, "replay")
        call = cli_call(self.warm.argv(path, out), out)
        replayed = spans.replay(
            warm_tracer, self.warm.workload.command, path, self.warm.flags, replay_out
        )
        self.problems += check_call(self.warm, call, self.references)
        self.problems += replay_mismatch(call, replayed, replay_out)

        tracer = spans.Tracer()
        path, out = self.paths(self.full, "out")
        _, replay_out = self.paths(self.full, "replay")
        argv = self.full.argv(path, out)
        walls, counts = [], {}
        for i in self.calls():
            call, wall, _ = timed_call(argv, out)
            walls.append(wall)
            empty(replay_out)
            gc.collect()
            tracer.run = i
            replayed = spans.replay(
                tracer, self.full.workload.command, path, self.full.flags, replay_out
            )
            counts = replayed.counts
            self.record(
                f"call {i}",
                check_call(self.full, call, self.references)
                + replay_mismatch(call, replayed, replay_out),
            )
        tracer.write(spans_out)
        metrics = layer_times(tracer.spans, len(walls))
        metrics["trace.overhead_s"] = metrics.pop("total") - statistics.median(walls)
        metrics.update(counts)
        return {"metrics": metrics, "walls": walls}


SPAN_NAMES = (
    "cli.read", "ingest.parse", "ingest.inter_arrivals", "histogram.bin_width",
    "estimation.partial_sums", "estimation.grid_end", "estimation.empirical",
    "estimation.first_order", "estimation.convolution",
    "detection.normalize", "detection.split", "detection.smooth", "detection.chi2",
    "characterization.difference", "characterization.characterize", "cli.serialize",
)


def layer_times(all_spans: list[spans.Span], runs: int) -> dict:
    """Median over replays of each stage's summed span time.

    ``<span>_s`` for each stage span (0 for a stage the command does not
    run), ``cli.self_s`` for the main span's self time and ``total`` for the
    main span's duration.
    """
    self_time = spans.self_times(all_spans)
    per_run = [dict.fromkeys([*SPAN_NAMES, "cli.self", "total"], 0.0) for _ in range(runs)]
    for s in all_spans:
        row = per_run[s.run]
        if s.name == spans.MAIN_SPAN:
            row["total"] += s.duration
            row["cli.self"] += self_time[s.id]
        else:
            row[s.name] += s.duration
    return {
        (key if key == "total" else f"{key}_s"): statistics.median(r[key] for r in per_run)
        for key in per_run[0]
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    worker = Worker(spec)
    if spec["trace"]:
        result = worker.traced(Path(spec["spans_out"]))
    else:
        result = worker.untraced()
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["metrics"]["peak_rss_mb"] = peak
    result.update(
        attempted=len(result.pop("walls")),
        failed=worker.failed,
        problems=worker.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

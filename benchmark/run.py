"""Benchmark entry point: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload sparse-detect --seed 1 --seconds 30 --trace 0

Generates the workload's input from the seed, runs the real CLI on it in a
worker process (worker.py), checks every call's outputs and prints a table
of metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. Exits 1 without that line when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import (
    ROOT,
    SCALED_M,
    SRC,
    WORK_ROOT,
    WORKLOADS,
    make_instance,
    use_checkout_source,
)

DECLARATION = ROOT / "BENCHMARK.json"
SPANS_ROOT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 7  # fresh interpreters per run for setup_s, split around the worker
IMPORT_TIME_REPEATS = 3
IMPORT = "import renewalstream.cli"
IMPORT_TIME_MODULES = {
    "renewalstream.estimation": "setup.estimation_import_s",
    "renewalstream.detection": "setup.detection_import_s",
    "renewalstream.cli": "setup.cli_import_s",
}
_IMPORT_TIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def child_env() -> dict:
    """One thread per process, and only this checkout's source on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:3]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def setup_samples(repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        run_child(["-c", IMPORT], timeout=60)
        times.append(perf_counter() - start)
    return times


def import_times() -> dict:
    """Median cumulative import time of the main modules, from -X importtime."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_TIME_MODULES.values()}
    for _ in range(IMPORT_TIME_REPEATS):
        stderr = run_child(["-X", "importtime", "-c", IMPORT], timeout=60).stderr
        for cumulative_us, module in _IMPORT_TIME.findall(stderr):
            if module in IMPORT_TIME_MODULES:
                samples[IMPORT_TIME_MODULES[module]].append(int(cumulative_us) / 1e6)
    missing = [name for name, values in samples.items() if len(values) != IMPORT_TIME_REPEATS]
    if missing:
        raise RuntimeError(f"-X importtime did not report {missing}")
    return {name: statistics.median(values) for name, values in samples.items()}


def prepare(
    name: str, seed: int, seconds: float, trace: bool, work: Path, m: int | None = None
) -> Path:
    """Write the inputs and the worker's spec; returns the spec's path.

    ``m`` scales the measured instance down (the benchmark's own tests).
    """
    spec = {"work": str(work), "seconds": seconds, "trace": trace}
    for key, m in (("full", m), ("warm", SCALED_M)):
        instance = make_instance(name, seed, m)
        (work / f"{key}.log").write_text(instance.text, encoding="utf-8")
        spec[key] = instance.to_json()
    spec["spans_out"] = str(SPANS_ROOT / f"spans-{name}-s{seed}.json")
    path = work / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the worker; ``setup_s`` is the median of fresh imports made half
    before and half after it, so a slow spell of the host weighs less."""
    work = WORK_ROOT / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    SPANS_ROOT.mkdir(exist_ok=True)
    setup = [] if trace else setup_samples(SETUP_REPEATS // 2)
    try:
        spec = prepare(name, seed, seconds, trace, work)
        # room for start-up, the warm-up and a last call that runs over
        timeout = 2 * seconds + 120
        proc = run_child([str(WORKER), str(spec)], timeout=timeout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        result["metrics"].update(import_times())
    else:
        setup += setup_samples(SETUP_REPEATS - len(setup))
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
        declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in section
    }
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g} ({failed} of {attempted} calls)")
    correct = failed == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python3 -m pytest benchmark/tests -q

They run scaled-down instances of each workload (SCALED_M events).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from checks import key_outputs, reference_key
from spans import Span, self_times
from worker import Worker, timed_call
from workloads import ROOT, SCALED_M, WORKLOADS, make_instance


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_identical_for_one_seed(name):
    first, again = make_instance(name, 7, SCALED_M), make_instance(name, 7, SCALED_M)
    assert (first.text, first.flags, first.expect) == (again.text, again.flags, again.expect)
    assert make_instance(name, 8, SCALED_M).text != first.text


def test_self_times_on_a_hand_built_tree():
    tree = [
        Span(0, "cli", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a.leaf", 2.0, 3.0, 1, 0),
        Span(3, "b", 3.5, 6.0, 0, 0),  # overlaps a: the overlap counts once
        Span(4, "c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
        Span(5, "cli", 20.0, 21.0, None, 1),
    ]
    assert self_times(tree) == pytest.approx(
        {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0, 5: 1.0}
    )


def _worker(tmp_path, name, trace):
    spec = run.prepare(name, 1, 0.0, trace, tmp_path, m=SCALED_M)
    return Worker(json.loads(spec.read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_reproduces_the_cli_call(tmp_path, name):
    worker = _worker(tmp_path, name, trace=True)
    result = worker.traced(tmp_path / "spans.json")
    assert worker.problems == []
    assert (worker.failed, len(result["walls"])) == (0, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = {m["name"] for m in declared["per_layer"]}
    measured_in_worker = {n for n in layer_names if not n.startswith("setup.")}
    assert measured_in_worker <= result["metrics"].keys()
    assert result["metrics"]["estimation.empirical_s"] > 0
    written = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert {row["name"] for row in written} >= {spans.MAIN_SPAN, "ingest.parse"}


def test_corrupted_reference_counts_as_a_failed_call(tmp_path):
    worker = _worker(tmp_path, "dense", trace=False)
    worker.untraced()
    assert worker.failed == 0
    keys = key_outputs("analyze", worker.work / "full-out", "")
    keys["e_max_norm"] *= 1 + 1e-6
    worker.references = {"dense": {reference_key(worker.full): keys}}
    result = worker.untraced()
    assert (worker.failed, len(result["walls"])) == (1, 1)
    assert any("e_max_norm" in p for p in worker.problems)


def test_each_timed_call_starts_without_earlier_outputs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("{}", encoding="utf-8")
    call, _, _ = timed_call(
        ["analyze", str(tmp_path / "missing.log"), "--out-dir", str(out)], out
    )
    assert call.code != 0
    assert not (out / "summary.json").exists()


def test_recorded_references_cover_every_workload():
    references = json.loads((ROOT / "benchmark" / "references.json").read_text())
    for name, workload in WORKLOADS.items():
        assert f"m{workload.m}-seed1" in references[name]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmark", tmp_path / "benchmark",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

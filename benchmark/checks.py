"""Output checks for one CLI call.

A call fails when its exit code is wrong, when stderr holds a traceback or
an ``error:`` line, or when its key outputs are wrong. Key outputs are
compared with ``references.json`` (to RTOL) for the seeds recorded there;
for any other seed only seed-independent invariants are checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from workloads import Instance

RTOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Poisson workloads: the interior of r(t) and r'(t) on the common grid sits
# within this share of the flat level 1/mean_gap.
FLAT_TOLERANCE = 0.05


@dataclass
class CallResult:
    code: int | None
    stdout: str
    stderr: str
    out_dir: Path


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def _rows(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(cell) for cell in line.split(",")] for line in lines]


def reference_key(instance: Instance) -> str:
    return f"m{instance.m}-seed{instance.seed}"


def key_outputs(command: str, out_dir: Path, stdout: str) -> dict:
    """The outputs a call is judged by, read back from what it wrote."""
    if command == "analyze":
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        keys = {
            key: summary[key]
            for key in ("k", "delta", "e_max_norm", "position_tweets", "zone")
        }
        for key, name in (
            ("emp_bins", "rd_empirical.csv"),
            ("conv_bins", "rd_convolution.csv"),
            ("e_bins", "e.csv"),
        ):
            keys[key] = len(_rows(out_dir / name))
        return keys
    if command == "characterize":
        result = json.loads(stdout)
        rows = _rows(out_dir / "e.csv")
        return {
            "delta": rows[1][0],
            "e_bins": len(rows),
            "e_max_norm": result["e_max_norm"],
            "position_tweets": result["position_tweets"],
            "zone": result["zone"],
        }
    if command == "detect":
        report = json.loads(stdout)
        written = json.loads((out_dir / "detection.json").read_text(encoding="utf-8"))
        if written != report:
            raise ValueError("detection.json differs from stdout")
        return {
            "n_sub": report["n_sub"],
            "n_bins": report["n_bins"],
            "detected": report["detected"],
            "flagged": [s["index"] for s in report["subs"] if s["flag"]],
        }
    raise KeyError(command)


def _same(actual, expected) -> bool:
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= RTOL * abs(expected)
    return type(actual) is type(expected) and actual == expected


def compare(keys: dict, reference: dict) -> list[str]:
    return [
        f"{key}: got {keys.get(key)!r}, reference {value!r}"
        for key, value in reference.items()
        if not _same(keys.get(key), value)
    ]


def _interior_mean(values: list[float]) -> float:
    n = len(values)
    inner = values[int(0.1 * n) : int(0.9 * n)]
    return sum(inner) / len(inner)


def invariants(instance: Instance, keys: dict, out_dir: Path) -> list[str]:
    """Seed-independent properties of a correct output."""
    expect = instance.expect
    name = instance.workload.name
    problems = []
    if name in ("dense", "large"):
        if keys["k"] != expect["k"]:
            problems.append(f"k is {keys['k']}, expected {expect['k']}")
        n = keys["e_bins"]
        for csv in ("rd_empirical.csv", "rd_convolution.csv"):
            level = _interior_mean([row[1] for row in _rows(out_dir / csv)[:n]])
            flat = expect["flat_level"]
            if abs(level - flat) > FLAT_TOLERANCE * flat:
                problems.append(f"{csv} interior mean {level}, expected ~{flat}")
    elif name == "sparse-detect":
        if not keys["detected"]:
            problems.append("periodic trains not detected")
        if (keys["n_sub"], keys["n_bins"]) != (expect["n_sub"], expect["sub_bins"]):
            problems.append(f"grid split {keys['n_sub']}x{keys['n_bins']} unexpected")
        period_sub = int(expect["period_bins"] // expect["sub_bins"])
        if period_sub not in keys["flagged"]:
            problems.append(f"sub-density {period_sub} (lag = period) not flagged")
    elif name == "bursty-iso":
        if not keys["e_max_norm"] > 0:
            problems.append(f"e_max_norm {keys['e_max_norm']} not positive")
        if keys["delta"] < 1 or keys["e_bins"] < 2:
            problems.append("degenerate difference grid")
    return problems


def stderr_problem(stderr: str) -> str | None:
    if "Traceback" in stderr:
        return "traceback on stderr"
    for line in stderr.splitlines():
        if "error:" in line:
            return f"stderr: {line}"
    return None


def check_call(instance: Instance, call: CallResult, references: dict) -> list[str]:
    """Every reason the call counts as failed; empty when it passed."""
    problems = []
    if call.code != instance.workload.expected_exit:
        problems.append(
            f"exit code {call.code}, expected {instance.workload.expected_exit}"
        )
    bad_stderr = stderr_problem(call.stderr)
    if bad_stderr:
        problems.append(bad_stderr)
    try:
        keys = key_outputs(instance.workload.command, call.out_dir, call.stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"]
    reference = references.get(instance.workload.name, {}).get(reference_key(instance))
    if reference is not None:
        problems += compare(keys, reference)
    problems += invariants(instance, keys, call.out_dir)
    return problems

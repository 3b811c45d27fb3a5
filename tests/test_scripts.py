"""Smoke runs of the scripts under scripts/, which import the library's
entry points but are not otherwise exercised by the suite."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, summary",
    [
        (
            "detection_power_sweep.py",
            r"false alarms on clean background: [01]/1",
        ),
        (
            "calibrate_zone_thresholds.py",
            r"suggested thresholds \(k=100\): low=\S+ high=\S+",
        ),
    ],
)
def test_script_runs_to_its_summary_line(script, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seeds", "1", "--m", "3000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(summary, proc.stdout.splitlines()[-1])

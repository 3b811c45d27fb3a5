"""Record the key outputs of every workload on the reference seeds.

    python3 benchmark/record_references.py

Writes references.json next to this file; the benchmark compares each call
on one of these seeds with it (checks.py). Re-record only for a change that
is meant to alter the outputs, and say so in that change. Every recorded
output must also pass the seed-independent invariants.
"""

from __future__ import annotations

import json
import shutil
import sys

from workloads import WORK_ROOT, WORKLOADS, make_instance, use_checkout_source

use_checkout_source()

from checks import REFERENCES, check_call, key_outputs, reference_key  # noqa: E402
from worker import cli_call  # noqa: E402

REFERENCE_SEEDS = range(16)


def main() -> int:
    work = WORK_ROOT / "references"
    work.mkdir(parents=True, exist_ok=True)
    references: dict = {}
    try:
        for name, workload in WORKLOADS.items():
            for seed in REFERENCE_SEEDS:
                instance = make_instance(name, seed)
                path, out = work / "input.log", work / "out"
                path.write_text(instance.text, encoding="utf-8")
                call = cli_call(instance.argv(path, out), out)
                problems = check_call(instance, call, {})
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                keys = key_outputs(workload.command, out, call.stdout)
                references.setdefault(name, {})[reference_key(instance)] = keys
                print(name, seed, keys, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

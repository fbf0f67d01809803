"""Regenerate oracle_sec5_ref.json, the stored reference of the oracle_sec5 workload.

    python3 perfbench/make_reference.py

Run it only when the oracle's numbers are meant to change; the benchmark
compares every oracle_sec5 invocation against this file at rtol 1e-9.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from dremnet import harness  # noqa: E402

import workloads  # noqa: E402

CHECKPOINTS = (0, 1, 2, 3, 10, 100, 500, 1000)


def main() -> int:
    workdir = BENCH / "_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS["oracle_sec5"](harness.load_scenario("sec5"), 0, workdir)
        report, mom = w.op(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref = {
        "horizon": w.horizon,
        "checkpoints": [k for k in CHECKPOINTS if k <= w.horizon],
        "violations": list(report.violations),
    }
    ref["values"] = workloads.reference_values(report, mom, ref["checkpoints"])
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the tier-1 test suite and pass only if the failures are the documented shortfalls.

The shortfalls are the test ids bulleted under "Testing" in README.md, such
as ``test_analysis.py::TestTheoremCheck::test_builtin_long_horizon``. The
check fails on any other failing or erroring test, and also when a
documented shortfall passes, so that README and the suite move together.

Run from anywhere: ``python tools/check_shortfalls.py``. Exit status 0 on a
match, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def documented_shortfalls(readme: str) -> set[str]:
    """The ``tests/...`` ids bulleted in the README's Testing section."""
    section = readme.split("\n## Testing\n", 1)[1].split("\n## ", 1)[0]
    return {f"tests/{m}" for m in re.findall(r"^- `(test_\w+\.py::[\w:\[\]-]+)`", section, re.M)}


def failed_tests(output: str) -> set[str]:
    """The ids on the FAILED and ERROR lines of pytest's short summary."""
    return {m.split(" - ", 1)[0] for m in re.findall(r"^(?:FAILED|ERROR) (\S.*)$", output, re.M)}


def main() -> int:
    want = documented_shortfalls((ROOT / "README.md").read_text())
    if not want:
        print("no documented shortfalls found in README.md Testing", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        print(f"pytest exited with status {proc.returncode}", file=sys.stderr)
        return 1
    got = failed_tests(proc.stdout)
    for name in sorted(got - want):
        print(f"unexpected failure: {name}", file=sys.stderr)
    for name in sorted(want - got):
        print(f"documented shortfall did not fail: {name} (update README.md Testing)", file=sys.stderr)
    if got != want:
        return 1
    print(f"ok: the {len(want)} failing tests are exactly the documented shortfalls")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""dremnet benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload mc_sec5 --seed 1 --seconds 38 --trace 0

Workloads: mc_sec5, oracle_sec5, run_sec5 (see perfbench/README.md).
With ``--trace 0`` the last stdout line reports setup_s, op_p50_s,
op_tail_s, steps_per_s and peak_rss_mb; with ``--trace 1`` it reports the
per-layer metrics of an outside-in trace. The line before it is a report with
the run manifest, sample counts, work counts and check results.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("mc_sec5", "oracle_sec5", "run_sec5")
# traced functions that every workload calls; only their times are result
# metrics, since a layer a workload never calls would read a constant 0 s
# (the report line carries the times of every traced function)
TIMED_EVERYWHERE = ("drem.extend", "model.regressor_at", "topology.in_neighbors", "trace")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# the run itself takes --seconds plus warm-up, one overrun op and the checks
RUN_SLACK_S = 100


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n).

    With fewer than 11 samples (only when operations raised) it is the maximum.
    """
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _spawn(args: list[str], timeout: float) -> dict:
    """Run one worker interpreter; its last stdout line is a JSON object."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--spawned", repr(spawned), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


UNITS_BY_SUFFIX = {
    ".calls": "count",
    ".self_s": "s",
    ".s": "s",
    ".bytes": "bytes",
    ".draws": "count",
    ".overhead_s": "s",
    "_frac": "frac",
    "_updates": "count",
    "_total": "count",
}


def _unit(name: str) -> str:
    for suffix, unit in UNITS_BY_SUFFIX.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "dremnet" / "__init__.py").is_file():
        print(f"benchmark: no dremnet sources under {src}", file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(ROOT),
            "src_sha256": _src_digest(src),
            # sec5 is builtin, so the source digest covers the scenario too
            "scenario": "sec5",
        }
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(_spawn(["--mode", "setup"], SETUP_TIMEOUT_S)["setup_s"])
        out = _spawn(
            [
                "--mode", "run",
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(workdir),
            ],
            args.seconds + RUN_SLACK_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = out["times"]
    manifest["numpy"] = out["numpy"]
    report = {
        "manifest": manifest,
        "ops_timed": len(times),
        "ops_traced": len(out["traced_times"]),
        "fail_frac": out["failed"] / out["attempted"],
        "counts": out["counts"],
        "checks": out["checks"],
        "problems": out["problems"],
    }
    if args.trace:
        report["layers"] = out["layers"]
        metrics = {
            name: _metric(v, _unit(name))
            for name, v in out["layers"].items()
            if _unit(name) != "s" or name.rsplit(".", 1)[0] in TIMED_EVERYWHERE
        }
    else:
        tail_s, pct, n = tail(times)
        report.update({"setup_samples_s": setups, "tail_percentile": pct, "tail_samples": n})
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "op_p50_s": _metric(statistics.median(times), "s"),
            "op_tail_s": _metric(tail_s, "s"),
            "steps_per_s": _metric(out["work"] / sum(times), "1/s"),
            "peak_rss_mb": _metric(out["peak_rss_mb"], "MB"),
        }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

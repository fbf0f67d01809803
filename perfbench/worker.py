"""One fresh interpreter of the benchmark: measures set-up, then runs a workload.

``--mode setup`` only measures set-up time: from the parent's spawn
timestamp (``time.monotonic``, a system-wide clock on Linux) to the loaded
sec5 scenario, covering interpreter start, ``import dremnet`` and
``load_scenario``. ``--mode run`` then runs the workload for ``--seconds``
and prints its raw measurements as one JSON line.
"""

from __future__ import annotations

import time  # first: set-up is timed from the parent's spawn

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# an operation that fails must not stop the loop; this caps the problems reported
MAX_PROBLEMS = 20
# the tail metric needs at least 10 samples beyond it
MIN_TIMED_OPS = 11


def _setup(spawned: float):
    sys.path.insert(0, str(ROOT / "src"))
    import dremnet
    from dremnet import harness

    s = harness.load_scenario("sec5")
    setup_s = time.monotonic() - spawned
    src = (ROOT / "src").resolve()
    if src not in Path(dremnet.__file__).resolve().parents:
        raise RuntimeError(f"imported dremnet from {dremnet.__file__}, not from {src}")
    return s, setup_s


def _compare(got: dict, want: dict) -> list[str]:
    return [f"{k}: {got.get(k)!r} != {v!r}" for k, v in want.items() if got.get(k) != v]


def run(args, s) -> dict:
    sys.path.insert(0, str(BENCH))
    import trace_calls
    import workloads

    w = workloads.WORKLOADS[args.workload](s, args.seed, Path(args.workdir))
    tracer = trace_calls.Tracer() if args.trace else None
    expected = w.expected_calls()
    refs: dict = {}    # seed index -> (digest, work counts) of its first output
    traced_refs: dict = {}  # seed index -> tracer counts of its first traced op
    firsts: dict = {}  # seed index -> first output, for the once-per-run checks
    problems: list[str] = []
    failed = attempted = 0
    times: list[float] = []
    traced_times: list[float] = []
    layer_ops: list[tuple[dict, dict]] = []  # per traced op: (timings, counts)
    work = 0  # work units of the untraced timed operations
    counts_out: dict = {}

    def one(i: int, traced: bool) -> tuple[float, int] | None:
        """Run, time and check op ``i``; (seconds, work units), None if it raised."""
        nonlocal failed, attempted, counts_out
        idx = w.seed_index(i)
        attempted += 1
        bad: list[str] = []
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            value = w.op(i)
            dt = time.perf_counter() - t0
        except Exception:
            failed += 1
            problems.append(f"op {i} raised:\n{traceback.format_exc()}")
            return None
        finally:
            if traced:
                tracer.uninstall()
        try:
            h, finite, counts, units = w.inspect(value)
        except Exception:
            failed += 1
            problems.append(f"op {i} output unreadable:\n{traceback.format_exc()}")
            return None
        if not finite:
            bad.append("non-finite output")
        if idx not in refs:
            refs[idx] = (h, counts)
            firsts[idx] = value
            counts_out = counts
        elif refs[idx][0] != h:
            bad.append(f"output differs from the first repetition of seed index {idx}")
        else:
            bad += _compare(counts, refs[idx][1])
        if traced:
            snap = tracer.snapshot()
            calls = {f"{n}.calls": v[0] for n, v in snap.items()}
            calls[trace_calls.NOISE_DRAWS] = tracer.draws
            bad += _compare(calls, expected)
            if idx not in traced_refs:
                traced_refs[idx] = calls
            else:
                bad += _compare(calls, traced_refs[idx])
            layer_ops.append((snap, calls))
        if bad:
            failed += 1
            problems.append(f"op {i}: " + "; ".join(bad))
        return dt, units

    one(0, False)  # warm-up: fills lazy caches; its output is the reference
    deadline = time.monotonic() + args.seconds
    i = 1
    while i <= MIN_TIMED_OPS or time.monotonic() < deadline:
        traced = bool(args.trace) and i % 2 == 0
        timing = one(i, traced)
        if timing is not None:
            (traced_times if traced else times).append(timing[0])
            if not traced:
                work += timing[1]
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_problems, check_info = [], {}
    if 0 in firsts:
        try:
            check_problems, check_info = w.check(firsts[0])
        except Exception:
            check_problems = [f"check raised:\n{traceback.format_exc()}"]
    else:
        check_problems = ["no successful operation to check"]
    if check_problems:
        # every output repeats the checked one, so a wrong reference fails them all
        failed = attempted
        problems = check_problems + problems

    layers = {}
    if layer_ops:
        snaps = [snap for snap, _ in layer_ops]
        for name in trace_calls.function_names():
            layers[f"{name}.calls"] = snaps[0][name][0]
            layers[f"{name}.s"] = statistics.median(op[name][1] for op in snaps)
            layers[f"{name}.self_s"] = statistics.median(op[name][2] for op in snaps)
        layers[trace_calls.NOISE_DRAWS] = layer_ops[0][1][trace_calls.NOISE_DRAWS]
        layers.update(counts_out)
        layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "times": times,
        "traced_times": traced_times,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts_out,
        "layers": layers,
        "checks": check_info,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir")
    args = p.parse_args(argv)
    s, setup_s = _setup(args.spawned)
    out = {"setup_s": setup_s}
    if args.mode == "run":
        import numpy

        out["numpy"] = numpy.__version__
        out.update(run(args, s))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

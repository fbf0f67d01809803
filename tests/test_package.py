import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dremnet

MODULES = ["analysis", "cli", "drem", "estimator", "excitation", "harness", "model", "topology"]

ENTRY_POINTS = [
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "run_single",
    "run_monte_carlo",
    "export_csv",
    "check_scenario",
    "moments",
    "theorem_check",
    "export_oracle_csv",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"dremnet.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_surface_is_the_cli_entry_points():
    assert dremnet.__all__ == ["__version__"] + ENTRY_POINTS
    for name in ENTRY_POINTS:
        obj = getattr(dremnet, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj


def test_import_loads_no_process_pool():
    # the worker pool is imported by a run that uses it, not by the package;
    # two workers on a single chunk run in this process
    code = (
        "import sys, dremnet\n"
        "s = dremnet.load_scenario('sec5')\n"
        "dremnet.run_monte_carlo(s, runs=2, base_seed=0, workers=2, horizon=5)\n"
        "print(sorted({'multiprocessing', 'socket', 'subprocess', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = str(Path(dremnet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _bench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    # the benchmark times these functions by name; a rename or deletion
    # must fail here rather than in a benchmark run
    trace_calls = _bench_module("trace_calls")
    assert trace_calls.TARGETS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in trace_calls.TARGETS
        if not inspect.isfunction(getattr(importlib.import_module(f"dremnet.{mod}"), fn, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", ["mc_sec5", "oracle_sec5", "run_sec5"])
def test_benchmark_call_counts_hold(workload, sec5, tmp_path):
    # a traced benchmark run fails when an operation's call or draw counts
    # leave the ones its size implies; one traced operation shows it here first
    trace_calls, workloads = _bench_module("trace_calls"), _bench_module("workloads")
    w = workloads.WORKLOADS[workload](sec5, 1, tmp_path)
    tracer = trace_calls.Tracer()
    tracer.install()
    try:
        w.op(0)
    finally:
        tracer.uninstall()
    calls = {f"{name}.calls": st[0] for name, st in tracer.snapshot().items()}
    calls[trace_calls.NOISE_DRAWS] = tracer.draws
    expected = w.expected_calls()
    assert {key: calls[key] for key in expected} == expected

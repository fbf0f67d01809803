import importlib

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

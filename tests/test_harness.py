import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dremnet import estimator, harness
from dremnet.analysis import mean_recursion, moments, theorem_check
from dremnet.estimator import HarmonicSchedule, TableSchedule
from dremnet.excitation import local_pe_check
from dremnet.harness import (
    CHUNK_RUNS,
    Scenario,
    ScenarioError,
    _chunk_sums,
    builtin_scenarios,
    check_scenario,
    export_csv,
    load_scenario,
    run_monte_carlo,
    run_single,
    step_tables,
)
from dremnet.model import Constant, CustomTable, NoiseModel, PeriodicList, RecursiveCosine, sample_noise
from dremnet.topology import (
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    closed_in_neighborhood,
    edges_at,
    neighborhood_index,
    neighborhood_sum,
    out_neighbors,
    ring,
)

# regression anchors for the builtin benchmark, frozen from the
# deterministic noise-free trajectory
SEC5_NOISE_FREE_FINALS = (
    0.6326846308522611,
    0.6811114390687689,
    0.8523975987631197,
    1.3678183923306257,
)


def tiny_scenario(**overrides) -> Scenario:
    base = dict(
        theta=np.array([1.0]),
        generators=(Constant(vector=(1.0,)),),
        variances=(0.0,),
        graph=StaticGraph(n=1, edges=()),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1,),
        theta_hat0=np.zeros((1, 1)),
        horizon=100,
    )
    base.update(overrides)
    return Scenario(**base)


def delta_traces(s: Scenario, horizon=None) -> np.ndarray:
    """Scalar-regressor traces delta_bar_i(k) for steps 0..horizon-1, as an (n, horizon) array."""
    return step_tables(s, horizon).delta


def consumption_trail(s: Scenario, run) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per sensor, every (source sensor, measurement time) pair its effective updates consumed.

    The trail needs no noise: an effective update of sensor i at step k
    consumes the measurements t = k-d+1..k of each member j of its closed
    neighborhood whose scalar regressor delta_bar_j(k) is nonzero.
    """
    delta = step_tables(s, run.horizon).delta
    return tuple(
        tuple(
            (j, t)
            for k in np.flatnonzero(run.effective[i - 1]).tolist()
            for j in closed_in_neighborhood(s.graph, i, k)
            if delta[j - 1, k] != 0.0
            for t in range(k - s.d + 1, k + 1)
        )
        for i in range(1, s.n + 1)
    )


def single_use_problems(s: Scenario, run) -> list[str]:
    """Measurements consumed twice by one sensor, effective updates closer than
    d+1 steps, and estimates that moved at a step not flagged effective.

    The trail trusts the effective flags, so the last check ties them to the
    trajectory. It runs one way only: an effective update may leave the
    estimate bit for bit unchanged when its gated sum is tiny.
    """
    problems = []
    for i, trail in enumerate(consumption_trail(s, run), start=1):
        eff = run.effective[i - 1]
        if len(trail) != len(set(trail)):
            problems.append(f"sensor {i} consumed a measurement twice")
        if np.any(np.diff(np.flatnonzero(eff)) < s.d + 1):
            problems.append(f"sensor {i} updated twice within {s.d + 1} steps")
        th = run.theta_hat[i - 1]
        unflagged = np.flatnonzero((th[1:] != th[:-1]).any(axis=1) & ~eff)
        if unflagged.size:
            problems.append(
                f"sensor {i} moved at {unflagged.size} steps not flagged effective (first k = {unflagged[0]})"
            )
    return problems


class TestBuiltin:
    def test_listing(self):
        assert "sec5" in builtin_scenarios()

    def test_fields(self, sec5):
        assert (sec5.n, sec5.d, sec5.horizon) == (4, 2, 500)
        assert np.array_equal(sec5.theta, [2.5, -1.0])
        assert sec5.mu == (0.1, 0.2, 0.3, 0.4)
        assert sec5.variances == (1.0, 1.0, 1.0, 1.0)
        assert sec5.graph == ring(4)
        assert sec5.schedule == HarmonicSchedule(c=0.7)
        assert np.array_equal(sec5.theta_hat0, np.zeros((4, 2)))
        assert isinstance(sec5.generators[0], PeriodicList)

    def test_load_is_fresh(self):
        a = load_scenario("sec5")
        b = load_scenario("sec5")
        assert a is not b


def two_sensor_config() -> dict:
    return {
        "model": {
            "theta": [2.5, -1.0],
            "generators": [
                {"kind": "periodic-list", "vectors": [[2, 3], [1, 2]]},
                {"kind": "constant", "vector": [1, 1]},
            ],
            "noise": [1.0, 0.5],
        },
        "graph": {"kind": "ring", "n": 2},
        "estimator": {"mu": [0.1, 0.2], "step": {"kind": "harmonic", "c": 0.7}},
        "run": {"horizon": 50},
    }


def load_config(tmp_path, cfg: dict) -> Scenario:
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    return load_scenario(p)


class TestLoading:
    def test_json_round_trip(self, tmp_path):
        cfg = two_sensor_config()
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(cfg))
        s = load_scenario(p)
        assert s.n == 2 and s.d == 2 and s.horizon == 50
        assert s.variances == (1.0, 0.5)
        # str paths work too
        s2 = load_scenario(str(p))
        assert s2.mu == s.mu

    @pytest.mark.parametrize("name", ["periodic_d3", "table_d5"])
    def test_tools_file_equals_fixture(self, name, request):
        # tools/output_digests.py runs the command line on tools/<name>.json
        s = load_scenario(Path(__file__).resolve().parent.parent / "tools" / f"{name}.json")
        fixture = request.getfixturevalue(name)
        for field in dataclasses.fields(Scenario):
            got, want = getattr(s, field.name), getattr(fixture, field.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ScenarioError, match="sec5"):
            load_scenario("no-such-scenario")

    def test_unreadable_path_raises_os_error(self, tmp_path):
        with pytest.raises(OSError, match=f"^{re.escape(f'cannot read {tmp_path}: Is a directory')}$"):
            load_scenario(tmp_path)

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "model": [,]\n}')
        with pytest.raises(ScenarioError, match=r"broken\.json:2:"):
            load_scenario(p)

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match="object"):
            load_scenario(p)

    @pytest.mark.parametrize(
        "section, field, value, where",
        [
            ("model", "theta", "2.5", "model.theta"),
            ("model", "noise", [1.0, "x"], "model.noise"),
            ("model", "generators", {"kind": "constant"}, "model.generators"),
            ("model", "generators", [{"kind": "periodic-list", "vectors": 5}], "model.generators[1].vectors"),
            ("graph", "n", [2], "graph.n"),
            ("estimator", "mu", 5, "estimator.mu"),
            ("estimator", "mu", [0.1, True], "estimator.mu"),
            ("estimator", "step", 0.7, "estimator.step"),
            ("estimator", "step", {"kind": "harmonic", "c": [0.7]}, "estimator.step.c"),
            ("estimator", "theta_hat0", [1.0, 2.0], "estimator.theta_hat0"),
            ("run", "horizon", 2.5, "run.horizon"),
        ],
        ids=[
            "theta-string", "noise-string-entry", "generators-object", "generator-vectors-int",
            "graph-n-list", "mu-int", "mu-bool-entry", "step-number", "step-c-list",
            "theta_hat0-flat", "horizon-float",
        ],
    )
    def test_wrong_json_type_names_the_field(self, tmp_path, section, field, value, where):
        cfg = two_sensor_config()
        cfg[section][field] = value
        # the field is named once, not again by an outer handler
        with pytest.raises(ScenarioError, match=rf"^{re.escape(where)}: (?!{re.escape(where)})"):
            load_config(tmp_path, cfg)

    @pytest.mark.parametrize(
        "generator",
        [
            {"kind": "periodic-list", "vectors": [["HUGE", 0.0], [0.0, 1.0]]},
            {"kind": "recursive-cosine", "base": [0.0, 1.0], "slot": 0, "initial": "HUGE", "angle_step": 0.5},
            {"kind": "constant", "vector": [1.0, "-HUGE"]},
            {"kind": "custom-table", "vectors": [[1.0, 0.0], [0.0, "HUGE"]]},
        ],
        ids=["periodic-list", "recursive-cosine", "constant", "custom-table"],
    )
    def test_non_finite_regressor_names_the_generator(self, tmp_path, generator):
        cfg = two_sensor_config()
        cfg["model"]["generators"][1] = generator
        p = tmp_path / "scenario.json"
        # 1e999 overflows to inf when JSON is parsed
        p.write_text(json.dumps(cfg).replace('"-HUGE"', "-1e999").replace('"HUGE"', "1e999"))
        with pytest.raises(ScenarioError, match=r"^model\.generators\[2\]: .* must be finite, got -?inf$"):
            load_scenario(p)

    def test_ragged_theta_hat0_names_the_field(self, tmp_path):
        cfg = two_sensor_config()
        cfg["estimator"]["theta_hat0"] = [[0.0, 1.0], [2.0]]
        with pytest.raises(ScenarioError, match=r"^theta_hat0 must be a number, got \[0\.0, 1\.0\]$"):
            load_config(tmp_path, cfg)

    def test_subnormal_harmonic_coefficient_refused(self, tmp_path):
        cfg = two_sensor_config()
        cfg["estimator"]["step"]["c"] = 5e-324
        with pytest.raises(ScenarioError, match=r"^estimator\.step: harmonic coefficient c must be at least .*, got 5e-324$"):
            load_config(tmp_path, cfg)

    def test_missing_field(self, tmp_path):
        cfg = two_sensor_config()
        del cfg["estimator"]["step"]
        with pytest.raises(ScenarioError, match="^estimator: missing field 'step'$"):
            load_config(tmp_path, cfg)

    def test_section_must_be_object(self, tmp_path):
        cfg = two_sensor_config()
        cfg["estimator"] = [0.1, 0.2]
        with pytest.raises(ScenarioError, match="^estimator: expected an object"):
            load_config(tmp_path, cfg)

    def test_missing_section(self, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"model": {}, "graph": {}, "estimator": {}}))
        with pytest.raises(ScenarioError, match="run"):
            load_scenario(p)

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (("estimator", "step", "c"), "nan", "estimator.step.c"),
            (("estimator", "step", "c"), "0.7", "estimator.step.c"),
            (("model", "generators", 1, "slot"), 0.9, "model.generators[2].slot"),
            (("model", "generators", 1, "slot"), True, "model.generators[2].slot"),
            (("model", "generators", 1, "slot"), "0", "model.generators[2].slot"),
            (("model", "generators", 1, "initial"), "3", "model.generators[2].initial"),
            (("model", "generators", 0, "vectors"), [["2", "3"], ["1", "2"]], "model.generators[1].vectors"),
            (("graph", "n"), 2.7, "graph.n"),
            (("graph", "n"), "2", "graph.n"),
            (("graph", "edges"), ["12", "21"], "graph.edges"),
            (("graph", "edges"), [[1.5, 2]], "graph.edges"),
            (("graph", "edges"), [[1, 2, 3]], "graph.edges"),
            (("model", "generators", 1, "slott"), 0, "model.generators[2].slott"),
            (("run", "steps"), 10, "run.steps"),
            (("comment",), "x", "comment"),
        ],
        ids=[
            "c-nan-string", "c-string", "slot-float", "slot-bool", "slot-string", "initial-string",
            "vectors-strings", "n-float", "n-string", "edges-strings", "edges-float", "edges-triple",
            "unknown-generator-key", "unknown-section-key", "unknown-top-level-key",
        ],
    )
    def test_no_coercion_names_the_field(self, tmp_path, keys, value, where):
        cfg = two_sensor_config()
        cfg["model"]["generators"][1] = {
            "kind": "recursive-cosine", "base": [0, 1], "slot": 0, "initial": 1.0, "angle_step": 0.5,
        }
        cfg["graph"] = {"kind": "static", "n": 2, "edges": [[1, 2], [2, 1]]}
        load_config(tmp_path, cfg)  # the config loads as it stands
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ScenarioError, match=rf"^{re.escape(where)}: "):
            load_config(tmp_path, cfg)


def load_graph(tmp_path, graph: dict):
    """The graph of a config whose other sections fit ``graph["n"]`` sensors."""
    n = graph["n"]
    cfg = two_sensor_config()
    cfg["model"]["generators"] = [{"kind": "constant", "vector": [1, 1]}] * n
    cfg["model"]["noise"] = [1.0] * n
    cfg["estimator"]["mu"] = [0.1] * n
    cfg["graph"] = graph
    return load_config(tmp_path, cfg).graph


class TestGeneratorConfig:
    def test_round_trip_all_kinds(self, tmp_path):
        cases = [
            ({"kind": "periodic-list", "vectors": [[2, 3], [1, 2]]}, PeriodicList),
            (
                {
                    "kind": "recursive-cosine",
                    "base": [0, 1],
                    "slot": 0,
                    "initial": 1.0,
                    "angle_step": math.pi / 4,
                },
                RecursiveCosine,
            ),
            # a constant generator is a periodic list of one vector
            ({"kind": "constant", "vector": [1, 1]}, PeriodicList),
            ({"kind": "custom-table", "vectors": [[1, 0]]}, CustomTable),
        ]
        for gcfg, cls in cases:
            cfg = two_sensor_config()
            cfg["model"]["generators"][0] = gcfg
            assert isinstance(load_config(tmp_path, cfg).generators[0], cls)

    def test_unknown_kind(self, tmp_path):
        cfg = two_sensor_config()
        cfg["model"]["generators"][0] = {"kind": "sinusoid"}
        with pytest.raises(ScenarioError, match=r'^model\.generators\[1\]\.kind: expected one of: .*"sinusoid"'):
            load_config(tmp_path, cfg)

    def test_missing_field(self, tmp_path):
        cfg = two_sensor_config()
        cfg["model"]["generators"][0] = {"kind": "recursive-cosine", "base": [0, 1]}
        with pytest.raises(ScenarioError, match=r"^model\.generators\[1\]: missing field 'slot'$"):
            load_config(tmp_path, cfg)


class TestGraphConfig:
    def test_ring_shorthand(self, tmp_path):
        assert load_graph(tmp_path, {"kind": "ring", "n": 4}) == ring(4)

    def test_static(self, tmp_path):
        g = load_graph(tmp_path, {"kind": "static", "n": 3, "edges": [[1, 2], [2, 3]]})
        assert isinstance(g, PeriodicGraph)
        assert g.stages == (((1, 2), (2, 3)),)

    def test_periodic(self, tmp_path):
        g = load_graph(tmp_path, {"kind": "periodic", "n": 3, "stages": [[[1, 2]], [[2, 3]]]})
        assert isinstance(g, PeriodicGraph)
        assert edges_at(g, 3) == ((2, 3),)

    def test_table(self, tmp_path):
        g = load_graph(tmp_path, {"kind": "table", "n": 2, "table": [[[1, 2]], []]})
        assert isinstance(g, TableGraph)
        assert edges_at(g, 9) == ()

    def test_missing_fields(self, tmp_path):
        with pytest.raises(ScenarioError, match="^graph: missing field 'kind'$"):
            load_graph(tmp_path, {"n": 3})
        with pytest.raises(ScenarioError, match="^graph: missing field 'edges'$"):
            load_graph(tmp_path, {"kind": "static", "n": 3})

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ScenarioError, match=r'^graph\.kind: expected one of: .*"mesh"'):
            load_graph(tmp_path, {"kind": "mesh", "n": 3})

    def test_constructor_error_names_the_graph(self, tmp_path):
        with pytest.raises(ScenarioError, match="^graph: a ring needs at least two sensors, got n=1$"):
            load_graph(tmp_path, {"kind": "ring", "n": 1})


class TestStepConfig:
    def test_config(self, tmp_path):
        cfg = two_sensor_config()
        assert load_config(tmp_path, cfg).schedule == HarmonicSchedule(c=0.7)
        cfg["estimator"]["step"] = {"kind": "table", "values": [0.5, 0.25]}
        assert load_config(tmp_path, cfg).schedule.values == (0.5, 0.25)
        cfg["estimator"]["step"] = {}
        with pytest.raises(ScenarioError, match=r"^estimator\.step: missing field 'kind'$"):
            load_config(tmp_path, cfg)
        cfg["estimator"]["step"] = {"kind": "exp"}
        with pytest.raises(ScenarioError, match=r'^estimator\.step\.kind: expected one of: harmonic, table, got "exp"$'):
            load_config(tmp_path, cfg)


class TestScenarioValidation:
    def test_mu_must_be_positive(self):
        with pytest.raises(ScenarioError, match="mu"):
            tiny_scenario(mu=(0.0,))

    def test_generator_dimension_mismatch(self):
        with pytest.raises(ScenarioError, match="sensor 1"):
            tiny_scenario(generators=(Constant(vector=(1.0, 1.0)),))

    def test_negative_variance(self):
        with pytest.raises(ScenarioError, match="variance"):
            tiny_scenario(variances=(-1.0,))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("variances", (1.0, 1.0, 1.0), "noise: expected 4 variances, got 3"),
            ("mu", (0.1, 0.2, 0.3, 0.4, 0.5), "mu: expected 4 entries, got 5"),
        ],
    )
    def test_one_entry_per_sensor(self, sec5, field, value, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(sec5, **{field: value})

    def test_sizes_come_from_graph_and_theta(self, sec5, table_d5):
        for s in (sec5, table_d5, tiny_scenario()):
            assert s.n == s.graph.n and s.d == len(s.theta)
        assert (sec5.n, sec5.d, table_d5.n, table_d5.d) == (4, 2, 3, 5)

    @pytest.mark.parametrize("theta", [np.zeros(0), np.zeros((2, 1)), np.float64(1.0)], ids=["empty", "2-d", "0-d"])
    def test_theta_must_be_a_non_empty_vector(self, theta):
        shape = re.escape(str(np.shape(theta)))
        with pytest.raises(ScenarioError, match=f"^theta must be a non-empty vector, got shape {shape}$"):
            tiny_scenario(theta=theta)

    def test_theta_fixes_the_dimension(self, sec5):
        # d follows theta, so a longer theta no longer fits the generators
        with pytest.raises(ScenarioError, match="^generators: sensor 1 emits dimension 2, expected d=3$"):
            dataclasses.replace(sec5, theta=np.array([1.0, 2.0, 3.0]))

    def test_graph_size_mismatch(self):
        # n is the graph's, so the other per-sensor fields are measured against it
        with pytest.raises(ScenarioError, match="^generators: expected 3 entries, got 1$"):
            tiny_scenario(graph=ring(3))

    def test_bad_graph_schedule(self):
        # the graph rejects its own bad edges before a scenario holds it
        with pytest.raises(ValueError, match="self-loop"):
            StaticGraph(n=1, edges=((1, 1),))

    def test_theta_hat0_shape(self):
        with pytest.raises(ScenarioError, match="theta_hat0"):
            tiny_scenario(theta_hat0=np.zeros((2, 1)))

    def test_theta_must_be_finite(self, sec5):
        with pytest.raises(ScenarioError, match="theta must be finite"):
            dataclasses.replace(sec5, theta=np.array([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("variances", ("1", True, 1.0, 1.0), "noise: variance must be a number, got '1'"),
            ("variances", (1.0, True, 1.0, 1.0), "noise: variance must be a number, got True"),
            ("mu", ("0.1", 0.2, 0.3, True), "mu: entry must be a number, got '0.1'"),
            ("mu", (0.1, 0.2, 0.3, True), "mu: entry must be a number, got True"),
            ("theta", ["2.5", True], "theta must be a number, got '2.5'"),
            ("theta", [2.5, True], "theta must be a number, got True"),
            ("theta_hat0", [[0.0, 0.0]] * 3 + [[0.0, True]], "theta_hat0 must be a number, got True"),
            ("horizon", 2.7, "horizon must be an integer, got 2.7"),
            ("horizon", True, "horizon must be an integer, got True"),
            ("horizon", "500", "horizon must be an integer, got '500'"),
        ],
        ids=[
            "variances-str", "variances-bool", "mu-str", "mu-bool", "theta-str", "theta-bool",
            "theta_hat0-bool", "horizon-float", "horizon-bool", "horizon-str",
        ],
    )
    def test_python_numbers_are_not_coerced(self, sec5, field, value, message):
        # JSON configs meet these checks in the typed reader first; Python
        # callers met none, and "1" loaded as 1.0, True as 1.0 and 2.7 as 2.7
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(sec5, **{field: value})

    @pytest.mark.parametrize(
        "variances, message",
        [
            ((1.0, -1.0, 1.0, 1.0), "noise: variance R_2 must be >= 0, got -1.0"),
            ((1.0, 1.0, math.nan, 1.0), "noise: variance must be finite, got nan"),
        ],
    )
    def test_noise_variance_range(self, sec5, variances, message):
        # the rule NoiseModel applies, under the config's name
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(sec5, variances=variances)

    def test_numpy_numbers_stay_valid(self, sec5):
        s = dataclasses.replace(
            sec5,
            variances=tuple(np.ones(4)),
            mu=(np.float32(0.5), 1, 0.25, np.float64(2.0)),
            theta=[np.int64(2), 1],
            horizon=np.int64(30),
        )
        assert s.variances == (1.0,) * 4 and s.mu == (0.5, 1.0, 0.25, 2.0)
        assert s.theta.tolist() == [2.0, 1.0] and s.theta.dtype == float
        assert s.horizon == 30 and type(s.horizon) is int
        res = run_single(sec5, 1, horizon=np.int64(7))
        assert res.horizon == 7 and type(res.horizon) is int
        assert res.theta_hat.tobytes() == run_single(sec5, 1, horizon=7).theta_hat.tobytes()

    @pytest.mark.parametrize("horizon", [2.7, True, np.float64(3.0)])
    def test_horizon_override_must_be_an_integer(self, sec5, horizon):
        # before, run_single and run_monte_carlo ran int(horizon) steps and
        # step_tables raised IndexError
        for call in (
            lambda: run_single(sec5, 1, horizon=horizon),
            lambda: run_monte_carlo(sec5, 2, 0, horizon=horizon),
            lambda: step_tables(sec5, horizon),
            lambda: check_scenario(sec5, horizon=horizon),
        ):
            with pytest.raises(ValueError, match=f"^horizon must be an integer, got {re.escape(repr(horizon))}$"):
                call()

    def test_theta_hat0_must_be_finite(self, sec5):
        with pytest.raises(ScenarioError, match="theta_hat0 must be finite"):
            dataclasses.replace(sec5, theta_hat0=np.full((4, 2), np.inf))


class TestStepTables:
    def test_skeleton_matches_run(self, sec5):
        tables = step_tables(sec5, horizon=60)
        res = run_single(sec5, seed=11, horizon=60)
        assert np.array_equal(tables.effective, res.effective)
        assert np.array_equal(tables.counters, res.counters)

    def test_alpha_row(self, sec5):
        tables = step_tables(sec5, horizon=5)
        assert tables.alpha[0] == 0.7
        assert tables.alpha[4] == 0.7 / 4

    def test_delta_traces_values(self, sec5):
        trace = delta_traces(sec5, horizon=120)
        k = np.arange(120)
        # warm-up step 0 is zero for everyone
        assert np.all(trace[:, 0] == 0.0)
        # sensor 1: exact alternating integer determinants
        expected1 = np.where(k % 2 == 1, -1.0, 1.0)
        assert np.array_equal(trace[0, 1:], expected1[1:])
        # sensors 2 and 3: cosine differences of the accumulated recursions
        np.testing.assert_allclose(
            trace[1, 1:], np.cos(k[1:] * np.pi / 4), atol=1e-12
        )
        np.testing.assert_allclose(
            trace[2, 1:], -np.cos(k[1:] * np.pi / 2), atol=1e-12
        )
        # sensor 4: constant regressor, identically zero
        assert np.all(trace[3] == 0.0)

    def test_effective_cadence(self, sec5):
        tables = step_tables(sec5, horizon=500)
        # sensors 1-3 fire on an exact 3-step cadence: some neighborhood
        # determinant is always nonzero once the counter matures (sensor 3's
        # odd-step value is ~1e-16 but nonzero)
        for i in range(3):
            steps = np.flatnonzero(tables.effective[i])
            assert steps[0] == 2
            assert np.all(np.diff(steps) == 3)
            assert len(steps) == 166
        # sensor 4 is gated by delta_bar_3 alone, which hits exact float
        # zeros at a few odd steps, stretching those gaps to 4
        steps4 = np.flatnonzero(tables.effective[3])
        assert steps4[0] == 2
        gaps = np.diff(steps4)
        assert set(gaps.tolist()) <= {3, 4}
        assert np.all(gaps >= sec5.d + 1)
        assert len(steps4) == 166

    @pytest.mark.parametrize("name", ["periodic_d3", "table_d5"])
    def test_short_horizons_are_prefixes(self, name, request):
        # horizons shorter than one window included, where only warm-up steps exist
        s = request.getfixturevalue(name)
        full = step_tables(s)
        for K in range(s.d + 2):
            t = step_tables(s, K)
            for field in ("y_det", "delta", "adj", "effective"):
                assert getattr(t, field).tobytes() == getattr(full, field)[:, :K].tobytes()

    @pytest.mark.parametrize(
        "vectors, theta, where",
        [
            (((1e160, 0.0), (0.0, 1e160)), (1.0, 2.0), "sensor 2, step 1:"),  # delta_bar
            (((1e80, 0.0), (0.0, 1e80)), (1.0, 2.0), "sensor 2, step 1:"),  # delta_bar^2
            (((1e300, 0.0),), (1e10, 2.0), "sensor 2, step 0:"),  # theta' phi
            # a singular window: delta_bar is 0, but ybar_2 = -inf + inf
            (((1e160, 0.0),), (1.0, 2.0), "sensor 2, step 1:"),
        ],
        ids=["delta", "delta-squared", "measurement", "ybar"],
    )
    def test_overflow_refused_as_run_single_refuses(self, vectors, theta, where):
        s = Scenario(
            theta=np.array(theta),
            generators=(PeriodicList(vectors=((1.0, 0.0), (0.0, 1.0))), PeriodicList(vectors=vectors)),
            variances=(1.0, 1.0),
            graph=ring(2),
            schedule=HarmonicSchedule(c=0.7),
            mu=(0.1, 0.1),
            theta_hat0=np.zeros((2, 2)),
            horizon=12,
        )
        with pytest.raises(ValueError, match="overflows float64") as tables_error:
            step_tables(s)
        with pytest.raises(ValueError, match="overflows float64") as run_error:
            run_single(s, seed=3)
        assert str(tables_error.value).startswith(where)
        assert str(run_error.value) == str(tables_error.value)


def estimate_overflow_scenario() -> Scenario:
    # the step tables build, and under seeds 1..3 the messages of steps 0..2
    # are finite, but the update at step 2 multiplies a delta_bar of 1e144 by
    # a measurement near 1e154
    big = PeriodicList(vectors=((1e154, 0.0), (0.0, 1e-10)))
    return Scenario(
        theta=np.zeros(2),
        generators=(big, big),
        variances=(1.7e308, 1.7e308),
        graph=ring(2),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.1),
        theta_hat0=np.zeros((2, 2)),
        horizon=12,
    )


class TestEstimateOverflow:
    WANT = "sensor 1, step 2: the estimate overflows float64; scale the regressors down"

    def test_both_engines_refuse_alike(self):
        s = estimate_overflow_scenario()
        step_tables(s)  # the noise-free tables build
        with pytest.raises(ValueError) as run_error:
            run_single(s, seed=1)
        with pytest.raises(ValueError) as mc_error:
            run_monte_carlo(s, runs=1, base_seed=0)
        assert str(run_error.value) == str(mc_error.value) == self.WANT

    def test_kernel_names_an_update_step(self):
        # more runs: some sensor leaves float64 range at one of its update steps
        s = estimate_overflow_scenario()
        tables = step_tables(s)
        with pytest.raises(ValueError, match="overflows float64") as error:
            run_monte_carlo(s, runs=3, base_seed=0)
        sensor, step = map(int, re.match(r"sensor (\d+), step (\d+): the estimate", str(error.value)).groups())
        assert tables.effective[sensor - 1, step]


def sum_overflow_scenario() -> Scenario:
    # d = 1 and the one edge 1 -> 2: every squared regressor is finite, but
    # sensor 2's neighbourhood sum 1.69e308 + 1.44e308 is not, and sensor 2
    # first updates at step 1
    return Scenario(
        theta=np.array([1.0]),
        generators=(Constant(vector=(1.3e154,)), Constant(vector=(1.2e154,))),
        variances=(1.0, 1.0),
        graph=StaticGraph(2, ((1, 2),)),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.1),
        theta_hat0=np.zeros((2, 1)),
        horizon=5,
    )


class TestNeighborhoodSumOverflow:
    WANT = "sensor 2, step 1: the neighborhood sum of squared delta_bar overflows float64; scale the regressors down"

    @pytest.mark.parametrize(
        "entry",
        [
            step_tables,
            check_scenario,
            moments,
            theorem_check,
            lambda s: run_monte_carlo(s, runs=2, base_seed=0),
            lambda s: run_single(s, seed=1),
        ],
        ids=["step_tables", "check_scenario", "moments", "theorem_check", "run_monte_carlo", "run_single"],
    )
    def test_table_readers_refuse_alike(self, entry):
        # one error naming the place, and no RuntimeWarning from the sum
        with pytest.raises(ValueError) as error:
            entry(sum_overflow_scenario())
        assert str(error.value) == self.WANT

    def test_check_scenario_names_a_sum_no_update_reads(self):
        # only the step-0 sum overflows, before any counter lets an update read
        # it: the tables build, but the excitation scan reads every step's sum
        big = (CustomTable(vectors=((1.3e154,), (1.0,))), CustomTable(vectors=((1.2e154,), (1.0,))))
        s = dataclasses.replace(sum_overflow_scenario(), generators=big, horizon=6)
        assert not np.isfinite(step_tables(s).full_sum[1, 0])
        with pytest.raises(ValueError) as error:
            check_scenario(s)
        assert str(error.value) == self.WANT.replace("step 1", "step 0")


def message_overflow_scenario() -> Scenario:
    # the noise-free tables build, but sensor 1's noisy step-1 message
    # overflows under some seeds; no update reads it (sensor 1's counter is
    # 1 < d there), and the step-2 updates overflow under every seed
    return Scenario(
        theta=np.zeros(2),
        generators=(PeriodicList(vectors=((1e154, 0.0), (0.0, 1.0))), Constant(vector=(1.0, 1.0))),
        variances=(1.5e308, 1.0),
        graph=ring(2),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.1),
        theta_hat0=np.zeros((2, 2)),
        horizon=6,
    )


def unread_overflow_scenario() -> Scenario:
    # sensor 3's noisy messages overflow, but its windows are singular, it
    # hears nobody and nobody hears it, so no update reads them; sensors 1
    # and 2 (edge 1 -> 2) update on finite messages
    flip = PeriodicList(vectors=((1.0, 0.0), (0.0, 1.0)))
    return Scenario(
        theta=np.zeros(2),
        generators=(flip, flip, Constant(vector=(1e160, 0.0))),
        variances=(1.0, 1.0, 1e300),
        graph=StaticGraph(3, ((1, 2),)),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.1, 0.1),
        theta_hat0=np.zeros((3, 2)),
        horizon=12,
    )


def estimate_order_scenario() -> Scenario:
    # noise-free and d = 1 with no edges: sensor 2 updates at steps 1, 3 and
    # 5, and its third update (step 5) overflows; sensor 1 first updates at
    # step 6, and that first update overflows. In step order sensor 2 is first
    return Scenario(
        theta=np.array([100.0]),
        generators=(
            CustomTable(vectors=((0.0,),) * 6 + ((1e154,),)),
            CustomTable(vectors=((1.0,),) * 5 + ((1e154,), (1.0,))),
        ),
        variances=(0.0, 0.0),
        graph=StaticGraph(2, ()),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.1),
        theta_hat0=np.zeros((2, 1)),
        horizon=8,
    )


def refusal(call) -> "str | None":
    """The text of the ValueError that ``call()`` raises, or None when it returns."""
    try:
        call()
    except ValueError as e:
        return str(e)
    return None


class TestEngineAgreement:
    """run_single and the Monte Carlo kernel at m = 1 accept and refuse the same inputs.

    The scenario is refused for what step_tables refuses, and a run for a
    non-finite estimate, named at its first (step, sensor); a noisy message
    is never refused on its own.
    """

    @pytest.mark.parametrize(
        "make, seeds, want",
        [
            (message_overflow_scenario, range(1, 40), "sensor 1, step 2: the estimate"),
            (sum_overflow_scenario, (1, 2), "sensor 2, step 1: the neighborhood sum"),
            (
                lambda: dataclasses.replace(sum_overflow_scenario(), theta=np.zeros(1)),
                (1, 2),
                "sensor 2, step 1: the neighborhood sum",
            ),
            (unread_overflow_scenario, (1, 2, 3), None),
            (estimate_order_scenario, (1,), "sensor 2, step 5: the estimate"),
        ],
        ids=["message-overflow", "sum-overflow", "sum-overflow-theta0", "unread-overflow", "estimate-order"],
    )
    def test_engines_decide_alike(self, make, seeds, want):
        s = make()
        up_front = refusal(lambda: step_tables(s))
        for seed in seeds:
            run, mc = [], []
            run_error = refusal(lambda: run.append(run_single(s, seed)))
            mc_error = refusal(lambda: mc.append(run_monte_carlo(s, runs=1, base_seed=seed - 1)))
            assert run_error == mc_error, seed
            if want is None:
                assert run_error is None
                tilde = run[0].theta_hat - s.theta
                assert mc[0].mean_tilde.tobytes() == tilde.tobytes(), seed
                assert mc[0].mean_error_norm.tobytes() == run[0].error_norm.tobytes(), seed
            else:
                assert run_error.startswith(want), (seed, run_error)
                # an up-front refusal is the one step_tables makes
                assert up_front is None or up_front == run_error

    @pytest.mark.parametrize(
        "make, seed, steps",
        [
            # sensor 1's step-1 message, which no update reads, and its step-2 message
            (message_overflow_scenario, 4, [[1, 2], []]),
            # every message of sensor 3 after its warm-up
            (unread_overflow_scenario, 1, [[], [], list(range(1, 12))]),
        ],
        ids=["message-overflow", "unread-overflow"],
    )
    def test_noisy_messages_overflow_where_described(self, make, seed, steps):
        s = make()
        phi, y_det = harness._noise_free(s, s.horizon)
        nm = NoiseModel(variances=s.variances, seed=seed)
        y = y_det + np.array([[sample_noise(nm, i, k) for k in range(s.horizon)] for i in range(1, s.n + 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            finite = harness._drem_layer(phi, y)[3]
        assert [np.flatnonzero(~row).tolist() for row in finite] == steps


class TestRunSingle:
    def test_noise_free_finals_frozen(self, sec5_noise_free):
        res = run_single(sec5_noise_free, seed=123)
        np.testing.assert_allclose(
            res.error_norm[:, -1], SEC5_NOISE_FREE_FINALS, rtol=1e-9
        )

    def test_noise_free_is_seed_independent(self, sec5_noise_free):
        a = run_single(sec5_noise_free, seed=1, horizon=40)
        b = run_single(sec5_noise_free, seed=999, horizon=40)
        assert np.array_equal(a.theta_hat, b.theta_hat)

    def test_horizon_zero(self, sec5):
        res = run_single(sec5, seed=5, horizon=0)
        assert res.theta_hat.shape == (4, 1, 2)
        assert res.payload_total == 0
        assert res.effective.shape == (4, 0)
        # initial error norm is ||theta|| for zero initialization
        np.testing.assert_allclose(res.error_norm[:, 0], math.sqrt(7.25), rtol=1e-12)

    def test_negative_horizon(self, sec5):
        with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
            run_single(sec5, seed=5, horizon=-1)

    def test_payload_accounting(self, sec5, request):
        res = run_single(sec5, seed=5, horizon=500)
        # ring: 4 messages per step, d+1 reals each
        assert res.payload_total == 500 * 4 * 3
        # time-varying graphs: d+1 reals per receiver of each message, at horizons
        # within table_d5's table (its last entry holds from step 44) and past it
        for name in ("periodic_d3", "table_d5"):
            s = request.getfixturevalue(name)
            for K in (0, 1, s.d, 60):
                receivers = sum(len(out_neighbors(s.graph, i, k)) for k in range(K) for i in range(1, s.n + 1))
                assert run_single(s, seed=5, horizon=K).payload_total == (s.d + 1) * receivers, (name, K)

    def test_stalled_single_sensor(self):
        # d=2 with a constant regressor: delta_bar stays 0, nothing updates
        s = tiny_scenario(
            theta=np.array([1.0, 2.0]),
            generators=(Constant(vector=(1.0, 1.0)),),
            theta_hat0=np.zeros((1, 2)),
            horizon=50,
        )
        res = run_single(s, seed=7)
        assert not res.effective.any()
        assert np.all(res.theta_hat == 0.0)
        # counter never resets
        assert np.array_equal(res.counters[0], np.arange(51))

    def test_matches_mean_recursion_when_noise_free(self):
        from dremnet.analysis import mean_recursion

        s = tiny_scenario()
        res = run_single(s, seed=3)
        tilde = res.theta_hat - s.theta[None, None, :]
        mean = mean_recursion(s)
        np.testing.assert_allclose(tilde, mean, atol=1e-12)
        assert res.error_norm[0, -1] == pytest.approx(0.10064048289913607, rel=1e-9)
        assert res.error_norm[0, -1] < 0.2 * res.error_norm[0, 0]

    def test_instrumentation_trail(self, sec5):
        res = run_single(sec5, seed=2, horizon=20)
        trail = consumption_trail(sec5, res)
        # sensor 1 hears itself and sensor 4; sensor 4's delta_bar is always
        # zero, so only (1, t) pairs appear
        sources = {j for (j, t) in trail[0]}
        assert sources == {1}
        # sensor 2 hears sensor 1 and itself, both excited
        sources2 = {j for (j, t) in trail[1]}
        assert sources2 == {1, 2}
        # each update consumes a window of d measurements per excited source
        assert [len(c) for c in trail] == [12, 22, 22, 12]

    @pytest.mark.parametrize("name", ["periodic_d3", "table_d5"])
    def test_single_use(self, name, request):
        # the counter gate on a d > 2 scenario with a time-varying graph
        s = request.getfixturevalue(name)
        res = run_single(s, seed=42, horizon=300)
        trail = consumption_trail(s, res)
        assert all(trail)
        assert any(j != i for i, c in enumerate(trail, start=1) for (j, _) in c)
        assert single_use_problems(s, res) == []


# estimator.updates with the counter threshold moved from d to d - 2 (on
# d = 2 the counter then never holds a sensor back), and with no counter
RULES = {
    "d_minus_2": lambda counter, full_sum, d: counter >= d - 2 and full_sum != 0.0,
    "no_counter": lambda counter, full_sum, d: full_sum != 0.0,
}


class TestCounterRule:
    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("name", ["sec5", "periodic_d3"])
    def test_patched_rule_reaches_every_engine(self, name, rule, request, monkeypatch):
        # one patch of the rule moves the protocol, the step tables, the chunk
        # engine and the oracle together, and single use is then lost
        s = request.getfixturevalue(name)
        monkeypatch.setattr(estimator, "updates", RULES[rule])
        K = 300
        res = run_single(s, seed=42, horizon=K)
        tables = step_tables(s, K)
        assert np.array_equal(res.effective, tables.effective)
        assert np.array_equal(res.counters, tables.counters)
        _, sum_tilde, _ = _chunk_sums((s, tables, (42,)))
        assert sum_tilde.tobytes() == (res.theta_hat - s.theta).tobytes()
        quiet = run_single(dataclasses.replace(s, variances=(0.0,) * s.n), seed=1, horizon=K)
        np.testing.assert_allclose(quiet.theta_hat - s.theta, mean_recursion(s, K), atol=1e-12)
        assert single_use_problems(s, res)


class TestMonteCarlo:
    def test_single_run_aggregate_matches_run_single(self, sec5):
        agg = run_monte_carlo(sec5, runs=1, base_seed=10, horizon=30)
        res = run_single(sec5, seed=11, horizon=30)
        tilde = res.theta_hat - sec5.theta[None, None, :]
        assert np.array_equal(agg.mean_tilde, tilde)
        assert np.array_equal(agg.mean_error_norm, res.error_norm)
        assert np.all(agg.var_tilde == 0.0)

    def test_two_run_mean(self, sec5):
        agg = run_monte_carlo(sec5, runs=2, base_seed=10, horizon=30)
        r1 = run_single(sec5, seed=11, horizon=30)
        r2 = run_single(sec5, seed=12, horizon=30)
        t1 = r1.theta_hat - sec5.theta[None, None, :]
        t2 = r2.theta_hat - sec5.theta[None, None, :]
        assert np.array_equal(agg.mean_tilde, (t1 + t2) / 2)
        assert np.array_equal(
            agg.mean_error_norm, (r1.error_norm + r2.error_norm) / 2
        )

    @pytest.mark.parametrize("name", ["sec5", "periodic_d3", "table_d5"])
    def test_batched_engine_matches_stepper(self, name, request):
        # the vectorized chunk engine must equal run_single bit for bit
        from dremnet.harness import _chunk_sums

        scenario = request.getfixturevalue(name)
        seeds = (21, 22, 23)
        sum_err, sum_tilde, m2 = _chunk_sums((scenario, step_tables(scenario, 40), seeds))
        ref_err = np.zeros_like(sum_err)
        ref_tilde = np.zeros_like(sum_tilde)
        tildes = []
        for seed in seeds:
            res = run_single(scenario, seed=seed, horizon=40)
            tilde = res.theta_hat - scenario.theta[None, None, :]
            ref_err += res.error_norm
            ref_tilde += tilde
            tildes.append(tilde)
        ref_m2 = np.zeros_like(m2)
        for tilde in tildes:
            dev = tilde - ref_tilde / len(seeds)
            ref_m2 += dev * dev
        assert np.array_equal(sum_err, ref_err)
        assert np.array_equal(sum_tilde, ref_tilde)
        assert np.array_equal(m2, ref_m2)

    @pytest.mark.parametrize(
        "runs, chunk_runs, workers",
        [(24, 8, 4), (2 * CHUNK_RUNS + 1, CHUNK_RUNS, 2)],
        ids=["chunk8-workers4", "default-chunk-workers2"],
    )
    def test_worker_count_is_invisible(self, sec5, monkeypatch, runs, chunk_runs, workers):
        # chunks are split in the calling process, so the patched size holds in workers too
        monkeypatch.setattr(harness, "CHUNK_RUNS", chunk_runs)
        kw = dict(runs=runs, base_seed=0, horizon=25)
        a = run_monte_carlo(sec5, workers=1, **kw)
        b = run_monte_carlo(sec5, workers=workers, **kw)
        assert a.mean_tilde.tobytes() == b.mean_tilde.tobytes()
        assert a.var_tilde.tobytes() == b.var_tilde.tobytes()
        assert a.mean_error_norm.tobytes() == b.mean_error_norm.tobytes()

    def test_chunk_size_changes_only_rounding(self, sec5, monkeypatch):
        # regrouping the per-chunk sums reorders float additions, so only
        # worker placement is byte-invisible; chunk size agrees to rounding
        b = run_monte_carlo(sec5, runs=10, base_seed=0, horizon=25)
        monkeypatch.setattr(harness, "CHUNK_RUNS", 3)
        a = run_monte_carlo(sec5, runs=10, base_seed=0, horizon=25)
        np.testing.assert_allclose(a.mean_tilde, b.mean_tilde, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(a.var_tilde, b.var_tilde, rtol=1e-9, atol=1e-15)

    def test_no_seed_sequence_per_run(self, sec5, monkeypatch):
        # every Philox key comes from model._seed_keys, one pass per chunk or run
        def refuse(*args, **kwargs):
            raise AssertionError("np.random.SeedSequence was called")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        agg = run_monte_carlo(sec5, runs=3, base_seed=2**40, horizon=20)
        res = run_single(sec5, seed=2**40 + 3, horizon=20)
        assert np.isfinite(agg.mean_tilde).all() and np.isfinite(res.theta_hat).all()

    def test_chunk_memory_stays_near_its_measurements(self, sec5):
        # a chunk's largest array is its (n, m, K) measurements, with the noise
        # written into it in place; a separate noise array (3x) would not fit
        K = 500
        tables = step_tables(sec5, K)
        seeds = tuple(range(10_001, 10_001 + CHUNK_RUNS))
        # the first call in a process peaks at 1.31x, later ones at 1.09x;
        # a warm-up makes the traced call the same whatever ran before
        _chunk_sums((sec5, tables, seeds[:2]))
        tracemalloc.start()
        try:
            _chunk_sums((sec5, tables, seeds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sec5.n * CHUNK_RUNS * K * 8

    def test_variance_is_unbiased_and_clamped(self, sec5):
        agg = run_monte_carlo(sec5, runs=3, base_seed=100, horizon=20)
        runs = [run_single(sec5, seed=100 + r, horizon=20) for r in (1, 2, 3)]
        tilde = np.stack([r.theta_hat - sec5.theta[None, None, :] for r in runs])
        expected = tilde.var(axis=0, ddof=1)
        np.testing.assert_allclose(agg.var_tilde, expected, rtol=1e-9, atol=1e-15)
        assert np.all(agg.var_tilde >= 0.0)

    def test_argument_validation(self, sec5):
        with pytest.raises(ValueError, match="runs must be at least 1, got 0"):
            run_monte_carlo(sec5, runs=0, base_seed=0)
        for workers in (0, -2):
            with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
                run_monte_carlo(sec5, runs=4, base_seed=0, workers=workers)
        # the integer check of the horizon: no bool, no float, whatever its value
        for args, message in (
            (dict(runs=True), "runs must be an integer, got True"),
            (dict(runs=2.5), "runs must be an integer, got 2.5"),
            (dict(runs=2, workers=2.5), "workers must be an integer, got 2.5"),
            (dict(runs=2, workers=True), "workers must be an integer, got True"),
            (dict(runs=2, base_seed=1.5), "base_seed must be an integer, got 1.5"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_monte_carlo(sec5, **{"base_seed": 0, **args}, horizon=3)

    def test_integer_arguments_accepted(self, sec5):
        # numpy integers and negative seeds; the aggregate keeps Python ints
        agg = run_monte_carlo(sec5, runs=np.int64(2), base_seed=-5, workers=np.int32(1), horizon=3)
        assert (type(agg.runs), agg.runs, agg.base_seed) == (int, 2, -5)
        ref = run_monte_carlo(sec5, runs=2, base_seed=-5, horizon=3)
        assert agg.mean_tilde.tobytes() == ref.mean_tilde.tobytes()


class TestExport:
    def test_run_round_trip(self, sec5, tmp_path):
        res = run_single(sec5, seed=9, horizon=3)
        p = tmp_path / "run.csv"
        export_csv(res, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "k,i,error_norm,theta_hat_1,theta_hat_2"
        assert len(lines) == 1 + 4 * 4  # header + (K+1) * n
        # repr round-trips exactly
        k, i, err, t1, t2 = lines[5].split(",")
        assert (int(k), int(i)) == (1, 1)
        assert float(err) == res.error_norm[0, 1]
        assert float(t1) == res.theta_hat[0, 1, 0]
        assert float(t2) == res.theta_hat[0, 1, 1]

    def test_three_data_rows(self, tmp_path):
        s = tiny_scenario(horizon=2)
        res = run_single(s, seed=1)
        p = tmp_path / "tiny.csv"
        export_csv(res, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 4  # header + steps 0, 1, 2
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2"]

    def test_aggregate_header_and_order(self, sec5, tmp_path):
        agg = run_monte_carlo(sec5, runs=2, base_seed=0, horizon=2)
        p = tmp_path / "agg.csv"
        export_csv(agg, p)
        lines = p.read_text().splitlines()
        assert lines[0] == (
            "k,i,mean_error_norm,mean_tilde_1,mean_tilde_2,var_tilde_1,var_tilde_2"
        )
        # k-major, sensor-minor ordering
        heads = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
        assert heads[:5] == [("0", "1"), ("0", "2"), ("0", "3"), ("0", "4"), ("1", "1")]

    def test_ascii_and_newlines(self, sec5, tmp_path):
        res = run_single(sec5, seed=9, horizon=2)
        p = tmp_path / "run.csv"
        export_csv(res, p)
        raw = p.read_bytes()
        raw.decode("ascii")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            export_csv({"not": "exportable"}, tmp_path / "x.csv")

    def test_write_failure_names_path(self, sec5):
        res = run_single(sec5, seed=9, horizon=2)
        with pytest.raises(OSError, match="/nonexistent/dir/out.csv"):
            export_csv(res, "/nonexistent/dir/out.csv")


class TestCheckScenario:
    def test_builtin_passes(self, sec5):
        report = check_scenario(sec5, horizon=200)
        assert report.ok
        assert report.problems == ()
        assert report.pe_h == {1: 1, 2: 1, 3: 2, 4: 2}
        # sensor 4 alone is never excited; the report records that honestly
        assert report.single_pe_h[4] is None
        assert report.single_pe_h[1] == 1
        assert report.bounded_ok
        assert all(r <= b for r, b in zip(report.realized_max, report.bounds))

    def test_unbounded_regressor_flagged(self, sec5):
        # angle_step 0 adds cos(0) = 1 every step: a(k) = 1 + k grows without bound
        gens = list(sec5.generators)
        gens[1] = RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=0.0)
        report = check_scenario(dataclasses.replace(sec5, generators=tuple(gens)))
        assert report.bounds[1] == math.inf and not report.bounded_ok and not report.ok
        assert "sensor 2: regressor sequence is unbounded" in report.problems

    def test_unexcited_network_flagged(self):
        s = tiny_scenario(
            theta=np.array([1.0, 2.0]),
            generators=(Constant(vector=(1.0, 1.0)),),
            theta_hat0=np.zeros((1, 2)),
            horizon=60,
        )
        report = check_scenario(s)
        assert not report.ok
        assert report.pe_h == {1: None}
        assert any("excitation" in p for p in report.problems)

    @staticmethod
    def assert_margins_at_certified_window(s, K):
        # windows longer than the horizon are not tried; margins and messages
        # are reported at the certified window, or without one at the capped one
        report = check_scenario(s, h_max=8, horizon=K)
        sums = neighborhood_sum(neighborhood_index(s.graph, K), delta_traces(s, horizon=K) ** 2)
        top = min(8, K)
        for i, h in report.pe_h.items():
            assert h is None or h <= top
            cert = local_pe_check(sums, s.d, h or top, 1.0)
            assert report.pe_margin[i] == cert.margin[i - 1]
            if h is None:
                assert f"H <= {top}, omega = 1.0 (margin" in "".join(report.problems)
                assert f"at H = {top})" in "".join(report.problems)
        assert all(h is None or h <= top for h in report.single_pe_h.values())

    @pytest.mark.parametrize("K", [1, 2, 5, 7])
    def test_horizon_shorter_than_h_max(self, sec5, K):
        self.assert_margins_at_certified_window(sec5, K)

    @pytest.mark.parametrize("K", [7, 300])
    @pytest.mark.parametrize("name", ["periodic_d3", "table_d5"])
    def test_margins_of_generated_scenarios(self, name, K, request):
        # at K = 300 no sensor of table_d5 is certified, so every margin is at H = 8
        self.assert_margins_at_certified_window(request.getfixturevalue(name), K)

    @pytest.mark.parametrize(
        "args, message",
        [
            (dict(h_max=2.5), "h_max must be an integer, got 2.5"),
            (dict(h_max=True), "h_max must be an integer, got True"),
            (dict(h_max=0), "h_max must be at least 1, got 0"),
            (dict(omega="1"), "omega must be a number, got '1'"),
            (dict(omega=True), "omega must be a number, got True"),
            (dict(omega=float("nan")), "omega must be finite and positive, got nan"),
            (dict(omega=0.0), "omega must be finite and positive, got 0.0"),
        ],
    )
    def test_argument_validation(self, sec5, args, message):
        # as run_monte_carlo checks its own: a ValueError naming the argument
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_scenario(sec5, horizon=50, **args)

    def test_integer_arguments_accepted(self, sec5):
        ref = check_scenario(sec5, h_max=3, omega=1.0, horizon=50)
        got = check_scenario(sec5, h_max=np.int64(3), omega=np.float64(1.0), horizon=np.int32(50))
        assert (got.pe_h, got.pe_margin, got.single_pe_h, got.problems) == (
            ref.pe_h, ref.pe_margin, ref.single_pe_h, ref.problems
        )

    def test_horizon_zero_still_raises(self, sec5):
        with pytest.raises(ValueError, match="horizon 0 is shorter than the window H=1"):
            check_scenario(sec5, horizon=0)

    def test_flat_table_schedule_flagged(self):
        s = tiny_scenario(schedule=TableSchedule(values=(1.0,)), horizon=40)
        report = check_scenario(s)
        assert not report.ok
        assert any("decay" in p for p in report.schedule_problems)

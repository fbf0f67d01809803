"""Scenario loading, seeded runs, Monte Carlo aggregation, CSV export.

A scenario bundles the regression model, the communication graph, the
estimator parameters, and a default horizon. Runs are pure functions of
(scenario, seed): noise is counter-based, and the per-step single-run engine
and the vectorized many-run engine add through the same two functions,
``drem._mix`` and ``estimator._fused_step``, so their trajectories agree bit
for bit; Monte Carlo aggregates are byte-stable under any worker count.

Determinism contract: Monte Carlo runs are seeded base_seed+1..base_seed+M,
processed in fixed-size chunks, and reduced strictly in chunk order. Workers
only decide where a chunk is computed, never how results combine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import estimator
from .drem import DremMessage, _mix, extend
from .estimator import (
    HarmonicSchedule,
    NodeState,
    StepSchedule,
    TableSchedule,
    asymptotic_violations,
    node_step,
    schedule_violations,
    step_size,
)
from .excitation import find_certificate, single_sensor_pe
from .model import (
    Constant,
    CustomTable,
    NoiseModel,
    PeriodicList,
    RecursiveCosine,
    RegressorGenerator,
    _finite,
    _floats,
    _integer,
    _noise_models,
    noise_block,
    regressor_table,
    sample_noise,
)
from .topology import (
    GraphSchedule,
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    neighborhood_index,
    neighborhood_sum,
    neighborhood_values,
    ring,
)

__all__ = [
    "ScenarioError",
    "Scenario",
    "RunResult",
    "MonteCarloAggregate",
    "StepTables",
    "CheckReport",
    "builtin_scenarios",
    "load_scenario",
    "step_tables",
    "run_single",
    "run_monte_carlo",
    "write_csv",
    "step_rows",
    "export_csv",
    "check_scenario",
]

CHUNK_RUNS = 256


class ScenarioError(ValueError):
    """A scenario config failed to parse or validate."""


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything a run needs; immutable and picklable for worker pools.

    The sensor count n is the graph's, and the dimension d is theta's length.
    """

    theta: np.ndarray
    generators: tuple[RegressorGenerator, ...]
    variances: tuple[float, ...]
    graph: GraphSchedule
    schedule: StepSchedule
    mu: tuple[float, ...]
    theta_hat0: np.ndarray
    horizon: int

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return len(self.theta)

    def __post_init__(self):
        # the number and horizon checks below raise ValueError; report those too
        try:
            self._check()
        except ValueError as e:
            raise ScenarioError(str(e)) from None

    def _check(self):
        theta = _floats(self.theta, "theta")
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1 or not theta.size:
            raise ScenarioError(f"theta must be a non-empty vector, got shape {theta.shape}")
        if len(self.generators) != self.n:
            raise ScenarioError(f"generators: expected {self.n} entries, got {len(self.generators)}")
        for i, gen in enumerate(self.generators, start=1):
            if gen.dimension != self.d:
                raise ScenarioError(
                    f"generators: sensor {i} emits dimension {gen.dimension}, expected d={self.d}"
                )
        object.__setattr__(self, "variances", _finite(self.variances, "noise: variance"))
        if len(self.variances) != self.n:
            raise ScenarioError(f"noise: expected {self.n} variances, got {len(self.variances)}")
        for i, r in enumerate(self.variances, start=1):
            if r < 0.0:
                raise ScenarioError(f"noise: variance for sensor {i} must be >= 0, got {r}")
        object.__setattr__(self, "mu", _finite(self.mu, "mu: entry"))
        if len(self.mu) != self.n:
            raise ScenarioError(f"mu: expected {self.n} entries, got {len(self.mu)}")
        for i, m in enumerate(self.mu, start=1):
            if m <= 0.0:
                raise ScenarioError(f"mu: entry for sensor {i} must be positive, got {m}")
        th0 = _floats(self.theta_hat0, "theta_hat0")
        object.__setattr__(self, "theta_hat0", th0)
        if th0.shape != (self.n, self.d):
            raise ScenarioError(f"theta_hat0 must have shape ({self.n}, {self.d}), got {th0.shape}")
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon", 0))


def _sec5() -> Scenario:
    # four-sensor directed-ring benchmark: one periodic sensor, two cosine
    # random-walk sensors, and one constant (individually unexcited) sensor
    return Scenario(
        theta=np.array([2.5, -1.0]),
        generators=(
            PeriodicList(vectors=((2.0, 3.0), (1.0, 2.0))),
            RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=math.pi / 4),
            RecursiveCosine(base=(1.0, 0.0), slot=1, initial=2.0, angle_step=math.pi / 2),
            Constant(vector=(1.0, 1.0)),
        ),
        variances=(1.0, 1.0, 1.0, 1.0),
        graph=ring(4),
        schedule=HarmonicSchedule(c=0.7),
        mu=(0.1, 0.2, 0.3, 0.4),
        theta_hat0=np.zeros((4, 2)),
        horizon=500,
    )


_BUILTINS = {"sec5": _sec5}


def builtin_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def _numbers(value) -> bool:
    return type(value) is list and all(type(x) in (int, float) for x in value)


def _pairs(value) -> bool:
    return type(value) is list and all(
        type(e) is list and len(e) == 2 and all(type(x) is int for x in e) for e in value
    )


_JSON_TYPES = {
    "a number": lambda v: type(v) in (int, float),
    "an integer": lambda v: type(v) is int,
    "an object": lambda v: type(v) is dict,
    "a list of numbers": _numbers,
    "a list of lists of numbers": lambda v: type(v) is list and all(map(_numbers, v)),
    "a list of objects": lambda v: type(v) is list and all(type(x) is dict for x in v),
    "a list of [from, to] integer pairs": _pairs,
    "a list of lists of [from, to] integer pairs": lambda v: type(v) is list and all(map(_pairs, v)),
}

# The scenario file format. Sections without a kind map each field to its
# JSON type; in each family of objects with a "kind" (the graph section is
# one), the kind picks a constructor, which receives the other fields as
# keywords once each has its JSON type. Every field is required except
# estimator.theta_hat0.
_NUMBERS, _ROWS = "a list of numbers", "a list of lists of numbers"
_STAGES = "a list of lists of [from, to] integer pairs"
_SECTIONS = {
    "model": {"theta": _NUMBERS, "generators": "a list of objects", "noise": _NUMBERS},
    "estimator": {"mu": _NUMBERS, "step": "an object", "theta_hat0": _ROWS},
    "run": {"horizon": "an integer"},
}
_KINDS = {
    "model.generators": {
        "periodic-list": (PeriodicList, {"vectors": _ROWS}),
        "recursive-cosine": (
            RecursiveCosine,
            {"base": _NUMBERS, "slot": "an integer", "initial": "a number", "angle_step": "a number"},
        ),
        "constant": (Constant, {"vector": _NUMBERS}),
        "custom-table": (CustomTable, {"vectors": _ROWS}),
    },
    "graph": {
        "ring": (ring, {"n": "an integer"}),
        "static": (StaticGraph, {"n": "an integer", "edges": "a list of [from, to] integer pairs"}),
        "periodic": (PeriodicGraph, {"n": "an integer", "stages": _STAGES}),
        "table": (TableGraph, {"n": "an integer", "table": _STAGES}),
    },
    "estimator.step": {
        "harmonic": (HarmonicSchedule, {"c": "a number"}),
        "table": (TableSchedule, {"values": _NUMBERS}),
    },
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read(obj: dict, path: str, fields: dict, optional: tuple = ()) -> dict:
    """The object at ``path``, its fields checked against their JSON types.

    An unknown key, a missing field not in ``optional`` or a value of the
    wrong JSON type raises a ``ScenarioError`` that names the full path.
    """
    for key in obj:
        if key not in fields:
            raise ScenarioError(f"{_join(path, key)}: unknown key; expected one of: {', '.join(fields)}")
    for key, expected in fields.items():
        if key not in obj:
            if key not in optional:
                raise ScenarioError(f"{path or 'config'}: missing field {key!r}")
        elif not _JSON_TYPES[expected](obj[key]):
            raise ScenarioError(f"{_join(path, key)}: expected {expected}, got {json.dumps(obj[key])}")
    return obj


def _build(obj: dict, path: str, family: str):
    """The object at ``path``, built by the constructor of its kind in ``_KINDS[family]``.

    A ValueError from the constructor, such as a non-finite entry, is
    reported under ``path``.
    """
    kinds = _KINDS[family]
    if "kind" not in obj:
        raise ScenarioError(f"{path}: missing field 'kind'")
    kind = obj["kind"]
    if type(kind) is not str or kind not in kinds:
        raise ScenarioError(f"{path}.kind: expected one of: {', '.join(kinds)}, got {json.dumps(kind)}")
    make, fields = kinds[kind]
    args = _read({k: v for k, v in obj.items() if k != "kind"}, path, fields)
    try:
        return make(**args)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from None


def _scenario_from_config(cfg: dict) -> Scenario:
    _read(cfg, "", dict.fromkeys(("model", "graph", "estimator", "run"), "an object"))
    model = _read(cfg["model"], "model", _SECTIONS["model"])
    est = _read(cfg["estimator"], "estimator", _SECTIONS["estimator"], optional=("theta_hat0",))
    run = _read(cfg["run"], "run", _SECTIONS["run"])
    theta = np.array(model["theta"], dtype=float)
    generators = tuple(
        _build(g, f"model.generators[{i}]", "model.generators")
        for i, g in enumerate(model["generators"], start=1)
    )
    graph = _build(cfg["graph"], "graph", "graph")
    schedule = _build(est["step"], "estimator.step", "estimator.step")
    n, d = graph.n, len(theta)
    return Scenario(
        theta=theta,
        generators=generators,
        variances=tuple(model["noise"]),
        graph=graph,
        schedule=schedule,
        mu=tuple(est["mu"]),
        theta_hat0=est.get("theta_hat0", [[0.0] * d] * n),  # Scenario refuses ragged rows by name
        horizon=run["horizon"],
    )


def load_scenario(source: Union[str, Path]) -> Scenario:
    """Load a builtin scenario by name or a JSON scenario file by path.

    Parse errors carry the file position, and a key repeated within one
    object is an error; a file that breaks the format of ``_SECTIONS`` and
    ``_KINDS``, or a constraint of a constructor, raises a ``ScenarioError``
    naming the path of the offending field or object.
    """
    name = str(source)
    if name in _BUILTINS:
        return _BUILTINS[name]()
    path = Path(source)
    if not path.exists():
        known = ", ".join(builtin_scenarios())
        raise ScenarioError(f"{name}: no such file and not a builtin (known builtins: {known})")
    try:
        text = path.read_text()
    except OSError as e:
        raise OSError(f"cannot read {path}: {e.strerror or e}") from e

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioError(f"{path}: duplicate key {json.dumps(key)}")
            obj[key] = value
        return obj

    try:
        cfg = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return _scenario_from_config(cfg)


@dataclass(frozen=True, eq=False)
class StepTables:
    """Deterministic per-step tables shared by every run of a scenario.

    Regressors, noise-free measurements, scalar regressors delta_bar and adjugates, step
    sizes, padded closed-neighborhood indices and their sums of delta_bar squared, and the
    full counter/gating skeleton (which never depends on noise).
    """

    horizon: int
    phi: np.ndarray        # (n, K, d)
    y_det: np.ndarray      # (n, K)
    delta: np.ndarray      # (n, K)
    adj: np.ndarray        # (n, K, d, d)
    alpha: np.ndarray      # (K,)
    members: np.ndarray    # (n, K, width) 0-based, -1 padded
    full_sum: np.ndarray   # (n, K) ungated; may overflow where no update reads it
    gated_sum: np.ndarray  # (n, K)
    effective: np.ndarray  # (n, K) bool
    counters: np.ndarray   # (n, K+1) int


def _horizon(s: Scenario, horizon: Optional[int]) -> int:
    """The step count to simulate: the override if given, else the scenario's."""
    return s.horizon if horizon is None else _integer(horizon, "horizon", 0)


def _overflow(sensor: int, k: int, what: str = "the measurement or DREM message") -> ValueError:
    """The refusal of both engines when a measurement, message or estimate leaves float64 range."""
    return ValueError(f"sensor {sensor}, step {k}: {what} overflows float64; scale the regressors down")


def _refuse_nonfinite(finite: np.ndarray, *what: str) -> None:
    """Raise ``_overflow`` (with ``what``, if given) at the first False entry of the (n, K) ``finite`` in step order."""
    if not finite.all():
        k, i = np.argwhere(~finite.T)[0]  # the first that run_single meets
        raise _overflow(int(i) + 1, int(k), *what)


def _noise_free(s: Scenario, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The regressors phi (n, K, d) and noise-free measurements theta' phi (n, K), which the caller checks."""
    phi = np.array([regressor_table(g, K) for g in s.generators])
    with np.errstate(over="ignore", invalid="ignore"):
        # vecdot shares the np.dot kernel of measure(); a channel loop rounds differently
        return phi, np.vecdot(phi, s.theta) + 0.0


def _drem_layer(phi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """delta_bar (n, K), adj (n, K, d, d), ybar (..., n, K, d) and a finite mask (..., n, K) of every message.

    From regressors phi (n, K, d) and measurements y (..., n, K), entry (i, k) is sensor i+1's
    step-k message: zero in warm-up, as ``drem.drem_transform`` emits it, and after it ybar mixed by
    ``drem._mix``, as ``drem.mix`` mixes. Each window is transformed once, whatever the leading axes
    of y. The mask is False where y, delta_bar**2 or ybar is not finite.
    """
    n, K, d = phi.shape
    delta = np.zeros((n, K))
    adj = np.zeros((n, K, d, d))
    for i in range(n):
        rev = phi[i, ::-1]  # rev[K-1-k : K-1-k+d] is phi(k), ..., phi(k-d+1)
        windows = [extend(rev[j : j + d]) for j in range(K - d, -1, -1)]
        if windows:
            delta[i, d - 1 :], adj[i, d - 1 :] = zip(*windows)
    ybar = np.zeros(y.shape + (d,))
    with np.errstate(over="ignore", invalid="ignore"):
        if K >= d:  # column r of adj(k) meets y(k - r)
            lagged = [y[..., d - 1 - r : K - r, None] for r in range(d)]
            ybar[..., d - 1 :, :] = _mix(np.moveaxis(adj[:, d - 1 :], 3, 0), lagged)
        finite = np.isfinite(y) & np.isfinite(delta * delta) & np.isfinite(ybar).all(axis=-1)
    return delta, adj, ybar, finite


def _gating(s: Scenario, K: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed neighbourhoods (n, K, width), their ungated sums of delta_bar**2 (n, K) and the counters (n, K+1).

    Raises ValueError if a sum that an update divides by is not finite, naming
    the first (step, sensor) in step order.
    """
    d = s.d  # a property: read once, outside the counter loop
    members = neighborhood_index(s.graph, K)
    with np.errstate(over="ignore"):  # finite squares whose sum overflows are refused below
        full = neighborhood_sum(members, delta * delta)
    # read from the module at call time, so the tables and node_step share one rule
    updates = estimator.updates
    counts = []
    for row in full.tolist():
        trail = [c := 0]
        for f in row:
            trail.append(c := 0 if updates(c, f, d) else c + 1)
        counts.append(trail)
    counters = np.array(counts, dtype=np.int64)
    # at a step without an update the sum is only compared with 0
    _refuse_nonfinite(np.isfinite(full) | (counters[:, 1:] != 0), "the neighborhood sum of squared delta_bar")
    return members, full, counters


def step_tables(s: Scenario, horizon: Optional[int] = None) -> StepTables:
    """Precompute every noise-independent quantity for steps 0..horizon-1.

    Raises ValueError if a noise-free measurement theta' phi_i(k), a squared
    delta_bar_i(k) or a noise-free ybar_i(k) is not finite, naming the first
    (step, sensor) in step order, and then likewise if the neighborhood sum of
    squared delta_bar that an update divides by is not finite.
    """
    K = _horizon(s, horizon)
    phi, y_det = _noise_free(s, K)
    delta, adj, _, finite = _drem_layer(phi, y_det)
    _refuse_nonfinite(finite)
    members, full, counters = _gating(s, K, delta)
    eff = counters[:, 1:] == 0
    return StepTables(
        horizon=K,
        phi=phi,
        y_det=y_det,
        delta=delta,
        adj=adj,
        alpha=np.array([step_size(s.schedule, k) for k in range(K)]),
        members=members,
        full_sum=full,
        gated_sum=np.where(eff, full, 0.0),
        effective=eff,
        counters=counters,
    )


@dataclass(frozen=True, eq=False)
class RunResult:
    """One seeded trajectory.

    ``theta_hat[i-1, k]`` is sensor i's estimate at step k (k=0 is the
    initial state), ``error_norm`` its Euclidean distance to the truth,
    ``effective[i-1, k]`` whether sensor i updated at step k, and
    ``counters[i-1, k]`` the counter value entering step k.
    """

    seed: int
    horizon: int
    theta_hat: np.ndarray   # (n, K+1, d)
    error_norm: np.ndarray  # (n, K+1)
    effective: np.ndarray   # (n, K) bool
    counters: np.ndarray    # (n, K+1) int
    payload_total: int


def _channel_norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, squares added by ``drem._mix``; both engines' error norms come from here."""
    channels = np.moveaxis(diff, -1, 0)
    return np.sqrt(_mix(channels, channels))


def run_single(s: Scenario, seed: int, horizon: Optional[int] = None) -> RunResult:
    """Simulate one seeded run step by step through the estimator state machine.

    A message reads only its sensor's own data, so every message comes first
    from the DREM layer of ``step_tables``; at step k each sensor's closed
    neighbourhood hears them along the step-k edges, and ``node_step``
    consumes them. The scenario is refused for what ``step_tables`` refuses,
    with the same ValueError, and the run for a non-finite estimate, naming
    its sensor and step as ``run_monte_carlo`` does; a noisy message is never
    refused on its own.
    """
    K = _horizon(s, horizon)
    n, d = s.n, s.d
    nm = NoiseModel(variances=s.variances, seed=seed)
    states = [NodeState(theta_hat=th.copy(), counter=0, mu=mu) for th, mu in zip(s.theta_hat0, s.mu)]
    # per sensor: the estimates and counters after each step; a step updated iff it reset the counter
    thetas: list[list[np.ndarray]] = [[th] for th in s.theta_hat0]
    counts: list[list[int]] = [[0] for _ in range(n)]
    phi, y_det = _noise_free(s, K)
    v = np.array([[sample_noise(nm, i, k) for k in range(K)] for i in range(1, n + 1)])
    with np.errstate(over="ignore"):  # a noisy overflow shows only in the estimates it reaches
        delta, _, ybar, finite = _drem_layer(phi, np.stack([y_det, y_det + v]))
    _refuse_nonfinite(finite[0])
    index = _gating(s, K, delta)[0]
    deltas, rows = delta.tolist(), [list(r) for r in ybar[1]]
    # each in-edge adds one member to a closed neighbourhood and carries one message of d+1 reals
    payload_total = (d + 1) * (int((index >= 0).sum()) - n * K)
    members = index.tolist()
    for k in range(K):
        msgs = [DremMessage(ybar=rows[i][k], delta_bar=deltas[i][k], sensor=i + 1) for i in range(n)]
        for i in range(1, n + 1):
            # sensor i hears the other members of its closed neighbourhood (-1 pads)
            received = [msgs[j] for j in members[i - 1][k] if j >= 0 and j != i - 1]
            try:
                state, _ = node_step(states[i - 1], k, msgs[i - 1], received, s.schedule, d)
            except ValueError as e:
                # the scenario passed the checks of step_tables, so node_step refused the new estimate
                raise _overflow(i, k, "the estimate") from e
            states[i - 1] = state
            counts[i - 1].append(state.counter)
            thetas[i - 1].append(state.theta_hat)
    traj = np.array(thetas, dtype=float).reshape(n, K + 1, d)
    counters = np.array(counts, dtype=np.int64).reshape(n, K + 1)
    return RunResult(
        seed=seed,
        horizon=K,
        theta_hat=traj,
        error_norm=_channel_norm(traj - s.theta),
        effective=counters[:, 1:] == 0,
        counters=counters,
        payload_total=payload_total,
    )


@dataclass(frozen=True, eq=False)
class MonteCarloAggregate:
    """Aggregates over M runs seeded base_seed+1..base_seed+M.

    ``mean_tilde``/``var_tilde`` are the empirical mean and (M-1)-normalized
    variance of the per-channel error theta_hat - theta; ``var_tilde`` is all
    zeros when M=1.
    """

    runs: int
    base_seed: int
    horizon: int
    mean_error_norm: np.ndarray  # (n, K+1)
    mean_tilde: np.ndarray       # (n, K+1, d)
    var_tilde: np.ndarray        # (n, K+1, d)


def _chunk_sums(args: tuple[Scenario, StepTables, tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized engine: simulate one chunk of runs, return its moment sums.

    Messages mix by ``drem._mix`` and updates run ``estimator._fused_step`` on (n, d, m)
    arrays, neighbours in ascending order. Sensors interact only through their noise-free
    gating and the messages they broadcast, never through their estimates, so pass e applies
    the e-th effective update of every sensor at once, each at its own step; a sensor with
    fewer updates is held. A pass mixes each message it reads once, however many sensors hear
    it. The estimates after each pass are reduced over the runs, and a sensor's sums at step k
    are those after its last update before k. Returns (sum_err, sum_tilde, m2): the chunk's
    sums of the error norm and of theta_hat - theta, and the sum of squared deviations of
    theta_hat - theta from the chunk mean.
    """
    s, tables, seeds = args
    n, d, m, K = s.n, s.d, len(seeds), tables.horizon
    # run-major, so each noise block is one contiguous write
    y = np.empty((n, m, K))
    with np.errstate(over="ignore"):  # a noisy overflow shows only in the estimates it reaches
        for r, nm in enumerate(_noise_models(s.variances, seeds)):
            for j in range(1, n + 1):
                np.add(tables.y_det[j - 1], noise_block(nm, j, K), out=y[j - 1, r])
    # per sensor, the steps of its effective updates in order. After its
    # last update a sensor points at the last step: those passes hold its
    # estimate, and its sums never read them anyway
    eff = tables.effective
    counts = eff.sum(axis=1)
    passes = int(counts.max(initial=0))
    steps = np.full((n, passes), K - 1, dtype=np.intp)
    for i in range(n):
        steps[i, : counts[i]] = np.flatnonzero(eff[i])
    held = (np.arange(passes) >= counts[:, None])[:, :, None, None]
    rows = np.arange(n)[:, None]
    deltas = neighborhood_values(tables.members, tables.delta)[rows, steps]
    alpha = tables.alpha[steps][:, :, None, None]
    den = np.add(np.array(s.mu)[:, None], tables.gated_sum[rows, steps])[:, :, None, None]
    # pass e mixes each message it reads once: one per distinct (sender, step),
    # found by sorting (pass, sender, step) keys, and inv[e, i, p] picks sensor
    # i's member p. Padding reads the sensor's own message, which its update
    # reads anyway, under a zero delta
    senders = tables.members[rows, steps]  # (n, passes, width)
    senders = np.where(senders >= 0, senders, rows[:, :, None])
    keys = (np.arange(passes)[None, :, None] * n + senders) * K + steps[:, :, None]
    msgs, inv = np.unique(keys.transpose(1, 0, 2), return_inverse=True)
    bounds = np.searchsorted(msgs, np.arange(passes + 1) * (n * K))
    inv = inv.reshape(passes, n, senders.shape[2]) - bounds[:-1, None, None]
    msg_sender, msg_step = msgs // K % n, msgs % K
    msg_adj = np.moveaxis(tables.adj[msg_sender, msg_step], 2, 0)[..., None]  # (d, msgs, d, 1): column r first
    # state (n, d, m), runs innermost: broadcasts run along the m runs, and
    # each sum over the runs is numpy's pairwise sum along a contiguous axis
    th = np.repeat(s.theta_hat0[:, :, None], m, axis=2)
    ev_err = np.empty((passes + 1, n))  # the sums after t passes
    ev_tilde = np.empty((passes + 1, n, d))
    ev_m2 = np.empty((passes + 1, n, d))
    finite = np.ones((passes + 1, n), dtype=bool)  # whether every run's estimate is finite after t passes
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate is refused after the loop
        for t in range(passes + 1):
            if t > 0:
                e, lo, hi = t - 1, bounds[t - 1], bounds[t]
                js, ks = msg_sender[lo:hi], msg_step[lo:hi]
                # column r of each message's adjugate meets its y(k - r)
                ybar = _mix(msg_adj[:, lo:hi], y[js, :, ks - np.arange(d)[:, None]][:, :, None, :])
                # member p of every sensor: its delta (n, 1, 1) and its message (n, d, m)
                new = estimator._fused_step(th, deltas[:, e].T[..., None, None], ybar[inv[e].T], alpha[:, e], den[:, e])
                # a held sensor, past its last update, keeps its estimate
                th = np.where(held[:, e], th, new)
                finite[t] = np.isfinite(th).all(axis=(1, 2))
            # each sum starts from +0.0, so an all -0.0 sum reads +0.0
            tilde = th - s.theta[:, None]
            tot = tilde.sum(axis=2)
            dev = tilde - (tot / m)[:, :, None]
            ev_tilde[t] = 0.0 + tot
            ev_m2[t] = 0.0 + (dev * dev).sum(axis=2)
            ev_err[t] = 0.0 + _channel_norm(tilde.transpose(0, 2, 1)).sum(axis=1)
    if not finite.all():
        # an estimate stays non-finite once it is; name the first update that
        # made one, in step order, as run_single meets it
        first = finite.argmin(axis=0)  # each sensor's first pass count without a finite estimate, else 0
        i = min(np.flatnonzero(first), key=lambda i: (steps[i, first[i] - 1], i))
        raise _overflow(int(i) + 1, int(steps[i, first[i] - 1]), "the estimate")
    # each sensor's count of effective updates before step k picks its sums
    done = np.concatenate([np.zeros((n, 1), dtype=np.intp), np.cumsum(eff, axis=1)], axis=1)
    return ev_err[done, rows], ev_tilde[done, rows], ev_m2[done, rows]


def run_monte_carlo(
    s: Scenario,
    runs: int,
    base_seed: int,
    workers: int = 1,
    horizon: Optional[int] = None,
) -> MonteCarloAggregate:
    """Aggregate ``runs`` seeded runs; byte-identical for any worker count.

    Seeds are base_seed+1..base_seed+runs, split in this process into chunks
    of ``CHUNK_RUNS`` runs (read at call time) that share one set of step
    tables. Chunk results are merged strictly in chunk order: sums add, and
    squared deviations combine by the pairwise update of Chan, Golub and
    LeVeque (1979), which avoids the cancellation of sum(x^2) - M*mean^2.
    An estimate that leaves float64 range raises a ValueError naming a sensor and its update step.
    """
    runs, workers = _integer(runs, "runs", 1), _integer(workers, "workers", 1)
    base_seed = _integer(base_seed, "base_seed")
    K = _horizon(s, horizon)
    tables = step_tables(s, K)
    seeds = [base_seed + r for r in range(1, runs + 1)]
    chunks = [
        (s, tables, tuple(seeds[c : c + CHUNK_RUNS]))
        for c in range(0, runs, CHUNK_RUNS)
    ]
    if workers > 1 and len(chunks) > 1:
        # imported only here: the pool loads multiprocessing, which a
        # one-process call never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(_chunk_sums, chunks))
    else:
        parts = [_chunk_sums(c) for c in chunks]
    sum_err, sum_tilde, m2 = parts[0]
    count = len(chunks[0][2])
    for (_, _, part_seeds), (pe, pt, pm2) in zip(chunks[1:], parts[1:]):
        size = len(part_seeds)
        gap = pt / size - sum_tilde / count
        m2 = m2 + pm2 + gap * gap * (count * size / (count + size))
        sum_err = sum_err + pe
        sum_tilde = sum_tilde + pt
        count += size
    var = m2 / (runs - 1) if runs > 1 else np.zeros_like(sum_tilde)
    return MonteCarloAggregate(
        runs=runs,
        base_seed=base_seed,
        horizon=K,
        mean_error_norm=sum_err / runs,
        mean_tilde=sum_tilde / runs,
        var_tilde=var,
    )


def write_csv(target, header: str, lines: Iterable[str]) -> None:
    """Write a CSV header line and lines, each ending in LF, to a path or an open text stream.

    Every CSV the package produces goes through here. An unwritable path
    raises ``OSError`` naming the path.
    """
    if hasattr(target, "write"):
        target.write(header + "\n")
        target.writelines(line + "\n" for line in lines)
        return
    try:
        with open(target, "w", newline="") as f:
            write_csv(f, header, lines)
    except OSError as e:
        raise OSError(f"cannot write {target}: {e.strerror or e}") from e


def step_rows(values: np.ndarray) -> Iterator[str]:
    """CSV lines of an (n, K+1, c) or (n, K+1, d, c) float64 step table, k-major.

    Each line is ``k,i`` (and ``l`` for a per-channel table, i and l 1-based)
    followed by the repr of each of the c floats, which round-trips float64
    exactly. One step is converted at a time, to keep memory flat. A row
    whose float64 bits equal the previous step's reuses that step's text: bits,
    not ``==``, since 0.0 and -0.0 compare equal but print apart and NaN never
    compares equal.
    """
    per_channel = values.ndim == 4
    table = values if per_channel else values[:, :, None]  # (n, K+1, width, c)
    n, steps, width = table.shape[:3]
    bits = table.view(np.uint64)
    new = np.ones((n, steps, width), dtype=bool)
    new[:, 1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=3)
    labels = [f"{i},{l}," if per_channel else f"{i}," for i in range(1, n + 1) for l in range(1, width + 1)]
    text = [""] * (n * width)
    for k, fresh in enumerate(new.transpose(1, 0, 2).reshape(steps, n * width).tolist()):
        rows = table[:, k].reshape(n * width, -1).tolist()
        for j, changed in enumerate(fresh):
            if changed:
                text[j] = ",".join(map(repr, rows[j]))
        head = f"{k},"
        for label, cells in zip(labels, text):
            yield head + label + cells


def export_csv(obj: Union[RunResult, MonteCarloAggregate], path: Union[str, Path]) -> None:
    """Write a run or aggregate as CSV: one row per (step, sensor)."""
    if isinstance(obj, MonteCarloAggregate):
        d = obj.mean_tilde.shape[2]
        header = (
            ["k", "i", "mean_error_norm"]
            + [f"mean_tilde_{l}" for l in range(1, d + 1)]
            + [f"var_tilde_{l}" for l in range(1, d + 1)]
        )
        values = np.concatenate(
            [obj.mean_error_norm[:, :, None], obj.mean_tilde, obj.var_tilde], axis=2
        )
    elif isinstance(obj, RunResult):
        d = obj.theta_hat.shape[2]
        header = ["k", "i", "error_norm"] + [f"theta_hat_{l}" for l in range(1, d + 1)]
        values = np.concatenate([obj.error_norm[:, :, None], obj.theta_hat], axis=2)
    else:
        raise TypeError(f"cannot export object of type {type(obj).__name__}")
    write_csv(path, ",".join(header), step_rows(values))


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Assumption audit: boundedness, cooperative excitation, step sizes."""

    bounds: tuple[float, ...]
    realized_max: tuple[float, ...]
    bounded_ok: bool
    pe_h: dict[int, Optional[int]]
    pe_margin: dict[int, float]
    pe_ok: bool
    single_pe_h: dict[int, Optional[int]]
    schedule_problems: tuple[str, ...]
    problems: tuple[str, ...]
    ok: bool


def check_scenario(
    s: Scenario,
    h_max: int = 8,
    omega: float = 1.0,
    horizon: Optional[int] = None,
) -> CheckReport:
    """Audit the three standing assumptions on a scenario.

    Checks regressor boundedness (declared and realized over the horizon),
    searches neighborhood excitation certificates with windows up to h_max at
    level omega, and audits the step-size schedule. Single-sensor excitation
    is reported informationally; it is allowed to fail.
    """
    h_max = _integer(h_max, "h_max", 1)
    _finite((omega,), "omega", positive=True)
    K = _horizon(s, horizon)
    tables = step_tables(s, K)
    _refuse_nonfinite(np.isfinite(tables.full_sum), "the neighborhood sum of squared delta_bar")  # scans read every step
    problems: list[str] = []
    bounds = tuple(g.bound for g in s.generators)
    realized = tuple(float(np.abs(phi).max(initial=0.0)) for phi in tables.phi)
    bounded_ok = all(math.isfinite(b) for b in bounds)
    for i, b in enumerate(bounds, start=1):
        if not math.isfinite(b):
            problems.append(f"sensor {i}: regressor sequence is unbounded")
    # margins at the certified H, or without one at the longest window tried,
    # which is never longer than the horizon
    pe_h, pe_margin = find_certificate(tables.full_sum, s.d, omega, h_max)
    h_top = min(h_max, K)
    single_pe_h = single_sensor_pe(tables.delta, s.d, omega, h_max)[0]
    pe_ok = all(h is not None for h in pe_h.values())
    for i, h in pe_h.items():
        if h is None:
            problems.append(
                f"sensor {i}: no neighborhood excitation certificate with H <= {h_top}, "
                f"omega = {omega} (margin {pe_margin[i]:.3g} at H = {h_top})"
            )
    sched = tuple(schedule_violations(s.schedule, K) + asymptotic_violations(s.schedule))
    problems.extend(sched)
    return CheckReport(
        bounds=bounds,
        realized_max=realized,
        bounded_ok=bounded_ok,
        pe_h=pe_h,
        pe_margin=pe_margin,
        pe_ok=pe_ok,
        single_pe_h=single_pe_h,
        schedule_problems=sched,
        problems=tuple(problems),
        ok=bounded_ok and pe_ok and not sched,
    )

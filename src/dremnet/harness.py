"""Scenario loading, seeded runs, Monte Carlo aggregation, CSV export.

A scenario bundles the regression model, the communication graph, the
estimator parameters, and a default horizon. Runs are pure functions of
(scenario, seed): noise is counter-based, so the per-step single-run engine
and the vectorized many-run engine produce bit-identical trajectories, and
Monte Carlo aggregates are byte-stable under any worker count.

Determinism contract: Monte Carlo runs are seeded base_seed+1..base_seed+M,
processed in fixed-size chunks, and reduced strictly in chunk order. Workers
only decide where a chunk is computed, never how results combine.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .drem import drem_transform, extend
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
from .excitation import DeltaTrace, find_certificate, local_pe_check, single_sensor_pe
from .model import (
    Constant,
    CustomTable,
    NoiseModel,
    PeriodicList,
    RecursiveCosine,
    RegressorGenerator,
    noise_block,
    regressor_table,
    sample_noise,
)
from .topology import (
    GraphSchedule,
    PeriodicGraph,
    StaticGraph,
    TableGraph,
    edges_at,
    in_neighbors,
    neighborhood_index,
    neighborhood_values,
    out_neighbors,
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
    "delta_traces",
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
    """Everything a run needs; immutable and picklable for worker pools."""

    n: int
    d: int
    theta: np.ndarray
    generators: tuple[RegressorGenerator, ...]
    variances: tuple[float, ...]
    graph: GraphSchedule
    schedule: StepSchedule
    mu: tuple[float, ...]
    theta_hat0: np.ndarray
    horizon: int

    def __post_init__(self):
        if self.n < 1:
            raise ScenarioError(f"n must be at least 1, got {self.n}")
        if self.d < 1:
            raise ScenarioError(f"d must be at least 1, got {self.d}")
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.shape != (self.d,):
            raise ScenarioError(f"theta must have shape ({self.d},), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ScenarioError(f"theta must be finite, got {theta.tolist()}")
        if len(self.generators) != self.n:
            raise ScenarioError(f"generators: expected {self.n} entries, got {len(self.generators)}")
        for i, gen in enumerate(self.generators, start=1):
            if gen.dimension != self.d:
                raise ScenarioError(
                    f"generators: sensor {i} emits dimension {gen.dimension}, expected d={self.d}"
                )
        object.__setattr__(self, "variances", tuple(float(r) for r in self.variances))
        if len(self.variances) != self.n:
            raise ScenarioError(f"noise: expected {self.n} variances, got {len(self.variances)}")
        for i, r in enumerate(self.variances, start=1):
            if not (math.isfinite(r) and r >= 0.0):
                raise ScenarioError(f"noise: variance for sensor {i} must be >= 0, got {r}")
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) != self.n:
            raise ScenarioError(f"mu: expected {self.n} entries, got {len(self.mu)}")
        for i, m in enumerate(self.mu, start=1):
            if not (math.isfinite(m) and m > 0.0):
                raise ScenarioError(f"mu: entry for sensor {i} must be positive, got {m}")
        th0 = np.asarray(self.theta_hat0, dtype=float)
        object.__setattr__(self, "theta_hat0", th0)
        if th0.shape != (self.n, self.d):
            raise ScenarioError(f"theta_hat0 must have shape ({self.n}, {self.d}), got {th0.shape}")
        if not np.all(np.isfinite(th0)):
            raise ScenarioError(f"theta_hat0 must be finite, got {th0.tolist()}")
        if self.horizon < 0:
            raise ScenarioError(f"horizon must be nonnegative, got {self.horizon}")
        if self.graph.n != self.n:
            raise ScenarioError(f"graph: n={self.graph.n} does not match scenario n={self.n}")


def _sec5() -> Scenario:
    # four-sensor directed-ring benchmark: one periodic sensor, two cosine
    # random-walk sensors, and one constant (individually unexcited) sensor
    return Scenario(
        n=4,
        d=2,
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
        n=n,
        d=d,
        theta=theta,
        generators=generators,
        variances=tuple(model["noise"]),
        graph=graph,
        schedule=schedule,
        mu=tuple(est["mu"]),
        theta_hat0=np.array(est.get("theta_hat0", [[0.0] * d] * n), dtype=float),
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

    Regressors, noise-free measurements, scalar regressors delta_bar and
    adjugates, step sizes, padded closed-neighborhood indices, and the full
    counter/gating skeleton (which never depends on noise).
    """

    horizon: int
    phi: np.ndarray        # (n, K, d)
    y_det: np.ndarray      # (n, K)
    delta: np.ndarray      # (n, K)
    adj: np.ndarray        # (n, K, d, d)
    alpha: np.ndarray      # (K,)
    members: np.ndarray    # (n, K, width) 0-based, -1 padded
    gated_sum: np.ndarray  # (n, K)
    effective: np.ndarray  # (n, K) bool
    counters: np.ndarray   # (n, K+1) int


def _horizon(s: Scenario, horizon: Optional[int]) -> int:
    """The step count to simulate: the override if given, else the scenario's."""
    K = s.horizon if horizon is None else int(horizon)
    if K < 0:
        raise ValueError(f"horizon must be nonnegative, got {K}")
    return K


def step_tables(s: Scenario, horizon: Optional[int] = None) -> StepTables:
    """Precompute every noise-independent quantity for steps 0..horizon-1."""
    K = _horizon(s, horizon)
    n, d = s.n, s.d
    phi = np.array([regressor_table(g, K) for g in s.generators])
    # vecdot shares the np.dot kernel of measure(); a channel loop rounds differently
    y_det = np.vecdot(phi, s.theta) + 0.0
    delta = np.zeros((n, K))
    adj = np.zeros((n, K, d, d))
    for i in range(n):
        rev = phi[i, ::-1]  # rev[K-1-k : K-1-k+d] is phi(k), ..., phi(k-d+1)
        windows = [extend(rev[j : j + d]) for j in range(K - d, -1, -1)]
        if windows:
            delta[i, d - 1 :], adj[i, d - 1 :] = zip(*windows)
    alpha = np.array([step_size(s.schedule, k) for k in range(K)])
    members = neighborhood_index(s.graph, K)
    dlt = neighborhood_values(members, delta)
    full = np.zeros((n, K))
    for p in range(members.shape[2]):
        full += dlt[:, :, p] * dlt[:, :, p]
    # a sensor updates, resetting its counter, once the counter has reached d
    # and its neighborhood sum is nonzero
    c = [0] * n
    counts = [c]
    for row in (full != 0.0).T.tolist():
        c = [0 if ci >= d and nz else ci + 1 for ci, nz in zip(c, row)]
        counts.append(c)
    counters = np.array(counts, dtype=np.int64).T.copy()
    eff = counters[:, 1:] == 0
    return StepTables(
        horizon=K,
        phi=phi,
        y_det=y_det,
        delta=delta,
        adj=adj,
        alpha=alpha,
        members=members,
        gated_sum=np.where(eff, full, 0.0),
        effective=eff,
        counters=counters,
    )


def delta_traces(s: Scenario, horizon: Optional[int] = None) -> DeltaTrace:
    """Scalar-regressor traces delta_bar_i(k) for steps 0..horizon-1."""
    tables = step_tables(s, horizon)
    return DeltaTrace(values=tables.delta, d=s.d)


@dataclass(frozen=True, eq=False)
class RunResult:
    """One seeded trajectory.

    ``theta_hat[i-1, k]`` is sensor i's estimate at step k (k=0 is the
    initial state), ``error_norm`` its Euclidean distance to the truth,
    ``effective[i-1, k]`` whether the step-k update moved the estimate, and
    ``counters[i-1, k]`` the counter value entering step k.
    """

    seed: int
    horizon: int
    theta_hat: np.ndarray   # (n, K+1, d)
    error_norm: np.ndarray  # (n, K+1)
    effective: np.ndarray   # (n, K) bool
    counters: np.ndarray    # (n, K+1) int
    payload_size: int
    payload_total: int

    def effective_steps(self, sensor: int) -> np.ndarray:
        return np.flatnonzero(self.effective[sensor - 1])


def _channel_norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, adding the channels in ascending order.

    Both engines take their error norms from here, so they agree bit for bit.
    """
    total = np.zeros(diff.shape[:-1])
    for l in range(diff.shape[-1]):
        total += diff[..., l] * diff[..., l]
    return np.sqrt(total)


def run_single(s: Scenario, seed: int, horizon: Optional[int] = None) -> RunResult:
    """Simulate one seeded run step by step through the estimator state machine.

    Every sensor produces its message for step k, the full round is
    delivered along the step-k edges, and every sensor consumes its closed
    neighborhood's messages in the same k.
    """
    K = _horizon(s, horizon)
    n, d = s.n, s.d
    nm = NoiseModel(variances=s.variances, seed=seed)
    states = [
        NodeState(theta_hat=s.theta_hat0[i - 1].copy(), counter=0, mu=s.mu[i - 1])
        for i in range(1, n + 1)
    ]
    # per sensor: the estimates and counters after each step, the effective flags
    thetas: list[list[np.ndarray]] = [[th] for th in s.theta_hat0]
    counts: list[list[int]] = [[0] for _ in range(n)]
    eff: list[list[bool]] = [[] for _ in range(n)]
    payload_total = 0
    phis = [regressor_table(g, K) for g in s.generators]
    # vecdot shares the np.dot kernel of measure(), as in step_tables
    y_dets = [(np.vecdot(p, s.theta) + 0.0).tolist() for p in phis]
    phi_hist: list[list[np.ndarray]] = [[] for _ in range(n)]
    y_hist: list[list[float]] = [[] for _ in range(n)]
    # edge set -> per sensor (in-neighbours, out-degree), queried once per edge set
    hoods: dict = {}
    for k in range(K):
        edges = edges_at(s.graph, k)
        if edges not in hoods:
            hoods[edges] = [
                (in_neighbors(s.graph, i, k), len(out_neighbors(s.graph, i, k)))
                for i in range(1, n + 1)
            ]
        hood = hoods[edges]
        msgs = {}
        for i in range(1, n + 1):
            p = phis[i - 1][k]
            v = sample_noise(nm, i, k)
            y = y_dets[i - 1][k] + v
            phi_hist[i - 1] = [p, *phi_hist[i - 1][: d - 1]]  # newest first, at most d
            y_hist[i - 1] = [y, *y_hist[i - 1][: d - 1]]
            msg = drem_transform(i, phi_hist[i - 1], y_hist[i - 1])
            assert msg.payload_size == d + 1, "message payload must be d+1 reals"
            payload_total += msg.payload_size * hood[i - 1][1]
            msgs[i] = msg
        for i in range(1, n + 1):
            received = [msgs[j] for j in hood[i - 1][0]]
            state, effective = node_step(states[i - 1], k, msgs[i], received, s.schedule, d)
            eff[i - 1].append(effective)
            states[i - 1] = state
            counts[i - 1].append(state.counter)
            thetas[i - 1].append(state.theta_hat)
    traj = np.array(thetas, dtype=float).reshape(n, K + 1, d)
    return RunResult(
        seed=seed,
        horizon=K,
        theta_hat=traj,
        error_norm=_channel_norm(traj - s.theta),
        effective=np.array(eff, dtype=bool).reshape(n, K),
        counters=np.array(counts, dtype=np.int64).reshape(n, K + 1),
        payload_size=d + 1,
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

    Replays, elementwise across runs and sensors, the exact float operations
    of run_single: neighbours in ascending order, the same update
    expression, and sensors whose gated sum is zero left untouched. Only
    steps where some sensor updates are visited; the per-step sums of the
    other steps repeat the last visited ones. Returns (sum_err, sum_tilde,
    m2): the chunk's sums of the error norm and of theta_hat - theta, and
    the sum of squared deviations of theta_hat - theta from the chunk mean.
    """
    s, tables, seeds = args
    n, d, m, K = s.n, s.d, len(seeds), tables.horizon
    y = np.empty((n, K, m))
    for r, seed in enumerate(seeds):
        nm = NoiseModel(variances=s.variances, seed=seed)
        for j in range(1, n + 1):
            y[j - 1, :, r] = tables.y_det[j - 1] + noise_block(nm, j, K)
    idx = tables.members
    gated = neighborhood_values(idx, tables.delta)
    th = np.repeat(s.theta_hat0[:, None, :], m, axis=1)  # (n, m, d)
    sum_err = np.zeros((n, K + 1))
    sum_tilde = np.zeros((n, K + 1, d))
    m2 = np.zeros((n, K + 1, d))
    changed = np.zeros(K + 1, dtype=bool)

    def accumulate(k: int) -> None:
        tilde = th - s.theta[None, None, :]
        tot = tilde.sum(axis=1)
        dev = tilde - (tot / m)[:, None, :]
        sum_tilde[:, k] += tot
        m2[:, k] += (dev * dev).sum(axis=1)
        sum_err[:, k] += _channel_norm(tilde).sum(axis=1)
        changed[k] = True

    accumulate(0)
    for k in np.flatnonzero(tables.gated_sum.any(axis=0)):
        srow = tables.gated_sum[:, k]
        ybar = np.zeros((n, m, d))
        for r in range(d):
            ybar += y[:, k - r, :, None] * tables.adj[:, k, None, :, r]
        num = np.zeros((n, m, d))
        for p in range(idx.shape[2]):
            dlt = gated[:, k, p, None, None]
            num += dlt * (ybar[idx[:, k, p]] - dlt * th)
        new = th + (tables.alpha[k] * num) / np.add(s.mu, srow)[:, None, None]
        th = np.where((srow != 0.0)[:, None, None], new, th)
        accumulate(k + 1)
    fill = np.maximum.accumulate(np.where(changed, np.arange(K + 1), 0))
    return sum_err[:, fill], sum_tilde[:, fill], m2[:, fill]


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
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    K = _horizon(s, horizon)
    tables = step_tables(s, K)
    seeds = [base_seed + r for r in range(1, runs + 1)]
    chunks = [
        (s, tables, tuple(seeds[c : c + CHUNK_RUNS]))
        for c in range(0, runs, CHUNK_RUNS)
    ]
    if workers > 1 and len(chunks) > 1:
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
        for line in lines:
            target.write(line + "\n")
        return
    try:
        with open(target, "w", newline="") as f:
            write_csv(f, header, lines)
    except OSError as e:
        raise OSError(f"cannot write {target}: {e.strerror or e}") from e


def step_rows(values: np.ndarray) -> Iterator[str]:
    """CSV lines of an (n, K+1, c) or (n, K+1, d, c) step table, k-major.

    Each line is ``k,i`` (and ``l`` for a per-channel table, i and l 1-based)
    followed by the repr of each of the c floats, which round-trips float64
    exactly. One step is converted at a time, to keep memory flat.
    """
    for k in range(values.shape[1]):
        for i, row in enumerate(values[:, k].tolist(), start=1):
            if values.ndim == 3:
                yield f"{k},{i}," + ",".join(map(repr, row))
            else:
                for l, cells in enumerate(row, start=1):
                    yield f"{k},{i},{l}," + ",".join(map(repr, cells))


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
    K = _horizon(s, horizon)
    tables = step_tables(s, K)
    problems: list[str] = []
    bounds = tuple(g.bound for g in s.generators)
    realized = tuple(
        float(np.max(np.abs(tables.phi[i - 1]))) if K > 0 else 0.0
        for i in range(1, s.n + 1)
    )
    bounded_ok = all(math.isfinite(b) for b in bounds)
    for i, b in enumerate(bounds, start=1):
        if not math.isfinite(b):
            problems.append(f"sensor {i}: regressor sequence is unbounded")
    trace = DeltaTrace(values=tables.delta, d=s.d)
    pe_h = find_certificate(trace, s.graph, omega, h_max, K)
    # one scan per distinct window: the certified H, or without one the
    # longest window tried, which is never longer than the horizon
    h_top = min(h_max, K)
    window = {i: h or h_top for i, h in pe_h.items()}
    certs = {h: local_pe_check(trace, s.graph, h, omega, K) for h in set(window.values())}
    pe_margin = {i: certs[h].margin[i - 1] for i, h in window.items()}
    single_pe_h = {
        i: next((h for h in range(1, h_top + 1) if single_sensor_pe(trace, i, h, omega, K)[0]), None)
        for i in range(1, s.n + 1)
    }
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

"""Directed communication graphs over the sensor network.

Edges point from transmitter to receiver: (j, i) means sensor j's message
reaches sensor i. Delivery is synchronous, a message sent at step k is
consumed by the receiver's update at the same k. Schedules may be static, or
time-varying through a periodic cycle or an explicit per-step table.

Sensors are numbered 1..n. Edge sets never contain self-loops; each sensor's
own message joins its update through the closed neighborhood instead.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "StaticGraph",
    "PeriodicGraph",
    "TableGraph",
    "GraphSchedule",
    "ring",
    "edges_at",
    "in_neighbors",
    "out_neighbors",
    "closed_in_neighborhood",
    "neighborhood_index",
    "neighborhood_values",
]

Edge = tuple[int, int]


def _edge_sets(n: int, sets, label: str, empty: str) -> tuple[tuple[Edge, ...], ...]:
    """The edge sets as tuples of (from, to) pairs, checked against n sensors.

    Endpoints must be integers (bool excluded) in 1..n, with no self-loops,
    and ``sets`` must be non-empty (else ValueError ``empty``). A ValueError
    lists every bad edge under its set, named by ``label.format(index)``.
    """
    if n < 1:
        raise ValueError(f"need at least one sensor, got n={n}")
    frozen = tuple(tuple((j, i) for (j, i) in edges) for edges in sets)
    if not frozen:
        raise ValueError(empty)
    problems = []
    for s, edges in enumerate(frozen):
        where = label.format(s)
        for (j, i) in edges:
            if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in (j, i)):
                problems.append(f"{where}: edge ({j!r}, {i!r}) needs integer endpoints")
            elif not (1 <= j <= n and 1 <= i <= n):
                problems.append(f"{where}: edge ({j}, {i}) out of range for n={n}")
            elif j == i:
                problems.append(f"{where}: self-loop ({j}, {i}) not allowed")
    if problems:
        raise ValueError("; ".join(problems))
    return frozen


@dataclass(frozen=True)
class StaticGraph:
    """One fixed edge set used at every step."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        (edges,) = _edge_sets(self.n, (self.edges,), "static edge set", "")
        object.__setattr__(self, "edges", edges)

    def edges_at(self, k: int) -> tuple[Edge, ...]:
        return self.edges


@dataclass(frozen=True)
class PeriodicGraph:
    """Cycles through ``stages`` edge sets: step k uses stage k mod period."""

    n: int
    stages: tuple[tuple[Edge, ...], ...]

    def __post_init__(self):
        stages = _edge_sets(self.n, self.stages, "stage {}", "periodic schedule has period 0")
        object.__setattr__(self, "stages", stages)

    def edges_at(self, k: int) -> tuple[Edge, ...]:
        return self.stages[k % len(self.stages)]


@dataclass(frozen=True)
class TableGraph:
    """Explicit per-step edge sets; the last entry holds beyond the table."""

    n: int
    table: tuple[tuple[Edge, ...], ...]

    def __post_init__(self):
        table = _edge_sets(self.n, self.table, "step {}", "table schedule has no entries")
        object.__setattr__(self, "table", table)

    def edges_at(self, k: int) -> tuple[Edge, ...]:
        return self.table[min(k, len(self.table) - 1)]


GraphSchedule = Union[StaticGraph, PeriodicGraph, TableGraph]


def ring(n: int) -> StaticGraph:
    """Directed ring 1 -> 2 -> ... -> n -> 1."""
    if n < 2:
        raise ValueError(f"a ring needs at least two sensors, got n={n}")
    return StaticGraph(n=n, edges=tuple((i, i % n + 1) for i in range(1, n + 1)))


def edges_at(g: GraphSchedule, k: int) -> tuple[Edge, ...]:
    """Edge set active at step k."""
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    return g.edges_at(k)


def _check_sensor(g: GraphSchedule, i: int) -> None:
    if not 1 <= i <= g.n:
        raise ValueError(f"sensor id {i} out of range for n={g.n}")


def in_neighbors(g: GraphSchedule, i: int, k: int) -> tuple[int, ...]:
    """Sensors whose step-k messages reach sensor i, ascending, i excluded."""
    _check_sensor(g, i)
    return tuple(sorted({j for (j, r) in edges_at(g, k) if r == i and j != i}))


def out_neighbors(g: GraphSchedule, j: int, k: int) -> tuple[int, ...]:
    """Sensors that receive sensor j's step-k message, ascending, j excluded."""
    _check_sensor(g, j)
    return tuple(sorted({r for (s, r) in edges_at(g, k) if s == j and r != j}))


def closed_in_neighborhood(g: GraphSchedule, i: int, k: int) -> tuple[int, ...]:
    """in_neighbors(i, k) plus i itself, ascending. Updates draw on this set."""
    return tuple(sorted(set(in_neighbors(g, i, k)) | {i}))


def neighborhood_index(g: GraphSchedule, horizon: int) -> np.ndarray:
    """Closed in-neighborhoods at steps 0..horizon-1, shape (n, horizon, width).

    Row [i-1, k] is closed_in_neighborhood(g, i, k) as ascending 0-based
    indices padded with -1; computed once per distinct edge set.
    """
    stages: dict[tuple[Edge, ...], tuple[int, int]] = {}  # edge set -> (row, first step)
    pos = [stages.setdefault(edges_at(g, k), (len(stages), k))[0] for k in range(horizon)]
    hoods = [
        [closed_in_neighborhood(g, i, k) for i in range(1, g.n + 1)] for _, k in stages.values()
    ]
    width = max((len(h) for row in hoods for h in row), default=0)
    table = np.full((len(hoods), g.n, width), -1, dtype=np.intp)
    for stage, row in enumerate(hoods):
        for i, h in enumerate(row):
            table[stage, i, : len(h)] = [j - 1 for j in h]
    return table[np.array(pos, dtype=np.intp)].transpose(1, 0, 2).copy()


def neighborhood_values(index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[j, k, ...] for each member j of the neighborhoods in ``index``.

    Padding gathers 0.0, which leaves any sum started from +0.0 unchanged, so
    summing the member axis in order equals a loop in ascending sensor order.
    """
    steps = np.arange(index.shape[1])[None, :, None]
    valid = (index >= 0).reshape(index.shape + (1,) * (values.ndim - 2))
    return np.where(valid, values[index, steps], 0.0)

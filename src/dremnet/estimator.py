"""Per-sensor estimator: counter gate, fused LMS update, counter reset.

Each sensor i keeps an estimate theta_hat_i, a countdown counter c_i, and a
regularizer mu_i. One synchronous round at step k:

1. rule: the sensor updates at step k iff its counter has matured,
   c_i(k) >= d, and the sum of delta_bar_j^2 over its closed in-neighborhood
   is nonzero (``updates``).
2. gate: the received scalar regressors delta_bar_j pass through when the
   sensor updates; otherwise delta_j = 0 and the estimate holds, which
   ``node_step`` returns without computing the update.
3. update: every channel l moves by the same normalized step,

       theta_l += alpha(k) * sum_j delta_bar_j (ybar_jl - delta_bar_j theta_l)
                  / (mu_i + sum_j delta_bar_j^2),

   the sums running over the closed in-neighborhood.
4. reset: the counter returns to 0 when the sensor updated, else it ticks up.

The rule plus reset force consecutive effective updates of one sensor at
least d+1 steps apart, so the d-wide measurement windows they consume never
overlap: no raw measurement is used twice. Every consumer of the rule (this
module's ``node_step`` and the step tables of ``harness``) calls ``updates``.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .drem import DremMessage
from .model import _finite, _floats, _integer

__all__ = [
    "NodeState",
    "HarmonicSchedule",
    "TableSchedule",
    "StepSchedule",
    "step_size",
    "schedule_violations",
    "asymptotic_violations",
    "updates",
    "update_estimate",
    "node_step",
]

_by_sensor = operator.attrgetter("sensor")  # node_step's sort key


@dataclass(frozen=True)
class NodeState:
    """One sensor's estimator state: estimate, counter, regularizer."""

    theta_hat: np.ndarray
    counter: int
    mu: float

    def __post_init__(self):
        th, mu, counter = self.theta_hat, self.mu, self.counter
        # exact-type tests first: every state node_step builds has a float64 array, a float mu and an int counter
        if type(th) is not np.ndarray or th.dtype != np.float64:
            object.__setattr__(self, "theta_hat", th := _floats(th, "theta_hat"))
        if type(mu) is not float and (isinstance(mu, bool) or not isinstance(mu, numbers.Real)):
            raise ValueError(f"mu must be a number, got {mu!r}")
        if not 0.0 < mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {mu}")
        if type(counter) is not int and (isinstance(counter, bool) or not isinstance(counter, numbers.Integral)):
            raise ValueError(f"counter must be an integer, got {counter!r}")
        if counter < 0:
            raise ValueError(f"counter must be nonnegative, got {counter}")
        if not all(map(math.isfinite, th.ravel().tolist())):
            raise ValueError("theta_hat must be finite")


@dataclass(frozen=True)
class HarmonicSchedule:
    """alpha(k) = min(1, c / max(k, 1)); the k=0 clamp keeps it defined and <= 1."""

    c: float

    def __post_init__(self):
        # a NaN c would pass c <= 0 and make every alpha(k) = min(1, nan) = 1
        (c,) = _finite((self.c,), "harmonic coefficient c", positive=True)
        # from a normal c, c / k stays above 0.0 for every k < 2**53
        if c < sys.float_info.min:
            raise ValueError(f"harmonic coefficient c must be at least {sys.float_info.min}, got {c}")
        object.__setattr__(self, "c", c)

    def at(self, k: int) -> float:
        return min(1.0, self.c / max(k, 1))


@dataclass(frozen=True)
class TableSchedule:
    """Explicit per-step alpha values; the last entry holds beyond the table."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = _finite(self.values, "step size")
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("table schedule needs at least one value")
        for k, v in enumerate(vals):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"step size must lie in (0, 1], got {v} at entry {k}")

    def at(self, k: int) -> float:
        if k < len(self.values):
            return self.values[k]
        return self.values[-1]


StepSchedule = Union[HarmonicSchedule, TableSchedule]


def step_size(s: StepSchedule, k: int) -> float:
    """alpha(k) for a nonnegative integer k (not a bool); always in (0, 1]."""
    if type(k) is not int or k < 0:
        k = _integer(k, "step index", 0)
    return s.at(k)


def schedule_violations(s: StepSchedule, horizon: int) -> list[str]:
    """Finite-horizon audit of the step-size requirements.

    Checks monotone non-increase over 0..horizon-1. No harmonic schedule
    fails it, and a table holds its last entry beyond its end, so only its
    first ``horizon`` entries are read; both kinds keep alpha in (0, 1] at
    construction. Tables only certify the checked window.
    """
    if isinstance(s, HarmonicSchedule):
        return []
    vals = s.values[: max(horizon, 0)]
    return [
        f"alpha({k}) = {a} increases from alpha({k - 1}) = {prev}"
        for k, (prev, a) in enumerate(zip(vals, vals[1:]), start=1)
        if a > prev
    ]


def asymptotic_violations(s: StepSchedule) -> list[str]:
    """Audit the tail requirements: alpha(k) -> 0 and sum alpha(k) = inf.

    Harmonic schedules satisfy both analytically. A table holds its last
    value forever, so its divergent sum is automatic but decay to zero is
    not; the table is accepted as a truncated decaying schedule when its
    last value is small against its first (<= max(1e-3, first/10)).
    """
    if isinstance(s, HarmonicSchedule):
        return []
    first, last = s.values[0], s.values[-1]
    if last > max(1e-3, 0.1 * first):
        return [
            f"table schedule does not decay: final alpha {last} vs first {first} "
            "(needs alpha -> 0)"
        ]
    return []


def updates(counter: int, full_sum: float, d: int) -> bool:
    """Whether a sensor makes an effective update, resetting its counter.

    ``full_sum`` is the ungated sum of delta_bar_j^2 over the closed
    in-neighborhood. The comparison with 0 is exact on purpose: warm-up and
    genuinely degenerate regressor windows produce exact zero determinants,
    while a tiny nonzero determinant is real excitation and must reset.
    """
    return counter >= d and full_sum != 0.0


def update_estimate(state: NodeState, inbox: Sequence[DremMessage], alpha: float) -> np.ndarray:
    """One fused LMS step over the open-gate ``inbox``; returns the new estimate, state untouched.

    All channels share the step size and the denominator mu + sum delta_bar^2;
    with every delta_bar zero the estimate is returned unchanged (same floats),
    as a closed gate holds it.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    th = state.theta_hat.tolist()
    num = [0.0] * len(th)
    s = 0.0
    # fixed accumulation order (node_step sorts by sensor id) so the batched
    # engine can replay the identical float sequence
    for m in inbox:
        dl = m.delta_bar
        num = [nu + dl * (y - dl * t) for nu, y, t in zip(num, m.ybar.tolist(), th)]
        s += dl * dl
    if s == 0.0:
        return state.theta_hat.copy()
    den = state.mu + s
    return np.array([t + (alpha * nu) / den for t, nu in zip(th, num)])


def node_step(
    state: NodeState,
    k: int,
    own: DremMessage,
    received: Sequence[DremMessage],
    schedule: StepSchedule,
    d: int,
) -> tuple[NodeState, bool]:
    """One synchronous round for one sensor: rule, gate, update, counter reset.

    ``received`` holds the step-k messages of the in-neighbors (the caller
    assembles them from the graph); ``own`` is the sensor's simultaneous own
    message, completing the closed neighborhood. Returns the successor state
    and whether the update was effective; a closed gate returns a copy of the estimate, as
    ``update_estimate`` does for all-zero deltas. The sensor's next broadcast comes from the
    data pipeline once the k+1 measurement exists.
    """
    inbox = sorted([own, *received], key=_by_sensor)
    full = 0.0
    for m in inbox:
        full += m.delta_bar * m.delta_bar
    alpha = step_size(schedule, k)  # on both branches, so a negative k is always refused
    if not updates(state.counter, full, d):
        return NodeState(theta_hat=state.theta_hat.copy(), counter=state.counter + 1, mu=state.mu), False
    theta_next = update_estimate(state, inbox, alpha)
    return NodeState(theta_hat=theta_next, counter=0, mu=state.mu), True

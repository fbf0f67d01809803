"""Excitation audits over scalar-regressor traces.

A sensor alone is persistently excited when the squared trace of its scalar
regressor delta_bar accumulates at least omega over every length-H window.
The cooperative variant replaces the single trace with the sum over the
sensor's closed in-neighborhood at each step:

    sum_{t=k}^{k+H-1} sum_{j in J_i+(t)} delta_bar_j(t)^2 >= omega.

That neighborhood sum is what the gated update actually normalizes by, so a
sensor whose own delta_bar vanishes identically can still be served by an
excited in-neighbor. A sensor alone scans its own squares, which is its
entry of the scan on the graph with no edges.
Certificates here are horizon-certified: a scan covers the whole finite
trace it is given, with windows starting after the transform's warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .topology import GraphSchedule, neighborhood_index, neighborhood_sum

__all__ = [
    "DeltaTrace",
    "PeCertificate",
    "local_pe_check",
    "single_sensor_pe",
    "find_certificate",
    "MARGIN_REL_TOL",
]

# Window sums inherit rounding from the regressor recursions (a cosine
# accumulated into a float can land one ulp under its closed form), so the
# omega comparison grants this much relative slack.
MARGIN_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DeltaTrace:
    """Per-sensor delta_bar traces on steps 0..steps-1, as an (n, steps) array.

    The trace length is the horizon of every scan over it. ``d`` is the
    regressor dimension that produced the traces; window scans start at
    d-1, the first step with a full stacking window.
    """

    values: np.ndarray
    d: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"traces must be a 2-d (sensor, step) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("traces must be finite")
        if self.d < 1:
            raise ValueError(f"regressor dimension must be positive, got {self.d}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def steps(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PeCertificate:
    """Outcome of a windowed excitation scan.

    ``margin[i-1]`` is sensor i's smallest window sum; ``satisfied[i-1]``
    compares it against omega with MARGIN_REL_TOL relative slack.
    """

    H: int
    omega: float
    satisfied: tuple[bool, ...]
    margin: tuple[float, ...]


def _window_margin(step_sums: np.ndarray, H: int, start: int, horizon: int) -> float:
    # every window sum adds its H steps in ascending t
    count = horizon - H + 1 - start
    w = np.zeros(count)
    for t in range(start, start + H):
        w += step_sums[t : t + count]
    return float(w.min())


def _step_sums(trace: DeltaTrace, g: GraphSchedule) -> np.ndarray:
    """Each sensor's closed-neighborhood sum of squared traces per step, (n, steps)."""
    if g.n != trace.n:
        raise ValueError(f"graph has {g.n} sensors but the trace has {trace.n}")
    return neighborhood_sum(neighborhood_index(g, trace.steps), trace.values**2)


def _certify(step_sums: np.ndarray, d: int, H: int, omega: float) -> PeCertificate:
    if H < 1:
        raise ValueError(f"window length must be positive, got {H}")
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    horizon = step_sums.shape[1]
    if horizon < H:
        raise ValueError(f"horizon {horizon} is shorter than the window H={H}")
    start = min(d - 1, horizon - H)
    margins = [_window_margin(row, H, start, horizon) for row in step_sums]
    return PeCertificate(
        H=H,
        omega=omega,
        satisfied=tuple(m >= omega * (1.0 - MARGIN_REL_TOL) for m in margins),
        margin=tuple(margins),
    )


def local_pe_check(trace: DeltaTrace, g: GraphSchedule, H: int, omega: float) -> PeCertificate:
    """Scan every sensor's neighborhood-summed squared trace over H-windows.

    Windows start at d-1 (end of warm-up) and the last one ends at the
    trace's last step. Returns per-sensor margins and the slacked omega
    comparison.
    """
    return _certify(_step_sums(trace, g), trace.d, H, omega)


def single_sensor_pe(trace: DeltaTrace, sensor: int, H: int, omega: float) -> tuple[bool, float]:
    """The windowed scan of one sensor's own squares: its entry of the check on the edgeless graph.

    Returns (satisfied, margin).
    """
    if not 1 <= sensor <= trace.n:
        raise ValueError(f"sensor id {sensor} out of range for n={trace.n}")
    cert = _certify(trace.values[sensor - 1 : sensor] ** 2, trace.d, H, omega)
    return cert.satisfied[0], cert.margin[0]


def _search(
    step_sums: np.ndarray, d: int, omega: float, max_h: int
) -> tuple[dict[int, Optional[int]], dict[int, float]]:
    """Each sensor's smallest certifying H <= min(max_h, steps), else None, and its margin there.

    Every H scans the same (n, steps) ``step_sums``. A sensor that no H
    certifies takes its margin at the largest H tried.
    """
    if max_h < 1:
        raise ValueError(f"max_h must be positive, got {max_h}")
    n, steps = step_sums.shape
    # H = 1 is always tried, so an empty trace raises
    top = min(max_h, max(steps, 1))
    found: dict[int, Optional[int]] = {i: None for i in range(1, n + 1)}
    margin: dict[int, float] = {}
    for H in range(1, top + 1):
        cert = _certify(step_sums, d, H, omega)
        for i in range(1, n + 1):
            if found[i] is None:
                margin[i] = cert.margin[i - 1]
                found[i] = H if cert.satisfied[i - 1] else None
        if all(v is not None for v in found.values()):
            break
    return found, margin


def find_certificate(trace: DeltaTrace, g: GraphSchedule, omega: float, max_h: int) -> dict[int, Optional[int]]:
    """Smallest H <= min(max_h, steps) certifying each sensor at level omega, else None."""
    return _search(_step_sums(trace, g), trace.d, omega, max_h)[0]

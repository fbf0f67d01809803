"""Excitation audits over per-step sums of squared scalar regressors.

A sensor alone is persistently excited when the squared trace of its scalar
regressor delta_bar accumulates at least omega over every length-H window.
The cooperative variant replaces the single trace with the sum over the
sensor's closed in-neighborhood at each step:

    sum_{t=k}^{k+H-1} sum_{j in J_i+(t)} delta_bar_j(t)^2 >= omega.

That neighborhood sum is what the gated update actually normalizes by, so a
sensor whose own delta_bar vanishes identically can still be served by an
excited in-neighbor. Every scan reads an (n, steps) array of step sums. From
a graph they are ``topology.neighborhood_sum(neighborhood_index(g, steps),
delta**2)``; the step tables hold the same sums. A sensor alone scans its own
squares, which is its entry of the scan on the graph with no edges.
Certificates here are horizon-certified: a scan covers the whole finite
trace it is given, with windows starting after the transform's warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import _finite, _integer

__all__ = [
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
class PeCertificate:
    """Outcome of a windowed excitation scan.

    ``margin[i-1]`` is sensor i's smallest window sum; ``satisfied[i-1]``
    compares it against omega with MARGIN_REL_TOL relative slack.
    """

    satisfied: tuple[bool, ...]
    margin: tuple[float, ...]


def _window_margin(step_sums: np.ndarray, H: int, start: int, horizon: int) -> float:
    # every window sum adds its H steps in ascending t
    count = horizon - H + 1 - start
    w = np.zeros(count)
    for t in range(start, start + H):
        w += step_sums[t : t + count]
    return float(w.min())


def local_pe_check(step_sums, d: int, H: int, omega: float) -> PeCertificate:
    """Scan every sensor's row of the finite (sensor, step) ``step_sums`` over H-windows.

    The row length is the horizon. Windows start at d-1 (end of warm-up), the
    first step with a full stacking window of the d-dimensional regressor,
    and the last one ends at the last step. Returns per-sensor margins and
    the slacked omega comparison.
    """
    sums = np.asarray(step_sums, dtype=float)
    if sums.ndim != 2:
        raise ValueError(f"step sums must be a 2-d (sensor, step) array, got shape {sums.shape}")
    if not np.all(np.isfinite(sums)):
        raise ValueError("step sums must be finite")
    d, H = _integer(d, "d", 1), _integer(H, "H", 1)
    _finite((omega,), "omega", positive=True)
    horizon = sums.shape[1]
    if horizon < H:
        raise ValueError(f"horizon {horizon} is shorter than the window H={H}")
    start = min(d - 1, horizon - H)
    margins = [_window_margin(row, H, start, horizon) for row in sums]
    return PeCertificate(
        satisfied=tuple(m >= omega * (1.0 - MARGIN_REL_TOL) for m in margins), margin=tuple(margins)
    )


def find_certificate(
    step_sums, d: int, omega: float, max_h: int
) -> tuple[dict[int, Optional[int]], dict[int, float]]:
    """Each sensor's smallest certifying H <= min(max_h, steps), else None, and its margin there.

    Every H scans the same (n, steps) ``step_sums`` through ``local_pe_check``.
    A sensor that no H certifies takes its margin at the largest H tried.
    """
    max_h = _integer(max_h, "max_h", 1)
    found: dict[int, Optional[int]] = {}
    margin: dict[int, float] = {}
    # H = 1 is always tried, so an empty trace raises
    for H in range(1, max_h + 1):
        cert = local_pe_check(step_sums, d, H, omega)
        for i, (ok, m) in enumerate(zip(cert.satisfied, cert.margin), start=1):
            if found.get(i) is None:
                found[i], margin[i] = (H if ok else None), m
        if H == np.shape(step_sums)[1] or None not in found.values():
            break
    return found, margin


def single_sensor_pe(
    delta, d: int, omega: float, max_h: int
) -> tuple[dict[int, Optional[int]], dict[int, float]]:
    """``find_certificate`` over each sensor's own squares of the (sensor, step) ``delta``.

    Bit for bit each sensor's entry of the search on the edgeless graph,
    whose neighborhood sums are 0.0 + delta_bar^2.
    """
    return find_certificate(np.asarray(delta, dtype=float) ** 2, d, omega, max_h)

"""Dynamic regressor extension and mixing (DREM) for one sensor's data stream.

Stacking a sensor's last d regressor rows gives the extended regressor

    Phi_i(k) = [phi_i(k)'; phi_i(k-1)'; ...; phi_i(k-d+1)'],

and multiplying the matching measurement stack by adj(Phi_i(k)) decouples the
d-dimensional regression into d scalar channels sharing the single scalar
regressor delta_i(k) = det(Phi_i(k)):

    ybar_i(k) = delta_i(k) * theta + vbar_i(k)      (channel-wise)

with vbar_i(k) = adj(Phi_i(k)) applied to the stacked noise. The (ybar, delta)
pair of d+1 reals is the only payload sensors ever exchange.

Determinants and adjugates are computed by exact cofactor expansion up to 4x4
(integer inputs stay exact) and by fraction-free Gaussian elimination above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ExtendedRegressor",
    "DremMessage",
    "MixedNoise",
    "stack_regressors",
    "determinant",
    "adjugate",
    "extend",
    "mix",
    "drem_transform",
]

_COFACTOR_MAX = 4


def stack_regressors(history: Sequence[np.ndarray]) -> np.ndarray:
    """Stack the last d regressors (rows or a (d, d) array), newest first, into a matrix.

    ``history[0]`` is phi(k) and becomes row 0; ``history[d-1]`` is
    phi(k-d+1) and becomes the last row.
    """
    d = len(history)
    if d == 0:
        raise ValueError("history must contain at least one regressor")
    m = np.array(history, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"need {d} regressors of length {d}, got shape {m.shape}")
    return m


def _cofactor_det(m: np.ndarray) -> float:
    d = m.shape[0]
    if d == 1:
        return float(m[0, 0])
    if d == 2:
        (a, b), (c, e) = m.tolist()
        return a * e - b * c
    total = 0.0
    sub = np.delete(m, 0, axis=0)
    for c in range(d):
        term = m[0, c] * _cofactor_det(np.delete(sub, c, axis=1))
        total += term if c % 2 == 0 else -term
    return total


def _bareiss_det(m: np.ndarray) -> float:
    # Fraction-free elimination: every division is exact on integer input.
    # Partial pivoting by magnitude keeps the float path stable; row swaps
    # only flip the sign.
    a = m.copy()
    d = a.shape[0]
    sign = 1.0
    prev = 1.0
    for p in range(d - 1):
        piv = int(np.argmax(np.abs(a[p:, p]))) + p
        if a[piv, p] == 0.0:
            return 0.0
        if piv != p:
            a[[p, piv]] = a[[piv, p]]
            sign = -sign
        for r in range(p + 1, d):
            a[r, p + 1:] = (a[r, p + 1:] * a[p, p] - a[r, p] * a[p, p + 1:]) / prev
            a[r, p] = 0.0
        prev = a[p, p]
    return float(sign * a[d - 1, d - 1])


def determinant(m: np.ndarray) -> float:
    """det(M); cofactor expansion for d <= 4, fraction-free elimination above."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got shape {m.shape}")
    if m.shape[0] <= _COFACTOR_MAX:
        return _cofactor_det(m)
    return _bareiss_det(m)


def adjugate(m: np.ndarray) -> np.ndarray:
    """adj(M), satisfying adj(M) @ M = det(M) * I; defined for singular M too."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"adjugate needs a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d == 1:
        return np.ones((1, 1))
    if d == 2:
        (a, b), (c, e) = m.tolist()
        return np.array([e, -b, -c, a]).reshape(2, 2)
    out = np.empty((d, d))
    for r in range(d):
        rows = np.delete(m, r, axis=0)
        for c in range(d):
            minor = np.delete(rows, c, axis=1)
            cof = determinant(minor)
            # transposed cofactor matrix
            out[c, r] = cof if (r + c) % 2 == 0 else -cof
    return out


@dataclass(frozen=True, eq=False)
class ExtendedRegressor:
    """The stacked regressor matrix together with its determinant and adjugate."""

    phi: np.ndarray
    det: float
    adj: np.ndarray


def extend(history: Sequence[np.ndarray]) -> ExtendedRegressor:
    """Build the extended regressor from the last d regressors, newest first."""
    phi = stack_regressors(history)
    return ExtendedRegressor(phi=phi, det=determinant(phi), adj=adjugate(phi))


@dataclass(frozen=True, eq=False)
class DremMessage:
    """The (ybar, delta_bar) pair a sensor broadcasts: d+1 payload reals."""

    ybar: np.ndarray
    delta_bar: float
    sensor: int
    step: int

    @property
    def payload_size(self) -> int:
        return len(self.ybar) + 1


@dataclass(frozen=True, eq=False)
class MixedNoise:
    """adj(Phi) applied to the stacked noise; oracle bookkeeping, never sent."""

    vbar: np.ndarray


def _adj_apply(adj: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # columnwise accumulation; batched runs replay this exact op order so the
    # two engines agree bit for bit
    out = np.zeros(adj.shape[0])
    for r in range(adj.shape[1]):
        out += adj[:, r] * stack[r]
    return out


def mix(ext: ExtendedRegressor, y_stack: Sequence[float], sensor: int = 0, step: int = 0) -> DremMessage:
    """Apply the mixing step: ybar = adj(Phi) @ y_stack, delta_bar = det(Phi).

    ``y_stack`` must be aligned with the regressor stack (same window, newest
    first).
    """
    y = np.asarray(y_stack, dtype=float)
    d = ext.phi.shape[0]
    if y.shape != (d,):
        raise ValueError(f"measurement stack must have shape ({d},), got {y.shape}")
    return DremMessage(ybar=_adj_apply(ext.adj, y), delta_bar=ext.det, sensor=sensor, step=step)


def drem_transform(
    sensor: int,
    step: int,
    phi_history: Sequence[np.ndarray],
    y_history: Sequence[float],
    noise_history: Optional[Sequence[float]] = None,
) -> tuple[DremMessage, Optional[MixedNoise]]:
    """Produce the sensor's broadcast message for time ``step``.

    Histories are newest first. A full window has d entries, d being the
    regressor dimension; with fewer (the first d-1 steps) the sensor emits the
    inert warm-up message ybar = 0, delta_bar = 0. When ``noise_history`` is
    given (instrumented runs) the matching mixed noise is returned as well.

    Args:
        sensor: 1-based sensor id stamped on the message.
        step: time index k stamped on the message.
        phi_history: regressors phi(k), phi(k-1), ...
        y_history: measurements y(k), y(k-1), ...
        noise_history: optional raw noise v(k), v(k-1), ...

    Returns:
        (message, mixed noise or None).
    """
    d = len(np.asarray(phi_history[0], dtype=float))
    if len(phi_history) < d:
        msg = DremMessage(ybar=np.zeros(d), delta_bar=0.0, sensor=sensor, step=step)
        vbar = MixedNoise(vbar=np.zeros(d)) if noise_history is not None else None
        return msg, vbar
    ext = extend(list(phi_history)[:d])
    msg = mix(ext, list(y_history)[:d], sensor=sensor, step=step)
    vbar = None
    if noise_history is not None:
        v = np.asarray(list(noise_history)[:d], dtype=float)
        vbar = MixedNoise(vbar=_adj_apply(ext.adj, v))
    return msg, vbar


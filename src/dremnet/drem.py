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
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "DremMessage",
    "determinant",
    "adjugate",
    "extend",
    "mix",
    "drem_transform",
]

_COFACTOR_MAX = 4


# the one copy of the 2x2 determinant formula, for the matrix [[p, q], [r, s]]
def _det2(p: float, q: float, r: float, s: float) -> float:
    return p * s - q * r


# The det/adj kernels work on one tolist() of the matrix, the row list ``a``;
# a minor is named by its row and column index lists.
def _cofactor_det(a: list, rows: list, cols: list) -> float:
    if len(rows) == 1:
        return a[rows[0]][cols[0]]
    if len(rows) == 2:
        (r0, r1), (c0, c1) = rows, cols
        return _det2(a[r0][c0], a[r0][c1], a[r1][c0], a[r1][c1])
    top, rest = a[rows[0]], rows[1:]
    signed = [top[col] if c % 2 == 0 else -top[col] for c, col in enumerate(cols)]
    return _mix(signed, [_cofactor_det(a, rest, cols[:c] + cols[c + 1 :]) for c in range(len(cols))])


def _bareiss_det(a: list) -> float:
    # Fraction-free elimination: every division is exact on integer input.
    # Partial pivoting by magnitude keeps the float path stable; row swaps
    # only flip the sign. ``a`` is overwritten.
    d = len(a)
    sign = 1.0
    prev = 1.0
    for p in range(d - 1):
        # the first largest magnitude, as np.argmax picks it (a NaN counts as largest)
        piv = int(np.argmax([abs(row[p]) for row in a[p:]])) + p
        if a[piv][p] == 0.0:
            return 0.0
        if piv != p:
            a[p], a[piv] = a[piv], a[p]
            sign = -sign
        top = a[p]
        for row in a[p + 1 :]:
            lead = row[p]
            for c in range(p + 1, d):
                row[c] = (row[c] * top[p] - lead * top[c]) / prev
            row[p] = 0.0
        prev = top[p]
    return sign * a[d - 1][d - 1]


def _det(a: list, rows: Optional[list] = None, cols: Optional[list] = None) -> float:
    if rows is None:
        rows = cols = list(range(len(a)))
    if len(rows) <= _COFACTOR_MAX:
        return _cofactor_det(a, rows, cols)
    return _bareiss_det([[a[r][c] for c in cols] for r in rows])


def _adj(a: list) -> np.ndarray:
    d = len(a)
    if d == 1:
        return np.ones((1, 1))
    idx = list(range(d))
    out = [[0.0] * d for _ in idx]
    for r in idx:
        for c in idx:
            cof = _det(a, idx[:r] + idx[r + 1 :], idx[:c] + idx[c + 1 :])
            # transposed cofactor matrix
            out[c][r] = cof if (r + c) % 2 == 0 else -cof
    return np.array(out)


def _square_rows(m: np.ndarray, what: str) -> list:
    m = np.asarray(m, dtype=float)
    shape = m.shape  # read once: extend runs this check once per window
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError(f"{what} needs a non-empty square matrix, got shape {shape}")
    return m.tolist()


def determinant(m: np.ndarray) -> float:
    """det(M); cofactor expansion for d <= 4, fraction-free elimination above."""
    return _det(_square_rows(m, "determinant"))


def adjugate(m: np.ndarray) -> np.ndarray:
    """adj(M), satisfying adj(M) @ M = det(M) * I; defined for singular M too."""
    return _adj(_square_rows(m, "adjugate"))


def extend(history: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
    """(det, adj) of the extended regressor stacked from the last d regressors (rows or a (d, d) array), newest first."""
    a = _square_rows(history, "extend")
    if len(a) != 2:
        return _det(a), _adj(a)
    (p, q), (r, s) = a
    adj = np.empty((2, 2))  # filled item by item: cheaper than np.array of a nested tuple
    adj[0, 0], adj[0, 1], adj[1, 0], adj[1, 1] = s, -q, -r, p
    return _det2(p, q, r, s), adj


@dataclass(frozen=True, eq=False)
class DremMessage:
    """The (ybar, delta_bar) pair a sensor broadcasts: d+1 payload reals."""

    ybar: np.ndarray
    delta_bar: float
    sensor: int


def _mix(weights, values):
    """sum_r w_r * v_r added in order from +0.0, the one definition of this float order.

    Both engines and the moment oracle add such sums here, on Python floats or broadcasting float64
    arrays, with the same bits on both: neither CPython nor numpy fuses a multiply-add.
    """
    acc = 0.0
    for w, v in zip(weights, values):
        acc = acc + w * v
    return acc


def mix(det: float, adj: np.ndarray, y_stack: Sequence[float], sensor: int = 0) -> DremMessage:
    """Apply the mixing step: ybar = adj(Phi) @ y_stack, delta_bar = det(Phi).

    ``det`` and ``adj`` come from :func:`extend`; ``y_stack`` must be aligned
    with the regressor stack (same window, newest first).
    """
    y = np.asarray(y_stack, dtype=float)
    d = adj.shape[0]
    if y.shape != (d,):
        raise ValueError(f"measurement stack must have shape ({d},), got {y.shape}")
    return DremMessage(ybar=_mix(adj.T, y), delta_bar=det, sensor=sensor)


def drem_transform(
    sensor: int, phi_history: Union[list, tuple, np.ndarray], y_history: Union[list, tuple, np.ndarray]
) -> DremMessage:
    """The message of 1-based ``sensor`` from its regressor and measurement histories.

    Each history is a list, tuple or ndarray, newest first (phi(k), phi(k-1), ...), sliced
    to its first d entries, d being the regressor dimension; with fewer (the first d-1
    steps) the sensor emits the inert warm-up message ybar = 0, delta_bar = 0. An array
    history, such as a reversed regressor table's (<= d, d) window view, is read in place.
    """
    d = len(phi_history[0])
    if len(phi_history) < d:
        return DremMessage(ybar=np.zeros(d), delta_bar=0.0, sensor=sensor)
    det, adj = extend(phi_history[:d])
    return mix(det, adj, y_history[:d], sensor=sensor)

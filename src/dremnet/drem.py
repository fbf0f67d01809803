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
    "DremMessage",
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


# the one copy of the 2x2 formulas, for the matrix [[p, q], [r, s]]
def _det2(p: float, q: float, r: float, s: float) -> float:
    return p * s - q * r


def _det_adj2(p: float, q: float, r: float, s: float) -> tuple[float, np.ndarray]:
    return _det2(p, q, r, s), np.array((s, -q, -r, p)).reshape(2, 2)


# The det/adj kernels work on one tolist() of the matrix, the row list ``a``;
# a minor is named by its row and column index lists. ``memo``, when given,
# holds the dets of minors of three or more rows by (rows, cols).
def _cofactor_det(a: list, rows: list, cols: list, memo: Optional[dict] = None) -> float:
    if len(rows) == 1:
        return a[rows[0]][cols[0]]
    if len(rows) == 2:
        (r0, r1), (c0, c1) = rows, cols
        return _det2(a[r0][c0], a[r0][c1], a[r1][c0], a[r1][c1])
    key = memo is not None and (tuple(rows), tuple(cols))
    if key and key in memo:
        return memo[key]
    total = 0.0
    top, rest = a[rows[0]], rows[1:]
    for c, col in enumerate(cols):
        term = top[col] * _cofactor_det(a, rest, cols[:c] + cols[c + 1 :], memo)
        total += term if c % 2 == 0 else -term
    if key:
        memo[key] = total
    return total


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


def _det(
    a: list, rows: Optional[list] = None, cols: Optional[list] = None, memo: Optional[dict] = None
) -> float:
    if rows is None:
        rows = cols = list(range(len(a)))
    if len(rows) <= _COFACTOR_MAX:
        return _cofactor_det(a, rows, cols, memo)
    return _bareiss_det([[a[r][c] for c in cols] for r in rows])


def _adj(a: list) -> np.ndarray:
    d = len(a)
    if d == 1:
        return np.ones((1, 1))
    if d == 2:
        return _det_adj2(*a[0], *a[1])[1]
    idx = list(range(d))
    out = [[0.0] * d for _ in idx]
    # cofactor minors of four rows share their three-row minors; below four
    # rows the lookups cost more than the shared work they save
    memo = {} if d >= 5 else None
    for r in idx:
        for c in idx:
            cof = _det(a, idx[:r] + idx[r + 1 :], idx[:c] + idx[c + 1 :], memo)
            # transposed cofactor matrix
            out[c][r] = cof if (r + c) % 2 == 0 else -cof
    return np.array(out)


def _square_rows(m: np.ndarray, what: str) -> list:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} needs a square matrix, got shape {m.shape}")
    return m.tolist()


def determinant(m: np.ndarray) -> float:
    """det(M); cofactor expansion for d <= 4, fraction-free elimination above."""
    return _det(_square_rows(m, "determinant"))


def adjugate(m: np.ndarray) -> np.ndarray:
    """adj(M), satisfying adj(M) @ M = det(M) * I; defined for singular M too."""
    return _adj(_square_rows(m, "adjugate"))


def extend(history: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
    """(det, adj) of the extended regressor stacked from the last d regressors, newest first."""
    a = stack_regressors(history).tolist()
    return _det_adj2(*a[0], *a[1]) if len(a) == 2 else (_det(a), _adj(a))


@dataclass(frozen=True, eq=False)
class DremMessage:
    """The (ybar, delta_bar) pair a sensor broadcasts: d+1 payload reals."""

    ybar: np.ndarray
    delta_bar: float
    sensor: int

    @property
    def payload_size(self) -> int:
        return len(self.ybar) + 1


def _adj_apply(adj: np.ndarray, stack: Sequence[float]) -> np.ndarray:
    # columnwise accumulation from +0.0, r ascending; batched runs replay this
    # exact op order so the two engines agree bit for bit
    out = []
    for row in adj.tolist():
        acc = 0.0
        for a, y in zip(row, stack):
            acc += a * y
        out.append(acc)
    return np.array(out)


def mix(det: float, adj: np.ndarray, y_stack: Sequence[float], sensor: int = 0) -> DremMessage:
    """Apply the mixing step: ybar = adj(Phi) @ y_stack, delta_bar = det(Phi).

    ``det`` and ``adj`` come from :func:`extend`; ``y_stack`` must be aligned
    with the regressor stack (same window, newest first).
    """
    y = np.asarray(y_stack, dtype=float)
    d = adj.shape[0]
    if y.shape != (d,):
        raise ValueError(f"measurement stack must have shape ({d},), got {y.shape}")
    return DremMessage(ybar=_adj_apply(adj, y.tolist()), delta_bar=det, sensor=sensor)


def drem_transform(
    sensor: int, phi_history: Sequence[np.ndarray], y_history: Sequence[float]
) -> DremMessage:
    """The message of 1-based ``sensor`` from its regressor and measurement histories.

    Both histories run newest first: phi(k), phi(k-1), ... A full window has
    d entries, d being the regressor dimension; with fewer (the first d-1
    steps) the sensor emits the inert warm-up message ybar = 0, delta_bar = 0.
    """
    d = len(phi_history[0])
    if len(phi_history) < d:
        return DremMessage(ybar=np.zeros(d), delta_bar=0.0, sensor=sensor)
    det, adj = extend(list(phi_history)[:d])
    return mix(det, adj, list(y_history)[:d], sensor=sensor)

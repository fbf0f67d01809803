"""Stochastic linear regression model: regressor generators and measurement noise.

Each sensor i observes the scalar measurement

    y_i(k) = theta' phi_i(k) + v_i(k),    k = 0, 1, 2, ...

where theta is the unknown d-vector, phi_i(k) is a deterministic regressor
sequence produced by a per-sensor generator, and v_i(k) is zero-mean i.i.d.
Gaussian noise with per-sensor variance R_i.

Noise draws are a pure function of (seed, sensor, k): each (seed, sensor)
pair keys a Philox counter-based stream and k selects the counter block, so
Monte Carlo workers can evaluate steps in any order and still reproduce the
exact same values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "PeriodicList",
    "RecursiveCosine",
    "Constant",
    "CustomTable",
    "RegressorGenerator",
    "regressor_at",
    "regressor_table",
    "NoiseModel",
    "sample_noise",
    "noise_block",
    "measure",
]

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _finite(values, what: str) -> tuple[float, ...]:
    """The values as a tuple of floats; raises ValueError naming ``what`` on a non-number, inf or NaN.

    Python and numpy ints and floats count as numbers; str and bool do not.
    """
    for x in values:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{what} must be a number, got {x!r}")
    out = tuple(float(x) for x in values)
    for x in out:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x}")
    return out


@dataclass(frozen=True)
class _VectorList:
    """A non-empty list of vectors of one dimension; the generators below read it."""

    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(_finite(v, "vector entry") for v in self.vectors))
        if not self.vectors:
            raise ValueError(f"{type(self).__name__} needs at least one vector")
        if len({len(v) for v in self.vectors}) != 1:
            raise ValueError(f"{type(self).__name__} vectors must share one dimension")

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])

    @property
    def bound(self) -> float:
        """Declared sup-norm bound on every emitted vector."""
        return max(abs(x) for v in self.vectors for x in v)


@dataclass(frozen=True)
class PeriodicList(_VectorList):
    """Cycles through a fixed list of vectors: phi(k) = vectors[k mod len]."""

    def rows(self, ks: np.ndarray) -> np.ndarray:
        return np.array(self.vectors, dtype=float)[ks % len(self.vectors)]


@dataclass(frozen=True)
class RecursiveCosine:
    """One slot follows a(k) = a(k-1) + cos(k * angle_step); the rest is fixed.

    The emitted vector is ``base`` with ``base[slot]`` replaced by a(k),
    starting from a(0) = ``initial``. Values are produced by the literal
    float recursion (not a closed form) so that consecutive differences
    recover the cosine increments exactly as summed. Each instance keeps the
    values computed so far, so a table of K steps costs K cosines once; the
    list may be grown by one thread at a time.
    """

    base: tuple[float, ...]
    slot: int
    initial: float
    angle_step: float
    # a(0), a(1), ... as computed so far; ignored by ==, hash and repr
    _values: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _finite(self.base, "base entry"))
        for name in ("initial", "angle_step"):
            object.__setattr__(self, name, _finite((getattr(self, name),), name)[0])
        self._values.append(self.initial)
        if isinstance(self.slot, bool) or not isinstance(self.slot, numbers.Integral):
            raise ValueError(f"slot must be an integer, got {self.slot!r}")
        if not 0 <= self.slot < len(self.base):
            raise ValueError(f"slot {self.slot} outside base of length {len(self.base)}")

    @property
    def dimension(self) -> int:
        return len(self.base)

    @property
    def bound(self) -> float:
        # |sum_{t<=k} cos(t*w)| <= 1/|sin(w/2)| by the Lagrange trig identity;
        # w an exact float multiple of 2*pi makes every increment ~1, so the
        # sums grow linearly and no finite bound is honest (sin(w/2) is then
        # ~1e-16 rather than 0, hence the modulo test)
        if self.angle_step % math.tau == 0.0:
            return math.inf
        s = math.sin(self.angle_step / 2.0)
        if s == 0.0:
            return math.inf
        slot_bound = abs(self.initial) + 1.0 / abs(s)
        fixed = [abs(x) for i, x in enumerate(self.base) if i != self.slot]
        return max([slot_bound, *fixed])

    def _recursion(self, steps: int) -> list[float]:
        """a(0), a(1), ... with at least ``steps`` entries; written entries never change."""
        values = self._values
        for t in range(len(values), steps):
            values.append(values[-1] + math.cos(t * self.angle_step))
        return values

    def rows(self, ks: np.ndarray) -> np.ndarray:
        out = np.tile(np.array(self.base, dtype=float), (len(ks), 1))
        values = self._recursion(int(ks.max(initial=-1)) + 1)
        out[:, self.slot] = [values[k] for k in ks.tolist()]
        return out


@dataclass(frozen=True)
class Constant:
    """phi(k) = vector for every k."""

    vector: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", _finite(self.vector, "vector entry"))
        if not self.vector:
            raise ValueError("Constant vector must be non-empty")

    @property
    def dimension(self) -> int:
        return len(self.vector)

    @property
    def bound(self) -> float:
        return max(abs(x) for x in self.vector)

    def rows(self, ks: np.ndarray) -> np.ndarray:
        return np.tile(np.array(self.vector, dtype=float), (len(ks), 1))


@dataclass(frozen=True)
class CustomTable(_VectorList):
    """Explicit per-step vectors; steps beyond the table hold the last entry."""

    def rows(self, ks: np.ndarray) -> np.ndarray:
        return np.array(self.vectors, dtype=float)[np.minimum(ks, len(self.vectors) - 1)]


# each kind's rows(ks) stacks phi(k) for every k of an integer array ks
RegressorGenerator = Union[PeriodicList, RecursiveCosine, Constant, CustomTable]


def regressor_at(gen: RegressorGenerator, k: int) -> np.ndarray:
    """Evaluate phi(k) for a generator. k must be >= 0."""
    if k < 0:
        raise ValueError(f"regressor index must be >= 0, got {k}")
    return gen.rows(np.array([k]))[0]


def regressor_table(gen: RegressorGenerator, steps: int) -> np.ndarray:
    """phi(0), ..., phi(steps-1) as a (steps, d) array, row k equal to ``regressor_at(gen, k)``."""
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    return gen.rows(np.arange(steps))


@dataclass(frozen=True)
class NoiseModel:
    """Per-sensor Gaussian noise variances plus the run seed.

    Caches, ignored by ==, hash and repr: each sensor's Philox key, derived on
    first use, and the one generator that :func:`sample_noise` reuses.
    """

    variances: tuple[float, ...]
    seed: int
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _philox: Optional[np.random.Philox] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variances", tuple(float(r) for r in self.variances))
        for i, r in enumerate(self.variances, start=1):
            if not (r >= 0.0 and math.isfinite(r)):
                raise ValueError(f"noise variance R_{i} must be finite and >= 0, got {r}")


def _philox_key(model: NoiseModel, sensor: int) -> list[int]:
    key = model._keys.get(sensor)
    if key is None:
        seq = np.random.SeedSequence((model.seed & _MASK64, sensor))
        key = model._keys[sensor] = seq.generate_state(2, np.uint64).tolist()
    return key


def _check_sensor(model: NoiseModel, sensor: int) -> None:
    if not 1 <= sensor <= len(model.variances):
        raise ValueError(f"sensor id {sensor} outside 1..{len(model.variances)}")


def noise_block(model: NoiseModel, sensor: int, steps: int) -> np.ndarray:
    """All draws v(0), ..., v(steps-1) for one sensor in a single pass.

    Bit-identical to calling :func:`sample_noise` at each k; the block form
    exists because Monte Carlo runs consume whole horizons at once.
    """
    _check_sensor(model, sensor)
    if steps <= 0:
        return np.zeros(0)
    raw = np.random.Philox(key=np.array(_philox_key(model, sensor), dtype=np.uint64))
    words = raw.random_raw(4 * steps).reshape(steps, 4)
    # Box-Muller on the top 53 bits of two Philox words; u1 is kept in (0, 1]
    # so the log never sees zero
    u1 = ((words[:, 0] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (words[:, 1] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    sigma = math.sqrt(model.variances[sensor - 1])
    return sigma * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


def sample_noise(model: NoiseModel, sensor: int, k: int) -> float:
    """One Gaussian draw v_sensor(k), deterministic in (seed, sensor, k).

    The model's one generator is reset in full (key, counter, buffer) before
    every draw, so draws may come in any order, but not from two threads.
    """
    _check_sensor(model, sensor)
    if k < 0:
        raise ValueError(f"time step must be >= 0, got {k}")
    if model._philox is None:
        object.__setattr__(model, "_philox", np.random.Philox(key=0))
    raw = model._philox
    raw.state = {
        "bit_generator": "Philox",
        "state": {"counter": [k, 0, 0, 0], "key": _philox_key(model, sensor)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    w0, w1 = raw.random_raw(2).tolist()
    # noise_block's Box-Muller on floats: the int-to-float steps are exact, and
    # log and cos stay numpy's so that they round as there
    u1 = (float(w0 >> 11) + 1.0) * _INV_2_53
    u2 = float(w1 >> 11) * _INV_2_53
    (log_u1,) = np.log([u1]).tolist()
    (cos_u2,) = np.cos([2.0 * math.pi * u2]).tolist()
    sigma = math.sqrt(model.variances[sensor - 1])
    return sigma * (math.sqrt(-2.0 * log_u1) * cos_u2)


def measure(theta: np.ndarray, phi: np.ndarray, noise: float) -> float:
    """Evaluate theta' phi + noise.

    Raises ValueError on dimension mismatch; the model is scalar-output only.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.shape != phi.shape or theta.ndim != 1:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs phi {phi.shape}")
    return float(np.dot(theta, phi)) + noise

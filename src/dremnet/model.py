"""Stochastic linear regression model: regressor generators and measurement noise.

Each sensor i observes the scalar measurement

    y_i(k) = theta' phi_i(k) + v_i(k),    k = 0, 1, 2, ...

where theta is the unknown d-vector, phi_i(k) is a deterministic regressor
sequence produced by a per-sensor generator, and v_i(k) is zero-mean i.i.d.
Gaussian noise with per-sensor variance R_i.

Noise draws are a pure function of (seed, sensor, k): each (seed, sensor)
pair keys a Philox counter-based stream, and draw k comes from counter
k // 4, whose four words make two Box-Muller pairs, so Monte Carlo workers
can evaluate steps in any order and still reproduce the exact same values.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import threading
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_ANGLE = 2.0 * math.pi * _INV_2_53  # exact, so w * _ANGLE rounds as 2*pi * (w * 2**-53)
_BLOCK_COUNTERS = 64  # Philox counters (256 draws) in each block that sample_noise keeps


def _finite(values, what: str, positive: bool = False) -> tuple[float, ...]:
    """The values as a tuple of floats; raises ValueError naming ``what`` on a non-number, inf or NaN.

    Python and numpy ints and floats count as numbers; str and bool do not.
    With ``positive``, a value <= 0 is refused too.
    """
    for x in values:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{what} must be a number, got {x!r}")
    out = tuple(float(x) for x in values)
    for x in out:
        if not (math.isfinite(x) and (x > 0.0 or not positive)):
            raise ValueError(f"{what} must be finite{' and positive' if positive else ''}, got {x}")
    return out


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array of its own shape, every entry checked by ``_finite``."""
    entries = np.asarray(value, dtype=object)
    return np.array(_finite(entries.ravel().tolist(), what), dtype=float).reshape(entries.shape)


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, and at least ``least`` if given."""
    # the exact-type test first, so a plain int skips the ABC checks
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _sensor(value, n: int) -> int:
    """``value`` as a sensor id: an integer in 1..n, checked as ``_integer`` checks one."""
    i = _integer(value, "sensor id")
    if not 1 <= i <= n:
        raise ValueError(f"sensor id {i} outside 1..{n}")
    return i


@dataclass(frozen=True)
class _VectorList:
    """A non-empty list of non-empty vectors of one dimension; the generators below read it."""

    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(_finite(v, "vector entry") for v in self.vectors))
        if not self.vectors:
            raise ValueError(f"{type(self).__name__} needs at least one vector")
        if len({len(v) for v in self.vectors}) != 1:
            raise ValueError(f"{type(self).__name__} vectors must share one dimension")
        if not self.vectors[0]:
            raise ValueError("regressor vectors must be non-empty")

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


def Constant(vector) -> PeriodicList:
    """phi(k) = vector for every k: a periodic list of one vector."""
    return PeriodicList(vectors=(vector,))


@dataclass(frozen=True)
class RecursiveCosine:
    """One slot follows a(k) = a(k-1) + cos(k * angle_step); the rest is fixed.

    The emitted vector is ``base`` with ``base[slot]`` replaced by a(k),
    starting from a(0) = ``initial``. Values are produced by the literal
    float recursion (not a closed form) so that consecutive differences
    recover the cosine increments exactly as summed. Each call runs the
    recursion afresh up to the largest step asked for, so an instance holds
    no state and any number of threads may read it.
    """

    base: tuple[float, ...]
    slot: int
    initial: float
    angle_step: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _finite(self.base, "base entry"))
        for name in ("initial", "angle_step"):
            object.__setattr__(self, name, _finite((getattr(self, name),), name)[0])
        if not 0 <= _integer(self.slot, "slot") < len(self.base):
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

    def rows(self, ks: np.ndarray) -> np.ndarray:
        out = np.tile(np.array(self.base, dtype=float), (len(ks), 1))
        # a(0), ..., a(max ks), each a(t-1) + cos(t * angle_step)
        top = int(ks.max(initial=0))
        if not math.isfinite(top * self.angle_step):  # |t * angle_step| grows with t
            t = next(t for t in range(1, top + 1) if not math.isfinite(t * self.angle_step))
            raise ValueError(f"angle_step {self.angle_step!r} times step {t} overflows float64")
        steps = (math.cos(t * self.angle_step) for t in range(1, top + 1))
        values = list(itertools.accumulate(steps, initial=self.initial))
        out[:, self.slot] = [values[k] for k in ks.tolist()]
        return out


@dataclass(frozen=True)
class CustomTable(_VectorList):
    """Explicit per-step vectors; steps beyond the table hold the last entry."""

    def rows(self, ks: np.ndarray) -> np.ndarray:
        return np.array(self.vectors, dtype=float)[np.minimum(ks, len(self.vectors) - 1)]


# each kind's rows(ks) stacks phi(k) for every k of an integer array ks
RegressorGenerator = Union[PeriodicList, RecursiveCosine, CustomTable]


def regressor_at(gen: RegressorGenerator, k: int) -> np.ndarray:
    """Evaluate phi(k) for a generator. k must be >= 0.

    A recursive cosine runs its recursion up to k on every call, so reading
    many steps costs less through :func:`regressor_table`.
    """
    return gen.rows(np.array([_integer(k, "step index", 0)]))[0]


def regressor_table(gen: RegressorGenerator, steps: int) -> np.ndarray:
    """phi(0), ..., phi(steps-1) as a (steps, d) array, row k equal to ``regressor_at(gen, k)``."""
    return gen.rows(np.arange(_integer(steps, "step count", 0)))


def _variances(values) -> tuple[float, ...]:
    """The noise variances R_1, ..., R_n as floats, each finite and >= 0, else a ValueError naming R_i."""
    out = _finite(values, "noise variance")
    for i, r in enumerate(out, start=1):
        if r < 0.0:
            raise ValueError(f"noise variance R_{i} must be >= 0, got {r}")
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Per-sensor Gaussian noise variances plus the run seed.

    All n sensors' Philox keys are derived at construction and kept on the
    instance, as is, per sensor, the 256-draw block (first counter, draws)
    that :func:`sample_noise` read last; ==, hash and repr ignore both. Draws use
    one generator per thread, reset in full before each use, so one model
    may be drawn from in several threads at once.
    """

    variances: tuple[float, ...]
    seed: int
    _keys: list = field(init=False, repr=False, compare=False)
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variances", _variances(self.variances))
        _integer(self.seed, "seed")
        (keys,) = _seed_keys([self.seed], range(1, len(self.variances) + 1)).tolist()
        object.__setattr__(self, "_keys", keys)


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """init, init*mult, init*mult**2, ... (count + 1 terms, mod 2**32)."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return [np.uint32(c) for c in out]


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
# Its hash constant runs through a fixed sequence whatever the data: 16
# hashes fill and mix a 4-word pool, 4 more draw the two 64-bit state words
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _seed_keys(seeds, sensors) -> np.ndarray:
    """The Philox key of each sensor under each seed, as a (len(seeds), len(sensors), 2) uint64 array.

    Entry [r, c] equals ``np.random.SeedSequence((seeds[r] & (2**64 - 1),
    sensors[c])).generate_state(2, np.uint64)`` bit for bit, computed for
    all pairs at once in wrapping uint32 arithmetic. Sensor ids are below
    2**32. A seed below 2**32 is one entropy word and a larger one two, so
    the entropy is 2 or 3 words, zero-padded to the 4-word pool.
    """
    words = [operator.index(seed) & _MASK64 for seed in seeds]  # Python or numpy ints; a float raises
    lo = np.array([w & _MASK32 for w in words], dtype=np.uint32)[:, None]
    hi = np.array([w >> 32 for w in words], dtype=np.uint32)[:, None]
    sensor = np.array(sensors, dtype=np.uint32)
    zero = np.zeros((len(words), len(sensor)), dtype=np.uint32)
    entropy = [lo + zero, np.where(hi > 0, hi, sensor), np.where(hi > 0, sensor, zero), zero]

    def hashed(value: np.ndarray, consts: list, t: int) -> np.ndarray:
        value = (value ^ consts[t]) * consts[t + 1]
        return value ^ (value >> _SHIFT)

    pool = [hashed(e, _HASH_A, t) for t, e in enumerate(entropy)]
    t = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed(pool[src], _HASH_A, t)
                pool[dst] = mixed ^ (mixed >> _SHIFT)
                t += 1
    state = [hashed(w, _HASH_B, t).astype(np.uint64) for t, w in enumerate(pool)]
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=-1)


def _noise_models(variances: tuple[float, ...], seeds) -> list[NoiseModel]:
    """One NoiseModel per seed, the variances checked once and every sensor's key derived in one pass."""
    checked = _variances(variances)
    models = []
    for seed, keys in zip(seeds, _seed_keys(seeds, range(1, len(variances) + 1)).tolist()):
        nm = object.__new__(NoiseModel)
        vars(nm).update(variances=checked, seed=seed, _keys=keys, _blocks={})
        models.append(nm)
    return models


# one generator per thread, so a model may be drawn from in several at once
_local = threading.local()


def _stream(model: NoiseModel, sensor: int, k: int) -> np.random.Philox:
    """This thread's generator, reset in full (key, counter, buffer) to counter k of sensor's stream.

    A Philox stream is a pure function of (key, counter), so the reset
    generator gives the words that a fresh one would.
    """
    raw = getattr(_local, "philox", None)
    if raw is None:
        raw = _local.philox = np.random.Philox(key=0)
    raw.state = {
        "bit_generator": "Philox",
        "state": {"counter": [k, 0, 0, 0], "key": model._keys[sensor - 1]},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return raw


def _normals(model: NoiseModel, sensor: int, first_counter: int, counters: int) -> np.ndarray:
    """Draws 4c, ..., 4(c + counters) - 1 of sensor's stream, c = first_counter: the one Box-Muller transform.

    Words 2q and 2q+1 give draws 2q and 2q+1 as r*cos and r*sin of one pair,
    u1 lies in (0, 1] so the log never sees zero, and sigma multiplies last.
    log, cos and sin read contiguous arrays, so a draw rounds alike in any block.
    """
    words = _stream(model, sensor, first_counter).random_raw(4 * counters) >> np.uint64(11)
    u1, u2 = words.reshape(-1, 2).T.astype(np.float64, order="C")  # one entry per pair
    radius = np.sqrt(-2.0 * np.log((u1 + 1.0) * _INV_2_53))
    angle = u2 * _ANGLE
    trig = np.empty((2, 2 * counters))
    np.cos(angle, out=trig[0])
    np.sin(angle, out=trig[1])
    trig *= radius
    return (trig.T * math.sqrt(model.variances[sensor - 1])).reshape(-1)


def noise_block(model: NoiseModel, sensor: int, steps: int) -> np.ndarray:
    """All draws v(0), ..., v(steps-1) for one sensor in a single pass.

    Bit-identical to calling :func:`sample_noise` at each k; the block form
    exists because Monte Carlo runs consume whole horizons at once.
    """
    _sensor(sensor, len(model.variances))
    steps = _integer(steps, "step count", 0)
    return _normals(model, sensor, 0, -(-steps // 4))[:steps]


def sample_noise(model: NoiseModel, sensor: int, k: int) -> float:
    """One Gaussian draw v_sensor(k), deterministic in (seed, sensor, k).

    Reads entry k % 256 of the 64-counter block from counter 64 * (k // 256), kept
    per sensor until another replaces it. Blocks come from this thread's fully reset
    generator, so draws may come in any order, between :func:`noise_block` calls, from any thread.
    """
    # exact-type fast paths, as this runs once per (sensor, step); anything else is checked in full
    if type(sensor) is not int or not 1 <= sensor <= len(model.variances):
        sensor = _sensor(sensor, len(model.variances))
    if type(k) is not int or k < 0:
        k = _integer(k, "step index", 0)
    counter = _BLOCK_COUNTERS * (k // (4 * _BLOCK_COUNTERS))
    block = model._blocks.get(sensor)
    if block is None or block[0] != counter:
        block = model._blocks[sensor] = (counter, _normals(model, sensor, counter, _BLOCK_COUNTERS).tolist())
    return block[1][k - 4 * counter]


def measure(theta: np.ndarray, phi: np.ndarray, noise: float) -> float:
    """Evaluate theta' phi + noise.

    Raises ValueError on dimension mismatch; the model is scalar-output only.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.shape != phi.shape or theta.ndim != 1:
        raise ValueError(f"dimension mismatch: theta {theta.shape} vs phi {phi.shape}")
    return float(np.dot(theta, phi)) + noise

import math
import pickle
import random

import numpy as np
import pytest

from dremnet.model import (
    Constant,
    CustomTable,
    NoiseModel,
    PeriodicList,
    RecursiveCosine,
    measure,
    noise_block,
    regressor_at,
    regressor_table,
    sample_noise,
)
from dremnet import model


def recursion_oracle(initial, angle_step, steps):
    """Literal float recursion a(k) = a(k-1) + cos(k * angle_step)."""
    vals = [initial]
    for k in range(1, steps):
        vals.append(vals[-1] + math.cos(k * angle_step))
    return vals


class TestPeriodicList:
    def test_alternates(self):
        gen = PeriodicList(vectors=((2.0, 3.0), (1.0, 2.0)))
        assert np.array_equal(regressor_at(gen, 0), [2.0, 3.0])
        assert np.array_equal(regressor_at(gen, 1), [1.0, 2.0])
        assert np.array_equal(regressor_at(gen, 8), [2.0, 3.0])
        assert np.array_equal(regressor_at(gen, 13), [1.0, 2.0])

    def test_period_three(self):
        gen = PeriodicList(vectors=((1.0,), (2.0,), (3.0,)))
        assert [regressor_at(gen, k)[0] for k in range(7)] == [1, 2, 3, 1, 2, 3, 1]

    def test_bound_and_dimension(self):
        gen = PeriodicList(vectors=((2.0, -3.0), (1.0, 2.0)))
        assert gen.dimension == 2
        assert gen.bound == 3.0

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            PeriodicList(vectors=())
        with pytest.raises(ValueError):
            PeriodicList(vectors=((1.0, 2.0), (1.0,)))


class TestRecursiveCosine:
    def test_matches_literal_recursion(self):
        gen = RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=math.pi / 4)
        expected = recursion_oracle(1.0, math.pi / 4, 120)
        got = [regressor_at(gen, k)[0] for k in range(120)]
        assert got == expected  # bit-for-bit: same literal recursion

    def test_first_value(self):
        gen = RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=math.pi / 4)
        assert regressor_at(gen, 1)[0] == 1.7071067811865475
        assert regressor_at(gen, 0)[0] == 1.0
        assert regressor_at(gen, 5)[1] == 1.0  # fixed slot untouched

    def test_bound_holds_on_long_scan(self):
        gen = RecursiveCosine(base=(1.0, 0.0), slot=1, initial=2.0, angle_step=math.pi / 2)
        b = gen.bound
        assert math.isfinite(b)
        values = [regressor_at(gen, k)[1] for k in range(20_000)]
        assert max(abs(v) for v in values) <= b + 1e-9

    def test_unbounded_when_angle_degenerate(self):
        gen = RecursiveCosine(base=(0.0,), slot=0, initial=0.0, angle_step=2 * math.pi)
        assert gen.bound == math.inf

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            RecursiveCosine(base=(1.0, 2.0), slot=2, initial=0.0, angle_step=1.0)


class TestConstantAndTable:
    def test_constant(self):
        gen = Constant(vector=(1.0, 1.0))
        for k in (0, 1, 99):
            assert np.array_equal(regressor_at(gen, k), [1.0, 1.0])
        assert gen.bound == 1.0

    def test_table_holds_last(self):
        gen = CustomTable(vectors=((1.0, 0.0), (0.0, 1.0)))
        assert np.array_equal(regressor_at(gen, 1), [0.0, 1.0])
        assert np.array_equal(regressor_at(gen, 5), [0.0, 1.0])

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            regressor_at(Constant(vector=(1.0,)), -1)


def one_of_each_kind():
    """Fresh generators of all four kinds; the table is read past its three rows."""
    return {
        "periodic": PeriodicList(vectors=((2.0, 3.0), (1.0, 2.0), (-0.5, 0.25))),
        "cosine": RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=math.pi / 4),
        "constant": Constant(vector=(1.0, -2.0)),
        "table": CustomTable(vectors=((1.0, 0.0), (0.5, 2.0), (0.0, -1.0))),
    }


class TestRegressorTable:
    @pytest.mark.parametrize("steps", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("kind", ["periodic", "cosine", "constant", "table"])
    def test_rows_equal_regressor_at(self, kind, steps):
        # the table comes first, from a fresh generator, the rows from another
        got = regressor_table(one_of_each_kind()[kind], steps)
        gen = one_of_each_kind()[kind]
        want = np.array([regressor_at(gen, k) for k in range(steps)]).reshape(steps, 2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="step count"):
            regressor_table(Constant(vector=(1.0,)), -1)


class TestRecursionCache:
    STEPS = 300

    def fresh(self):
        return RecursiveCosine(base=(1.0, 0.0), slot=1, initial=2.0, angle_step=math.pi / 3)

    def literal(self):
        return recursion_oracle(2.0, math.pi / 3, self.STEPS)

    def test_call_order_does_not_matter(self):
        backwards = self.fresh()
        got = [regressor_at(backwards, k)[1] for k in reversed(range(self.STEPS))][::-1]
        assert got == self.literal()
        assert regressor_table(self.fresh(), self.STEPS)[:, 1].tolist() == self.literal()

    def test_interleaved_reads(self):
        gen = self.fresh()
        rng = random.Random(8)
        for _ in range(200):
            if rng.random() < 0.2:
                steps = rng.randrange(self.STEPS + 1)
                assert regressor_table(gen, steps)[:, 1].tolist() == self.literal()[:steps]
            else:
                k = rng.randrange(self.STEPS)
                assert regressor_at(gen, k)[1] == self.literal()[k]

    def test_equal_instances_stay_equal(self):
        a, b = self.fresh(), self.fresh()
        regressor_table(a, self.STEPS)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_values" not in repr(a)
        assert regressor_table(b, self.STEPS).tobytes() == regressor_table(a, self.STEPS).tobytes()

    @pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
    def test_pickling(self, grown):
        gen = self.fresh()
        if grown:
            regressor_table(gen, 17)
        copy = pickle.loads(pickle.dumps(gen))
        assert copy == gen
        assert regressor_table(copy, self.STEPS)[:, 1].tolist() == self.literal()

    def test_no_module_level_cache(self):
        assert not hasattr(model, "_RECURSION_CACHE")
        containers = {
            name: len(v) for name, v in vars(model).items() if isinstance(v, (dict, list, set))
        }
        regressor_table(RecursiveCosine(base=(0.0,), slot=0, initial=0.5, angle_step=0.3), 500)
        after = {
            name: len(v) for name, v in vars(model).items() if isinstance(v, (dict, list, set))
        }
        assert after == containers


class TestNonFinite:
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: PeriodicList(vectors=((1.0, 0.0), (x, 1.0))),
            lambda x: CustomTable(vectors=((x, 0.0),)),
            lambda x: Constant(vector=(1.0, x)),
            lambda x: RecursiveCosine(base=(x, 0.0), slot=1, initial=0.0, angle_step=1.0),
            lambda x: RecursiveCosine(base=(0.0, 0.0), slot=1, initial=x, angle_step=1.0),
            lambda x: RecursiveCosine(base=(0.0, 0.0), slot=1, initial=0.0, angle_step=x),
        ],
        ids=["periodic", "table", "constant", "cosine-base", "cosine-initial", "cosine-angle"],
    )
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejected(self, make, x):
        with pytest.raises(ValueError, match="must be finite"):
            make(x)


class TestNoCoercion:
    def test_vector_entries_must_be_numbers(self):
        with pytest.raises(ValueError, match="^vector entry must be a number, got '1'$"):
            Constant(vector=("1", True))
        with pytest.raises(ValueError, match="^vector entry must be a number, got True$"):
            Constant(vector=(1.0, True))

    def test_cosine_fields(self):
        with pytest.raises(ValueError, match="^slot must be an integer, got True$"):
            RecursiveCosine(base=(0.0, 1.0), slot=True, initial=3.0, angle_step=0.5)
        with pytest.raises(ValueError, match="^initial must be a number, got '3'$"):
            RecursiveCosine(base=(0.0, 1.0), slot=0, initial="3", angle_step=0.5)

    def test_numpy_numbers_stay_valid(self):
        gen = CustomTable(vectors=((np.float64(0.5), np.int64(2)),))
        assert gen.vectors == ((0.5, 2.0),)
        gen = RecursiveCosine(base=(0.0, 1.0), slot=np.int64(1), initial=np.float32(0.5), angle_step=1.0)
        assert gen.initial == 0.5 and regressor_at(gen, 0).tolist() == [0.0, 0.5]


class TestNoise:
    def test_deterministic_in_seed_sensor_step(self):
        nm = NoiseModel(variances=(1.0, 1.0), seed=123)
        assert sample_noise(nm, 1, 7) == sample_noise(nm, 1, 7)
        assert sample_noise(nm, 1, 0) == 1.1327150565629187
        assert sample_noise(nm, 1, 1) == 0.16550969813775063
        assert sample_noise(nm, 1, 2) == 0.5025508128405565
        assert sample_noise(nm, 2, 0) == 1.1587238651692284

    def test_block_equals_single_draws(self):
        # bit for bit, signed zeros included, over whole horizons
        nm = NoiseModel(variances=(2.0, 0.5, 0.0, 1.0), seed=99)
        for sensor in (1, 2, 3, 4):
            block = noise_block(nm, sensor, 2000)
            singles = np.array([sample_noise(nm, sensor, k) for k in range(2000)])
            assert singles.tobytes() == block.tobytes()

    def test_draw_order_is_invisible(self):
        keys = [(sensor, k) for sensor in (1, 2, 3) for k in range(300)]
        reference = {key: sample_noise(NoiseModel(variances=(1.0, 0.5, 2.0), seed=8), *key) for key in keys}
        shuffled = [keys[j] for j in np.random.default_rng(3).permutation(len(keys))]
        a = NoiseModel(variances=(1.0, 0.5, 2.0), seed=8)
        b = NoiseModel(variances=(1.0, 0.5, 2.0), seed=8)
        for j, key in enumerate(shuffled):
            # sensors interleave, and two models with one seed take turns
            assert sample_noise(a if j % 2 else b, *key) == reference[key]
        assert [sample_noise(a, *key) for key in keys] == [reference[key] for key in keys]

    def test_pickle_after_draws(self):
        nm = NoiseModel(variances=(1.0, 3.0), seed=41)
        before = [sample_noise(nm, sensor, k) for sensor in (1, 2) for k in range(20)]
        noise_block(nm, 2, 5)
        clone = pickle.loads(pickle.dumps(nm))
        assert clone == nm and hash(clone) == hash(nm)
        after = [sample_noise(clone, sensor, k) for sensor in (1, 2) for k in range(20)]
        assert after == before
        assert noise_block(clone, 1, 20).tobytes() == np.array(before[:20]).tobytes()

    def test_streams_differ_across_sensors_and_seeds(self):
        a = noise_block(NoiseModel(variances=(1.0, 1.0), seed=1), 1, 32)
        b = noise_block(NoiseModel(variances=(1.0, 1.0), seed=1), 2, 32)
        c = noise_block(NoiseModel(variances=(1.0, 1.0), seed=2), 1, 32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments(self):
        n = 200_000
        z = noise_block(NoiseModel(variances=(1.0,), seed=4242), 1, n)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_cross_correlation_small(self):
        nm = NoiseModel(variances=(1.0, 1.0), seed=7)
        n = 100_000
        a, b = noise_block(nm, 1, n), noise_block(nm, 2, n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_variance_scaling_exact(self):
        base = noise_block(NoiseModel(variances=(1.0,), seed=5), 1, 100)
        scaled = noise_block(NoiseModel(variances=(2.5,), seed=5), 1, 100)
        assert np.array_equal(scaled, math.sqrt(2.5) * base)

    def test_zero_variance(self):
        assert np.all(noise_block(NoiseModel(variances=(0.0,), seed=1), 1, 50) == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(variances=(-1.0,), seed=0)
        nm = NoiseModel(variances=(1.0,), seed=0)
        with pytest.raises(ValueError):
            sample_noise(nm, 2, 0)
        with pytest.raises(ValueError):
            sample_noise(nm, 1, -1)


class TestMeasure:
    def test_hand_values(self):
        theta = np.array([2.5, -1.0])
        assert measure(theta, np.array([1.0, 2.0]), 0.0) == 0.5
        assert measure(theta, np.array([1.0, 2.0]), 1.0) == 1.5
        assert measure(theta, np.array([2.0, 3.0]), 0.0) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            measure(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 0.0)

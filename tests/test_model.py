import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

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


def reference_draws(seed, sensor, variance, counters):
    """Draws 0 .. 4*counters - 1 of (seed, sensor), rebuilt with scalar math from fresh generators.

    Counter c's four words w0..w3 give sigma*(r*cos t) and sigma*(r*sin t)
    for the pair (w0, w1), then for (w2, w3), with r = sqrt(-2 log u1),
    t = 2 pi u2, u1 = ((w >> 11) + 1) 2**-53 and u2 = (w >> 11) 2**-53.
    """
    key = np.random.SeedSequence((seed % 2**64, sensor)).generate_state(2, np.uint64)
    sigma = math.sqrt(variance)
    out = []
    for c in range(counters):
        words = np.random.Philox(key=key, counter=c).random_raw(4).tolist()
        for w1, w2 in (words[0:2], words[2:4]):
            r = math.sqrt(-2.0 * math.log(((w1 >> 11) + 1) * 2.0**-53))
            t = 2.0 * math.pi * ((w2 >> 11) * 2.0**-53)
            out += [sigma * (r * math.cos(t)), sigma * (r * math.sin(t))]
    return np.array(out)


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
        values = regressor_table(gen, 20_000)[:, 1].tolist()
        assert max(abs(v) for v in values) <= b + 1e-9

    def test_unbounded_when_angle_degenerate(self):
        gen = RecursiveCosine(base=(0.0,), slot=0, initial=0.0, angle_step=2 * math.pi)
        assert gen.bound == math.inf

    def test_unbounded_when_half_angle_sine_vanishes(self):
        # 5e-324 is no multiple of 2*pi, but half of it rounds to 0.0, whose sine is 0.0
        assert 5e-324 % math.tau != 0.0 and math.sin(5e-324 / 2.0) == 0.0
        gen = RecursiveCosine(base=(0.0, 1.0), slot=0, initial=1.0, angle_step=5e-324)
        assert gen.bound == math.inf

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            RecursiveCosine(base=(1.0, 2.0), slot=2, initial=0.0, angle_step=1.0)

    def test_overflowing_angle_names_angle_step_and_step(self):
        # 1e308 is finite, but 2 * 1e308 is not, and math.cos has no value for it
        gen = RecursiveCosine(base=(0.0,), slot=0, initial=0.0, angle_step=1e308)
        assert regressor_table(gen, 2)[1, 0] == math.cos(1e308)
        with pytest.raises(ValueError, match=r"^angle_step 1e\+308 times step 2 overflows float64$"):
            regressor_table(gen, 3)


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
        with pytest.raises(ValueError, match="^step index must be nonnegative, got -1$"):
            regressor_at(Constant(vector=(1.0,)), -1)

    def test_step_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^step index must be an integer, got 1\.5$"):
            regressor_at(Constant(vector=(1.0,)), 1.5)


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
        with pytest.raises(ValueError, match="^step count must be nonnegative, got -1$"):
            regressor_table(Constant(vector=(1.0,)), -1)

    def test_step_count_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^step count must be an integer, got 2\.5$"):
            regressor_table(Constant(vector=(1.0,)), 2.5)


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

    def test_threads_share_a_generator(self):
        # four threads build long tables from one fresh generator while the
        # interpreter switches threads as often as it allows; each table, and
        # one built after them, must equal a sequential build
        steps = 20_000
        want = regressor_table(self.fresh(), steps).tobytes()
        gen = self.fresh()
        start = threading.Barrier(4, timeout=60)
        got = [None] * 4

        def build(t):
            start.wait()
            got[t] = regressor_table(gen, steps).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4
        assert regressor_table(gen, steps).tobytes() == want

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

    def test_noise_variances(self):
        with pytest.raises(ValueError, match="^noise variance must be a number, got '1'$"):
            NoiseModel(variances=("1",), seed=1)
        with pytest.raises(ValueError, match="^noise variance must be a number, got True$"):
            NoiseModel(variances=(1.0, True), seed=1)
        assert NoiseModel(variances=(np.float32(0.5), 2), seed=1).variances == (0.5, 2.0)

    @pytest.mark.parametrize(
        "variances, message",
        [
            ((1.0, -1.0, 1.0, 1.0), "noise variance R_2 must be >= 0, got -1.0"),
            ((1.0, 1.0, math.nan, 1.0), "noise variance must be finite, got nan"),
        ],
    )
    def test_noise_variance_range(self, variances, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseModel(variances=variances, seed=1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Constant(vector=()),
            lambda: PeriodicList(vectors=((),)),
            lambda: CustomTable(vectors=((),)),
        ],
        ids=["constant", "periodic", "table"],
    )
    def test_empty_vectors_rejected(self, make):
        # before, a periodic list of empty vectors was built and its bound
        # raised from max() of nothing
        with pytest.raises(ValueError, match="vectors must be non-empty"):
            make()

    def test_numpy_numbers_stay_valid(self):
        gen = CustomTable(vectors=((np.float64(0.5), np.int64(2)),))
        assert gen.vectors == ((0.5, 2.0),)
        gen = RecursiveCosine(base=(0.0, 1.0), slot=np.int64(1), initial=np.float32(0.5), angle_step=1.0)
        assert gen.initial == 0.5 and regressor_at(gen, 0).tolist() == [0.0, 0.5]


class TestNoise:
    def test_deterministic_in_seed_sensor_step(self):
        # frozen values of reference_draws(123, sensor, 1.0, 1)
        nm = NoiseModel(variances=(1.0, 1.0), seed=123)
        assert sample_noise(nm, 1, 7) == sample_noise(nm, 1, 7)
        assert sample_noise(nm, 1, 0) == 1.1327150565629187
        assert sample_noise(nm, 1, 1) == 0.002442381632358347
        assert sample_noise(nm, 1, 2) == -0.30304248948425055
        assert sample_noise(nm, 2, 0) == 1.1587238651692284

    @pytest.mark.parametrize("seed, variance", [(123, 1.0), (2**40 + 3, 0.37), (-9, 2.5), (0, 0.0)])
    def test_matches_scalar_reference(self, seed, variance):
        # libm and numpy's vector loops may round log, cos and sin one unit
        # apart, so the comparison is relative, not in bits
        nm = NoiseModel(variances=(variance, variance, variance), seed=seed)
        for sensor in (1, 3):
            want = reference_draws(seed, sensor, variance, 300)
            np.testing.assert_allclose(noise_block(nm, sensor, 1200), want, rtol=1e-14, atol=0.0)
            singles = [sample_noise(nm, sensor, k) for k in (0, 1, 2, 3, 4, 599, 1199)]
            np.testing.assert_allclose(singles, want[[0, 1, 2, 3, 4, 599, 1199]], rtol=1e-14, atol=0.0)

    def test_blocks_are_prefixes(self):
        nm = NoiseModel(variances=(1.0, 0.5), seed=17)
        for sensor in (1, 2):
            longer = noise_block(nm, sensor, 64)
            for j in range(1, 10):
                assert noise_block(nm, sensor, j).tobytes() == longer[:j].tobytes(), (sensor, j)

    def test_box_muller_partners(self):
        # v(2p) and v(2p+1) are r*cos and r*sin of one pair: uncorrelated,
        # and their squares add to r**2, whose mean is 2
        pairs = noise_block(NoiseModel(variances=(1.0,), seed=31), 1, 200_000).reshape(-1, 2)
        assert abs(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]) < 0.02
        assert abs((pairs * pairs).sum(axis=1).mean() - 2.0) < 0.03

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
            # sensors interleave, two models with one seed take turns, and
            # blocks that stop partway through a Philox block come between draws
            nm = a if j % 2 else b
            assert sample_noise(nm, *key) == reference[key]
            if j % 7 == 0:
                sensor, steps = key[0], key[1] % 13 + 1
                fresh = noise_block(NoiseModel(variances=(1.0, 0.5, 2.0), seed=8), sensor, steps)
                assert noise_block(nm, sensor, steps).tobytes() == fresh.tobytes()
        assert [sample_noise(a, *key) for key in keys] == [reference[key] for key in keys]
        for sensor in (3, 1, 2):
            want = np.array([reference[sensor, k] for k in range(300)])
            assert noise_block(b, sensor, 300).tobytes() == want.tobytes()

    def test_pickle_after_draws(self):
        nm = NoiseModel(variances=(1.0, 3.0), seed=41)
        before = [sample_noise(nm, sensor, k) for sensor in (1, 2) for k in range(20)]
        noise_block(nm, 2, 5)
        clone = pickle.loads(pickle.dumps(nm))
        assert clone == nm and hash(clone) == hash(nm)
        for drawn in (clone, nm):
            after = []
            for sensor in (1, 2):
                fresh = noise_block(NoiseModel(variances=(1.0, 3.0), seed=41), 3 - sensor, 7)
                assert noise_block(drawn, 3 - sensor, 7).tobytes() == fresh.tobytes()
                after += [sample_noise(drawn, sensor, k) for k in range(20)]
            assert after == before
        assert noise_block(clone, 1, 20).tobytes() == np.array(before[:20]).tobytes()

    def test_kept_blocks_in_reverse_order(self):
        # each sensor keeps its last 256-draw block: steps 39 down to 0, with
        # the sensors interleaved, all lie in the block from counter 0, which
        # each sensor computes on its first draw and keeps
        variances = (1.0, 0.5, 2.0)
        want = {sensor: noise_block(NoiseModel(variances=variances, seed=12), sensor, 40) for sensor in (1, 2, 3)}
        nm = NoiseModel(variances=variances, seed=12)
        for k in range(39, -1, -1):
            for sensor in (3, 1, 2):
                assert sample_noise(nm, sensor, k) == want[sensor][k], (sensor, k)
        assert len(nm._blocks) == 3 and all(counter == 0 for counter, _ in nm._blocks.values())

    def test_draws_across_block_boundaries(self):
        # the kept blocks hold 256 draws, from counters 0, 64, 128, ...: draws on
        # both sides of a boundary, read out of order, are noise_block's bits
        variances = (1.0, 0.5)
        want = {sensor: noise_block(NoiseModel(variances=variances, seed=21), sensor, 513) for sensor in (1, 2)}
        nm = NoiseModel(variances=variances, seed=21)
        for k, first in ((512, 128), (255, 0), (511, 64), (256, 64), (0, 0), (512, 128)):
            for sensor in (2, 1):
                assert np.float64(sample_noise(nm, sensor, k)).tobytes() == want[sensor][k].tobytes(), (sensor, k)
                assert nm._blocks[sensor][0] == first and len(nm._blocks[sensor][1]) == 256

    def test_one_block_per_256_steps_of_a_run(self, monkeypatch):
        # a K = 500 run of four sensors computes two blocks per sensor
        from dremnet.harness import load_scenario, run_single

        calls = []
        normals = model._normals
        monkeypatch.setattr(model, "_normals", lambda *args: calls.append(args[1:]) or normals(*args))
        run_single(load_scenario("sec5"), seed=3, horizon=500)
        assert sorted(calls) == [(sensor, first, 64) for sensor in (1, 2, 3, 4) for first in (0, 64)]

    def test_kept_blocks_are_invisible(self):
        drawn = NoiseModel(variances=(1.0, 0.5), seed=4)
        fresh = NoiseModel(variances=(1.0, 0.5), seed=4)
        sample_noise(drawn, 1, 5)
        sample_noise(drawn, 2, 9)
        assert drawn._blocks and not fresh._blocks
        assert drawn == fresh and hash(drawn) == hash(fresh) and repr(drawn) == repr(fresh)
        assert repr(drawn) == "NoiseModel(variances=(1.0, 0.5), seed=4)"
        assert drawn != NoiseModel(variances=(1.0, 0.5), seed=5)

    def test_threads_share_a_model(self):
        # each thread resets its own generator, so draws from one shared model
        # in more threads than cores give the bytes of sequential draws; the
        # threads also race to derive the model's keys
        sensors = (1, 2, 3, 4)
        nm = NoiseModel(variances=(1.0, 0.5, 2.0, 0.25), seed=2**40)
        fresh = NoiseModel(variances=(1.0, 0.5, 2.0, 0.25), seed=2**40)
        want = {
            sensor: ([sample_noise(fresh, sensor, k) for k in range(300)], noise_block(fresh, sensor, 300).tobytes())
            for sensor in sensors
        }
        start = threading.Barrier(len(sensors), timeout=60)
        got = {}

        def draw(sensor):
            start.wait()
            singles, blocks = [], []
            for k in range(300):
                singles.append(sample_noise(nm, sensor, k))
                if k % 30 == 0:
                    blocks.append(noise_block(nm, sensor, 300).tobytes())
            got[sensor] = (singles, blocks)

        # switch threads as often as the interpreter allows, so that one
        # thread's reset lands between another's reset and its draw
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(sensor,)) for sensor in sensors]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for sensor in sensors:
            singles, blocks = got[sensor]
            assert singles == want[sensor][0]
            assert blocks == [want[sensor][1]] * 10

    def test_draws_move_at_most_two_ulp_without_avx512(self):
        # output bits depend on numpy's CPU dispatch: a child process with the
        # AVX-512 paths off may round log, cos or sin differently, by <= 2 ulp
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        if not __cpu_features__.get("X86_V4"):
            pytest.skip("numpy finds no X86_V4 on this CPU")
        off = " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if f in __cpu_dispatch__)
        code = (
            "import sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from dremnet.model import NoiseModel, noise_block\n"
            "assert not __cpu_features__['X86_V4']\n"
            "sys.stdout.write(noise_block(NoiseModel(variances=(1.0,), seed=7), 1, 10**4).tobytes().hex())\n"
        )
        src = str(Path(model.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=off, PYTHONPATH=path)
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        theirs = np.frombuffer(bytes.fromhex(child.stdout))
        ours = noise_block(NoiseModel(variances=(1.0,), seed=7), 1, 10**4)
        assert theirs.shape == ours.shape
        assert np.all(np.abs(theirs - ours) <= 2 * np.spacing(np.abs(ours)))

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
        # the per-step draw refuses what noise_block refuses, in the same words
        for draw in (sample_noise, noise_block):
            with pytest.raises(ValueError, match=r"^sensor id 2 outside 1\.\.1$"):
                draw(nm, 2, 0)
            with pytest.raises(ValueError, match="^sensor id must be an integer, got True$"):
                draw(nm, True, 0)
        with pytest.raises(ValueError, match="^step index must be nonnegative, got -1$"):
            sample_noise(nm, 1, -1)
        for k in (1.5, True):
            with pytest.raises(ValueError, match=f"^step index must be an integer, got {k!r}$"):
                sample_noise(nm, 1, k)
        assert sample_noise(nm, np.int64(1), np.int64(3)) == sample_noise(nm, 1, 3)
        with pytest.raises(ValueError, match=r"^sensor id must be an integer, got 1\.5$"):
            noise_block(nm, 1.5, 3)

    @pytest.mark.parametrize("steps, message", [(-5, "must be nonnegative, got -5"), (2.5, "must be an integer, got 2.5")])
    def test_block_step_count_checked(self, steps, message):
        # refused as regressor_table refuses it; zero steps is an empty block
        with pytest.raises(ValueError, match=f"^step count {re.escape(message)}$"):
            noise_block(NoiseModel(variances=(1.0,), seed=0), 1, steps)
        block = noise_block(NoiseModel(variances=(1.0,), seed=0), 1, 0)
        assert block.shape == (0,) and block.dtype == np.float64


class TestSeedKeys:
    # seeds at the one/two-word boundary, negatives (taken mod 2**64) and
    # random 63-bit seeds; sensor ids up to 2**31
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, -1, -7, 10**4] + [
        int(x) for x in np.random.default_rng(13).integers(0, 2**63, 200)
    ]
    SENSORS = [1, 2, 3, 4, 5, 6, 2**31]

    def test_equals_seed_sequence(self):
        got = model._seed_keys(self.SEEDS, self.SENSORS)
        assert got.shape == (len(self.SEEDS), len(self.SENSORS), 2) and got.dtype == np.uint64
        for r, seed in enumerate(self.SEEDS):
            for c, sensor in enumerate(self.SENSORS):
                want = np.random.SeedSequence((seed & (2**64 - 1), sensor)).generate_state(2, np.uint64)
                assert got[r, c].tobytes() == want.tobytes(), (seed, sensor)

    def test_batch_models_carry_a_lone_models_keys(self):
        seeds = [-5, 0, 2**40, 10_001]
        models = model._noise_models((1.0, 2.0, 0.5), seeds)
        assert [nm.seed for nm in models] == seeds
        for nm in models:
            lone = NoiseModel(variances=(1.0, 2.0, 0.5), seed=nm.seed)
            assert lone._keys == nm._keys
            assert nm == lone and noise_block(nm, 3, 9).tobytes() == noise_block(lone, 3, 9).tobytes()
            # built without the constructor, yet with every field a lone model has
            assert vars(nm).keys() == vars(lone).keys() and nm._blocks == {} and nm._blocks is not lone._blocks

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, -1])
    def test_keys_are_set_at_construction(self, seed):
        nm = NoiseModel(variances=(1.0, 0.5, 2.0), seed=seed)
        assert nm._keys == model._seed_keys([seed], [1, 2, 3]).tolist()[0]
        # the keys are derived state: a model built without them still equals
        # this one, and pickling carries them along
        other = NoiseModel(variances=(1.0, 0.5, 2.0), seed=seed)
        object.__setattr__(other, "_keys", [])
        assert other == nm and hash(other) == hash(nm) and repr(other) == repr(nm)
        assert repr(nm) == f"NoiseModel(variances=(1.0, 0.5, 2.0), seed={seed})"
        clone = pickle.loads(pickle.dumps(nm))
        assert clone == nm and hash(clone) == hash(nm) and clone._keys == nm._keys

    def test_seed_is_any_integer_and_only_an_integer(self):
        # a numpy seed keys the stream its Python int does; before, it raised
        # OverflowError at the first draw, as a float seed did
        assert NoiseModel(variances=(1.0,), seed=np.int64(5))._keys == NoiseModel(variances=(1.0,), seed=5)._keys
        for seed in (1.5, "3", True):
            with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
                NoiseModel(variances=(1.0,), seed=seed)

    def test_batch_models_check_variances_once(self):
        with pytest.raises(ValueError, match="R_2 must be >= 0"):
            model._noise_models((1.0, -2.0), [1, 2])
        with pytest.raises(ValueError, match="must be a number"):
            model._noise_models((1.0, "2"), [1, 2])
        (nm,) = model._noise_models((1, np.float32(0.5)), [3])
        assert nm.variances == (1.0, 0.5) and all(type(v) is float for v in nm.variances)

    def test_batch_models_derive_only_their_seeds_keys(self, monkeypatch):
        derived, derive = [], model._seed_keys
        monkeypatch.setattr(model, "_seed_keys", lambda seeds, sensors: derived.append(list(seeds)) or derive(seeds, sensors))
        model._noise_models((1.0, 2.0), [5, 6])
        assert derived == [[5, 6]]

    @pytest.mark.parametrize("variances", [(1.0, -2.0), (1.0, math.nan), (math.inf,), (1.0, "2"), (True,)])
    def test_batch_and_lone_models_share_the_variance_rule(self, variances):
        with pytest.raises(ValueError) as lone:
            NoiseModel(variances=variances, seed=1)
        with pytest.raises(ValueError) as batch:
            model._noise_models(variances, [1])
        assert str(batch.value) == str(lone.value)


class TestMeasure:
    def test_hand_values(self):
        theta = np.array([2.5, -1.0])
        assert measure(theta, np.array([1.0, 2.0]), 0.0) == 0.5
        assert measure(theta, np.array([1.0, 2.0]), 1.0) == 1.5
        assert measure(theta, np.array([2.0, 3.0]), 0.0) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            measure(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 0.0)

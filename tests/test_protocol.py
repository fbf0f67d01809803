"""The per-node protocol against its array form.

Both engines add through ``drem._mix`` and ``estimator._fused_step``, which
must give the same bits on Python floats and on float64 arrays. The numpy
references below are written out independently of both; ``update_estimate``
(on Python floats) and ``drem.mix`` must match them byte for byte, signed
zeros included. The DREM layer that both
engines read is checked message by message against ``drem_transform``, the
event-indexed chunk engine against the step-indexed loop it replaced, and
the m = 1 chunk engine against ``run_single``, on scenarios that reach the
d = 1, the d = 2, the d = 3 cofactor and the d = 5 elimination paths.
"""

import math

import numpy as np
import pytest

from dremnet.drem import DremMessage, _mix, drem_transform, extend, mix
from dremnet.estimator import HarmonicSchedule, NodeState, _fused_step, update_estimate, updates
from dremnet.harness import Scenario, _channel_norm, _chunk_sums, _drem_layer, _noise_free, run_single, step_tables
from dremnet.model import Constant, NoiseModel, PeriodicList, RecursiveCosine, noise_block
from dremnet.topology import StaticGraph, neighborhood_values


def ref_update_estimate(state, inbox, alpha):
    th = state.theta_hat
    num = np.zeros_like(th)
    s = 0.0
    for m in inbox:
        num += m.delta_bar * (m.ybar - m.delta_bar * th)
        s += m.delta_bar * m.delta_bar
    if s == 0.0:
        return th.copy()
    return th + (alpha * num) / (state.mu + s)


def ref_adj_apply(adj, stack):
    out = np.zeros(adj.shape[0])
    for r in range(adj.shape[1]):
        out += adj[:, r] * stack[r]
    return out


def ref_chunk_sums(s, tables, seeds):
    # visits every step at which some sensor updates and reduces the runs
    # after each one; steps it skips repeat the last visited sums
    n, d, m, K = s.n, s.d, len(seeds), tables.horizon
    y = np.empty((n, K, m))
    for r, seed in enumerate(seeds):
        nm = NoiseModel(variances=s.variances, seed=seed)
        for j in range(1, n + 1):
            y[j - 1, :, r] = tables.y_det[j - 1] + noise_block(nm, j, K)
    idx = tables.members
    gated = neighborhood_values(idx, tables.delta)
    th = np.repeat(s.theta_hat0[:, None, :], m, axis=1)
    sum_err = np.zeros((n, K + 1))
    sum_tilde = np.zeros((n, K + 1, d))
    m2 = np.zeros((n, K + 1, d))
    changed = np.zeros(K + 1, dtype=bool)

    def accumulate(k):
        tilde = th - s.theta[None, None, :]
        # each channel's runs summed contiguously, numpy's pairwise sum
        tot = np.ascontiguousarray(tilde.transpose(0, 2, 1)).sum(axis=2)
        dev = tilde - (tot / m)[:, None, :]
        sum_tilde[:, k] += tot
        m2[:, k] += np.ascontiguousarray((dev * dev).transpose(0, 2, 1)).sum(axis=2)
        sum_err[:, k] += _channel_norm(tilde).sum(axis=1)
        changed[k] = True

    accumulate(0)
    for k in np.flatnonzero(tables.effective.any(axis=0)):
        srow = tables.gated_sum[:, k]
        ybar = np.zeros((n, m, d))
        for r in range(d):
            ybar += y[:, k - r, :, None] * tables.adj[:, k, None, :, r]
        num = np.zeros((n, m, d))
        for p in range(idx.shape[2]):
            dlt = gated[:, k, p, None, None]
            num += dlt * (ybar[idx[:, k, p]] - dlt * th)
        new = th + (tables.alpha[k] * num) / np.add(s.mu, srow)[:, None, None]
        th = np.where(tables.effective[:, k, None, None], new, th)
        accumulate(k + 1)
    fill = np.maximum.accumulate(np.where(changed, np.arange(K + 1), 0))
    return sum_err[:, fill], sum_tilde[:, fill], m2[:, fill]


@pytest.fixture(scope="module")
def idle_d1():
    # d = 1: sensor 1's regressor vanishes every third step, sensor 2 hears
    # sensor 1, and sensor 3 has a zero regressor and no in-neighbours, so it
    # never updates
    return Scenario(
        theta=np.array([1.5]),
        generators=(
            PeriodicList(vectors=((1.0,), (-2.0,), (0.0,))),
            RecursiveCosine(base=(0.5,), slot=0, initial=0.5, angle_step=0.7),
            Constant(vector=(0.0,)),
        ),
        variances=(1.0, 0.5, 2.0),
        graph=StaticGraph(n=3, edges=((1, 2),)),
        schedule=HarmonicSchedule(c=0.8),
        mu=(0.1, 0.2, 0.3),
        theta_hat0=np.array([[0.5], [-1.0], [2.0]]),
        horizon=60,
    )


@pytest.fixture(scope="module")
def in_phase_complete():
    # every sensor hears every other and all update at the same steps, so a
    # pass reads each of the n messages of its step from n listeners
    n = 4
    return Scenario(
        theta=np.array([1.0, -2.0]),
        generators=tuple(PeriodicList(vectors=((1.0, 0.5 * i), (0.3, 1.0), (-1.0, 0.7))) for i in range(1, n + 1)),
        variances=(0.5, 1.0, 1.5, 2.0),
        graph=StaticGraph(n=n, edges=tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)),
        schedule=HarmonicSchedule(c=0.5),
        mu=(0.1, 0.2, 0.3, 0.4),
        theta_hat0=np.array([[0.0, 0.0], [1.0, -1.0], [-0.0, 2.0], [3.0, 0.5]]),
        horizon=40,
    )


def signed_zeros(rng, x, p_zero=0.25, p_neg_zero=0.15):
    x = np.array(x, dtype=float)
    x[rng.random(x.shape) < p_zero] = 0.0
    x[rng.random(x.shape) < p_neg_zero] = -0.0
    return x


# signed zeros, subnormals, the smallest normal, +-1e300 and infinities
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, math.inf, -math.inf]


def special_floats(rng, shape):
    """Normal draws over 10 decades, about a third of them replaced by ``SPECIAL`` values."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    pick = rng.random(shape) < 0.35
    x[pick] = rng.choice(SPECIAL, size=shape)[pick]
    return x


def assert_same_floats(got, want):
    # bit for bit, except that any NaN matches any NaN: its sign and payload are not part of the order
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert got.shape == want.shape and (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()
    return want


def assert_outcomes_cover_special_values(want):
    # a sum from +0.0 never ends at -0.0, so the signed zeros show in the inputs only
    finite = want[np.isfinite(want)]
    assert np.isnan(want).any() and np.isposinf(want).any() and np.isneginf(want).any() and (finite == 0.0).any()
    assert ((finite != 0.0) & (np.abs(finite) < 2.2250738585072014e-308)).any()


@pytest.mark.parametrize("terms", [1, 2, 3, 5])
def test_mix_on_arrays_equals_python_floats(terms):
    rng, size = np.random.default_rng(400 + terms), 4000
    w, v = special_floats(rng, (terms, size)), special_floats(rng, (terms, size))
    # sparse columns, so that sums of many terms also end at zero or a subnormal
    w[:, : size // 4] = np.where(rng.random((terms, size // 4)) < 0.8, 0.0, w[:, : size // 4])
    want = [_mix(w[:, e].tolist(), v[:, e].tolist()) for e in range(size)]
    assert all(type(x) is float for x in want)
    with np.errstate(all="ignore"):  # overflow and inf - inf, which Python floats pass silently
        got = _mix(w, v)
    assert_outcomes_cover_special_values(assert_same_floats(got, want))


@pytest.mark.parametrize("width", [1, 2, 4])
def test_fused_step_on_arrays_equals_python_floats(width):
    rng, size = np.random.default_rng(500 + width), 4000
    theta = special_floats(rng, size)
    deltas, ybars = special_floats(rng, (width, size)), special_floats(rng, (width, size))
    alpha = rng.uniform(0.01, 1.0, size)
    # a denominator is mu + sum delta^2 > 0; a zero would raise on Python floats
    den = np.abs(special_floats(rng, size))
    den[den == 0.0] = 0.5
    want = [
        _fused_step(t, ds, ys, a, dn)
        for t, ds, ys, a, dn in zip(theta.tolist(), deltas.T.tolist(), ybars.T.tolist(), alpha.tolist(), den.tolist())
    ]
    assert all(type(x) is float for x in want)
    with np.errstate(all="ignore"):
        got = _fused_step(theta, deltas, ybars, alpha, den)
    assert_outcomes_cover_special_values(assert_same_floats(got, want))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_update_estimate_matches_array_form(d):
    rng = np.random.default_rng(100 + d)
    closed = updated = 0
    for width in range(1, 5):
        for _ in range(40):
            scale = 10.0 ** rng.integers(-3, 4)
            theta = signed_zeros(rng, rng.normal(size=d) * scale)
            state = NodeState(theta_hat=theta, counter=int(rng.integers(0, 2 * d)), mu=rng.uniform(0.05, 2.0))
            ybar = signed_zeros(rng, rng.normal(size=(width, d)) * scale)
            delta = signed_zeros(rng, rng.normal(size=width))
            sensors = rng.permutation(width) + 1
            inbox = [
                DremMessage(ybar=ybar[j], delta_bar=float(delta[j]), sensor=int(sensors[j]))
                for j in range(width)
            ]
            open_ = updates(state.counter, float(delta @ delta), d)
            if not open_:  # a closed gate zeroes every delta
                inbox = [DremMessage(ybar=m.ybar, delta_bar=0.0, sensor=m.sensor) for m in inbox]
            alpha = float(rng.uniform(0.01, 1.0))
            got = update_estimate(state, inbox, alpha)
            assert got.tobytes() == ref_update_estimate(state, inbox, alpha).tobytes()
            closed += not open_
            updated += any(m.delta_bar != 0.0 for m in inbox)
    assert closed and updated  # both branches ran


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_mixing_matches_array_form(d):
    rng = np.random.default_rng(200 + d)
    for trial in range(60):
        if trial % 2:
            _, adj = extend(list(rng.normal(size=(d, d))))
        else:
            adj = signed_zeros(rng, rng.normal(size=(d, d)) * 10.0 ** rng.integers(-3, 4))
        stack = signed_zeros(rng, rng.normal(size=d))
        assert mix(0.0, adj, stack).ybar.tobytes() == ref_adj_apply(adj, stack).tobytes()


@pytest.mark.parametrize("zeros", [False, True], ids=["noisy", "signed-zeros"])
@pytest.mark.parametrize("name", ["sec5", "periodic_d3", "table_d5"])
def test_drem_layer_equals_per_node_messages(name, zeros, request):
    # every (sensor, step) of noisy measurements, warm-up steps included; the
    # second case scatters +0.0 and -0.0 through the regressors and measurements
    s, rng = request.getfixturevalue(name), np.random.default_rng(300)
    n, d = s.n, s.d
    for K in (0, 1, d, 60):
        phi, y_det = _noise_free(s, K)
        nm = NoiseModel(variances=s.variances, seed=17)
        y = y_det + np.array([noise_block(nm, i, K) for i in range(1, n + 1)])
        if zeros:
            phi, y = signed_zeros(rng, phi), signed_zeros(rng, y)
        delta, adj, ybar, finite = _drem_layer(phi, y)
        assert finite.all()
        for i in range(n):
            for k in range(K):
                newest_first = range(k, max(k - d, -1), -1)
                window = [phi[i, t] for t in newest_first]
                msg = drem_transform(i + 1, window, [y[i, t] for t in newest_first])
                assert msg.sensor == i + 1
                assert np.float64(msg.delta_bar).tobytes() == delta[i, k].tobytes(), (i, k)
                assert msg.ybar.tobytes() == ybar[i, k].tobytes(), (i, k)
                want = extend(window)[1] if k >= d - 1 else np.zeros((d, d))
                assert want.tobytes() == adj[i, k].tobytes(), (i, k)
    if zeros:
        # the last horizon met a -0.0 in the determinants or adjugates
        assert np.signbit(np.concatenate([delta[delta == 0.0], adj[adj == 0.0]])).any()


@pytest.mark.parametrize("name", ["sec5", "periodic_d3", "table_d5"])
def test_single_run_equals_one_run_chunk(name, request):
    # warm-up only, one window, and past the step (44) from which table_d5's graph holds its last entry
    scenario, seed = request.getfixturevalue(name), 31
    for K in (0, 1, scenario.d, 60):
        res = run_single(scenario, seed=seed, horizon=K)
        sum_err, sum_tilde, m2 = _chunk_sums((scenario, step_tables(scenario, K), (seed,)))
        assert sum_tilde.tobytes() == (res.theta_hat - scenario.theta[None, None, :]).tobytes(), K
        assert sum_err.tobytes() == res.error_norm.tobytes(), K
        assert not m2.any()
    # the longest run covers the protocol: updates, idle steps and a closed gate
    assert res.effective.any() and not res.effective.all()
    assert (res.counters[:, :K] < scenario.d).any()


@pytest.mark.parametrize("name", ["sec5", "periodic_d3", "table_d5", "idle_d1", "in_phase_complete"])
def test_event_kernel_equals_step_loop(name, request):
    scenario = request.getfixturevalue(name)
    full = step_tables(scenario)
    updates_per_sensor = full.effective.sum(axis=1)
    if name == "sec5":
        # sensor 4 runs one step out of phase, so the step loop visits
        # nearly twice as many steps as the kernel makes passes
        assert updates_per_sensor.max() == 166
        assert full.effective.any(axis=0).sum() == 323
    if name == "idle_d1":
        assert updates_per_sensor.tolist()[2] == 0 and updates_per_sensor.max() > 0
    if name == "in_phase_complete":
        assert (full.effective == full.effective[0]).all() and updates_per_sensor.max() > 1
        assert full.members.shape[2] == scenario.n
    for K in sorted({0, 1, scenario.d, scenario.horizon}):
        tables = step_tables(scenario, K)
        for m in (1, 3, 256):
            seeds = tuple(range(900, 900 + m))
            got = _chunk_sums((scenario, tables, seeds))
            want = ref_chunk_sums(scenario, tables, seeds)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (K, m)

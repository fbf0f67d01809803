"""The per-node protocol on Python floats against its array form.

``update_estimate`` and the DREM mixing step accumulate on Python floats.
The references below are the numpy forms they replaced; every result must
match them byte for byte, signed zeros included. The m = 1 chunk engine is
checked against ``run_single`` on scenarios that reach the d = 2, the d = 3
cofactor and the d = 5 elimination paths.
"""

import numpy as np
import pytest

from dremnet.drem import DremMessage, _adj_apply, extend
from dremnet.estimator import NodeState, gate, update_estimate
from dremnet.harness import _chunk_sums, run_single, step_tables


def ref_update_estimate(state, gated, alpha):
    th = state.theta_hat
    num = np.zeros_like(th)
    s = 0.0
    for m in gated:
        num += m.delta * (m.ybar - m.delta * th)
        s += m.delta * m.delta
    if s == 0.0:
        return th.copy()
    return th + (alpha * num) / (state.mu + s)


def ref_adj_apply(adj, stack):
    out = np.zeros(adj.shape[0])
    for r in range(adj.shape[1]):
        out += adj[:, r] * stack[r]
    return out


def signed_zeros(rng, x, p_zero=0.25, p_neg_zero=0.15):
    x = np.array(x, dtype=float)
    x[rng.random(x.shape) < p_zero] = 0.0
    x[rng.random(x.shape) < p_neg_zero] = -0.0
    return x


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
            gated = gate(inbox, state.counter, d)
            alpha = float(rng.uniform(0.01, 1.0))
            got = update_estimate(state, gated, alpha)
            assert got.tobytes() == ref_update_estimate(state, gated, alpha).tobytes()
            closed += state.counter < d
            updated += any(m.delta != 0.0 for m in gated)
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
        assert _adj_apply(adj, stack.tolist()).tobytes() == ref_adj_apply(adj, stack).tobytes()


@pytest.mark.parametrize("name", ["sec5", "periodic_d3", "table_d5"])
def test_single_run_equals_one_run_chunk(name, request):
    scenario = request.getfixturevalue(name)
    seed, K = 31, 40
    res = run_single(scenario, seed=seed, horizon=K)
    sum_err, sum_tilde, m2 = _chunk_sums((scenario, step_tables(scenario, K), (seed,)))
    assert sum_tilde.tobytes() == (res.theta_hat - scenario.theta[None, None, :]).tobytes()
    assert sum_err.tobytes() == res.error_norm.tobytes()
    assert not m2.any()
    # the run covers the protocol: updates, idle steps and a closed gate
    assert res.effective.any() and not res.effective.all()
    assert (res.counters[:, :K] < scenario.d).any()

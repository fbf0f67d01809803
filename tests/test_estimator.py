import math

import numpy as np
import pytest

from dremnet.drem import DremMessage
from dremnet.estimator import (
    GatedMessage,
    HarmonicSchedule,
    NodeState,
    TableSchedule,
    asymptotic_violations,
    gate,
    gated_sum,
    node_step,
    schedule_violations,
    step_size,
    update_counter,
    update_estimate,
)


def msg(sensor, delta, ybar):
    return DremMessage(ybar=np.asarray(ybar, dtype=float), delta_bar=delta, sensor=sensor)


class TestStepSchedules:
    def test_harmonic_values(self):
        s = HarmonicSchedule(c=0.7)
        assert step_size(s, 10) == 0.7 / 10
        assert step_size(s, 0) == 0.7  # k=0 clamp uses max(k, 1)
        assert step_size(s, 7) == 0.7 / 7

    def test_harmonic_clamps_to_one(self):
        s = HarmonicSchedule(c=2.0)
        assert step_size(s, 1) == 1.0
        assert step_size(s, 4) == 0.5

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_harmonic_rejects_bad_coefficient(self, c):
        # a NaN c once passed c <= 0 and gave alpha(k) = 1 at every step
        with pytest.raises(ValueError, match="c must be finite and positive"):
            HarmonicSchedule(c=c)

    def test_table_holds_last(self):
        s = TableSchedule(values=(0.5, 0.25))
        assert step_size(s, 0) == 0.5
        assert step_size(s, 1) == 0.25
        assert step_size(s, 100) == 0.25

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableSchedule(values=())
        with pytest.raises(ValueError):
            TableSchedule(values=(0.5, 0.0))
        with pytest.raises(ValueError):
            TableSchedule(values=(1.5,))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            step_size(HarmonicSchedule(c=0.7), -1)

    def test_violations_clean_harmonic(self):
        assert schedule_violations(HarmonicSchedule(c=0.7), 200) == []

    def test_violations_flag_increase(self):
        s = TableSchedule(values=(0.1, 0.2))
        problems = schedule_violations(s, 5)
        assert len(problems) == 1
        assert "increases" in problems[0]

    def test_asymptotic_harmonic_clean(self):
        assert asymptotic_violations(HarmonicSchedule(c=0.7)) == []

    def test_asymptotic_flags_flat_table(self):
        problems = asymptotic_violations(TableSchedule(values=(1.0,)))
        assert len(problems) == 1
        assert "decay" in problems[0]

    def test_asymptotic_accepts_decaying_table(self):
        vals = tuple(0.7 / k for k in range(1, 1001))
        assert asymptotic_violations(TableSchedule(values=vals)) == []


class TestGate:
    def test_immature_counter_zeroes_deltas(self):
        inbox = [msg(2, 1.0, [1.0, 2.0]), msg(1, -0.5, [0.0, 0.0])]
        gated = gate(inbox, counter=1, d=2)
        assert [m.delta for m in gated] == [0.0, 0.0]
        # payloads untouched
        assert np.array_equal(gated[1].ybar, [1.0, 2.0])

    def test_mature_counter_passes_through(self):
        inbox = [msg(3, -1.0, [0.5]), msg(1, 1.0, [2.0]), msg(2, 0.0, [9.0])]
        gated = gate(inbox, counter=2, d=2)
        assert [m.sensor for m in gated] == [1, 2, 3]
        assert [m.delta for m in gated] == [1.0, 0.0, -1.0]

    def test_self_only_inbox(self):
        gated = gate([msg(4, 2.0, [1.0])], counter=5, d=2)
        assert len(gated) == 1 and gated[0].delta == 2.0


class TestUpdate:
    def test_hand_value(self):
        # one member: delta=1, ybar=2.5, theta=0, alpha=0.5, mu=0.1
        # step = 0.5 * (1 * 2.5) / (0.1 + 1) = 1.25/1.1
        state = NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1)
        gated = (GatedMessage(ybar=np.array([2.5]), delta=1.0, sensor=1),)
        out = update_estimate(state, gated, alpha=0.5)
        assert out[0] == 1.1363636363636362

    def test_all_zero_deltas_leave_estimate(self):
        state = NodeState(theta_hat=np.array([1.0, -2.0]), counter=0, mu=0.1)
        gated = (
            GatedMessage(ybar=np.array([5.0, 5.0]), delta=0.0, sensor=1),
            GatedMessage(ybar=np.array([3.0, 3.0]), delta=0.0, sensor=2),
        )
        out = update_estimate(state, gated, alpha=1.0)
        assert np.array_equal(out, state.theta_hat)
        assert out is not state.theta_hat  # fresh array

    def test_exact_fixed_point(self):
        # ybar = delta * theta_hat leaves the estimate exactly unchanged
        theta = np.array([2.5, -1.0])
        state = NodeState(theta_hat=theta, counter=2, mu=0.1)
        gated = (
            GatedMessage(ybar=2.0 * theta, delta=2.0, sensor=1),
            GatedMessage(ybar=-0.5 * theta, delta=-0.5, sensor=2),
        )
        out = update_estimate(state, gated, alpha=0.3)
        assert np.array_equal(out, theta)

    def test_channels_independent(self):
        # permuting channels permutes the result; the update is channelwise
        state1 = NodeState(theta_hat=np.array([0.2, -0.4]), counter=2, mu=0.3)
        state2 = NodeState(theta_hat=state1.theta_hat[::-1].copy(), counter=2, mu=0.3)
        g1 = (GatedMessage(ybar=np.array([1.0, 2.0]), delta=0.7, sensor=1),)
        g2 = (GatedMessage(ybar=np.array([2.0, 1.0]), delta=0.7, sensor=1),)
        out1 = update_estimate(state1, g1, alpha=0.25)
        out2 = update_estimate(state2, g2, alpha=0.25)
        assert np.array_equal(out1, out2[::-1])

    def test_alpha_validated(self):
        state = NodeState(theta_hat=np.zeros(1), counter=0, mu=0.1)
        with pytest.raises(ValueError):
            update_estimate(state, (), alpha=0.0)
        with pytest.raises(ValueError):
            update_estimate(state, (), alpha=1.5)


class TestCounter:
    def test_reset_on_effective_update(self):
        assert update_counter(2, 1.0, d=2) == 0

    def test_tick_when_sum_zero(self):
        assert update_counter(2, 0.0, d=2) == 3

    def test_tick_when_immature(self):
        assert update_counter(0, 0.0, d=2) == 1
        # a nonzero sum cannot occur with counter < d (gate zeroes it),
        # but the reset condition still requires maturity on its own
        assert update_counter(1, 1.0, d=2) == 2

    def test_tiny_nonzero_sum_resets(self):
        assert update_counter(3, 1e-300, d=2) == 0


class TestNodeStep:
    def test_warm_up_is_inert(self):
        state = NodeState(theta_hat=np.zeros(2), counter=0, mu=0.1)
        own = msg(1, 0.0, [0.0, 0.0])
        nxt, effective = node_step(state, 0, own, [], HarmonicSchedule(c=0.7), d=2)
        assert not effective
        assert np.array_equal(nxt.theta_hat, state.theta_hat)
        assert nxt.counter == 1

    def test_update_spacing(self):
        # always-excited synthetic stream: effective steps come every d+1
        d = 2
        state = NodeState(theta_hat=np.zeros(1), counter=0, mu=0.1)
        schedule = HarmonicSchedule(c=0.7)
        effective_steps = []
        for k in range(20):
            own = msg(1, 1.0, [2.5])
            state, eff = node_step(state, k, own, [], schedule, d)
            if eff:
                effective_steps.append(k)
        assert effective_steps == [2, 5, 8, 11, 14, 17]
        gaps = np.diff(effective_steps)
        assert np.all(gaps == d + 1)

    def test_neighbors_join_update(self):
        state = NodeState(theta_hat=np.zeros(1), counter=2, mu=0.1)
        own = msg(1, 1.0, [2.5])
        incoming = [msg(2, 1.0, [2.5])]
        nxt, eff = node_step(state, 4, own, incoming, TableSchedule(values=(0.5,)), d=2)
        assert eff
        # two identical members: 0.5 * (2 * 2.5) / (0.1 + 2)
        assert nxt.theta_hat[0] == pytest.approx(2.5 / 2.1, rel=1e-12)
        assert nxt.counter == 0


class TestState:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.zeros(2), counter=0, mu=0.0)
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.zeros(2), counter=-1, mu=0.1)
        with pytest.raises(ValueError):
            NodeState(theta_hat=np.array([np.nan]), counter=0, mu=0.1)

    def test_gated_sum(self):
        gated = (
            GatedMessage(ybar=np.zeros(1), delta=2.0, sensor=1),
            GatedMessage(ybar=np.zeros(1), delta=-1.0, sensor=2),
        )
        assert gated_sum(gated) == 5.0
        assert gated_sum(()) == 0.0
